// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// The TM runtime interface used by all workloads — our analog of the Intel
// TM ABI the paper's DTMC targets (Sec. 3.1).
//
// Workload code is written once against Tx (the per-attempt transaction
// handle) and TmRuntime::Atomic (the transaction-statement driver); which
// runtime executes it — ASF hardware path, serial-irrevocable fallback,
// TinySTM, or uninstrumented sequential — is a runtime decision, exactly the
// property the ABI exists for ("the same binary code runs on machines
// regardless of whether they support ASF"). The virtual dispatch here plays
// the role of the ABI's function-pointer dispatch tables; the runtimes
// charge the corresponding call-overhead cycles, and shrinking that cost
// models the paper's static-linking + link-time-optimization configuration.
#ifndef SRC_TM_TM_API_H_
#define SRC_TM_TM_API_H_

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "src/common/defs.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/tm/tm_stats.h"

namespace asftm {

// Per-attempt transaction handle. A fresh Tx view is passed to the atomic
// block body on every attempt; its dynamic type encodes the execution mode.
class Tx {
 public:
  explicit Tx(asfsim::SimThread& thread) : thread_(thread) {}
  virtual ~Tx() = default;

  asfsim::SimThread& thread() { return thread_; }

  // Charges `instructions` of application compute to the current cycle
  // category (instrumented app code while inside the body).
  void Work(uint64_t instructions) { thread_.core().WorkInstructions(instructions); }

  // True in serial-irrevocable mode (the body may then perform actions that
  // cannot be rolled back).
  virtual bool irrevocable() const { return false; }

  // Monitored read barrier: returns the value read (size <= 8 bytes,
  // little-endian). The barrier captures the value itself so that software
  // TMs can re-validate their metadata *after* the data load — returning a
  // pointer dereference to the caller instead would open a dirty-read window
  // against writers that subsequently abort.
  virtual asfsim::Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size) = 0;

  // Transactional store of `value` (size <= 8 bytes).
  virtual asfsim::Task<void> WriteBarrier(uint64_t addr, uint32_t size, uint64_t value) = 0;

  // Early-release hint: drop [addr, addr+size) from the read set (maps to
  // ASF RELEASE; a no-op for runtimes without the capability).
  virtual asfsim::Task<void> ReleaseBarrier(uint64_t addr, uint32_t size);

  // Transaction-safe allocation: memory becomes permanent on commit and is
  // reclaimed if the transaction aborts.
  virtual asfsim::Task<void*> TxMalloc(uint64_t bytes) = 0;

  // Transaction-safe free: deferred until the transaction commits.
  virtual asfsim::Task<void> TxFree(void* p) = 0;

  // Explicit transaction cancel (language-level abort). Never resumes.
  virtual asfsim::Task<void> UserAbort() = 0;

  // --- Typed convenience wrappers -----------------------------------------
  // These add no coroutine frame of their own: Read returns an awaiter over
  // the virtual barrier's Task, Write and Release return that Task itself.
  // The barrier frame is owned by the awaited temporary, which lives in the
  // awaiting coroutine's frame, so an abort unwind that destroys the
  // awaiting frame mid-barrier destroys the barrier frame with it.
  template <typename T>
  class ReadAwaiter {
   public:
    explicit ReadAwaiter(asfsim::Task<uint64_t> barrier) : barrier_(std::move(barrier)) {}
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) noexcept {
      barrier_.SetContinuation(awaiting);
      return barrier_.handle();
    }
    T await_resume() noexcept {
      T out;
      std::memcpy(&out, &barrier_.handle().promise().value, sizeof(T));
      return out;
    }

   private:
    asfsim::Task<uint64_t> barrier_;
  };

  template <typename T>
  ReadAwaiter<T> Read(const T* p) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
    return ReadAwaiter<T>(ReadBarrier(reinterpret_cast<uint64_t>(p), sizeof(T)));
  }

  template <typename T>
  asfsim::Task<void> Write(T* p, T v) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
    uint64_t raw = 0;
    std::memcpy(&raw, &v, sizeof(T));
    return WriteBarrier(reinterpret_cast<uint64_t>(p), sizeof(T), raw);
  }

  template <typename T>
  asfsim::Task<void> Release(const T* p) {
    return ReleaseBarrier(reinterpret_cast<uint64_t>(p), sizeof(T));
  }

  template <typename T>
  asfsim::Task<T*> Alloc() {
    void* p = co_await TxMalloc(sizeof(T));
    co_return new (p) T();
  }

 private:
  asfsim::SimThread& thread_;
};

// The body of an atomic block; invoked once per attempt with the attempt's
// transaction handle.
using BodyFn = std::function<asfsim::Task<void>(Tx&)>;

// A TM runtime implementing the ABI for one execution strategy.
class TmRuntime {
 public:
  virtual ~TmRuntime() = default;

  virtual std::string name() const = 0;

  // Executes one atomic block on `thread`: runs `body` under the runtime's
  // concurrency-control algorithm until it commits (or is cancelled by
  // Tx::UserAbort). `site` is the static id of the atomic block in the
  // program — the analog of the ABI's per-statement descriptor — forwarded
  // to the contention policy so site-keyed policies (adaptive) can learn
  // per-block behavior. Site 0 is "unattributed"; ids are dense small
  // integers chosen by the workload.
  //
  // NOTE for implementers: overriding the 3-arg virtual hides the 2-arg
  // convenience below — add `using TmRuntime::Atomic;` in the derived class.
  virtual asfsim::Task<void> Atomic(asfsim::SimThread& thread, uint32_t site, BodyFn body) = 0;

  // Convenience: an unattributed block (site 0).
  asfsim::Task<void> Atomic(asfsim::SimThread& thread, BodyFn body) {
    return Atomic(thread, 0, std::move(body));
  }

  // Per-thread statistics and the aggregate across threads.
  virtual const TxStats& stats(uint32_t thread_id) const = 0;
  virtual TxStats TotalStats() const = 0;
  virtual void ResetStats() = 0;
};

inline asfsim::Task<void> Tx::ReleaseBarrier(uint64_t addr, uint32_t size) {
  co_return;  // Hint only; runtimes without early release ignore it.
}

}  // namespace asftm

#endif  // SRC_TM_TM_API_H_
