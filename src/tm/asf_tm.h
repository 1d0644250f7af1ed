// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// ASF-TM: the paper's TM runtime implementing the TM ABI on ASF (Sec. 3.2).
//
// Execution model per atomic block:
//   1. "Transaction begin" combines a software register checkpoint (setjmp
//      analog; ASF only restores rIP/rSP) with SPECULATE, then immediately
//      LOCK-MOV-reads the serial-mode lock word so that any thread entering
//      serial-irrevocable mode aborts every in-flight hardware transaction.
//   2. The body runs with LOCK MOV-annotated accesses for shared data only
//      (selective annotation: stack and runtime-local data stay plain).
//   3. COMMIT publishes; aborts resume after SPECULATE, which the runtime
//      surfaces as the retry loop observing the abort cause. Steps 1-3 and
//      the retries are the shared attempt loop (attempt_loop.h); ASF-TM
//      supplies the serial lock word, its instruction counts, the wait for
//      a serializer to drain, and step 4.
//   4. Fallback policy (paper Sec. 3.2): capacity overflows and allocator-
//      refill aborts switch the transaction to serial-irrevocable mode, as
//      does exceeding the contention retry budget; contention uses
//      exponential backoff; page faults and interrupts retry in hardware
//      (the fault has been serviced / the tick has passed).
//
// Serial-irrevocable mode takes a global lock word that every hardware
// transaction monitors; waiting transactions spin (with sleep) outside any
// speculative region.
#ifndef SRC_TM_ASF_TM_H_
#define SRC_TM_ASF_TM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/asf/machine.h"
#include "src/sim/sync.h"
#include "src/tm/contention_policy.h"
#include "src/tm/attempt_loop.h"
#include "src/tm/tm_api.h"

namespace asftm {

struct AsfTmParams {
  // Contention retries in hardware before switching to serial mode.
  uint32_t max_contention_retries = 8;
  // Exponential backoff: base << min(retry, cap) cycles, randomized.
  uint64_t backoff_base_cycles = 64;
  uint32_t backoff_shift_cap = 8;
  // Modeled instruction counts of the runtime's software paths (the ABI
  // glue around the raw ASF instructions; Table 1 attributes these to
  // "Tx start/commit"). Values reflect the statically-linked, link-time-
  // optimized configuration the paper evaluates.
  uint32_t begin_instructions = 35;   // Checkpoint registers, save stack mark.
  uint32_t commit_instructions = 12;  // Mode bookkeeping around COMMIT.
  uint32_t barrier_instructions = 2;  // Per-access ABI dispatch (inlined).
  uint32_t alloc_instructions = 12;   // Bump-allocator fast path.
  // Whether capacity aborts go straight to serial mode (the paper's policy)
  // or retry in hardware first (the "retry and hope" alternative it
  // discusses; exposed for the ablation bench).
  bool capacity_goes_serial = true;
  uint64_t rng_seed = 0x5EED;
  // Contention management. Null constructs the default exponential-backoff
  // policy from the knobs above; kSerialize decisions enter
  // serial-irrevocable mode.
  std::shared_ptr<ContentionPolicy> policy;
};

class AsfTm : public TmRuntime {
 public:
  AsfTm(asf::Machine& machine, const AsfTmParams& params = AsfTmParams());
  ~AsfTm() override;

  std::string name() const override;
  using TmRuntime::Atomic;
  asfsim::Task<void> Atomic(asfsim::SimThread& thread, uint32_t site, BodyFn body) override;
  const TxStats& stats(uint32_t thread_id) const override { return threads_[thread_id]->stats; }
  TxStats TotalStats() const override { return SumThreadStats(threads_); }
  void ResetStats() override { ResetThreadStats(threads_); }

  // Total allocator refills across threads (diagnostics).
  uint64_t TotalRefills() const;

 private:
  friend class AsfSerialTx;

  struct SerialUndoEntry {
    uint64_t addr;
    uint32_t size;
    uint64_t old_value;
  };

  struct PerThread : TmThread {
    using TmThread::TmThread;
    // Undo log for serial mode: the serial token serializes all
    // transactions, but language-level cancel (Tx::UserAbort) must still be
    // able to roll the attempt back (GCC libitm's "serial" vs
    // "serial-irrevocable" distinction).
    std::vector<SerialUndoEntry> serial_undo;
  };

  struct alignas(asfcommon::kCacheLineBytes) SerialLock {
    uint64_t word = 0;
  };

  // The pre-speculation wait: sleeps until no serializer holds the lock.
  asfsim::Task<bool> AwaitSerialFree(asfsim::SimThread& t);
  asfsim::Task<void> RunSerial(asfsim::SimThread& t, PerThread& pt, const BodyFn& body,
                               uint32_t retry);
  asfsim::Task<void> SerialBody(asfsim::SimThread& t, PerThread& pt, const BodyFn& body);

  asf::Machine& machine_;
  const AsfTmParams params_;
  SerialLock* serial_lock_;  // Arena-allocated (deterministic address).
  AttemptLoop loop_;
  asfsim::SimMutex serial_mutex_;
  std::vector<std::unique_ptr<PerThread>> threads_;
};

}  // namespace asftm

#endif  // SRC_TM_ASF_TM_H_
