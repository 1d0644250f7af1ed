// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Reference runtimes:
//
//  * SequentialTm — uninstrumented execution, no synchronization. This is
//    the paper's "sequential" baseline (the horizontal bars in Figure 4 and
//    the "Sequential" series in Figure 3); meaningful for one thread only.
//  * GlobalLockTm — every atomic block takes one global lock. Not evaluated
//    in the paper's figures, but the natural lock-based reference point the
//    introduction argues against; used by the ablation bench and examples.
#ifndef SRC_TM_SERIAL_TM_H_
#define SRC_TM_SERIAL_TM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/asf/machine.h"
#include "src/sim/sync.h"
#include "src/tm/tm_api.h"
#include "src/tm/tx_allocator.h"

namespace asftm {

class SequentialTm : public TmRuntime {
 public:
  explicit SequentialTm(asf::Machine& machine);
  ~SequentialTm() override;

  std::string name() const override { return "Sequential"; }
  using TmRuntime::Atomic;
  asfsim::Task<void> Atomic(asfsim::SimThread& thread, uint32_t site, BodyFn body) override;
  const TxStats& stats(uint32_t thread_id) const override { return threads_[thread_id]->stats; }
  TxStats TotalStats() const override { return SumThreadStats(threads_); }
  void ResetStats() override { ResetThreadStats(threads_); }

 private:
  friend class SeqTx;

  struct PerThread {
    explicit PerThread(asfcommon::SimArena* arena) : alloc(arena) {}
    TxStats stats;
    TxAllocator alloc;
  };

  asf::Machine& machine_;
  std::vector<std::unique_ptr<PerThread>> threads_;
};

class GlobalLockTm : public TmRuntime {
 public:
  explicit GlobalLockTm(asf::Machine& machine);
  ~GlobalLockTm() override;

  std::string name() const override { return "Global lock"; }
  using TmRuntime::Atomic;
  asfsim::Task<void> Atomic(asfsim::SimThread& thread, uint32_t site, BodyFn body) override;
  const TxStats& stats(uint32_t thread_id) const override { return threads_[thread_id]->stats; }
  TxStats TotalStats() const override { return SumThreadStats(threads_); }
  void ResetStats() override { ResetThreadStats(threads_); }

 private:
  struct PerThread {
    explicit PerThread(asfcommon::SimArena* arena) : alloc(arena) {}
    TxStats stats;
    TxAllocator alloc;
  };
  struct alignas(asfcommon::kCacheLineBytes) LockWord {
    uint64_t word = 0;
  };

  asf::Machine& machine_;
  LockWord* lock_word_;
  asfsim::SimMutex mutex_;
  std::vector<std::unique_ptr<PerThread>> threads_;
};

}  // namespace asftm

#endif  // SRC_TM_SERIAL_TM_H_
