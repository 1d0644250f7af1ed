// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Speculative lock elision on ASF (paper Sec. 3: "our software stack also
// supports existing software with the help of lock elision [Rajwar &
// Goodman]").
//
// An ElidableLock lets lock-based critical sections run concurrently as ASF
// speculative regions: Acquire() starts a region and LOCK-MOV-reads the lock
// word instead of writing it — the lock stays visibly free, so other elided
// sections proceed in parallel, while any real acquisition (the fallback
// path) writes the word and thereby aborts all elisions monitoring it.
// Release() commits the region. The ContentionPolicy decides when a section
// stops eliding and takes the lock for real (its kSerialize action).
//
// The critical-section body must use transactional accesses for shared data
// (the LOCK MOV annotation a compiler would emit under elision). Elided
// attempts run in the shared attempt loop (attempt_loop.h), which monitors
// the lock word; the lock supplies only its wait (sleep until the word is
// free) and its fallback, RunLocked.
//
// ElisionTm wraps one ElidableLock behind the TmRuntime interface — every
// atomic block becomes a critical section on the single lock — so the
// harnesses and the fault-injection stress tests can drive lock elision
// through the same ABI as the TM runtimes.
#ifndef SRC_TM_LOCK_ELISION_H_
#define SRC_TM_LOCK_ELISION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/asf/machine.h"
#include "src/sim/sync.h"
#include "src/tm/contention_policy.h"
#include "src/tm/attempt_loop.h"
#include "src/tm/tm_api.h"

namespace asftm {

struct ElisionParams {
  uint32_t max_elision_retries = 4;  // Then take the lock for real.
  uint64_t backoff_base_cycles = 64;
  uint64_t rng_seed = 0xE11DE;
  // Disables elision entirely (plain lock; the comparison baseline).
  bool always_acquire = false;
  // Contention management. Null constructs the default exponential-backoff
  // policy from the knobs above; kSerialize decisions take the real lock.
  std::shared_ptr<ContentionPolicy> policy;
};

class ElidableLock {
 public:
  ElidableLock(asf::Machine& machine, const ElisionParams& params = ElisionParams());
  // The loop's wait callback holds this lock's address.
  ElidableLock(const ElidableLock&) = delete;
  ElidableLock& operator=(const ElidableLock&) = delete;

  // The critical-section body; runs speculatively (elided) or under the real
  // lock. `elided` tells the body which mode it is in (it must use
  // transactional accesses when elided; plain accesses are fine when held).
  using Body = std::function<asfsim::Task<void>(bool elided)>;

  // Executes `body` as a critical section protected by this lock, eliding
  // when possible. `site` is the section's static site id, forwarded to the
  // contention policy (0 = unattributed).
  asfsim::Task<void> CriticalSection(asfsim::SimThread& t, Body body, uint32_t site = 0);

  // Statistics of this lock's critical sections: elided attempts count as
  // hardware ones, real acquisitions as serial ones.
  TxStats TotalStats() const { return SumThreadStats(threads_); }

 private:
  friend class ElisionTm;

  struct alignas(asfcommon::kCacheLineBytes) LockWord {
    uint64_t word = 0;
  };

  // The section's body under the real lock.
  using LockedFn = std::function<asfsim::Task<void>()>;

  // ElisionTm's lock: the loop's Tx charges the runtime's barrier and
  // allocation instruction counts while elided.
  ElidableLock(asf::Machine& machine, const ElisionParams& params,
               uint32_t barrier_instructions, uint32_t alloc_instructions);

  // The critical section on caller-owned per-thread state (ElisionTm's, whose
  // allocator serves Tx::TxMalloc and whose stats are the runtime's):
  // `elided` runs in the loop on its hardware Tx, `locked` under the lock.
  asfsim::Task<void> Section(asfsim::SimThread& t, TmThread& pt, uint32_t site,
                             const BodyFn& elided, const LockedFn& locked);
  // The pre-speculation wait: sleeps until the lock word is free.
  asfsim::Task<bool> AwaitFree(asfsim::SimThread& t);
  // The fallback: takes the lock for real (the store aborts every concurrent
  // elision), runs `locked`, releases.
  asfsim::Task<void> RunLocked(asfsim::SimThread& t, TmThread& pt, const LockedFn& locked);

  asf::Machine& machine_;
  const ElisionParams params_;
  LockWord* lock_word_;        // Arena-allocated; monitored by elisions.
  AttemptLoop loop_;
  asfsim::SimMutex fallback_;  // Queue discipline for real acquisitions.
  // Per-thread state of CriticalSection callers. Their allocators are never
  // refilled: a raw section body has no Tx handle to allocate through.
  std::vector<std::unique_ptr<TmThread>> threads_;
};

struct ElisionTmParams {
  ElisionParams lock;
  // Modeled instruction counts matching the other runtimes' software paths.
  uint32_t barrier_instructions = 2;
  uint32_t alloc_instructions = 12;
};

// Lock elision behind the TmRuntime ABI: one global elidable lock, every
// atomic block a critical section on it. Elided attempts count as hardware
// attempts/commits, real acquisitions as serial ones (taking the lock *is*
// serialization), so the stats-conservation invariant (attempts = commits +
// aborts) holds like for the other runtimes. Tx::UserAbort is supported only
// while elided; under the real lock there is no rollback mechanism.
class ElisionTm : public TmRuntime {
 public:
  ElisionTm(asf::Machine& machine, const ElisionTmParams& params = ElisionTmParams());
  ~ElisionTm() override;

  std::string name() const override;
  using TmRuntime::Atomic;
  asfsim::Task<void> Atomic(asfsim::SimThread& thread, uint32_t site, BodyFn body) override;
  const TxStats& stats(uint32_t thread_id) const override { return threads_[thread_id]->stats; }
  TxStats TotalStats() const override { return SumThreadStats(threads_); }
  void ResetStats() override { ResetThreadStats(threads_); }

 private:
  friend class ElisionTx;

  asf::Machine& machine_;
  const ElisionTmParams params_;
  ElidableLock lock_;
  std::vector<std::unique_ptr<TmThread>> threads_;
};

}  // namespace asftm

#endif  // SRC_TM_LOCK_ELISION_H_
