// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// The hardware-attempt loop of ASF-TM, PhasedTM and lock elision: the one
// implementation of their progress contract — retry the block in hardware
// under the contention policy, then take a fallback no adversary can abort
// (Kuznetsov & Ravi, arXiv 1502.02725). It owns the policy calls, the
// hw_attempts/hw_commits/aborts[] counters, the core's attempt accounting,
// the attempt and backoff lifecycle events, the allocator's attempt
// lifecycle and the mechanism causes (kRestartSerial re-waits, kUserAbort
// ends the block, kMallocRefill refills nonspeculatively). An attempt is:
// begin instructions, SPECULATE, LOCK MOV of the monitored word (nonzero
// aborts with kRestartSerial), the body, commit instructions, COMMIT.
//
// A runtime supplies only what differs (Spec) and runs its own fallback
// when Run returns kFallback: serial-irrevocable mode, the STM phase, or
// the real lock.
#ifndef SRC_TM_HW_ATTEMPT_LOOP_H_
#define SRC_TM_HW_ATTEMPT_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/asf/machine.h"
#include "src/obs/tx_event.h"
#include "src/tm/contention_policy.h"
#include "src/tm/tm_stats.h"
#include "src/tm/tx_allocator.h"

namespace asftm {

// Per-thread state the loop reads and updates; the runtimes keep one per
// core (ASF-TM extends it with its serial-mode undo log).
struct HwThread {
  explicit HwThread(asfcommon::SimArena* arena) : alloc(arena) {}
  TxStats stats;
  TxAllocator alloc;
  // Allocation size that aborted the attempt with kMallocRefill (set by the
  // runtime's TxMalloc before it aborts the region).
  uint64_t refill_bytes = 0;
};

class HwAttemptLoop {
 public:
  // Waits until speculating can succeed. False leaves Run with kDeclined
  // without an attempt (PhasedTM outside the hardware phase).
  using WaitFn = std::function<asfsim::Task<bool>(asfsim::SimThread&)>;
  // Runs the block's body inside the region with the runtime's Tx handle.
  using AttemptFn = std::function<asfsim::Task<void>()>;

  // What each runtime supplies.
  struct Spec {
    // Null builds the exponential-backoff policy from `default_policy`.
    std::shared_ptr<ContentionPolicy> policy;
    ExpBackoffParams default_policy;
    asfobs::TxMode mode = asfobs::TxMode::kHardware;  // kHardware or kElision.
    // Serial lock, phase word or lock word: its store aborts every attempt.
    const uint64_t* monitored_word = nullptr;
    uint32_t begin_instructions = 0;
    uint32_t commit_instructions = 0;
    WaitFn wait;
  };

  enum class Outcome : uint8_t {
    kCommitted,  // Committed in hardware.
    kCancelled,  // Tx::UserAbort: the block is over, no retry.
    kFallback,   // The policy said serialize: run the runtime's fallback.
    kDeclined,   // The wait declined to speculate.
  };

  // One atomic block's progress. It outlives a single Run: PhasedTM leaves
  // the loop for its software phase and may come back for the same block.
  struct Block {
    uint32_t site = 0;
    uint32_t aborted = 0;  // Lifecycle retry ordinal: aborted attempts so far.
  };

  HwAttemptLoop(asf::Machine& machine, Spec spec);

  // Counts the block as started and resets the policy's per-block state.
  Block StartBlock(asfsim::SimThread& t, HwThread& pt, uint32_t site);

  // Attempts the block in hardware until it commits, is cancelled, the
  // policy asks for the fallback, or the wait declines.
  asfsim::Task<Outcome> Run(asfsim::SimThread& t, HwThread& pt, Block& block,
                            const AttemptFn& body);

 private:
  // `rs`/`ws` receive the protected-set sizes just before COMMIT (the commit
  // clears the ASF context), for the TxCommit lifecycle event.
  asfsim::Task<void> Attempt(asfsim::SimThread& t, HwThread& pt, const AttemptFn& body,
                             uint64_t* rs, uint64_t* ws);

  asf::Machine& machine_;
  const std::shared_ptr<ContentionPolicy> policy_;
  const Spec spec_;
};

}  // namespace asftm

#endif  // SRC_TM_HW_ATTEMPT_LOOP_H_
