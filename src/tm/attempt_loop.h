// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// The attempt loop of every speculative runtime — ASF-TM, PhasedTM, lock
// elision and TinySTM: the one implementation of their progress contract,
// retry the block under the contention policy, then take a fallback no
// adversary can abort (Kuznetsov & Ravi, arXiv 1502.02725). It owns the
// policy calls, the attempts/commits/aborts[] counters, the core's attempt
// accounting, the attempt and backoff lifecycle events, the allocator's
// attempt lifecycle and the mechanism causes (kRestartSerial re-waits,
// kUserAbort ends the block, kMallocRefill refills nonspeculatively).
//
// A hardware attempt is: begin instructions, SPECULATE, LOCK MOV of the
// monitored word (nonzero aborts with kRestartSerial), the body on the
// loop's hardware Tx (barriers map 1:1 onto LOCK MOV / RELEASE), commit
// instructions, COMMIT. A software attempt is the runtime's own (TinySTM's
// begin, body and commit).
//
// A runtime supplies only what differs (Spec): its mode, policy seeding,
// monitored word, instruction counts, pre-speculation wait and, in software
// mode, its attempt. It runs its own fallback when Run returns kFallback:
// serial-irrevocable mode, the STM phase, or the real lock. TinySTM has no
// fallback: in kStm mode a kSerialize decision retries at once.
#ifndef SRC_TM_ATTEMPT_LOOP_H_
#define SRC_TM_ATTEMPT_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/asf/machine.h"
#include "src/obs/tx_event.h"
#include "src/tm/contention_policy.h"
#include "src/tm/tm_api.h"
#include "src/tm/tm_stats.h"
#include "src/tm/tx_allocator.h"

namespace asftm {

// Per-thread state the loop reads and updates; the runtimes keep one per
// core (ASF-TM extends it with its serial-mode undo log, TinySTM with its
// read timestamp and logs).
struct TmThread {
  explicit TmThread(asfcommon::SimArena* arena) : alloc(arena) {}
  TxStats stats;
  TxAllocator alloc;
  // Allocation size that aborted the attempt with kMallocRefill (set by the
  // hardware Tx's TxMalloc before it aborts the region).
  uint64_t refill_bytes = 0;
  // Set sizes the attempt's kTxCommit/kTxAbort events carry, zeroed at each
  // attempt start. TinySTM's read/write log entries, which survive an abort;
  // a hardware attempt's protected-set lines, set only once COMMIT succeeds.
  uint64_t read_count = 0;
  uint64_t write_count = 0;
};

class AttemptLoop {
 public:
  // Waits until speculating can succeed. False leaves Run with kDeclined
  // without an attempt (PhasedTM outside the hardware phase).
  using WaitFn = std::function<asfsim::Task<bool>(asfsim::SimThread&)>;
  // One software attempt of the block; aborts unwind it.
  using AttemptFn =
      std::function<asfsim::Task<void>(asfsim::SimThread&, TmThread&, const BodyFn&)>;

  // What each runtime supplies.
  struct Spec {
    // Null builds the exponential-backoff policy from `default_policy`.
    std::shared_ptr<ContentionPolicy> policy;
    ExpBackoffParams default_policy;
    // kHardware or kElision attempt in hardware and count hw_*; kStm runs
    // `attempt` and counts stm_*.
    asfobs::TxMode mode = asfobs::TxMode::kHardware;
    // Hardware: the serial lock, phase word or lock word; its store aborts
    // every attempt.
    const uint64_t* monitored_word = nullptr;
    // Hardware: modeled instructions of the begin/commit paths and of the
    // Tx's barriers (RELEASE has its own count: ASF-TM charges a barrier,
    // PhasedTM and elision charge none).
    uint32_t begin_instructions = 0;
    uint32_t commit_instructions = 0;
    uint32_t barrier_instructions = 0;
    uint32_t release_instructions = 0;
    uint32_t alloc_instructions = 0;
    // Null: no pre-speculation wait.
    WaitFn wait = nullptr;
    // kStm: the software attempt.
    AttemptFn attempt = nullptr;
  };

  enum class Outcome : uint8_t {
    kCommitted,  // Committed.
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

  AttemptLoop(asf::Machine& machine, Spec spec);

  // Counts the block as started and resets the policy's per-block state.
  Block StartBlock(asfsim::SimThread& t, TmThread& pt, uint32_t site);

  // Attempts the block until it commits, is cancelled, the policy asks for
  // the fallback, or the wait declines.
  asfsim::Task<Outcome> Run(asfsim::SimThread& t, TmThread& pt, Block& block,
                            const BodyFn& body);

 private:
  friend class HwTx;

  asfsim::Task<void> HwAttempt(asfsim::SimThread& t, TmThread& pt, const BodyFn& body);

  asf::Machine& machine_;
  const std::shared_ptr<ContentionPolicy> policy_;
  const Spec spec_;
};

}  // namespace asftm

#endif  // SRC_TM_ATTEMPT_LOOP_H_
