// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/attempt_loop.h"

#include <cstring>
#include <utility>

#include "src/tm/tx_observe.h"

namespace asftm {

using asfcommon::AbortCause;
using asfobs::TxEventKind;
using asfobs::TxMode;
using asfsim::AccessKind;
using asfsim::CategoryGuard;
using asfsim::Core;
using asfsim::CycleCategory;
using asfsim::SimThread;
using asfsim::Task;

// Transaction handle of a hardware attempt: barriers map 1:1 onto LOCK MOV /
// RELEASE.
class HwTx : public Tx {
 public:
  HwTx(AttemptLoop& loop, SimThread& t, TmThread& pt) : Tx(t), loop_(loop), pt_(pt) {}

  Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(loop_.spec_.barrier_instructions);
    co_await t.Access(AccessKind::kTxLoad, addr, size);
    // Safe to read host directly: the line is monitored, so any conflicting
    // remote write would have aborted this region before we resumed.
    uint64_t v = 0;
    std::memcpy(&v, reinterpret_cast<const void*>(addr), size);
    co_return v;
  }

  Task<void> WriteBarrier(uint64_t addr, uint32_t size, uint64_t value) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(loop_.spec_.barrier_instructions);
    co_await t.Store(AccessKind::kTxStore, addr, size, value);
  }

  Task<void> ReleaseBarrier(uint64_t addr, uint32_t size) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(loop_.spec_.release_instructions);
    co_await t.Access(AccessKind::kRelease, addr, size);
  }

  Task<void*> TxMalloc(uint64_t bytes) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxNonInstr);
    t.core().WorkInstructions(loop_.spec_.alloc_instructions);
    void* p = pt_.alloc.TryAlloc(bytes);
    if (p == nullptr) {
      // Refilling needs the default allocator (heap growth = system call);
      // not abort-safe inside a region. Abort; the loop refills
      // nonspeculatively.
      pt_.refill_bytes = bytes;
      co_await loop_.machine_.AbortRegion(t, AbortCause::kMallocRefill);
    }
    co_return p;
  }

  Task<void> TxFree(void* p) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxNonInstr);
    t.core().WorkInstructions(4);
    pt_.alloc.DeferFree(p);
    co_return;
  }

  Task<void> UserAbort() override {
    co_await loop_.machine_.AbortRegion(thread(), AbortCause::kUserAbort);
  }

 private:
  AttemptLoop& loop_;
  TmThread& pt_;
};

AttemptLoop::AttemptLoop(asf::Machine& machine, Spec spec)
    : machine_(machine),
      policy_(spec.policy != nullptr ? spec.policy : MakeExpBackoffPolicy(spec.default_policy)),
      spec_(std::move(spec)) {
  ASF_CHECK_MSG((spec_.mode == TxMode::kStm) == (spec_.attempt != nullptr),
                "AttemptLoop: a software attempt exactly in kStm mode");
}

AttemptLoop::Block AttemptLoop::StartBlock(SimThread& t, TmThread& pt, uint32_t site) {
  ++pt.stats.tx_started;
  policy_->OnBlockStart(t.id(), site);
  return Block{site, 0};
}

Task<void> AttemptLoop::HwAttempt(SimThread& t, TmThread& pt, const BodyFn& body) {
  Core& core = t.core();
  {
    CategoryGuard g(core, CycleCategory::kTxStartCommit);
    core.WorkInstructions(spec_.begin_instructions);
    co_await t.Access(AccessKind::kSpeculate, uint64_t{0}, 1);
    co_await t.Access(AccessKind::kTxLoad, spec_.monitored_word, 8);
    if (*spec_.monitored_word != 0) {
      // The fallback raced past the wait; step aside and re-wait.
      co_await machine_.AbortRegion(t, AbortCause::kRestartSerial);
    }
  }
  {
    CategoryGuard g(core, CycleCategory::kTxAppCode);
    HwTx tx(*this, t, pt);
    co_await body(tx);
  }
  {
    CategoryGuard g(core, CycleCategory::kTxStartCommit);
    core.WorkInstructions(spec_.commit_instructions);
    // COMMIT clears the ASF context: snapshot the protected sets first.
    asf::AsfContext& ctx = machine_.context(t.id());
    const uint64_t rs = ctx.read_set_lines();
    const uint64_t ws = ctx.write_set_lines();
    co_await t.Access(AccessKind::kCommit, uint64_t{0}, 1);
    pt.read_count = rs;
    pt.write_count = ws;
  }
}

Task<AttemptLoop::Outcome> AttemptLoop::Run(SimThread& t, TmThread& pt, Block& block,
                                            const BodyFn& body) {
  Core& core = t.core();
  const bool stm = spec_.mode == TxMode::kStm;
  for (;;) {
    if (spec_.wait != nullptr) {
      if (!co_await spec_.wait(t)) {
        co_return Outcome::kDeclined;
      }
    }
    ++(stm ? pt.stats.stm_attempts : pt.stats.hw_attempts);
    core.BeginAttemptAccounting();
    EmitTxEvent(machine_, t, TxEventKind::kTxBegin, spec_.mode, AbortCause::kNone,
                core.attempt_seq(), block.aborted);
    pt.read_count = 0;
    pt.write_count = 0;
    pt.alloc.OnAttemptStart();
    Task<void> attempt = stm ? spec_.attempt(t, pt, body) : HwAttempt(t, pt, body);
    AbortCause cause = co_await t.RunAbortable(std::move(attempt));
    if (cause == AbortCause::kNone) {
      core.CommitAttemptAccounting();
      pt.alloc.OnCommit();
      ++(stm ? pt.stats.stm_commits : pt.stats.hw_commits);
      EmitTxEvent(machine_, t, TxEventKind::kTxCommit, spec_.mode, AbortCause::kNone,
                  core.attempt_seq(), block.aborted, pt.read_count, pt.write_count);
      co_return Outcome::kCommitted;
    }
    core.AbortAttemptAccounting();
    ++pt.stats.aborts[static_cast<size_t>(cause)];
    pt.alloc.OnAbort();
    EmitTxEvent(machine_, t, TxEventKind::kTxAbort, spec_.mode, cause, core.attempt_seq(),
                block.aborted, pt.read_count, pt.write_count);
    ++block.aborted;
    switch (cause) {
      case AbortCause::kRestartSerial:
        break;  // Re-wait for the fallback to drain; not a real retry.
      case AbortCause::kUserAbort:
        co_return Outcome::kCancelled;  // Language-level cancel: no retry.
      case AbortCause::kMallocRefill: {
        // Refill nonspeculatively (heap growth = system call), then retry.
        CategoryGuard g(core, CycleCategory::kTxAbortWaste);
        co_await t.Access(AccessKind::kSyscall, uint64_t{0}, 1);
        pt.alloc.Refill(pt.refill_bytes);
        break;
      }
      default: {
        // Everything else — contention, capacity, transient OS events,
        // disallowed instructions — is contention management's call.
        PolicyDecision d = policy_->OnAbort(t.id(), cause, block.site);
        if (d.action == PolicyAction::kSerialize && !stm) {
          co_return Outcome::kFallback;
        }
        if (d.action == PolicyAction::kBackoffRetry) {
          // The STM's backoff events carry the aborted attempt's ordinal,
          // the hardware modes' the count of aborted attempts.
          const uint32_t retry = stm ? block.aborted - 1 : block.aborted;
          pt.stats.backoff_cycles += d.backoff_cycles;
          EmitTxEvent(machine_, t, TxEventKind::kBackoffStart, spec_.mode, AbortCause::kNone, 0,
                      retry);
          co_await t.Sleep(d.backoff_cycles);
          EmitTxEvent(machine_, t, TxEventKind::kBackoffEnd, spec_.mode, AbortCause::kNone, 0,
                      retry, d.backoff_cycles);
        }
        break;
      }
    }
  }
}

}  // namespace asftm
