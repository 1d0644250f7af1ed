// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/hw_attempt_loop.h"

#include <utility>

#include "src/tm/tx_observe.h"

namespace asftm {

using asfcommon::AbortCause;
using asfobs::TxEventKind;
using asfsim::AccessKind;
using asfsim::CategoryGuard;
using asfsim::Core;
using asfsim::CycleCategory;
using asfsim::SimThread;
using asfsim::Task;

HwAttemptLoop::HwAttemptLoop(asf::Machine& machine, Spec spec)
    : machine_(machine),
      policy_(spec.policy != nullptr ? spec.policy : MakeExpBackoffPolicy(spec.default_policy)),
      spec_(std::move(spec)) {}

HwAttemptLoop::Block HwAttemptLoop::StartBlock(SimThread& t, HwThread& pt, uint32_t site) {
  ++pt.stats.tx_started;
  policy_->OnBlockStart(t.id(), site);
  return Block{site, 0};
}

Task<void> HwAttemptLoop::Attempt(SimThread& t, HwThread& pt, const AttemptFn& body,
                                  uint64_t* rs, uint64_t* ws) {
  Core& core = t.core();
  pt.alloc.OnAttemptStart();
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
    co_await body();
  }
  {
    CategoryGuard g(core, CycleCategory::kTxStartCommit);
    core.WorkInstructions(spec_.commit_instructions);
    asf::AsfContext& ctx = machine_.context(t.id());
    *rs = ctx.read_set_lines();
    *ws = ctx.write_set_lines();
    co_await t.Access(AccessKind::kCommit, uint64_t{0}, 1);
  }
}

Task<HwAttemptLoop::Outcome> HwAttemptLoop::Run(SimThread& t, HwThread& pt, Block& block,
                                                const AttemptFn& body) {
  Core& core = t.core();
  for (;;) {
    if (!co_await spec_.wait(t)) {
      co_return Outcome::kDeclined;
    }
    ++pt.stats.hw_attempts;
    core.BeginAttemptAccounting();
    EmitTxEvent(machine_, t, TxEventKind::kTxBegin, spec_.mode, AbortCause::kNone,
                core.attempt_seq(), block.aborted);
    uint64_t rs = 0;
    uint64_t ws = 0;
    AbortCause cause = co_await t.RunAbortable(Attempt(t, pt, body, &rs, &ws));
    if (cause == AbortCause::kNone) {
      core.CommitAttemptAccounting();
      pt.alloc.OnCommit();
      ++pt.stats.hw_commits;
      EmitTxEvent(machine_, t, TxEventKind::kTxCommit, spec_.mode, AbortCause::kNone,
                  core.attempt_seq(), block.aborted, rs, ws);
      co_return Outcome::kCommitted;
    }
    core.AbortAttemptAccounting();
    ++pt.stats.aborts[static_cast<size_t>(cause)];
    pt.alloc.OnAbort();
    EmitTxEvent(machine_, t, TxEventKind::kTxAbort, spec_.mode, cause, core.attempt_seq(),
                block.aborted);
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
        if (d.action == PolicyAction::kSerialize) {
          co_return Outcome::kFallback;
        }
        if (d.action == PolicyAction::kBackoffRetry) {
          pt.stats.backoff_cycles += d.backoff_cycles;
          EmitTxEvent(machine_, t, TxEventKind::kBackoffStart, spec_.mode, AbortCause::kNone, 0,
                      block.aborted);
          co_await t.Sleep(d.backoff_cycles);
          EmitTxEvent(machine_, t, TxEventKind::kBackoffEnd, spec_.mode, AbortCause::kNone, 0,
                      block.aborted, d.backoff_cycles);
        }
        break;
      }
    }
  }
}

}  // namespace asftm
