// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/phased_tm.h"

#include "src/tm/tx_observe.h"

namespace asftm {

using asfcommon::AbortCause;
using asfobs::TxEventKind;
using asfobs::TxMode;
using asfsim::AccessKind;
using asfsim::SimThread;
using asfsim::Task;

PhasedTm::PhasedTm(asf::Machine& machine, const PhasedTmParams& params)
    : machine_(machine),
      params_(params),
      phase_(machine.arena().New<PhaseState>()),
      // Capacity is what the software phase is *for*: switch at once.
      loop_(machine, {.policy = params.policy,
                      .default_policy = {.base_cycles = params.backoff_base_cycles,
                                         .shift_cap = params.backoff_shift_cap,
                                         .max_retries = params.max_contention_retries,
                                         .capacity_serializes = true,
                                         .seed = params.rng_seed,
                                         .seed_stride = 0xABCD},
                      .monitored_word = &phase_->phase,
                      .begin_instructions = params.begin_instructions,
                      .commit_instructions = params.commit_instructions,
                      .barrier_instructions = params.barrier_instructions,
                      .alloc_instructions = params.alloc_instructions,
                      .wait = [this](SimThread& t) { return InHardwarePhase(t); }}) {
  TinyStmParams stm_params;
  stm_params.orec_count_log2 = params.stm_orec_count_log2;
  stm_params.max_read_set = params.stm_max_read_set;
  stm_params.max_write_set = params.stm_max_write_set;
  stm_params.rng_seed = params.rng_seed ^ 0xF00D;
  stm_ = std::make_unique<TinyStm>(machine, stm_params);
  const uint32_t n = machine.scheduler().num_cores();
  for (uint32_t i = 0; i < n; ++i) {
    auto pt = std::make_unique<TmThread>(&machine.arena());
    pt->alloc.Refill(1);
    threads_.push_back(std::move(pt));
  }
  machine.mem().PretouchPages(reinterpret_cast<uint64_t>(phase_), sizeof(PhaseState));
}

PhasedTm::~PhasedTm() = default;

std::string PhasedTm::name() const {
  return "PhasedTM (" + machine_.params().variant.Name() + " / TinySTM)";
}

Task<bool> PhasedTm::InHardwarePhase(SimThread& t) {
  co_await t.Access(AccessKind::kLoad, &phase_->phase, 8);
  co_return phase_->phase == kHardware;
}

// Flips the whole system into the software phase. The store aborts every
// in-flight hardware transaction monitoring the phase word.
Task<void> PhasedTm::SwitchToSoftware(SimThread& t, uint32_t aborted_attempts) {
  co_await t.Store(AccessKind::kStore, &phase_->software_budget, 8, params_.software_quota);
  co_await t.Store(AccessKind::kStore, &phase_->phase, 8, kSoftware);
  ++to_software_;
  EmitTxEvent(machine_, t, TxEventKind::kFallbackTransition, TxMode::kStm, AbortCause::kNone, 0,
              aborted_attempts, static_cast<uint64_t>(TxMode::kHardware));
}

Task<void> PhasedTm::Atomic(SimThread& t, uint32_t site, BodyFn body) {
  TmThread& pt = *threads_[t.id()];
  AttemptLoop::Block block = loop_.StartBlock(t, pt, site);
  for (;;) {
    // ---- Hardware phase ----
    switch (co_await loop_.Run(t, pt, block, body)) {
      case AttemptLoop::Outcome::kCommitted:
      case AttemptLoop::Outcome::kCancelled:
        co_return;
      case AttemptLoop::Outcome::kFallback:
        // The PhTM move: a kSerialize decision (capacity, or a spent
        // contention budget) flips the whole system into the software
        // phase instead of serializing, so capacity-challenged
        // transactions retain concurrency among themselves.
        co_await SwitchToSoftware(t, block.aborted);
        continue;
      case AttemptLoop::Outcome::kDeclined:
        break;  // Not the hardware phase; phase_->phase is as just loaded.
    }

    if (phase_->phase == kDraining) {
      // A switch back to hardware is in progress; wait it out.
      co_await t.Sleep(128);
      continue;
    }

    // ---- Software phase ----
    co_await t.FetchAdd(&phase_->active_software, 8, 1);
    co_await t.Access(AccessKind::kLoad, &phase_->phase, 8);
    if (phase_->phase != kSoftware) {
      // The phase flipped before we started; deregister and retry.
      co_await t.FetchAdd(&phase_->active_software, 8, static_cast<uint64_t>(-1));
      continue;
    }
    co_await stm_->Atomic(t, site, std::move(body));
    ++pt.stats.stm_commits;
    uint64_t budget_before = co_await t.FetchAdd(&phase_->software_budget, 8,
                                                 static_cast<uint64_t>(-1));
    co_await t.FetchAdd(&phase_->active_software, 8, static_cast<uint64_t>(-1));
    if (static_cast<int64_t>(budget_before) <= 1) {
      // Quota exhausted: drain the software phase. kDraining blocks new
      // software registrations; once the active count reaches zero it is
      // safe to re-enter the hardware phase (software and hardware
      // transactions must never overlap — they cannot see each other's
      // conflict metadata).
      uint64_t won = co_await t.Cas(&phase_->phase, 8, kSoftware, kDraining);
      if (won != 0) {
        for (;;) {
          co_await t.Access(AccessKind::kLoad, &phase_->active_software, 8);
          if (phase_->active_software == 0) {
            break;
          }
          co_await t.Sleep(100);
        }
        co_await t.Store(AccessKind::kStore, &phase_->phase, 8, kHardware);
        ++to_hardware_;
        EmitTxEvent(machine_, t, TxEventKind::kFallbackTransition, TxMode::kHardware,
                    AbortCause::kNone, 0, 0, static_cast<uint64_t>(TxMode::kStm));
      }
    }
    co_return;
  }
}

TxStats PhasedTm::TotalStats() const {
  TxStats total = SumThreadStats(threads_);
  // Fold in the STM-side abort/attempt counters (commits are already
  // counted as stm_commits above; avoid double counting them).
  TxStats stm = stm_->TotalStats();
  total.stm_attempts += stm.stm_attempts;
  total.backoff_cycles += stm.backoff_cycles;
  for (size_t i = 0; i < total.aborts.size(); ++i) {
    total.aborts[i] += stm.aborts[i];
  }
  return total;
}

}  // namespace asftm
