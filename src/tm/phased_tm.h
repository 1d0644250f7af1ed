// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// PhasedTM-style hybrid runtime — the "more elaborate fallback mechanism"
// the paper sketches as an alternative to ASF-TM's serial-irrevocable mode
// (Sec. 3.2, citing Lev/Moir/Nussbaum's PhTM): instead of serializing
// capacity-challenged transactions, the whole system switches between a
// HARDWARE phase (every transaction runs as an ASF speculative region) and a
// SOFTWARE phase (every transaction runs on the STM), so oversized
// transactions retain concurrency among themselves.
//
// Mechanism: hardware transactions LOCK-MOV-monitor the global phase word,
// so the store that flips the phase aborts all of them instantly. Software
// transactions register in an active counter; the system returns to the
// hardware phase once the software quota is consumed and no software
// transaction is in flight. The hardware phase runs in the shared attempt
// loop (attempt_loop.h) with the phase word as its monitored word; its wait
// loads the phase word once and declines outside the hardware phase, and
// its fallback is the switch to software.
#ifndef SRC_TM_PHASED_TM_H_
#define SRC_TM_PHASED_TM_H_

#include <memory>

#include "src/tm/contention_policy.h"
#include "src/tm/attempt_loop.h"
#include "src/tm/tiny_stm.h"

namespace asftm {

struct PhasedTmParams {
  uint32_t max_contention_retries = 8;
  uint64_t backoff_base_cycles = 64;
  uint32_t backoff_shift_cap = 8;
  uint32_t begin_instructions = 35;
  uint32_t commit_instructions = 12;
  uint32_t barrier_instructions = 2;
  uint32_t alloc_instructions = 12;
  // Software-phase commits before attempting to switch back to hardware.
  uint32_t software_quota = 16;
  uint64_t rng_seed = 0x9A5ED;
  // Sizing of the software-phase TinySTM (orec table and per-thread logs).
  // The defaults match TinyStmParams; the litmus explorer shrinks them to
  // fit one machine per enumerated interleaving.
  uint32_t stm_orec_count_log2 = TinyStmParams().orec_count_log2;
  uint64_t stm_max_read_set = TinyStmParams().max_read_set;
  uint64_t stm_max_write_set = TinyStmParams().max_write_set;
  // Contention management for the hardware phase. Null constructs the
  // default exponential-backoff policy from the knobs above; kSerialize
  // decisions flip the system into the software phase.
  std::shared_ptr<ContentionPolicy> policy;
};

class PhasedTm : public TmRuntime {
 public:
  PhasedTm(asf::Machine& machine, const PhasedTmParams& params = PhasedTmParams());
  ~PhasedTm() override;

  std::string name() const override;
  using TmRuntime::Atomic;
  asfsim::Task<void> Atomic(asfsim::SimThread& thread, uint32_t site, BodyFn body) override;
  const TxStats& stats(uint32_t thread_id) const override { return threads_[thread_id]->stats; }
  TxStats TotalStats() const override;
  void ResetStats() override {
    ResetThreadStats(threads_);
    stm_->ResetStats();
  }

  // Phase-transition counters (diagnostics / tests).
  uint64_t switches_to_software() const { return to_software_; }
  uint64_t switches_to_hardware() const { return to_hardware_; }

 private:
  static constexpr uint64_t kHardware = 0;
  static constexpr uint64_t kSoftware = 1;
  static constexpr uint64_t kDraining = 2;  // Software phase emptying out.

  struct alignas(asfcommon::kCacheLineBytes) PhaseState {
    uint64_t phase = kHardware;
    uint64_t pad[7];
    uint64_t active_software = 0;  // In-flight software transactions.
    uint64_t pad2[7];
    uint64_t software_budget = 0;  // Remaining commits before switching back.
  };

  // The pre-speculation wait: loads the phase word once; true in the
  // hardware phase.
  asfsim::Task<bool> InHardwarePhase(asfsim::SimThread& t);
  asfsim::Task<void> SwitchToSoftware(asfsim::SimThread& t, uint32_t aborted_attempts);

  asf::Machine& machine_;
  const PhasedTmParams params_;
  PhaseState* phase_;
  AttemptLoop loop_;
  std::unique_ptr<TinyStm> stm_;  // Executes software-phase transactions.
  std::vector<std::unique_ptr<TmThread>> threads_;
  uint64_t to_software_ = 0;
  uint64_t to_hardware_ = 0;
};

}  // namespace asftm

#endif  // SRC_TM_PHASED_TM_H_
