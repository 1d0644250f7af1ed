// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Experiment driver for the IntegerSet microbenchmarks, reproducing the
// methodology of the paper's Section 5: a population phase (the paper
// fast-forwards initialization), a statistics reset at the measurement
// barrier, then a fixed number of random operations per thread; throughput
// is reported in transactions per microsecond at the simulated 2.2 GHz.
#ifndef SRC_HARNESS_EXPERIMENT_H_
#define SRC_HARNESS_EXPERIMENT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/asf/machine.h"
#include "src/common/abort_cause.h"
#include "src/intset/int_set.h"
#include "src/obs/heatmap.h"
#include "src/obs/latency.h"
#include "src/obs/metrics.h"
#include "src/obs/tx_event.h"
#include "src/sim/trace.h"
#include "src/tm/tm_api.h"

namespace harness {

// Optional host-side observers for a run. The harness installs them on the
// machine before the workload starts and resets them at the measurement
// barrier (atomically with the statistics reset, so they see exactly the
// measured window). Both are borrowed, not owned, and cost zero simulated
// cycles; leave null to disable.
struct ObsHooks {
  asfsim::Tracer* tracer = nullptr;        // Memory ops + cycle spans.
  asfobs::TxEventSink* tx_sink = nullptr;  // Transaction lifecycle events.
  // Conflict-directory telemetry is folded into this registry at the end of
  // the run (asfobs::RecordConflictDirectory, "conflict_directory.*").
  asfobs::MetricsRegistry* metrics = nullptr;
};

enum class RuntimeKind {
  kAsfTm,        // ASF-TM on the configured ASF variant.
  kTinyStm,      // TinySTM write-through (baseline).
  kSequential,   // Uninstrumented, single thread only.
  kGlobalLock,   // Single global lock (reference, ablations).
  kPhasedTm,     // PhasedTM-style hardware/software phase hybrid.
  kLockElision,  // One elidable global lock (ElisionTm).
};

const char* RuntimeKindName(RuntimeKind k);

// Static site ids of the intset workload's atomic blocks, forwarded to
// site-keyed contention policies via TmRuntime::Atomic. The population
// phase stays site 0 (unattributed warm-up).
inline constexpr uint32_t kSiteInsert = 1;
inline constexpr uint32_t kSiteRemove = 2;
inline constexpr uint32_t kSiteContains = 3;

struct IntsetConfig {
  std::string structure = "list";  // list | list-er | skip | rb | hash.
  uint64_t key_range = 1024;
  uint32_t update_pct = 20;  // Percentage of update operations (split 50/50
                             // between inserts and removes); rest are lookups.
  uint32_t threads = 8;
  uint64_t ops_per_thread = 2000;
  uint64_t initial_size = 0;  // 0 => key_range / 2 (the paper's default).
  RuntimeKind runtime = RuntimeKind::kAsfTm;
  asf::AsfVariant variant = asf::AsfVariant::Llb256();
  uint64_t seed = 1;
  bool timer_interrupts = true;
  // ASF-TM policy overrides (ablations); negative = default.
  int capacity_goes_serial = -1;
  int max_contention_retries = -1;
  // Extra per-barrier ABI dispatch instructions (models dynamic linking /
  // no-LTO; -1 = default inlined cost).
  int barrier_instructions = -1;
  // Contention-policy spec for asftm::MakeContentionPolicy (e.g.
  // "exp-backoff:retries=4", "serialize", "adaptive"); empty = the runtime's
  // built-in default. Ignored by kSequential / kGlobalLock.
  std::string contention_policy;
  ObsHooks obs;
  // Collect per-transaction latency percentiles and the hot-line heatmap for
  // this run (host-side recorders chained in front of obs.tx_sink; fills
  // IntsetResult::latency/heatmap). Off by default: enabling it must not —
  // and, by the obs-on/obs-off digest tests, does not — perturb simulated
  // execution.
  bool collect_latency = false;
};

struct CycleBreakdown {
  // Indexed by asfsim::CycleCategory.
  std::array<uint64_t, 6> cycles{};

  uint64_t Total() const {
    uint64_t n = 0;
    for (uint64_t v : cycles) {
      n += v;
    }
    return n;
  }
  uint64_t At(asfsim::CycleCategory c) const { return cycles[static_cast<size_t>(c)]; }
};

// Host-side simulator-performance counters for a whole run (zero simulated
// cost; never part of result digests). perfbench reports them as its sim.*,
// mem.* and asf.dir_* ratios, and tests/sweep_test.cc uses them to prove the
// host fast paths engage.
struct HostPerf {
  uint64_t wakes = 0;          // Scheduler wakes scheduled.
  uint64_t fast_wakes = 0;     // Wakes that took the next-event slot.
  uint64_t inline_wakes = 0;   // Slot wakes consumed at the suspension point.
  uint64_t mem_accesses = 0;   // MemorySystem::Access calls.
  uint64_t mem_line_hits = 0;  // Full memo fast path (TLB+directory skipped).
  uint64_t mem_page_hits = 0;  // Translation memo only.
  // Conflict-directory telemetry (asf::ConflictDirectory::Stats).
  uint64_t dir_resolutions = 0;     // Conflict-resolution invocations.
  uint64_t dir_gate_skips = 0;      // Skipped: no other active speculator.
  uint64_t dir_solo_fast_paths = 0; // Single-speculator short circuit taken.
  uint64_t dir_probes = 0;          // Directory line lookups.
};

struct IntsetResult {
  uint64_t committed_tx = 0;
  uint64_t measure_cycles = 0;  // Simulated cycles of the measurement phase.
  double tx_per_us = 0.0;
  asftm::TxStats tm;               // Aggregated over threads (measurement only).
  asf::AsfContextStats asf;        // Aggregated ASF-level counters.
  CycleBreakdown breakdown;        // Aggregated per-category cycles.
  HostPerf host;                   // Host-side fast-path telemetry.
  std::string invariant_violation; // Empty when the structure checked out.
  // Filled only when IntsetConfig::collect_latency is set.
  asfobs::LatencyStats latency;    // Block-latency distribution (measured window).
  asfobs::HeatmapStats heatmap;    // Hot-line contention counts.
};

// Builds a TM runtime of the requested kind on `m` (applying the config's
// policy overrides where the kind supports them).
std::unique_ptr<asftm::TmRuntime> MakeRuntime(RuntimeKind kind, asf::Machine& m,
                                              const IntsetConfig& cfg);

// Builds an IntegerSet of the requested structure ("list", "list-er",
// "skip", "rb", "hash") on `arena`; CHECK-fails on unknown names.
std::unique_ptr<intset::IntSet> MakeIntset(const std::string& structure,
                                           asfcommon::SimArena* arena);

// Pretouches the structure's resident image (sentinels, bucket tables) the
// way the paper's fast-forwarded initialization would leave it.
void PretouchIntset(asf::Machine& m, const std::string& structure, intset::IntSet* set);

// Builds the machine parameters used by all experiments (paper Sec. 5
// configuration; 8 cores, Barcelona-like hierarchy).
asf::MachineParams PaperMachineParams(const asf::AsfVariant& variant, uint32_t threads,
                                      bool timer_interrupts);

// Runs one IntegerSet configuration and returns its measurements.
IntsetResult RunIntset(const IntsetConfig& cfg);

// Same, but on explicitly supplied machine parameters (cache-geometry
// ablations and similar sweeps).
IntsetResult RunIntsetOnParams(const IntsetConfig& cfg, const asf::MachineParams& machine_params);

}  // namespace harness

#endif  // SRC_HARNESS_EXPERIMENT_H_
