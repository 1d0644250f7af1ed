// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/harness/experiment.h"

#include <unordered_set>

#include "src/common/random.h"
#include "src/harness/run_threads.h"
#include "src/intset/hash_set.h"
#include "src/intset/linked_list.h"
#include "src/intset/rb_tree.h"
#include "src/intset/skip_list.h"
#include "src/sim/sync.h"
#include "src/tm/asf_tm.h"
#include "src/tm/contention_policy.h"
#include "src/tm/lock_elision.h"
#include "src/tm/phased_tm.h"
#include "src/tm/serial_tm.h"
#include "src/tm/tiny_stm.h"

namespace harness {

using asfsim::SimThread;
using asfsim::Task;
using asftm::Tx;

const char* RuntimeKindName(RuntimeKind k) {
  switch (k) {
    case RuntimeKind::kAsfTm:
      return "ASF-TM";
    case RuntimeKind::kTinyStm:
      return "TinySTM";
    case RuntimeKind::kSequential:
      return "Sequential";
    case RuntimeKind::kGlobalLock:
      return "GlobalLock";
    case RuntimeKind::kPhasedTm:
      return "PhasedTM";
    case RuntimeKind::kLockElision:
      return "LockElision";
  }
  return "invalid";
}

namespace {

// Builds the configured contention policy, or null for the runtime default.
std::shared_ptr<asftm::ContentionPolicy> PolicyFromConfig(const IntsetConfig& cfg,
                                                          uint64_t seed) {
  if (cfg.contention_policy.empty()) {
    return nullptr;
  }
  std::string error;
  auto policy = asftm::MakeContentionPolicy(cfg.contention_policy, seed, &error);
  ASF_CHECK_MSG(policy != nullptr, error.c_str());
  return policy;
}

}  // namespace

asf::MachineParams PaperMachineParams(const asf::AsfVariant& variant, uint32_t threads,
                                      bool timer_interrupts) {
  asf::MachineParams p;
  p.num_cores = threads;
  p.variant = variant;
  p.core.timer_enabled = timer_interrupts;
  return p;
}

std::unique_ptr<asftm::TmRuntime> MakeRuntime(RuntimeKind kind, asf::Machine& m,
                                              const IntsetConfig& cfg) {
  switch (kind) {
    case RuntimeKind::kAsfTm: {
      asftm::AsfTmParams p;
      if (cfg.capacity_goes_serial >= 0) {
        p.capacity_goes_serial = cfg.capacity_goes_serial != 0;
      }
      if (cfg.max_contention_retries >= 0) {
        p.max_contention_retries = static_cast<uint32_t>(cfg.max_contention_retries);
      }
      if (cfg.barrier_instructions >= 0) {
        p.barrier_instructions = static_cast<uint32_t>(cfg.barrier_instructions);
      }
      p.rng_seed = cfg.seed * 0x1234567 + 99;
      p.policy = PolicyFromConfig(cfg, p.rng_seed);
      return std::make_unique<asftm::AsfTm>(m, p);
    }
    case RuntimeKind::kTinyStm: {
      asftm::TinyStmParams p;
      if (cfg.barrier_instructions >= 0) {
        p.load_instructions += static_cast<uint32_t>(cfg.barrier_instructions);
        p.store_instructions += static_cast<uint32_t>(cfg.barrier_instructions);
      }
      p.rng_seed = cfg.seed * 0x7654321 + 7;
      p.policy = PolicyFromConfig(cfg, p.rng_seed);
      return std::make_unique<asftm::TinyStm>(m, p);
    }
    case RuntimeKind::kSequential:
      return std::make_unique<asftm::SequentialTm>(m);
    case RuntimeKind::kGlobalLock:
      return std::make_unique<asftm::GlobalLockTm>(m);
    case RuntimeKind::kPhasedTm: {
      asftm::PhasedTmParams p;
      if (cfg.max_contention_retries >= 0) {
        p.max_contention_retries = static_cast<uint32_t>(cfg.max_contention_retries);
      }
      if (cfg.barrier_instructions >= 0) {
        p.barrier_instructions = static_cast<uint32_t>(cfg.barrier_instructions);
      }
      p.rng_seed = cfg.seed * 0x33331 + 3;
      p.policy = PolicyFromConfig(cfg, p.rng_seed);
      return std::make_unique<asftm::PhasedTm>(m, p);
    }
    case RuntimeKind::kLockElision: {
      asftm::ElisionTmParams p;
      if (cfg.max_contention_retries >= 0) {
        p.lock.max_elision_retries = static_cast<uint32_t>(cfg.max_contention_retries);
      }
      if (cfg.barrier_instructions >= 0) {
        p.barrier_instructions = static_cast<uint32_t>(cfg.barrier_instructions);
      }
      p.lock.rng_seed = cfg.seed * 0x51515 + 5;
      p.lock.policy = PolicyFromConfig(cfg, p.lock.rng_seed);
      return std::make_unique<asftm::ElisionTm>(m, p);
    }
  }
  ASF_CHECK(false);
  return nullptr;
}

std::unique_ptr<intset::IntSet> MakeIntset(const std::string& kind, asfcommon::SimArena* arena) {
  if (kind == "list") {
    return std::make_unique<intset::LinkedList>(false, arena);
  }
  if (kind == "list-er") {
    return std::make_unique<intset::LinkedList>(true, arena);
  }
  if (kind == "skip") {
    return std::make_unique<intset::SkipList>(arena);
  }
  if (kind == "rb") {
    return std::make_unique<intset::RbTree>(arena);
  }
  if (kind == "hash") {
    return std::make_unique<intset::HashSet>(17, arena);
  }
  ASF_CHECK_MSG(false, "unknown intset structure");
  return nullptr;
}

void PretouchIntset(asf::Machine& m, const std::string& kind, intset::IntSet* set) {
  // The paper fast-forwards benchmark initialization; resident images
  // (sentinels, bucket tables) are pretouched. Node pages fault naturally.
  if (kind == "hash") {
    auto* hs = static_cast<intset::HashSet*>(set);
    m.mem().PretouchPages(reinterpret_cast<uint64_t>(hs->table_data()), hs->table_bytes());
  }
}

IntsetResult RunIntset(const IntsetConfig& cfg) {
  return RunIntsetOnParams(cfg, PaperMachineParams(cfg.variant, cfg.threads,
                                                   cfg.timer_interrupts));
}

IntsetResult RunIntsetOnParams(const IntsetConfig& cfg,
                               const asf::MachineParams& machine_params) {
  ASF_CHECK(cfg.threads >= 1 && cfg.threads <= 8);
  asf::MachineParams mp = machine_params;
  asf::Machine m(mp);
  if (cfg.obs.tracer != nullptr) {
    m.scheduler().SetTracer(cfg.obs.tracer);
  }
  // Latency/heatmap recorders chain in *front* of the caller's sink so both
  // see the identical event stream; with collect_latency off the caller's
  // sink is installed directly, byte-identical to the pre-latency plumbing.
  asfobs::LatencyRecorder latency_rec;
  asfobs::HeatmapRecorder heatmap_rec;
  if (cfg.collect_latency) {
    latency_rec.SetNext(&heatmap_rec);
    heatmap_rec.SetNext(cfg.obs.tx_sink);  // May be null: chain just ends.
    m.SetTxSink(&latency_rec);
  } else if (cfg.obs.tx_sink != nullptr) {
    m.SetTxSink(cfg.obs.tx_sink);
  }
  auto set = MakeIntset(cfg.structure, &m.arena());
  auto rt = MakeRuntime(cfg.runtime, m, cfg);
  PretouchIntset(m, cfg.structure, set.get());
  if (cfg.collect_latency && cfg.structure == "hash") {
    // Named-region attribution for the heatmap: the one resident image the
    // harness can name is the hash bucket array. Lines outside registered
    // regions report "-".
    // Registered arena-relative: conflict-edge events carry arena-relative
    // lines (Machine::ObsLine), so region bounds must live in the same
    // coordinate space.
    auto* hs = static_cast<intset::HashSet*>(set.get());
    heatmap_rec.regions().Register("hash:table",
                                   reinterpret_cast<uint64_t>(hs->table_data()) -
                                       m.arena().base(),
                                   hs->table_bytes());
  }

  const uint64_t initial = cfg.initial_size != 0 ? cfg.initial_size : cfg.key_range / 2;
  ASF_CHECK(initial <= cfg.key_range);

  // Deterministic initial contents: `initial` distinct keys from the range.
  std::vector<uint64_t> init_keys;
  {
    asfcommon::Rng rng(cfg.seed * 31 + 17);
    std::unordered_set<uint64_t> chosen;
    while (chosen.size() < initial) {
      chosen.insert(rng.NextBelow(cfg.key_range) + 1);
    }
    init_keys.assign(chosen.begin(), chosen.end());
  }

  asfsim::SimBarrier barrier_a(cfg.threads);
  asfsim::SimBarrier barrier_b(cfg.threads);
  uint64_t measure_start = 0;
  IntsetResult result;

  RunThreads(m, cfg.threads, [&](SimThread& t, uint32_t tid) -> Task<void> {
    // ---- Population phase (thread 0) ----
    if (tid == 0) {
      for (uint64_t key : init_keys) {
        co_await rt->Atomic(t, [&](Tx& tx) -> Task<void> {
          co_await set->Insert(tx, key);
        });
      }
    }
    co_await barrier_a.Arrive(t);
    if (tid == 0) {
      // Reset all statistics at the measurement barrier (host-side, free).
      rt->ResetStats();
      for (uint32_t c = 0; c < m.scheduler().num_cores(); ++c) {
        m.scheduler().core(c).ResetStats();
        m.context(c).ResetStats();
      }
      m.mem().ResetStats();
      m.conflict_directory().ResetStats();
      // Host-side observers drop warm-up data at the same instant the
      // statistics reset (no co_await between the resets), so the trace
      // covers exactly the measured window.
      if (cfg.obs.tracer != nullptr) {
        cfg.obs.tracer->Clear();
      }
      // Reset whatever sink chain is installed on the machine (latency /
      // heatmap recorders forward the reset to the caller's sink).
      if (m.tx_sink() != nullptr) {
        m.tx_sink()->OnMeasurementReset();
      }
      measure_start = t.core().clock();
    }
    co_await barrier_b.Arrive(t);

    // ---- Measurement phase ----
    // The three operation kinds are distinct static atomic blocks; the site
    // ids (insert=1, remove=2, contains=3) let site-keyed contention
    // policies learn each block's behavior separately. Population above
    // stays site 0 (unattributed warm-up).
    asfcommon::Rng rng(cfg.seed * 1000003 + tid);
    const uint32_t half_upd = cfg.update_pct / 2;
    for (uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
      uint64_t key = rng.NextBelow(cfg.key_range) + 1;
      uint32_t dice = static_cast<uint32_t>(rng.NextBelow(100));
      if (dice < half_upd) {
        co_await rt->Atomic(t, kSiteInsert, [&](Tx& tx) -> Task<void> {
          co_await set->Insert(tx, key);
        });
      } else if (dice < cfg.update_pct) {
        co_await rt->Atomic(t, kSiteRemove, [&](Tx& tx) -> Task<void> {
          co_await set->Remove(tx, key);
        });
      } else {
        co_await rt->Atomic(t, kSiteContains, [&](Tx& tx) -> Task<void> {
          co_await set->Contains(tx, key);
        });
      }
    }
  });

  const uint64_t end_cycle = m.scheduler().MaxCycle();
  result.measure_cycles = end_cycle - measure_start;
  result.tm = rt->TotalStats();
  result.committed_tx = result.tm.Commits();
  if (result.measure_cycles > 0) {
    result.tx_per_us = static_cast<double>(result.committed_tx) *
                       static_cast<double>(asfcommon::kCyclesPerMicrosecond) /
                       static_cast<double>(result.measure_cycles);
  }
  for (uint32_t c = 0; c < m.scheduler().num_cores(); ++c) {
    for (size_t cat = 0; cat < result.breakdown.cycles.size(); ++cat) {
      result.breakdown.cycles[cat] +=
          m.scheduler().core(c).CategoryCycles(static_cast<asfsim::CycleCategory>(cat));
    }
    const auto& cs = m.context(c).stats();
    result.asf.speculates += cs.speculates;
    result.asf.commits += cs.commits;
    for (size_t a = 0; a < cs.aborts.size(); ++a) {
      result.asf.aborts[a] += cs.aborts[a];
    }
  }
  result.host.wakes = m.scheduler().wakes_scheduled();
  result.host.fast_wakes = m.scheduler().fast_wakes();
  result.host.inline_wakes = m.scheduler().inline_wakes();
  const asfmem::MemFastPathStats& fp = m.mem().fast_path_stats();
  result.host.mem_accesses = fp.accesses;
  result.host.mem_line_hits = fp.line_hits;
  result.host.mem_page_hits = fp.page_hits;
  const asf::ConflictDirectory::Stats& ds = m.conflict_directory().stats();
  result.host.dir_resolutions = ds.resolutions;
  result.host.dir_gate_skips = ds.gate_skips;
  result.host.dir_solo_fast_paths = ds.solo_fast_paths;
  result.host.dir_probes = ds.probes;
  if (cfg.obs.metrics != nullptr) {
    asfobs::RecordConflictDirectory(
        *cfg.obs.metrics, {ds.resolutions, ds.gate_skips, ds.solo_fast_paths, ds.probes,
                           ds.probe_hits});
  }
  if (cfg.collect_latency) {
    result.latency = latency_rec.stats();
    result.heatmap = heatmap_rec.stats();
  }
  result.invariant_violation = set->CheckInvariants();
  ASF_CHECK_MSG(result.invariant_violation.empty(), result.invariant_violation.c_str());
  return result;
}

}  // namespace harness
