// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "perfbench/jobs.h"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>

#include "src/common/frame_pool.h"
#include "src/harness/sweep.h"
#include "src/obs/tx_event.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

uint64_t Lcg(uint64_t v) { return v * 6364136223846793005ULL + 1442695040888963407ULL; }

// The probe's chained-hash table: 4.5 MB, past L2 like the simulator's heap.
// Built once and only read afterwards, so probes on several sweep workers
// share it without locks. It is mapped directly: through malloc it would
// move glibc's mmap threshold under the simulator's own allocations.
struct ProbeTable {
  static constexpr uint32_t kBuckets = 1u << 17;
  static constexpr uint32_t kNodes = 1u << 18;
  static constexpr uint32_t kNone = ~0u;
  struct Node {
    uint64_t key;
    uint64_t next;
  };
  static constexpr size_t kBytes = kBuckets * sizeof(uint32_t) + kNodes * sizeof(Node);

  uint32_t* heads = nullptr;
  Node* nodes = nullptr;

  ProbeTable() {
    void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      std::perror("perfbench: mmap");
      std::abort();
    }
    heads = static_cast<uint32_t*>(mem);
    nodes = reinterpret_cast<Node*>(heads + kBuckets);
    std::fill(heads, heads + kBuckets, kNone);
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (uint32_t n = 0; n < kNodes; ++n) {
      x = Lcg(x);
      const uint32_t b = static_cast<uint32_t>((x >> 40) % kBuckets);
      nodes[n] = {x >> 40, heads[b]};
      heads[b] = n;
    }
  }
};

const ProbeTable& SharedProbeTable() {
  static const ProbeTable table;
  return table;
}

}  // namespace

double HostSpeedProbe() {
  // Three parts in about the simulator's proportions: independent integer
  // chains, chained-hash lookups and binary-heap updates (its event queue).
  constexpr size_t kHeapSize = 4096;
  constexpr int kOps = 4000;
  const ProbeTable& table = SharedProbeTable();
  uint64_t x = 0x2545f4914f6cdd1dULL;
  std::vector<uint64_t> heap(kHeapSize);
  for (uint64_t& v : heap) {
    x = Lcg(x);
    v = x >> 20;
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<uint64_t>());
  uint64_t sink = 0;
  uint64_t a = 1, b = 2, c = 3, d = 4;
  const double t0 = Now();
  for (int i = 0; i < kOps; ++i) {
    for (int k = 0; k < 4; ++k) {
      a = Lcg(a);
      b = b * 2862933555777941757ULL + 3;
      c ^= a >> 13;
      d += b >> 11;
    }
    x = Lcg(x);
    const uint64_t key = x >> 40;
    for (uint64_t n = table.heads[key % ProbeTable::kBuckets]; n != ProbeTable::kNone;
         n = table.nodes[n].next) {
      if (table.nodes[n].key == key) {
        sink += n;
        break;
      }
    }
    std::pop_heap(heap.begin(), heap.end(), std::greater<uint64_t>());
    heap.back() += x >> 44;
    std::push_heap(heap.begin(), heap.end(), std::greater<uint64_t>());
  }
  const double took = Now() - t0;
  // Keeps the kernel from being optimized away.
  asm volatile("" : : "r"(sink + heap.front() + c + d));
  return took;
}

size_t HostSpeedProbeBytes() { return ProbeTable::kBytes; }

void LayerCounts::Add(const LayerCounts& o) {
  wakes += o.wakes;
  fast_wakes += o.fast_wakes;
  inline_wakes += o.inline_wakes;
  frame_allocs += o.frame_allocs;
  frame_pool_hits += o.frame_pool_hits;
  mem_accesses += o.mem_accesses;
  mem_line_hits += o.mem_line_hits;
  mem_page_hits += o.mem_page_hits;
  dir_resolutions += o.dir_resolutions;
  dir_gate_skips += o.dir_gate_skips;
  dir_solo_fast_paths += o.dir_solo_fast_paths;
  dir_probes += o.dir_probes;
  asf_speculates += o.asf_speculates;
  asf_commits += o.asf_commits;
  asf_aborts += o.asf_aborts;
  asf_capacity_aborts += o.asf_capacity_aborts;
  tm.Add(o.tm);
  for (size_t c = 0; c < breakdown.cycles.size(); ++c) {
    breakdown.cycles[c] += o.breakdown.cycles[c];
  }
}

namespace {

// Timestamps the measurement barrier, counts the lifecycle events of the
// measured window and forwards them to `next` when set. Installed as the
// job's own sink (behind the latency and heatmap recorders when those are
// on), so parallel jobs never share one.
class BarrierClock final : public asfobs::TxEventSink {
 public:
  explicit BarrierClock(asfobs::TxEventSink* next) : next_(next) {}

  void OnTxEvent(const asfobs::TxEvent& ev) override {
    ++events_;
    if (next_ != nullptr) {
      next_->OnTxEvent(ev);
    }
  }
  void OnMeasurementReset() override {
    barrier_ = Now();
    events_ = 0;
    if (next_ != nullptr) {
      next_->OnMeasurementReset();
    }
  }

  double barrier() const { return barrier_; }
  uint64_t events() const { return events_; }

 private:
  asfobs::TxEventSink* next_;
  double barrier_ = 0.0;
  uint64_t events_ = 0;
};

// Forwards to a STAMP app and, when harness::RunStamp validates the output (the
// simulation has ended but the machine is still alive), reads the machine's
// host-side and ASF counters: harness::StampResult does not carry them.
class CountingApp final : public stamp::StampApp {
 public:
  CountingApp(std::unique_ptr<stamp::StampApp> app, LayerCounts* counts)
      : app_(std::move(app)), counts_(counts) {}

  std::string name() const override { return app_->name(); }
  void Setup(asf::Machine& machine, uint32_t threads, uint64_t seed, uint32_t scale) override {
    machine_ = &machine;
    app_->Setup(machine, threads, seed, scale);
  }
  asfsim::Task<void> SimSetup(asftm::TmRuntime& rt, asfsim::SimThread& t,
                              uint32_t tid) override {
    return app_->SimSetup(rt, t, tid);
  }
  asfsim::Task<void> Worker(asftm::TmRuntime& rt, asfsim::SimThread& t, uint32_t tid) override {
    return app_->Worker(rt, t, tid);
  }
  std::string Validate() const override {
    asfsim::Scheduler& s = machine_->scheduler();
    counts_->wakes = s.wakes_scheduled();
    counts_->fast_wakes = s.fast_wakes();
    counts_->inline_wakes = s.inline_wakes();
    const asfmem::MemFastPathStats fp = machine_->mem().fast_path_stats();
    counts_->mem_accesses = fp.accesses;
    counts_->mem_line_hits = fp.line_hits;
    counts_->mem_page_hits = fp.page_hits;
    const asf::ConflictDirectory::Stats& ds = machine_->conflict_directory().stats();
    counts_->dir_resolutions = ds.resolutions;
    counts_->dir_gate_skips = ds.gate_skips;
    counts_->dir_solo_fast_paths = ds.solo_fast_paths;
    counts_->dir_probes = ds.probes;
    for (uint32_t c = 0; c < s.num_cores(); ++c) {
      const asf::AsfContextStats& cs = machine_->context(c).stats();
      counts_->asf_speculates += cs.speculates;
      counts_->asf_commits += cs.commits;
      counts_->asf_aborts += cs.TotalAborts();
      counts_->asf_capacity_aborts +=
          cs.aborts[static_cast<size_t>(asfcommon::AbortCause::kCapacity)];
    }
    return app_->Validate();
  }

 private:
  std::unique_ptr<stamp::StampApp> app_;
  LayerCounts* counts_;
  asf::Machine* machine_ = nullptr;
};

std::string Fingerprint(uint64_t commits, uint64_t cycles, const asftm::TxStats& tm) {
  return std::to_string(commits) + ":" + std::to_string(cycles) + ":" +
         std::to_string(tm.TotalAttempts()) + ":" + std::to_string(tm.TotalAborts());
}

JobResult RunIntsetJob(const JobSpec& spec, const JobHooks& hooks, BarrierClock* clock) {
  harness::IntsetConfig cfg = spec.intset;
  cfg.collect_latency = hooks.collect_latency;
  cfg.obs.tracer = hooks.tracer;
  cfg.obs.tx_sink = clock;
  JobResult out;
  out.start = Now();
  const harness::IntsetResult r = harness::RunIntset(cfg);
  out.end = Now();
  // The same fingerprint perf_selfcheck records in BENCH_sim_throughput.json.
  out.digest = Fingerprint(r.committed_tx, r.measure_cycles, r.tm);
  out.failure = r.invariant_violation;
  out.sim_cycles = r.measure_cycles;
  LayerCounts& c = out.counts;
  c.wakes = r.host.wakes;
  c.fast_wakes = r.host.fast_wakes;
  c.inline_wakes = r.host.inline_wakes;
  c.mem_accesses = r.host.mem_accesses;
  c.mem_line_hits = r.host.mem_line_hits;
  c.mem_page_hits = r.host.mem_page_hits;
  c.dir_resolutions = r.host.dir_resolutions;
  c.dir_gate_skips = r.host.dir_gate_skips;
  c.dir_solo_fast_paths = r.host.dir_solo_fast_paths;
  c.dir_probes = r.host.dir_probes;
  c.asf_speculates = r.asf.speculates;
  c.asf_commits = r.asf.commits;
  c.asf_aborts = r.asf.TotalAborts();
  c.asf_capacity_aborts = r.asf.aborts[static_cast<size_t>(asfcommon::AbortCause::kCapacity)];
  c.tm = r.tm;
  c.breakdown = r.breakdown;
  return out;
}

JobResult RunStampJob(const JobSpec& spec, const JobHooks& hooks, BarrierClock* clock) {
  harness::StampConfig cfg = spec.stamp;
  cfg.collect_latency = hooks.collect_latency;
  cfg.obs.tracer = hooks.tracer;
  cfg.obs.tx_sink = clock;
  JobResult out;
  out.start = Now();
  CountingApp app(harness::MakeStampApp(spec.app), &out.counts);
  const harness::StampResult r = harness::RunStamp(app, cfg);
  out.end = Now();
  out.digest = Fingerprint(r.tm.Commits(), r.exec_cycles, r.tm);
  out.failure = r.validation;
  out.sim_cycles = r.exec_cycles;
  out.counts.tm = r.tm;
  out.counts.breakdown = r.breakdown;
  return out;
}

}  // namespace

JobResult RunJob(const JobSpec& spec, const JobHooks& hooks) {
  const asfcommon::FramePool::Stats before = asfcommon::FramePool::ForThread().stats();
  BarrierClock clock(hooks.tx_log);
  JobResult out = spec.is_stamp() ? RunStampJob(spec, hooks, &clock)
                                  : RunIntsetJob(spec, hooks, &clock);
  out.barrier = clock.barrier();
  out.tx_events = clock.events();
  const asfcommon::FramePool::Stats after = asfcommon::FramePool::ForThread().stats();
  out.counts.frame_allocs = after.allocs - before.allocs;
  out.counts.frame_pool_hits = after.pool_hits - before.pool_hits;
  return out;
}

PassResult RunPass(const std::vector<JobSpec>& grid, uint32_t workers, bool collect_latency,
                   bool probe_host_speed) {
  PassResult pass;
  pass.jobs.resize(grid.size());
  pass.probe_s.resize(probe_host_speed ? grid.size() : 0);
  harness::SweepRunner sweep(workers);
  JobHooks hooks;
  hooks.collect_latency = collect_latency;
  for (size_t i = 0; i < grid.size(); ++i) {
    sweep.Submit([&grid, &pass, &hooks, i] {
      if (!pass.probe_s.empty()) {
        pass.probe_s[i] = HostSpeedProbe();
      }
      pass.jobs[i] = RunJob(grid[i], hooks);
    });
  }
  const double cpu0 = CpuSeconds();
  const double t0 = Now();
  sweep.Run();
  pass.wall_s = Now() - t0;
  pass.cpu_s = CpuSeconds() - cpu0;
  return pass;
}

namespace {

const uint32_t kThreadCounts[] = {1, 2, 4, 8};

std::string IntsetLabel(const harness::IntsetConfig& cfg) {
  return cfg.structure + "/r" + std::to_string(cfg.key_range) + "/u" +
         std::to_string(cfg.update_pct) + " " + harness::RuntimeKindName(cfg.runtime) + " " +
         cfg.variant.Name() + " t" + std::to_string(cfg.threads);
}

// The perf_selfcheck grid, in its order: fig5's long read chains (list),
// balanced-tree lookups (rb) and short write-only hash operations, on the
// smallest and the largest ASF variant. The traced slice runs a fifth of
// the operations so the largest op stream stays near a million events.
std::vector<JobSpec> Fig5SliceGrid(uint64_t seed, bool slice) {
  struct Panel {
    const char* structure;
    uint64_t key_range;
    uint32_t update_pct;
  };
  const Panel panels[] = {{"list", 512, 20}, {"rb", 8192, 20}, {"hash", 8192, 100}};
  const asf::AsfVariant variants[] = {asf::AsfVariant::Llb8(), asf::AsfVariant::Llb256WithL1()};
  std::vector<JobSpec> grid;
  for (const Panel& p : panels) {
    for (const asf::AsfVariant& variant : variants) {
      for (uint32_t threads : kThreadCounts) {
        JobSpec job;
        harness::IntsetConfig& cfg = job.intset;
        cfg.structure = p.structure;
        cfg.key_range = p.key_range;
        cfg.update_pct = p.update_pct;
        cfg.threads = threads;
        cfg.ops_per_thread = slice ? 300 : 1500;
        cfg.variant = variant;
        cfg.seed = seed;
        job.label = IntsetLabel(cfg);
        grid.push_back(job);
      }
    }
  }
  return grid;
}

// Figure 4's grid: every STAMP app under the four ASF variants and TinySTM
// at 1/2/4/8 threads, then the app's sequential baseline. The traced slice
// runs the default input size.
std::vector<JobSpec> StampFig4Grid(uint64_t seed, bool slice) {
  struct Series {
    harness::RuntimeKind runtime;
    asf::AsfVariant variant;
  };
  const Series series[] = {
      {harness::RuntimeKind::kAsfTm, asf::AsfVariant::Llb8()},
      {harness::RuntimeKind::kAsfTm, asf::AsfVariant::Llb256()},
      {harness::RuntimeKind::kAsfTm, asf::AsfVariant::Llb8WithL1()},
      {harness::RuntimeKind::kAsfTm, asf::AsfVariant::Llb256WithL1()},
      {harness::RuntimeKind::kTinyStm, asf::AsfVariant::Llb256()},
  };
  auto make = [&](const std::string& app, harness::RuntimeKind runtime,
                  const asf::AsfVariant& variant, uint32_t threads) {
    JobSpec job;
    job.app = app;
    harness::StampConfig& cfg = job.stamp;
    cfg.runtime = runtime;
    cfg.variant = variant;
    cfg.threads = threads;
    cfg.scale = slice ? 1 : 2;
    cfg.seed = seed;
    job.label = app + " " + harness::RuntimeKindName(runtime) + " " + variant.Name() + " t" +
                std::to_string(threads);
    return job;
  };
  std::vector<JobSpec> grid;
  for (const std::string& app : harness::StampAppNames()) {
    for (const Series& s : series) {
      for (uint32_t threads : kThreadCounts) {
        grid.push_back(make(app, s.runtime, s.variant, threads));
      }
    }
    grid.push_back(make(app, harness::RuntimeKind::kSequential, asf::AsfVariant::Llb256(), 1));
  }
  return grid;
}

// Write-only operations on small key ranges at 8 threads: every core
// speculates, so conflicts, rollback, backoff and the fallback paths of all
// three hardware-attempt loops (ASF-TM, PhasedTM, lock elision) dominate;
// TinySTM runs the same operations through its barriers. The traced slice
// runs half the operations.
std::vector<JobSpec> IntsetContendedGrid(uint64_t seed, bool slice) {
  struct Panel {
    const char* structure;
    uint64_t key_range;
  };
  const Panel panels[] = {{"list", 128}, {"rb", 256}, {"hash", 64}};
  struct Series {
    harness::RuntimeKind runtime;
    asf::AsfVariant variant;
  };
  const Series series[] = {
      {harness::RuntimeKind::kAsfTm, asf::AsfVariant::Llb8()},
      {harness::RuntimeKind::kAsfTm, asf::AsfVariant::Llb256()},
      {harness::RuntimeKind::kPhasedTm, asf::AsfVariant::Llb8()},
      {harness::RuntimeKind::kPhasedTm, asf::AsfVariant::Llb256()},
      {harness::RuntimeKind::kLockElision, asf::AsfVariant::Llb8()},
      {harness::RuntimeKind::kLockElision, asf::AsfVariant::Llb256()},
      {harness::RuntimeKind::kTinyStm, asf::AsfVariant::Llb256()},
  };
  std::vector<JobSpec> grid;
  for (const Panel& p : panels) {
    for (const Series& s : series) {
      JobSpec job;
      harness::IntsetConfig& cfg = job.intset;
      cfg.structure = p.structure;
      cfg.key_range = p.key_range;
      cfg.update_pct = 100;
      cfg.threads = 8;
      cfg.ops_per_thread = slice ? 250 : 500;
      cfg.runtime = s.runtime;
      cfg.variant = s.variant;
      cfg.seed = seed;
      job.label = IntsetLabel(cfg);
      grid.push_back(job);
    }
  }
  return grid;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  // Reference seeds are the harness defaults, so the fig5 slice reproduces
  // the perf_selfcheck anchor digests.
  static const std::vector<Workload> kWorkloads = {
      {"fig5-slice-serial", 1, false, 1, Fig5SliceGrid},
      {"stamp-fig4-sweep", 2, true, 42, StampFig4Grid},
      {"intset-contended", 1, true, 1, IntsetContendedGrid},
  };
  return kWorkloads;
}

}  // namespace perfbench
