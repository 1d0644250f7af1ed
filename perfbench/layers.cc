// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "perfbench/layers.h"

#include <algorithm>
#include <memory>

#include "src/mem/memory_system.h"
#include "src/obs/heatmap.h"
#include "src/obs/latency.h"
#include "src/sim/scheduler.h"

namespace perfbench {

namespace {

using asfsim::AccessKind;
using asfsim::TraceEvent;

// Keeps the op stream only: cycle spans are not replayed, and dropping them
// halves the traced run's memory.
class StreamTracer final : public asfsim::Tracer {
 public:
  StreamTracer() : Tracer(1 << 20) {}
  void RecordSpan(const asfsim::CycleSpan&) override {}
};

// The kinds the machine forwards to the memory hierarchy, and which of them
// it charges as writes (asf::Machine::OnAccess).
bool IsMemoryKind(AccessKind k) {
  return k == AccessKind::kLoad || k == AccessKind::kStore || k == AccessKind::kTxLoad ||
         k == AccessKind::kTxStore || k == AccessKind::kWatchR || k == AccessKind::kWatchW;
}
bool IsWriteLike(AccessKind k) {
  return k == AccessKind::kStore || k == AccessKind::kTxStore || k == AccessKind::kWatchW;
}

struct MemReplay {
  double seconds = 0.0;
  uint64_t ops = 0;
  uint64_t l1_hits = 0;
  uint64_t refs = 0;  // Loads + stores the memory system counted.
};

MemReplay ReplayMemory(const std::vector<TraceEvent>& events, uint32_t cores,
                       const asfmem::MemParams& params) {
  asfmem::MemorySystem mem(cores, params);
  MemReplay out;
  const double t0 = Now();
  for (const TraceEvent& ev : events) {
    if (IsMemoryKind(ev.kind)) {
      mem.Access(ev.core, ev.addr, ev.size, IsWriteLike(ev.kind));
      ++out.ops;
    }
  }
  out.seconds = Now() - t0;
  const asfmem::MemStats st = mem.TotalStats();
  out.l1_hits = st.l1_hits;
  out.refs = st.loads + st.stores;
  return out;
}

// Charges every replayed op the same latency, so the scheduler replay
// measures event dispatch and coroutine switching alone.
class ConstantLatency final : public asfsim::AccessHandler {
 public:
  asfsim::AccessOutcome OnAccess(asfsim::SimThread&, AccessKind, uint64_t, uint32_t) override {
    return {kReplayLatency, false};
  }

 private:
  static constexpr uint64_t kReplayLatency = 3;
};

struct ReplayCore {
  asfsim::SimThread* thread = nullptr;
  const std::vector<TraceEvent>* events = nullptr;
  std::vector<uint32_t> ops;  // Indices into *events, in issue order.
  uint64_t done = 0;
};

asfsim::Task<void> ReplayOps(ReplayCore* c) {
  for (uint32_t i : c->ops) {
    const TraceEvent& ev = (*c->events)[i];
    co_await c->thread->Access(ev.kind, ev.addr, ev.size);
    ++c->done;
  }
}

struct SimReplay {
  double seconds = 0.0;
  uint64_t ops = 0;
};

SimReplay ReplayScheduler(const std::vector<TraceEvent>& events, uint32_t cores) {
  std::vector<std::unique_ptr<ReplayCore>> per_core;
  for (uint32_t c = 0; c < cores; ++c) {
    per_core.push_back(std::make_unique<ReplayCore>());
    per_core.back()->events = &events;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    per_core[events[i].core]->ops.push_back(static_cast<uint32_t>(i));
  }
  asfsim::CoreParams params;
  params.timer_enabled = false;
  asfsim::Scheduler sched(cores, params);
  ConstantLatency handler;
  sched.SetAccessHandler(&handler);
  for (auto& c : per_core) {
    c->thread = &sched.Spawn(ReplayOps(c.get()));
  }
  SimReplay out;
  const double t0 = Now();
  sched.Run();
  out.seconds = Now() - t0;
  for (const auto& c : per_core) {
    out.ops += c->done;
  }
  return out;
}

// Feeds recorded lifecycle events through the recorders collect_latency
// installs, as the harness chains them.
double ReplayObs(const std::vector<asfobs::TxEvent>& events) {
  asfobs::HeatmapRecorder heatmap;
  asfobs::LatencyRecorder latency(&heatmap);
  const double t0 = Now();
  for (const asfobs::TxEvent& ev : events) {
    latency.OnTxEvent(ev);
  }
  return Now() - t0;
}

asfmem::MemParams JobMemParams(const JobSpec& job) {
  if (job.is_stamp()) {
    return harness::PaperMachineParams(job.stamp.variant, job.stamp.threads,
                                       job.stamp.timer_interrupts)
        .mem;
  }
  return harness::PaperMachineParams(job.intset.variant, job.intset.threads,
                                     job.intset.timer_interrupts)
      .mem;
}

uint32_t JobThreads(const JobSpec& job) {
  return job.is_stamp() ? job.stamp.threads : job.intset.threads;
}

double Ratio(double part, double whole) { return whole == 0.0 ? 0.0 : part / whole; }

}  // namespace

TracedRun RunTraced(const Workload& w, uint64_t seed, double seconds) {
  const double t_begin = Now();
  TracedRun out;
  auto fail = [&out](const JobSpec& job, const std::string& why) {
    out.failures.push_back(job.label + ": " + why);
  };

  // --- Per-layer split on the traced slice, one host thread. ---------------
  LayerCounts counts;
  double window_off = 0.0;
  double window_on = 0.0;
  double window_traced = 0.0;
  uint64_t tx_events = 0;
  double obs_replay_s = 0.0;
  uint64_t stream_ops = 0;
  MemReplay mem_total;
  SimReplay sim_total;
  for (const JobSpec& job : w.grid(seed, true)) {
    JobHooks hooks;
    hooks.collect_latency = false;
    const JobResult off = RunJob(job, hooks);
    asfobs::TxEventLog log;
    hooks.collect_latency = true;
    hooks.tx_log = &log;
    const JobResult on = RunJob(job, hooks);
    hooks.tx_log = nullptr;
    StreamTracer tracer;
    hooks.collect_latency = w.collect_latency;
    hooks.tracer = &tracer;
    const JobResult traced = RunJob(job, hooks);
    out.attempted += 3;
    for (const JobResult* r : {&off, &on, &traced}) {
      if (!r->failure.empty()) {
        fail(job, "validation: " + r->failure);
      }
    }
    if (on.digest != off.digest) {
      fail(job, "latency collection changed the result (" + on.digest + " vs " + off.digest +
                    ")");
    }
    if (traced.digest != off.digest) {
      fail(job, "tracing changed the result (" + traced.digest + " vs " + off.digest + ")");
    }

    const std::vector<TraceEvent>& events = tracer.events();
    obs_replay_s += ReplayObs(log.events());
    const MemReplay mem = ReplayMemory(events, JobThreads(job), JobMemParams(job));
    const SimReplay sim = ReplayScheduler(events, JobThreads(job));
    if (sim.ops != events.size()) {
      fail(job, "scheduler replay ran " + std::to_string(sim.ops) + " of " +
                    std::to_string(events.size()) + " traced ops");
    }
    if (mem.refs != mem.ops) {
      fail(job, "memory system counted " + std::to_string(mem.refs) + " of " +
                    std::to_string(mem.ops) + " replayed memory ops");
    }

    counts.Add(off.counts);
    window_off += off.window_s();
    window_on += on.window_s();
    window_traced += traced.window_s();
    tx_events += on.tx_events;
    stream_ops += events.size();
    mem_total.seconds += mem.seconds;
    mem_total.ops += mem.ops;
    mem_total.l1_hits += mem.l1_hits;
    mem_total.refs += mem.refs;
    sim_total.seconds += sim.seconds;
    sim_total.ops += sim.ops;
  }
  const double obs_s = window_on - window_off;
  // The on-run's measured windows hold every layer, obs included.
  const double host_s = window_on;
  if (sim_total.seconds + mem_total.seconds + obs_s > host_s) {
    out.failures.push_back("self-check: sim + mem + obs self time exceeds job host time");
  }
  const double untraced_window = w.collect_latency ? window_on : window_off;

  // --- Sweep dispatch at the workload's own width, timestamps only. -------
  std::vector<double> busy;
  std::vector<double> longest;
  std::vector<double> over_bound;
  const std::vector<JobSpec> grid = w.grid(seed, false);
  std::vector<std::string> first_digests;
  do {
    const PassResult pass = RunPass(grid, w.workers, w.collect_latency, false);
    ++out.passes;
    out.attempted += pass.jobs.size();
    double sum = 0.0;
    double max_job = 0.0;
    for (size_t i = 0; i < pass.jobs.size(); ++i) {
      const JobResult& r = pass.jobs[i];
      sum += r.host_s();
      max_job = std::max(max_job, r.host_s());
      if (!r.failure.empty()) {
        fail(grid[i], "validation: " + r.failure);
      }
      if (first_digests.size() < pass.jobs.size()) {
        first_digests.push_back(r.digest);
      } else if (first_digests[i] != r.digest) {
        fail(grid[i], "nondeterministic result (" + r.digest + " vs " + first_digests[i] + ")");
      }
    }
    busy.push_back(sum / (w.workers * pass.wall_s));
    longest.push_back(max_job);
    over_bound.push_back(pass.wall_s / std::max(max_job, sum / w.workers));
  } while (Now() - t_begin < seconds);

  const harness::CycleBreakdown& b = counts.breakdown;
  const double cycles = static_cast<double>(b.Total());
  auto cyc = [&b](asfsim::CycleCategory c) { return static_cast<double>(b.At(c)); };
  const asftm::TxStats& tm = counts.tm;
  out.metrics = {
      {"sim.wakes", static_cast<double>(counts.wakes), "count"},
      {"sim.slot_wake_ratio", Ratio(counts.fast_wakes, counts.wakes), "ratio"},
      {"sim.inline_wake_ratio", Ratio(counts.inline_wakes, counts.wakes), "ratio"},
      {"sim.frame_recycle_ratio", Ratio(counts.frame_pool_hits, counts.frame_allocs), "ratio"},
      {"sim.replay_ns_per_op", 1e9 * Ratio(sim_total.seconds, sim_total.ops), "ns/op"},
      {"mem.accesses", static_cast<double>(counts.mem_accesses), "count"},
      {"mem.line_memo_ratio", Ratio(counts.mem_line_hits, counts.mem_accesses), "ratio"},
      {"mem.page_memo_ratio", Ratio(counts.mem_page_hits, counts.mem_accesses), "ratio"},
      {"mem.l1_hit_ratio", Ratio(mem_total.l1_hits, mem_total.refs), "ratio"},
      {"mem.replay_ns_per_op", 1e9 * Ratio(mem_total.seconds, mem_total.ops), "ns/op"},
      {"asf.dir_resolutions", static_cast<double>(counts.dir_resolutions), "count"},
      {"asf.dir_gate_skip_ratio", Ratio(counts.dir_gate_skips, counts.dir_resolutions), "ratio"},
      {"asf.dir_solo_ratio", Ratio(counts.dir_solo_fast_paths, counts.dir_resolutions), "ratio"},
      {"asf.dir_probes_per_access", Ratio(counts.dir_probes, counts.mem_accesses), "ratio"},
      {"asf.region_commit_ratio", Ratio(counts.asf_commits, counts.asf_speculates), "ratio"},
      {"asf.capacity_abort_share", Ratio(counts.asf_capacity_aborts, counts.asf_aborts), "ratio"},
      {"tm.attempts_per_commit", Ratio(tm.TotalAttempts(), tm.Commits()), "ratio"},
      {"tm.serial_commit_share", Ratio(tm.serial_commits, tm.Commits()), "ratio"},
      {"tm.backoff_cycle_share", Ratio(tm.backoff_cycles, cycles), "ratio"},
      {"tm.barrier_cycle_share", Ratio(cyc(asfsim::CycleCategory::kTxLoadStore), cycles), "ratio"},
      {"tm.abort_waste_share", Ratio(cyc(asfsim::CycleCategory::kTxAbortWaste), cycles), "ratio"},
      {"app.work_cycle_share",
       Ratio(cyc(asfsim::CycleCategory::kOutsideTx) + cyc(asfsim::CycleCategory::kTxNonInstr) +
                 cyc(asfsim::CycleCategory::kTxAppCode),
             cycles),
       "ratio"},
      {"obs.tx_events", static_cast<double>(tx_events), "count"},
      {"obs.host_s", obs_s, "s"},
      {"obs.ns_per_event", 1e9 * Ratio(obs_s, tx_events), "ns/event"},
      {"obs.replay_ns_per_event", 1e9 * Ratio(obs_replay_s, tx_events), "ns/event"},
      {"sweep.busy_ratio", Median(busy), "ratio"},
      {"sweep.longest_job_s", Median(longest), "s"},
      {"sweep.wall_over_bound", Median(over_bound), "ratio"},
      {"residual.host_s", host_s - sim_total.seconds - mem_total.seconds - obs_s, "s"},
      {"trace.overhead_ratio", Ratio(window_traced, untraced_window), "ratio"},
      {"trace.stream_ops", static_cast<double>(stream_ops), "count"},
  };
  return out;
}

}  // namespace perfbench
