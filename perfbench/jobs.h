// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Benchmark jobs: the three workload grids, one SweepRunner job per grid
// cell, and the host-side timestamps and layer counters each job reports.
// Everything here drives the simulator through its public harness entry
// points (harness::RunIntset, harness::RunStamp) with exact-mode settings
// only.
#ifndef PERFBENCH_JOBS_H_
#define PERFBENCH_JOBS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/stamp_driver.h"
#include "src/obs/obs_session.h"
#include "src/sim/trace.h"

namespace perfbench {

// Seconds on the steady clock.
double Now();
// User + system CPU seconds of the whole process (all threads).
double CpuSeconds();
// Median of a non-empty sample (mean of the middle two for even sizes).
double Median(std::vector<double> v);

// Host seconds a fixed kernel takes on the calling thread: independent
// integer chains, chained-hash lookups in a 4.5 MB table and binary-heap
// updates; it read 1.3-2.5 ms on the host of BASELINE.json. It runs no
// simulator code, so only the host moves it.
// On a shared host, other tenants slow it, and the simulator with it, by up
// to 2x for minutes at a time.
double HostSpeedProbe();
// Bytes of the probe's table, which stays mapped once a probe has run.
size_t HostSpeedProbeBytes();

// One grid cell: an intset configuration, or a STAMP app run when `app` is
// set.
struct JobSpec {
  std::string label;
  std::string app;
  harness::IntsetConfig intset;
  harness::StampConfig stamp;

  bool is_stamp() const { return !app.empty(); }
};

// Whole-job layer counters, read through the public accessors the harness
// exposes (IntsetResult) or, for STAMP jobs, from the machine at validation
// time. Host-side counters cover the whole job; TM and cycle counters cover
// the measured window.
struct LayerCounts {
  uint64_t wakes = 0;
  uint64_t fast_wakes = 0;
  uint64_t inline_wakes = 0;
  uint64_t frame_allocs = 0;
  uint64_t frame_pool_hits = 0;
  uint64_t mem_accesses = 0;
  uint64_t mem_line_hits = 0;
  uint64_t mem_page_hits = 0;
  uint64_t dir_resolutions = 0;
  uint64_t dir_gate_skips = 0;
  uint64_t dir_solo_fast_paths = 0;
  uint64_t dir_probes = 0;
  uint64_t asf_speculates = 0;
  uint64_t asf_commits = 0;
  uint64_t asf_aborts = 0;
  uint64_t asf_capacity_aborts = 0;
  asftm::TxStats tm;
  harness::CycleBreakdown breakdown;

  void Add(const LayerCounts& o);
};

// What a job run can override without changing the simulated workload.
struct JobHooks {
  bool collect_latency = false;
  asfsim::Tracer* tracer = nullptr;  // Borrowed; records the measured window.
  asfobs::TxEventLog* tx_log = nullptr;  // Borrowed; same, for lifecycle events.
};

struct JobResult {
  double start = 0.0;    // Job entry.
  double barrier = 0.0;  // Measurement barrier (statistics reset).
  double end = 0.0;      // Result returned.
  std::string digest;    // Simulated-result fingerprint.
  std::string failure;   // Validation / invariant message; empty when valid.
  uint64_t sim_cycles = 0;  // Measured-window simulated cycles.
  uint64_t tx_events = 0;   // Lifecycle events after the barrier.
  LayerCounts counts;

  double setup_s() const { return barrier - start; }
  double window_s() const { return end - barrier; }
  double host_s() const { return end - start; }
};

// Runs one job on the calling host thread.
JobResult RunJob(const JobSpec& spec, const JobHooks& hooks);

// One pass over a grid through a harness::SweepRunner with `workers` host
// threads; `collect_latency` is the workload's setting.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<JobResult> jobs;  // Submission order.
  std::vector<double> probe_s;  // HostSpeedProbe() on each job's thread just before it.
};
// `probe_host_speed` reads the probe before each job; the probes count in
// the pass's wall and CPU time.
PassResult RunPass(const std::vector<JobSpec>& grid, uint32_t workers, bool collect_latency,
                   bool probe_host_speed);

// A named workload. `grid(seed, slice)` builds its jobs from a simulation
// seed; `slice` selects the reduced grid the traced run records op streams
// on (identical to the full grid where the streams stay small).
struct Workload {
  const char* name;
  uint32_t workers;
  bool collect_latency;
  uint64_t reference_seed;
  std::vector<JobSpec> (*grid)(uint64_t seed, bool slice);
};

const std::vector<Workload>& Workloads();

}  // namespace perfbench

#endif  // PERFBENCH_JOBS_H_
