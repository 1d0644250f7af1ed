// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// The traced run: splits a workload's host time across the simulator's
// layers from outside, by calling each layer's public functions.
//
// Every job of the workload's traced slice runs three times on one host
// thread: with latency/heatmap collection off, with it on, and with a
// tracer recording the measured-window op stream. The on-minus-off
// difference is the obs layer's host time; the recorded stream is replayed
// into a fresh asfmem::MemorySystem (mem self time) and through a fresh
// asfsim::Scheduler with a constant-latency access handler (sim self time);
// what remains of the jobs' measured-window host time is the residual
// (ASF machine, TM runtime and application code). A timestamp-only pass at
// the workload's own sweep width then gives the harness's dispatch metrics.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/jobs.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct TracedRun {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;             // Jobs run.
  size_t passes = 0;                  // Timestamp-only sweep passes.
  std::vector<std::string> failures;  // One entry per failed job or self-check.
};

// Runs the traced analysis of `w` at simulation seed `seed`, then repeats
// the timestamp-only sweep pass until `seconds` have elapsed (at least once).
TracedRun RunTraced(const Workload& w, uint64_t seed, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
