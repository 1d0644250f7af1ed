// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Benchmark program for the ASF/TM simulator (see README.md).
//
//   asfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--held-out]
//
// --trace 0 runs the workload's grid once at its reference seed (the digests
// run.py checks against reference_digests.json; skipped with --held-out),
// then repeats the grid at the simulation seed until `s` seconds have passed
// since the start (at least three passes), and reports the end-to-end
// metrics as medians over those passes, at a reference host speed (README.md
// says why and how).
// --trace 1 runs the traced per-layer analysis instead
// (layers.h). --held-out shifts the simulation seed into a range no
// development run uses.
//
// Prints one JSON object on stdout. Validation failures, results that differ
// between passes at the same seed, and failed self-checks are listed in it;
// run.py turns them into the benchmark's verdict.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "perfbench/jobs.h"
#include "perfbench/layers.h"
#include "src/obs/json.h"

namespace {

using perfbench::Metric;

constexpr uint64_t kHeldOutSeedOffset = 1000000;
constexpr size_t kMinPasses = 3;
// The HostSpeedProbe() reading that end-to-end host times are scaled to. It
// only sets the scale, and must stay fixed for figures to compare across
// commits. The probe read 1.3-2.5 ms on the shared 4-vCPU Xeon VM of
// BASELINE.json, so its figures are about half the measured host times.
constexpr double kReferenceProbeS = 1.0e-3;
constexpr size_t kMaxListedFailures = 20;

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> [--held-out]\n"
               "workloads:",
               argv0);
  for (const perfbench::Workload& w : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool ParseUInt(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Fail(const std::string& why) {
    ++failed;
    failures.push_back(why);
  }
};

// Counts a pass's jobs and fails each one whose output did not validate or
// whose result differs from `expected` (when given).
void CheckPass(const std::vector<perfbench::JobSpec>& grid, const perfbench::PassResult& pass,
               const std::vector<std::string>* expected, Outcome* outcome) {
  for (size_t i = 0; i < pass.jobs.size(); ++i) {
    const perfbench::JobResult& r = pass.jobs[i];
    ++outcome->attempted;
    if (!r.failure.empty()) {
      outcome->Fail(grid[i].label + ": validation: " + r.failure);
    } else if (expected != nullptr && (*expected)[i] != r.digest) {
      outcome->Fail(grid[i].label + ": nondeterministic result (" + r.digest + " vs " +
                    (*expected)[i] + ")");
    }
  }
}

std::vector<std::string> Digests(const perfbench::PassResult& pass) {
  std::vector<std::string> d;
  for (const perfbench::JobResult& r : pass.jobs) {
    d.push_back(r.digest);
  }
  return d;
}

// The process's resident high-water mark since the last ResetPeakRss(). VmHWM
// belongs to the address space, which exec replaces; ru_maxrss would also
// count the parent's resident set at fork time.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

// Lowers the high-water mark to the current resident set, so each pass's
// peak is read on its own (Linux 4.0+; without it the peak stays cumulative).
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

}  // namespace

int main(int argc, char** argv) {
  const double t_start = perfbench::Now();
  std::string workload_name;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 2;
  bool held_out = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--held-out") {
      held_out = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(argv[0]);
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      have_seed = ParseUInt(value, &seed);
      if (!have_seed) {
        Usage(argv[0]);
      }
    } else if (flag == "--seconds") {
      if (!ParseUInt(value, &seconds) || seconds == 0) {
        Usage(argv[0]);
      }
    } else if (flag == "--trace") {
      if (!ParseUInt(value, &trace) || trace > 1) {
        Usage(argv[0]);
      }
    } else {
      Usage(argv[0]);
    }
  }
  const perfbench::Workload* w = nullptr;
  for (const perfbench::Workload& cand : perfbench::Workloads()) {
    if (workload_name == cand.name) {
      w = &cand;
    }
  }
  if (w == nullptr || !have_seed || seconds == 0 || trace > 1) {
    Usage(argv[0]);
  }
  const uint64_t sim_seed = held_out ? seed + kHeldOutSeedOffset : seed;

  Outcome outcome;
  std::vector<Metric> metrics;
  std::vector<std::string> reference_labels;
  std::vector<std::string> reference_digests;
  size_t passes = 0;
  std::vector<double> pass_wall;
  double host_slowdown = 0.0;  // Median probe reading over the reference one.
  double host_wall_s = 0.0;    // Median pass wall time, as measured.
  if (trace == 1) {
    perfbench::TracedRun traced = perfbench::RunTraced(*w, sim_seed, static_cast<double>(seconds));
    outcome.attempted = traced.attempted;
    passes = traced.passes;
    for (const std::string& f : traced.failures) {
      outcome.Fail(f);
    }
    metrics = std::move(traced.metrics);
  } else {
    if (!held_out) {
      const std::vector<perfbench::JobSpec> ref_grid = w->grid(w->reference_seed, false);
      const perfbench::PassResult ref =
          perfbench::RunPass(ref_grid, w->workers, w->collect_latency, false);
      CheckPass(ref_grid, ref, nullptr, &outcome);
      reference_digests = Digests(ref);
      for (const perfbench::JobSpec& job : ref_grid) {
        reference_labels.push_back(job.label);
      }
    }
    const std::vector<perfbench::JobSpec> grid = w->grid(sim_seed, false);
    // Host times are taken at the reference host speed: each pass's times,
    // less its probes, are scaled by kReferenceProbeS over the median probe
    // reading of the pass. README.md says why.
    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> setup;
    std::vector<double> speed;
    std::vector<double> pass_rss;
    std::vector<std::string> first;
    double sim_mcycles = 0.0;
    // The run ends before the next pass would cross the deadline, which
    // counts from the start so the reference pass is inside it.
    while (passes < kMinPasses ||
           perfbench::Now() - t_start + pass_wall.back() < static_cast<double>(seconds)) {
      ResetPeakRss();
      const perfbench::PassResult pass =
          perfbench::RunPass(grid, w->workers, w->collect_latency, true);
      // The probe's table is mapped for the rest of the run; it is not the
      // simulator's.
      pass_rss.push_back(PeakRssMb() -
                         static_cast<double>(perfbench::HostSpeedProbeBytes()) / (1 << 20));
      const double probe = perfbench::Median(pass.probe_s);
      const double probe_sum = std::accumulate(pass.probe_s.begin(), pass.probe_s.end(), 0.0);
      const double scale = kReferenceProbeS / probe;
      if (passes == 0) {
        first = Digests(pass);
        for (const perfbench::JobResult& r : pass.jobs) {
          sim_mcycles += static_cast<double>(r.sim_cycles) / 1e6;
        }
      }
      CheckPass(grid, pass, passes == 0 ? nullptr : &first, &outcome);
      double pass_setup = 0.0;
      for (const perfbench::JobResult& r : pass.jobs) {
        pass_setup += r.setup_s();
      }
      pass_wall.push_back(pass.wall_s);
      wall.push_back((pass.wall_s - probe_sum / w->workers) * scale);
      cpu.push_back((pass.cpu_s - probe_sum) * scale);
      setup.push_back(pass_setup * scale);
      speed.push_back(probe / kReferenceProbeS);
      ++passes;
    }
    const double wall_s = perfbench::Median(wall);
    metrics = {
        {"wall_s", wall_s, "s"},
        {"cpu_s", perfbench::Median(cpu), "s"},
        {"sim_mcycles_per_s", sim_mcycles / wall_s, "Mcycles/s"},
        {"sim_mcycles", sim_mcycles, "Mcycles"},
        {"setup_s", perfbench::Median(setup), "s"},
        {"peak_rss_mb", perfbench::Median(pass_rss), "MB"},
    };
    host_slowdown = perfbench::Median(speed);
    host_wall_s = perfbench::Median(pass_wall);
  }

  std::string out;
  asfobs::JsonWriter j(&out);
  j.BeginObject();
  j.KV("workload", w->name);
  j.KV("workers", w->workers);
  j.KV("seed", seed);
  j.KV("sim_seed", sim_seed);
  j.KV("held_out", held_out);
  j.KV("trace", trace);
  j.KV("passes", static_cast<uint64_t>(passes));
  j.KV("attempted", outcome.attempted);
  j.KV("failed", outcome.failed);
  j.Key("failures");
  j.BeginArray();
  for (size_t i = 0; i < outcome.failures.size() && i < kMaxListedFailures; ++i) {
    j.String(outcome.failures[i]);
  }
  j.EndArray();
  if (!reference_digests.empty()) {
    j.Key("reference");
    j.BeginObject();
    j.KV("seed", w->reference_seed);
    j.Key("jobs");
    j.BeginArray();
    for (size_t i = 0; i < reference_digests.size(); ++i) {
      j.BeginObject();
      j.KV("label", reference_labels[i]);
      j.KV("digest", reference_digests[i]);
      j.EndObject();
    }
    j.EndArray();
    j.EndObject();
  }
  j.Key("pass_wall_s");
  j.BeginArray();
  for (double v : pass_wall) {
    j.Double(v);
  }
  j.EndArray();
  if (host_slowdown > 0.0) {
    j.KV("host_slowdown", host_slowdown);
    j.KV("host_wall_s", host_wall_s);
  }
  j.Key("metrics");
  j.BeginObject();
  for (const Metric& m : metrics) {
    j.Key(m.name);
    j.BeginObject();
    j.KV("value", m.value);
    j.KV("unit", m.unit);
    j.EndObject();
  }
  j.EndObject();
  j.EndObject();
  std::printf("%s\n", out.c_str());
  return 0;
}
