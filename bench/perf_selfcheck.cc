// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Simulator bit-identity gate (docs/PERFORMANCE.md): runs a representative
// slice of the Figure 5 IntegerSet sweep and records one result digest per
// configuration. The digests are wall-clock independent, so they must not
// move with --jobs, with the host, or with any host-side optimization.
//
// The emitted JSON (--json, checked in as BENCH_sim_throughput.json) carries
// the per-config digest table. `--baseline <path>` re-reads such a report and
// hard-fails if any digest shifted, so a host-side "optimization" that changes
// simulated results cannot land silently. Run at a --jobs other than the
// baseline's, the same check also proves the sweep is jobs-invariant.
// Simulator speed is measured by perfbench (python3 perfbench/run.py), not
// here.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/harness/experiment.h"
#include "src/harness/sweep.h"
#include "src/obs/export.h"
#include "src/obs/json.h"

namespace {

constexpr const char* kDigestTableTitle = "Result digests (per configuration)";

// Order-sensitive fingerprint of one configuration's result; wall-clock
// independent, so every --jobs count must agree byte for byte.
std::string DigestOf(const harness::IntsetResult& r) {
  return std::to_string(r.committed_tx) + ":" + std::to_string(r.measure_cycles) + ":" +
         std::to_string(r.tm.TotalAttempts()) + ":" + std::to_string(r.tm.TotalAborts());
}

std::string ConfigLabel(const harness::IntsetConfig& cfg) {
  return cfg.structure + "/r" + std::to_string(cfg.key_range) + "/u" +
         std::to_string(cfg.update_pct) + " " + cfg.variant.Name() + " t" +
         std::to_string(cfg.threads);
}

std::vector<harness::IntsetConfig> BuildGrid(bool quick, uint64_t seed) {
  struct Panel {
    const char* structure;
    uint64_t key_range;
    uint32_t update_pct;
  };
  // Representative fig5 panels: short traversals (hash), long read chains
  // (list), balanced-tree contention (rb).
  const Panel panels[] = {
      {"list", 512, 20},
      {"rb", 8192, 20},
      {"hash", 8192, 100},
  };
  const asf::AsfVariant variants[] = {
      asf::AsfVariant::Llb8(),
      asf::AsfVariant::Llb256WithL1(),
  };
  std::vector<harness::IntsetConfig> grid;
  for (const Panel& p : panels) {
    for (const auto& variant : variants) {
      for (uint32_t threads : benchutil::ThreadCounts()) {
        harness::IntsetConfig cfg;
        cfg.structure = p.structure;
        cfg.key_range = p.key_range;
        cfg.update_pct = p.update_pct;
        cfg.threads = threads;
        cfg.ops_per_thread = quick ? 150 : 1500;
        cfg.variant = variant;
        if (seed != 0) {
          cfg.seed = seed;
        }
        grid.push_back(cfg);
      }
    }
  }
  return grid;
}

// Compares this run's digest table against a previously written JSON report.
// Returns 0 on match, 1 on a digest mismatch (simulated results shifted),
// 2 when the baseline is unusable (unreadable, wrong mode/seed, or predates
// the digest table).
int CheckBaseline(const std::string& path, const benchutil::Options& opt,
                  const asfcommon::Table& digests) {
  std::string text;
  std::string error;
  if (!asfobs::ReadTextFile(path, &text, &error)) {
    std::fprintf(stderr, "baseline: %s\n", error.c_str());
    return 2;
  }
  asfobs::JsonValue root;
  if (!asfobs::JsonValue::Parse(text, &root, &error)) {
    std::fprintf(stderr, "baseline %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  const asfobs::JsonValue* quick = root.Get("quick");
  const asfobs::JsonValue* seed = root.Get("seed");
  if (quick == nullptr || seed == nullptr || quick->AsBool() != opt.quick ||
      seed->AsUInt() != opt.seed) {
    std::fprintf(stderr,
                 "baseline %s: mode mismatch (baseline quick=%s seed=%llu, run quick=%s "
                 "seed=%llu); digests are only comparable for identical modes\n",
                 path.c_str(), quick != nullptr && quick->AsBool() ? "true" : "false",
                 seed != nullptr ? static_cast<unsigned long long>(seed->AsUInt()) : 0ull,
                 opt.quick ? "true" : "false", static_cast<unsigned long long>(opt.seed));
    return 2;
  }
  const asfobs::JsonValue* tables = root.Get("tables");
  const asfobs::JsonValue* base_digests = nullptr;
  if (tables != nullptr && tables->IsArray()) {
    for (const asfobs::JsonValue& t : tables->items()) {
      const asfobs::JsonValue* title = t.Get("title");
      if (title != nullptr && title->AsString() == kDigestTableTitle) {
        base_digests = t.Get("rows");
        break;
      }
    }
  }
  if (base_digests == nullptr || !base_digests->IsArray()) {
    std::fprintf(stderr,
                 "baseline %s: no \"%s\" table — regenerate the baseline with a current "
                 "binary (--json)\n",
                 path.c_str(), kDigestTableTitle);
    return 2;
  }
  if (base_digests->size() != digests.rows().size()) {
    std::fprintf(stderr, "baseline %s: %zu configurations, this run has %zu\n", path.c_str(),
                 base_digests->size(), digests.rows().size());
    return 1;
  }
  int mismatches = 0;
  for (size_t i = 0; i < digests.rows().size(); ++i) {
    const asfobs::JsonValue& row = base_digests->at(i);
    const std::string& label = digests.rows()[i][0];
    const std::string& digest = digests.rows()[i][1];
    if (row.size() != 2 || row.at(0).AsString() != label || row.at(1).AsString() != digest) {
      std::fprintf(stderr, "FAILED: digest shift at config %zu\n  baseline: %s = %s\n  run:      %s = %s\n",
                   i, row.size() == 2 ? row.at(0).AsString().c_str() : "?",
                   row.size() == 2 ? row.at(1).AsString().c_str() : "?", label.c_str(),
                   digest.c_str());
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FAILED: %d digest(s) shifted against %s — a host-side change altered "
                 "simulated results\n",
                 mismatches, path.c_str());
    return 1;
  }
  std::printf("baseline: all %zu digests match %s\n", digests.rows().size(), path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --baseline <path> is filtered out before the shared strict parser: it
  // compares this run's digests against a prior --json report and fails on
  // any shift.
  std::string baseline_path;
  std::vector<char*> filtered;
  filtered.reserve(static_cast<size_t>(argc));
  filtered.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --baseline requires a path operand\n", argv[0]);
        return 2;
      }
      baseline_path = argv[++i];
    } else {
      filtered.push_back(argv[i]);
    }
  }
  benchutil::Options opt =
      benchutil::ParseArgs(static_cast<int>(filtered.size()), filtered.data());
  benchutil::JsonReport report("perf_selfcheck", opt);

  const std::vector<harness::IntsetConfig> grid = BuildGrid(opt.quick, opt.seed);
  std::printf("Simulator bit-identity gate: %zu configurations (fig5 slice), --jobs %u\n\n",
              grid.size(), opt.jobs);

  harness::SweepRunner sweep(opt.jobs);
  for (const harness::IntsetConfig& cfg : grid) {
    sweep.SubmitIntset(cfg);
  }
  sweep.Run();

  asfcommon::Table digests(kDigestTableTitle);
  digests.SetHeader({"configuration", "digest (tx:cycles:attempts:aborts)"});
  for (size_t i = 0; i < grid.size(); ++i) {
    digests.AddRow({ConfigLabel(grid[i]), DigestOf(sweep.intset(i))});
  }
  digests.Print();
  report.Add(digests);
  if (opt.csv) {
    digests.PrintCsv(stdout);
  }

  if (!baseline_path.empty()) {
    int rc = CheckBaseline(baseline_path, opt, digests);
    if (rc != 0) {
      return rc;
    }
  }
  return report.Write() ? 0 : 1;
}
