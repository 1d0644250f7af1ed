// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests for the host-parallel sweep engine (src/harness/sweep.h): the
// ParallelFor contract, the determinism guarantee (a sweep at --jobs N is
// byte-identical to --jobs 1), and post-join statistics merging. The
// parallel cases double as the machine-exclusivity check under TSan: every
// job owns its own asf::Machine, and Scheduler::Run's atomic host-ownership
// guard trips if two host threads ever enter one simulator.
#include "src/harness/sweep.h"

#include <sched.h>

#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/asf/machine.h"
#include "src/fault/fault_schedule.h"
#include "src/harness/experiment.h"
#include "src/harness/stress.h"
#include "src/mem/memory_system.h"
#include "src/sim/scheduler.h"

namespace {

harness::IntsetConfig SmallConfig(const char* structure, uint32_t threads, uint64_t seed) {
  harness::IntsetConfig cfg;
  cfg.structure = structure;
  cfg.key_range = 128;
  cfg.update_pct = 20;
  cfg.threads = threads;
  cfg.ops_per_thread = 200;
  cfg.seed = seed;
  return cfg;
}

std::string Digest(const harness::IntsetResult& r) {
  return std::to_string(r.committed_tx) + ":" + std::to_string(r.measure_cycles) + ":" +
         std::to_string(r.tm.TotalAttempts()) + ":" + std::to_string(r.tm.TotalAborts()) + ":" +
         std::to_string(r.breakdown.Total());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 200;
  std::vector<int> hits(kN, 0);
  std::atomic<size_t> calls{0};
  // Each index is claimed by exactly one worker, so the per-index increment
  // is unsynchronized on purpose — TSan would flag a double claim.
  harness::ParallelFor(8, kN, [&](size_t i) {
    ++hits[i];
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), kN);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, SingleJobRunsInlineInOrder) {
  std::vector<size_t> order;
  harness::ParallelFor(1, 10, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelForTest, MoreJobsThanItems) {
  std::atomic<size_t> calls{0};
  harness::ParallelFor(16, 3, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3u);
}

TEST(ParallelForTest, ZeroItemsIsANoop) {
  harness::ParallelFor(8, 0, [&](size_t) { FAIL() << "must not be called"; });
}

TEST(SweepRunnerTest, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(harness::DefaultJobs(), 1u);
  // "Auto" means the CPUs this process may run on, not the CPUs online: a
  // taskset/cgroup-pinned process must not start more workers than it has.
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(harness::DefaultJobs(), static_cast<uint32_t>(CPU_COUNT(&set)));
  // Narrow this thread to one CPU of its mask, as taskset would, so an
  // unpinned host with several CPUs also tells the two counts apart.
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const uint32_t pinned = harness::DefaultJobs();
  ASSERT_EQ(sched_setaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(harness::SweepRunner(0).jobs(), harness::DefaultJobs());
  EXPECT_EQ(harness::SweepRunner(3).jobs(), 3u);
}

// The core guarantee: fanning a grid over 8 host threads produces results
// identical to the serial pass, config by config.
TEST(SweepRunnerTest, ParallelIntsetSweepMatchesSerial) {
  const char* structures[] = {"list", "rb", "hash"};
  std::vector<harness::IntsetConfig> grid;
  for (const char* s : structures) {
    for (uint32_t threads : {1u, 4u}) {
      grid.push_back(SmallConfig(s, threads, 7));
    }
  }

  harness::SweepRunner serial(1);
  harness::SweepRunner parallel(8);
  for (const auto& cfg : grid) {
    serial.SubmitIntset(cfg);
    parallel.SubmitIntset(cfg);
  }
  serial.Run();
  parallel.Run();

  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(Digest(serial.intset(i)), Digest(parallel.intset(i))) << "config " << i;
  }
}

TEST(SweepRunnerTest, ParallelStressSweepMatchesSerial) {
  harness::StressConfig sc;
  sc.intset = SmallConfig("list", 4, 3);
  ASSERT_TRUE(asffault::FaultSchedule::Lookup("interrupt-heavy", &sc.schedule));

  harness::SweepRunner serial(1);
  harness::SweepRunner parallel(4);
  for (auto rt : {harness::RuntimeKind::kAsfTm, harness::RuntimeKind::kTinyStm}) {
    sc.intset.runtime = rt;
    serial.SubmitStress(sc);
    parallel.SubmitStress(sc);
  }
  serial.Run();
  parallel.Run();

  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(serial.stress(i).Digest(), parallel.stress(i).Digest()) << "config " << i;
    EXPECT_TRUE(parallel.stress(i).invariant_violation.empty());
  }
}

TEST(SweepRunnerTest, StampJobMatchesSerial) {
  harness::StampConfig cfg;
  cfg.threads = 2;
  cfg.scale = 1;

  harness::SweepRunner serial(1);
  harness::SweepRunner parallel(2);
  serial.SubmitStamp("genome", cfg);
  parallel.SubmitStamp("genome", cfg);
  serial.Run();
  parallel.Run();

  EXPECT_TRUE(parallel.stamp(0).validation.empty());
  EXPECT_EQ(serial.stamp(0).exec_cycles, parallel.stamp(0).exec_cycles);
  EXPECT_EQ(serial.stamp(0).tm.TotalAttempts(), parallel.stamp(0).tm.TotalAttempts());
}

TEST(SweepRunnerTest, GenericSubmitRunsEveryJob) {
  harness::SweepRunner sweep(4);
  std::vector<int> out(8, 0);
  for (size_t i = 0; i < out.size(); ++i) {
    sweep.Submit([&out, i]() { out[i] = static_cast<int>(i) + 1; });
  }
  sweep.Run();
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
}

// Cross-layer bit-identity gate for the host-side fast paths: a full
// experiment run with the scheduler's next-event slot, the memory system's
// line/page memoization and the conflict directory's active-speculator gate
// (plus its single-speculator path) disabled must produce byte-identical
// results to the default (enabled) run — the fast paths are pure host
// optimizations with zero simulated effect. Latency histograms and hot-line
// heatmaps are collected for every run and must match too, so the gate
// covers the observer order as well as the headline counters.
TEST(SweepRunnerTest, HostFastPathsDoNotChangeResults) {
  const char* structures[] = {"list", "rb", "hash"};
  std::vector<harness::IntsetConfig> grid;
  for (const char* s : structures) {
    for (uint32_t threads : {1u, 4u, 8u}) {
      grid.push_back(SmallConfig(s, threads, 11));
    }
  }

  // Work-heavy variants: extra per-barrier instructions put a work flush in
  // front of every barrier access (counts in and beyond the core's work
  // table), under the hardware path and the STM.
  for (int extra : {200, 300}) {
    for (harness::RuntimeKind rt : {harness::RuntimeKind::kAsfTm, harness::RuntimeKind::kTinyStm}) {
      harness::IntsetConfig cfg = SmallConfig("rb", 4, 12);
      cfg.runtime = rt;
      cfg.barrier_instructions = extra;
      grid.push_back(cfg);
    }
  }

  // Every runtime on every hardware variant, on a small contended tree.
  for (harness::RuntimeKind rt :
       {harness::RuntimeKind::kAsfTm, harness::RuntimeKind::kTinyStm,
        harness::RuntimeKind::kSequential, harness::RuntimeKind::kGlobalLock,
        harness::RuntimeKind::kPhasedTm, harness::RuntimeKind::kLockElision}) {
    for (const asf::AsfVariant& v : {asf::AsfVariant::Llb8(), asf::AsfVariant::Llb256(),
                                     asf::AsfVariant::Llb8WithL1(),
                                     asf::AsfVariant::Asf1Llb256()}) {
      // The uninstrumented sequential runtime is single-thread only.
      harness::IntsetConfig cfg =
          SmallConfig("rb", rt == harness::RuntimeKind::kSequential ? 1 : 4, 13);
      cfg.key_range = 512;
      cfg.update_pct = 40;
      cfg.ops_per_thread = 120;
      cfg.runtime = rt;
      cfg.variant = v;
      grid.push_back(cfg);
    }
  }
  for (harness::IntsetConfig& cfg : grid) {
    cfg.collect_latency = true;
  }

  std::vector<harness::IntsetResult> fast;
  std::vector<harness::IntsetResult> slow;
  for (const auto& cfg : grid) {
    fast.push_back(harness::RunIntset(cfg));
  }
  asfsim::Scheduler::SetWakeFastPathForTesting(false);
  asfmem::MemorySystem::SetFastPathForTesting(false);
  asf::Machine::SetSpeculatorGateForTesting(false);
  for (const auto& cfg : grid) {
    slow.push_back(harness::RunIntset(cfg));
  }
  asfsim::Scheduler::SetWakeFastPathForTesting(true);
  asfmem::MemorySystem::SetFastPathForTesting(true);
  asf::Machine::SetSpeculatorGateForTesting(true);

  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(Digest(fast[i]), Digest(slow[i])) << "config " << i;
    EXPECT_EQ(fast[i].breakdown.cycles, slow[i].breakdown.cycles) << "config " << i;
    EXPECT_EQ(fast[i].asf.aborts, slow[i].asf.aborts) << "config " << i;
    EXPECT_TRUE(fast[i].latency == slow[i].latency) << "config " << i;
    EXPECT_TRUE(fast[i].heatmap == slow[i].heatmap) << "config " << i;
    // Direct continuations count as scheduled wakes, so sequence numbers
    // (the cycle tie-breaks) advance identically on both paths.
    EXPECT_EQ(fast[i].host.wakes, slow[i].host.wakes) << "config " << i;
    // The telemetry proves the fast paths actually engaged (and actually
    // disengaged under the test toggles).
    EXPECT_GT(fast[i].host.fast_wakes, 0u) << "config " << i;
    EXPECT_GT(fast[i].host.mem_line_hits, 0u) << "config " << i;
    EXPECT_GT(fast[i].host.dir_gate_skips + fast[i].host.dir_solo_fast_paths, 0u)
        << "config " << i;
    if (grid[i].threads == 1) {
      // A lone thread's wakes are always the global minimum: the inline
      // consume at the suspension point must fire.
      EXPECT_GT(fast[i].host.inline_wakes, 0u) << "config " << i;
    }
    EXPECT_EQ(slow[i].host.fast_wakes, 0u) << "config " << i;
    EXPECT_EQ(slow[i].host.inline_wakes, 0u) << "config " << i;
    EXPECT_EQ(slow[i].host.mem_line_hits, 0u) << "config " << i;
    EXPECT_EQ(slow[i].host.mem_page_hits, 0u) << "config " << i;
    EXPECT_EQ(slow[i].host.dir_gate_skips + slow[i].host.dir_solo_fast_paths, 0u)
        << "config " << i;
  }
}

TEST(SweepRunnerTest, MergeTxStatsSumsPerJobCounters) {
  harness::SweepRunner sweep(4);
  for (uint64_t seed : {1u, 2u, 3u}) {
    sweep.SubmitIntset(SmallConfig("rb", 4, seed));
  }
  sweep.Run();

  std::vector<harness::IntsetResult> results;
  uint64_t started = 0;
  uint64_t attempts = 0;
  uint64_t aborts = 0;
  for (size_t i = 0; i < 3; ++i) {
    results.push_back(sweep.intset(i));
    started += sweep.intset(i).tm.tx_started;
    attempts += sweep.intset(i).tm.TotalAttempts();
    aborts += sweep.intset(i).tm.TotalAborts();
  }
  asftm::TxStats merged = harness::MergeTxStats(results);
  EXPECT_EQ(merged.tx_started, started);
  EXPECT_EQ(merged.TotalAttempts(), attempts);
  EXPECT_EQ(merged.TotalAborts(), aborts);
}

}  // namespace
