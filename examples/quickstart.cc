// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Quickstart: the two levels of the ASF TM stack in one file.
//
//   1. Raw ASF — the paper's Figure 1: a DCAS (double compare-and-swap)
//      built directly from SPECULATE / LOCK MOV / COMMIT with a retry loop,
//      exercised concurrently from four simulated cores.
//   2. The TM runtime — the same machine, but programming with atomic
//      blocks against the TM ABI (what DTMC-compiled code does).
//
// Build and run:  ./build/examples/quickstart
#include <cstdio>

#include "src/asf/machine.h"
#include "src/harness/run_threads.h"
#include "src/tm/asf_tm.h"

namespace {

using asfcommon::AbortCause;
using asfsim::AccessKind;
using asfsim::SimThread;
using asfsim::Task;

struct alignas(64) Cell {
  uint64_t value = 0;
};

// --- Part 1: Figure-1 DCAS on raw ASF ---------------------------------------
//
// IF (*a == expect_a && *b == expect_b) { *a = new_a; *b = new_b; ok = 1 }
// executed atomically; aborts (contention, faults) land back after
// SPECULATE, so the caller retries with backoff.
Task<void> Dcas(SimThread& t, Cell* a, Cell* b, uint64_t expect_a, uint64_t expect_b,
                uint64_t new_a, uint64_t new_b, bool* ok) {
  co_await t.Access(AccessKind::kSpeculate, uint64_t{0}, 1);  // SPECULATE
  co_await t.Access(AccessKind::kTxLoad, &a->value, 8);       // LOCK MOV R10,[mem1]
  uint64_t va = a->value;
  co_await t.Access(AccessKind::kTxLoad, &b->value, 8);       // LOCK MOV RBX,[mem2]
  uint64_t vb = b->value;
  if (va == expect_a && vb == expect_b) {                     // CMP/JNZ
    co_await t.Store(AccessKind::kTxStore, &a->value, 8, new_a);  // LOCK MOV [mem1],RDI
    co_await t.Store(AccessKind::kTxStore, &b->value, 8, new_b);  // LOCK MOV [mem2],RSI
    *ok = true;
  } else {
    *ok = false;
  }
  co_await t.Access(AccessKind::kCommit, uint64_t{0}, 1);     // COMMIT
}

bool RunDcasDemo() {
  asf::MachineParams params;
  params.num_cores = 4;
  params.variant = asf::AsfVariant::Llb8();
  asf::Machine m(params);
  auto* a = m.arena().New<Cell>();
  auto* b = m.arena().New<Cell>();
  m.mem().PretouchPages(reinterpret_cast<uint64_t>(a), 64);
  m.mem().PretouchPages(reinterpret_cast<uint64_t>(b), 64);

  // Four cores each advance the pair (a, b) -> (a+1, b+2) twenty times.
  harness::RunThreads(m, 4, [&](SimThread& t, uint32_t tid) -> Task<void> {
    for (int n = 0; n < 20; ++n) {
      for (;;) {
        co_await t.Access(AccessKind::kLoad, &a->value, 8);
        uint64_t ea = a->value;
        co_await t.Access(AccessKind::kLoad, &b->value, 8);
        uint64_t eb = b->value;
        bool ok = false;
        AbortCause cause = co_await t.RunAbortable(Dcas(t, a, b, ea, eb, ea + 1, eb + 2, &ok));
        if (cause != AbortCause::kNone) {
          co_await t.Sleep(32 * (tid + 1));  // Backoff, retry the region.
          continue;
        }
        if (ok) {
          break;  // DCAS succeeded.
        }
        co_await t.Sleep(16);  // Value raced; reread and retry.
      }
    }
  });
  std::printf("[1] Figure-1 DCAS on raw ASF: a=%lu b=%lu (expected 80/160), aborts=%lu\n",
              a->value, b->value,
              m.context(0).stats().TotalAborts() + m.context(1).stats().TotalAborts() +
                  m.context(2).stats().TotalAborts() + m.context(3).stats().TotalAborts());
  return a->value == 80 && b->value == 160;
}

// --- Part 2: atomic blocks through the TM runtime ---------------------------

bool RunAtomicBlockDemo() {
  asf::MachineParams params;
  params.num_cores = 4;
  params.variant = asf::AsfVariant::Llb256();
  asf::Machine m(params);
  asftm::AsfTm tm(m);
  auto* counter = m.arena().New<Cell>();
  m.mem().PretouchPages(reinterpret_cast<uint64_t>(counter), 64);

  harness::RunThreads(m, 4, [&](SimThread& t, uint32_t) -> Task<void> {
    for (int i = 0; i < 50; ++i) {
      // This is the paper's Figure-2 increment, written against the TM ABI
      // (the form DTMC emits for `__tm_atomic { cntr = cntr + 5; }`).
      co_await tm.Atomic(t, [&](asftm::Tx& tx) -> Task<void> {
        uint64_t v = co_await tx.Read(&counter->value);
        co_await tx.Write(&counter->value, v + 5);
      });
    }
  });
  asftm::TxStats stats = tm.TotalStats();
  std::printf(
      "[2] Atomic blocks on ASF-TM: counter=%lu (expected 1000), "
      "hw-commits=%lu serial=%lu aborts=%lu\n",
      counter->value, stats.hw_commits, stats.serial_commits, stats.TotalAborts());
  std::printf("    simulated time: %.1f us at 2.2 GHz\n",
              static_cast<double>(m.scheduler().MaxCycle()) / 2200.0);
  return counter->value == 1000;
}

}  // namespace

int main() {
  std::printf("ASF TM stack quickstart (simulated 4-core machine)\n\n");
  const bool dcas_ok = RunDcasDemo();
  const bool atomic_ok = RunAtomicBlockDemo();
  return dcas_ok && atomic_ok ? 0 : 1;
}
