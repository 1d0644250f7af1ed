// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests of the TM runtimes: ASF-TM (hardware path, serial-irrevocable
// fallback, contention management, transactional malloc), TinySTM, the
// sequential/global-lock references, and cross-runtime atomicity properties.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/frame_pool.h"
#include "src/common/random.h"
#include "src/tm/asf_tm.h"
#include "src/tm/lock_elision.h"
#include "src/tm/phased_tm.h"
#include "src/tm/serial_tm.h"
#include "src/tm/tiny_stm.h"
#include "tests/resident_bytes.h"
#include "tests/tm_test_util.h"

namespace asftm {
namespace {

using asfcommon::AbortCause;
using asfcommon::FramePool;
using asfsim::AccessKind;
using asfsim::SimThread;
using asfsim::Task;
using asftest::Pretouch;
using asftest::ResidentBytes;
using asftest::QuietParams;
using asftest::RunWorkers;

struct alignas(64) Cell {
  uint64_t value = 0;
};

// Shared counter incremented transactionally by all workers: the canonical
// atomicity check (no lost updates under any runtime).
void CounterTest(TmRuntime& rt, asf::Machine& m, uint32_t threads, uint64_t increments) {
  Cell counter;
  Pretouch(m, &counter, sizeof(counter));
  RunWorkers(m, threads, [&](SimThread& t, uint32_t) -> Task<void> {
    for (uint64_t i = 0; i < increments; ++i) {
      co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
        uint64_t v = co_await tx.Read(&counter.value);
        t.core().WorkInstructions(5);
        co_await tx.Write(&counter.value, v + 1);
      });
    }
  });
  EXPECT_EQ(counter.value, threads * increments) << rt.name();
  EXPECT_EQ(rt.TotalStats().Commits(), threads * increments) << rt.name();
}

TEST(AsfTm, CounterAtomicAcrossThreads) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  AsfTm rt(m);
  CounterTest(rt, m, 4, 200);
  // Contention must have caused some aborts, all retried successfully.
  EXPECT_GT(rt.TotalStats().Aborts(AbortCause::kContention), 0u);
}

TEST(TinyStm, CounterAtomicAcrossThreads) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  TinyStm rt(m);
  CounterTest(rt, m, 4, 200);
  EXPECT_GT(rt.TotalStats().Aborts(AbortCause::kStmConflict), 0u);
}

TEST(GlobalLockTm, CounterAtomicAcrossThreads) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  GlobalLockTm rt(m);
  CounterTest(rt, m, 4, 200);
}

TEST(SequentialTm, CounterSingleThread) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
  SequentialTm rt(m);
  CounterTest(rt, m, 1, 500);
}

// Bank-transfer invariant: total balance is conserved by concurrent
// transfers; a concurrent auditor transaction always observes the full sum.
void BankTest(TmRuntime& rt, asf::Machine& m, uint32_t threads) {
  constexpr uint32_t kAccounts = 16;
  constexpr uint64_t kInitial = 1000;
  std::vector<Cell> accounts(kAccounts);
  for (auto& a : accounts) {
    a.value = kInitial;
  }
  Pretouch(m, accounts.data(), accounts.size() * sizeof(Cell));
  uint64_t audit_failures = 0;
  RunWorkers(m, threads, [&](SimThread& t, uint32_t tid) -> Task<void> {
    asfcommon::Rng rng(1234 + tid);
    for (int i = 0; i < 150; ++i) {
      if (tid == 0 && i % 10 == 0) {
        // Auditor: sums all accounts in one transaction.
        uint64_t sum = 0;
        co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
          sum = 0;
          for (auto& a : accounts) {
            sum += co_await tx.Read(&a.value);
          }
        });
        if (sum != kAccounts * kInitial) {
          ++audit_failures;
        }
        continue;
      }
      uint32_t from = static_cast<uint32_t>(rng.NextBelow(kAccounts));
      uint32_t to = static_cast<uint32_t>(rng.NextBelow(kAccounts));
      uint64_t amount = rng.NextInRange(1, 10);
      co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
        uint64_t f = co_await tx.Read(&accounts[from].value);
        uint64_t v = co_await tx.Read(&accounts[to].value);
        if (f >= amount) {
          co_await tx.Write(&accounts[from].value, f - amount);
          co_await tx.Write(&accounts[to].value, v + (from == to ? 0 : amount));
          if (from == to) {
            co_await tx.Write(&accounts[to].value, f);  // Self-transfer: no-op.
          }
        }
      });
    }
  });
  uint64_t total = 0;
  for (auto& a : accounts) {
    total += a.value;
  }
  EXPECT_EQ(total, kAccounts * kInitial) << rt.name();
  EXPECT_EQ(audit_failures, 0u) << rt.name();
}

TEST(AsfTm, BankInvariantLlb8) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  AsfTm rt(m);
  BankTest(rt, m, 4);
}

TEST(AsfTm, BankInvariantLlb256WithL1) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb256WithL1(), 4));
  AsfTm rt(m);
  BankTest(rt, m, 4);
}

TEST(TinyStm, BankInvariant) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  TinyStm rt(m);
  BankTest(rt, m, 4);
}

TEST(AsfTm, CapacityOverflowFallsBackToSerial) {
  // A transaction touching 32 lines cannot run on LLB-8: it must still
  // commit (via serial-irrevocable mode), not livelock.
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 2));
  AsfTm rt(m);
  std::vector<Cell> cells(32);
  Pretouch(m, cells.data(), cells.size() * sizeof(Cell));
  RunWorkers(m, 2, [&](SimThread& t, uint32_t) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
        for (auto& c : cells) {
          uint64_t v = co_await tx.Read(&c.value);
          co_await tx.Write(&c.value, v + 1);
        }
      });
    }
  });
  for (auto& c : cells) {
    EXPECT_EQ(c.value, 20u);
  }
  TxStats total = rt.TotalStats();
  EXPECT_EQ(total.serial_commits, 20u);  // Every tx went serial.
  EXPECT_EQ(total.hw_commits, 0u);
  EXPECT_GE(total.Aborts(AbortCause::kCapacity), 20u);
}

TEST(AsfTm, SerialModeAbortsConcurrentHardwareTx) {
  // One thread runs big (serial) transactions, the other small (hardware)
  // ones; both must make progress and stay atomic.
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 2));
  AsfTm rt(m);
  std::vector<Cell> big(32);
  Cell small;
  Pretouch(m, big.data(), big.size() * sizeof(Cell));
  Pretouch(m, &small, sizeof(small));
  RunWorkers(m, 2, [&](SimThread& t, uint32_t tid) -> Task<void> {
    if (tid == 0) {
      for (int i = 0; i < 5; ++i) {
        co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
          for (auto& c : big) {
            uint64_t v = co_await tx.Read(&c.value);
            co_await tx.Write(&c.value, v + 1);
          }
        });
      }
    } else {
      for (int i = 0; i < 200; ++i) {
        co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
          uint64_t v = co_await tx.Read(&small.value);
          co_await tx.Write(&small.value, v + 1);
        });
      }
    }
  });
  EXPECT_EQ(small.value, 200u);
  for (auto& c : big) {
    EXPECT_EQ(c.value, 5u);
  }
  TxStats total = rt.TotalStats();
  EXPECT_EQ(total.serial_commits, 5u);
  EXPECT_EQ(total.hw_commits, 200u);
}

// The runtimes whose hardware attempts run in the shared attempt loop; the
// abort-path tests below cover each of them.
using RuntimeFactory = std::unique_ptr<TmRuntime> (*)(asf::Machine&);
const RuntimeFactory kHwLoopRuntimes[] = {
    [](asf::Machine& m) -> std::unique_ptr<TmRuntime> { return std::make_unique<AsfTm>(m); },
    [](asf::Machine& m) -> std::unique_ptr<TmRuntime> { return std::make_unique<PhasedTm>(m); },
    [](asf::Machine& m) -> std::unique_ptr<TmRuntime> { return std::make_unique<ElisionTm>(m); },
};

TEST(AsfTm, TxMallocRefillAbortsThenSucceeds) {
  for (RuntimeFactory make : kHwLoopRuntimes) {
    asf::Machine m(QuietParams(asf::AsfVariant::Llb256(), 1));
    std::unique_ptr<TmRuntime> rt = make(m);
    SCOPED_TRACE(rt->name());
    Cell head;
    Pretouch(m, &head, sizeof(head));
    // Allocate more than one 64 KiB chunk's worth of 64-byte nodes.
    constexpr int kNodes = 1200;
    RunWorkers(m, 1, [&](SimThread& t, uint32_t) -> Task<void> {
      for (int i = 0; i < kNodes; ++i) {
        co_await rt->Atomic(t, [&](Tx& tx) -> Task<void> {
          void* p = co_await tx.TxMalloc(48);
          auto* cell = static_cast<Cell*>(p);
          co_await tx.Write(&cell->value, uint64_t{7});
          uint64_t v = co_await tx.Read(&head.value);
          co_await tx.Write(&head.value, v + 1);
        });
      }
    });
    EXPECT_EQ(head.value, static_cast<uint64_t>(kNodes));
    TxStats total = rt->TotalStats();
    EXPECT_GT(total.Aborts(AbortCause::kMallocRefill), 0u);
    // Fresh chunk pages fault inside transactions (the paper's hash-set
    // behavior): expect page-fault aborts too.
    EXPECT_GT(total.Aborts(AbortCause::kPageFault), 0u);
  }
}

TEST(AsfTm, UserAbortCancelsWithoutRetry) {
  // Every runtime in the attempt loop, the STM included.
  const RuntimeFactory kLoopRuntimes[] = {
      kHwLoopRuntimes[0], kHwLoopRuntimes[1], kHwLoopRuntimes[2],
      [](asf::Machine& m) -> std::unique_ptr<TmRuntime> { return std::make_unique<TinyStm>(m); },
  };
  for (RuntimeFactory make : kLoopRuntimes) {
    asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
    std::unique_ptr<TmRuntime> rt = make(m);
    SCOPED_TRACE(rt->name());
    Cell cell;
    Pretouch(m, &cell, sizeof(cell));
    RunWorkers(m, 1, [&](SimThread& t, uint32_t) -> Task<void> {
      co_await rt->Atomic(t, [&](Tx& tx) -> Task<void> {
        co_await tx.Write(&cell.value, uint64_t{99});
        co_await tx.UserAbort();
      });
    });
    EXPECT_EQ(cell.value, 0u);  // Cancelled: no effects.
    EXPECT_EQ(rt->TotalStats().Commits(), 0u);
    EXPECT_EQ(rt->TotalStats().Aborts(AbortCause::kUserAbort), 1u);
    EXPECT_EQ(rt->TotalStats().TotalAttempts(), 1u);  // No retry.
  }
}

TEST(AsfTm, UserAbortInSerialModeRollsBack) {
  // A transaction too big for the LLB falls back to serial mode; a
  // language-level cancel must still roll it back (revocable serial mode).
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
  AsfTm rt(m);
  std::vector<Cell> cells(24);
  Pretouch(m, cells.data(), cells.size() * sizeof(Cell));
  RunWorkers(m, 1, [&](SimThread& t, uint32_t) -> Task<void> {
    co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
      for (auto& c : cells) {
        uint64_t v = co_await tx.Read(&c.value);
        co_await tx.Write(&c.value, v + 9);
      }
      co_await tx.UserAbort();
    });
  });
  for (auto& c : cells) {
    EXPECT_EQ(c.value, 0u);  // Serial undo log restored everything.
  }
  EXPECT_EQ(rt.TotalStats().serial_commits, 0u);
  EXPECT_EQ(rt.TotalStats().Aborts(AbortCause::kUserAbort), 1u);
}

TEST(TinyStm, UserAbortRollsBackWrites) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
  TinyStm rt(m);
  Cell cell;
  cell.value = 5;
  Pretouch(m, &cell, sizeof(cell));
  RunWorkers(m, 1, [&](SimThread& t, uint32_t) -> Task<void> {
    co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
      co_await tx.Write(&cell.value, uint64_t{99});
      co_await tx.UserAbort();
    });
  });
  EXPECT_EQ(cell.value, 5u);  // Undo log restored the original.
}

TEST(TinyStm, WriteWriteConflictResolvedByLocking) {
  // Two threads repeatedly write disjoint-then-overlapping cells; final
  // state must reflect some serial order (both increments applied).
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 2));
  TinyStm rt(m);
  Cell a;
  Cell b;
  Pretouch(m, &a, sizeof(a));
  Pretouch(m, &b, sizeof(b));
  RunWorkers(m, 2, [&](SimThread& t, uint32_t tid) -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
        // Swap-update both cells: a' = a+1 then b' = b+1 (or reversed),
        // forcing write-write conflicts between the threads.
        if (tid == 0) {
          uint64_t va = co_await tx.Read(&a.value);
          co_await tx.Write(&a.value, va + 1);
          uint64_t vb = co_await tx.Read(&b.value);
          co_await tx.Write(&b.value, vb + 1);
        } else {
          uint64_t vb = co_await tx.Read(&b.value);
          co_await tx.Write(&b.value, vb + 1);
          uint64_t va = co_await tx.Read(&a.value);
          co_await tx.Write(&a.value, va + 1);
        }
      });
    }
  });
  EXPECT_EQ(a.value, 200u);
  EXPECT_EQ(b.value, 200u);
}

TEST(TinyStm, SerializeDecisionsRetryAtOnceWithoutBackoff) {
  // The STM has no fallback: when the policy says serialize, the attempt
  // loop retries immediately, with no backoff wait and no backoff events.
  struct BackoffCounter final : asfobs::TxEventSink {
    void OnTxEvent(const asfobs::TxEvent& ev) override {
      starts += ev.kind == asfobs::TxEventKind::kBackoffStart ? 1 : 0;
    }
    uint64_t starts = 0;
  } backoffs;
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  m.SetTxSink(&backoffs);
  TinyStmParams params;
  params.policy = MakeImmediateSerializePolicy();
  TinyStm rt(m, params);
  CounterTest(rt, m, 4, 200);
  TxStats s = rt.TotalStats();
  EXPECT_GT(s.Aborts(AbortCause::kStmConflict), 0u);
  EXPECT_EQ(s.stm_attempts, s.stm_commits + s.TotalAborts());
  EXPECT_EQ(s.backoff_cycles, 0u);
  EXPECT_EQ(backoffs.starts, 0u);
}

TEST(TinyStm, ReadOnlyTransactionsCommitWithoutClockBump) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
  TinyStm rt(m);
  Cell cell;
  cell.value = 42;
  Pretouch(m, &cell, sizeof(cell));
  uint64_t seen = 0;
  RunWorkers(m, 1, [&](SimThread& t, uint32_t) -> Task<void> {
    for (int i = 0; i < 50; ++i) {
      co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
        seen = co_await tx.Read(&cell.value);
      });
    }
  });
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(rt.TotalStats().stm_commits, 50u);
  EXPECT_EQ(rt.TotalStats().TotalAborts(), 0u);
}

TEST(TxAllocator, AttemptRollbackReturnsMemory) {
  TxAllocator alloc(nullptr, 1024, 64);
  alloc.Refill(1);
  alloc.OnAttemptStart();
  void* p1 = alloc.TryAlloc(64);
  ASSERT_NE(p1, nullptr);
  alloc.OnAbort();
  alloc.OnAttemptStart();
  void* p2 = alloc.TryAlloc(64);
  EXPECT_EQ(p1, p2);  // Same slot reused after rollback.
  alloc.OnCommit();
  alloc.OnAttemptStart();
  void* p3 = alloc.TryAlloc(64);
  EXPECT_NE(p2, p3);  // Committed allocation is permanent.
  alloc.OnCommit();
}

TEST(TxAllocator, DeferredFreesQuarantinedOnCommitOnly) {
  TxAllocator alloc(nullptr, 1024, 64);
  alloc.Refill(1);
  alloc.OnAttemptStart();
  void* p = alloc.TryAlloc(64);
  alloc.OnCommit();
  alloc.OnAttemptStart();
  alloc.DeferFree(p);
  alloc.OnAbort();  // Abort: the free never happened.
  alloc.OnAttemptStart();
  alloc.DeferFree(p);
  alloc.OnCommit();  // Now quarantined.
  // No crash / double handling: quarantine is reclaimed at destruction.
}

TEST(TxAllocator, NeedsRefillSignalsExhaustion) {
  TxAllocator alloc(nullptr, 256, 64);
  alloc.Refill(1);
  EXPECT_FALSE(alloc.NeedsRefill(64));
  alloc.OnAttemptStart();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(alloc.TryAlloc(64), nullptr);
  }
  EXPECT_EQ(alloc.TryAlloc(64), nullptr);
  EXPECT_TRUE(alloc.NeedsRefill(64));
  alloc.OnCommit();
}

// Determinism: two identical multi-runtime runs yield identical cycle counts.
TEST(TmDeterminism, IdenticalRunsIdenticalCycles) {
  auto run = [] {
    asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
    AsfTm rt(m);
    Cell counter;
    Pretouch(m, &counter, sizeof(counter));
    RunWorkers(m, 4, [&](SimThread& t, uint32_t) -> Task<void> {
      for (int i = 0; i < 50; ++i) {
        co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
          uint64_t v = co_await tx.Read(&counter.value);
          co_await tx.Write(&counter.value, v + 1);
        });
      }
    });
    return m.scheduler().MaxCycle();
  };
  EXPECT_EQ(run(), run());
}

// --- Fresh arena memory for the STM metadata ---------------------------------

// TinySTM's orec table, read sets and write sets come from fresh arena
// memory: constructing the runtime populates (almost) none of their pages —
// the one written object is the global clock, one line, at most one huge
// page — and all of it reads as zero (unlocked orecs, empty logs).
TEST(TinyStm, ConstructionLeavesMetadataFreshAndZeroed) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 8));
  const uint64_t before = m.arena().used();
  TinyStm rt(m);
  const uint64_t after = m.arena().used();
  const auto* first = reinterpret_cast<const uint8_t*>(m.arena().base() + before);
  const uint64_t bytes = after - before;
  // The default sizing: 2^20 orecs plus 8 threads' read and write logs.
  ASSERT_GT(bytes, 64ull << 20);
  EXPECT_LE(ResidentBytes(first, bytes), 2ull << 20);
  const auto* words = reinterpret_cast<const uint64_t*>(first);
  for (uint64_t i = 0; i < bytes / sizeof(uint64_t); ++i) {
    ASSERT_EQ(words[i], 0u) << "byte offset " << i * sizeof(uint64_t);
  }
}

// --- Typed barriers: aborts while suspended inside an awaiter ---------------

// Counts live barrier frames, to prove an unwind destroys them.
struct LiveFrame {
  explicit LiveFrame(int* live) : live_(live) { ++*live_; }
  ~LiveFrame() { --*live_; }
  LiveFrame(const LiveFrame&) = delete;
  LiveFrame& operator=(const LiveFrame&) = delete;
  int* live_;
};

// Barriers that are one timed access each: a region suspends inside a typed
// Read/Write awaiter exactly at that access.
class AccessTx : public Tx {
 public:
  AccessTx(SimThread& t, int* live) : Tx(t), live_(live) {}
  Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size) override {
    LiveFrame frame(live_);
    co_return co_await thread().Load(AccessKind::kTxLoad, addr, size);
  }
  Task<void> WriteBarrier(uint64_t addr, uint32_t size, uint64_t value) override {
    LiveFrame frame(live_);
    co_await thread().Store(AccessKind::kTxStore, addr, size, value);
  }
  Task<void*> TxMalloc(uint64_t) override { co_return nullptr; }
  Task<void> TxFree(void*) override { co_return; }
  Task<void> UserAbort() override { co_return; }

 private:
  int* live_;
};

// Aborts the issuing region on a chosen address (self-abort), and aborts a
// chosen victim's region when any thread touches a trigger address.
class AbortingHandler : public asfsim::AccessHandler {
 public:
  asfsim::AccessOutcome OnAccess(SimThread& thread, AccessKind, uint64_t addr,
                                 uint32_t) override {
    if (addr == self_abort_addr) {
      thread.MarkAbort(AbortCause::kExplicitAbort);
      return {kLatency, true};
    }
    if (addr == trigger_addr && victim != nullptr && victim->InAbortableScope()) {
      victim->MarkAbort(AbortCause::kContention);
    }
    return {kLatency, false};
  }
  static constexpr uint64_t kLatency = 100;
  uint64_t self_abort_addr = ~0ull;
  uint64_t trigger_addr = ~0ull;
  SimThread* victim = nullptr;
};

TEST(TypedBarriers, AbortInsideTypedAwaiterDestroysEveryFrame) {
  const FramePool::Stats before = FramePool::ForThread().stats();
  int live = 0;
  uint64_t cells[8] = {};
  std::vector<AbortCause> causes;
  uint64_t completed = 0;
  {
    asfsim::CoreParams params;
    params.timer_enabled = false;
    asfsim::Scheduler sched(2, params);
    AbortingHandler handler;
    handler.self_abort_addr = reinterpret_cast<uint64_t>(&cells[1]);
    handler.trigger_addr = reinterpret_cast<uint64_t>(&cells[7]);
    sched.SetAccessHandler(&handler);
    // Region bodies, one per way to die inside a typed awaiter.
    auto self_abort_in_read = [&](SimThread& t) -> Task<void> {
      AccessTx tx(t, &live);
      cells[2] = co_await tx.Read(&cells[0]);
      cells[2] += co_await tx.Read(&cells[1]);  // Self-aborts in the barrier.
      ++completed;
    };
    auto self_abort_in_write = [&](SimThread& t) -> Task<void> {
      AccessTx tx(t, &live);
      co_await tx.Write(&cells[1], uint64_t{9});  // Self-aborts in the barrier.
      ++completed;
    };
    auto remote_abort_in_read = [&](SimThread& t) -> Task<void> {
      AccessTx tx(t, &live);
      // Suspended here for kLatency cycles while thread 1 hits the trigger.
      cells[3] = co_await tx.Read(&cells[4]);
      ++completed;
    };
    auto remote_abort_in_write = [&](SimThread& t) -> Task<void> {
      AccessTx tx(t, &live);
      co_await tx.Write(&cells[5], uint64_t{6});
      ++completed;
    };
    auto commits = [&](SimThread& t) -> Task<void> {
      AccessTx tx(t, &live);
      const uint64_t v = co_await tx.Read(&cells[0]);
      co_await tx.Write(&cells[6], v + 1);
      ++completed;
    };
    SimThread* t0 = nullptr;
    auto victim = [&]() -> Task<void> {
      SimThread& t = *t0;
      causes.push_back(co_await t.RunAbortable(self_abort_in_read(t)));
      causes.push_back(co_await t.RunAbortable(self_abort_in_write(t)));
      causes.push_back(co_await t.RunAbortable(remote_abort_in_read(t)));
      causes.push_back(co_await t.RunAbortable(remote_abort_in_write(t)));
      causes.push_back(co_await t.RunAbortable(commits(t)));
    };
    SimThread* t1 = nullptr;
    auto aggressor = [&]() -> Task<void> {
      SimThread& t = *t1;
      // Thread 0's remote-abort regions issue their barrier access at
      // cycles 300 and 400 (three accesses of kLatency each before them)
      // and stay suspended for kLatency; hit the trigger inside each window.
      t.core().WorkCycles(350);
      co_await t.Access(AccessKind::kStore, &cells[7], 8);
      t.core().WorkCycles(10);
      co_await t.Access(AccessKind::kStore, &cells[7], 8);
    };
    t0 = &sched.Spawn(victim());
    t1 = &sched.Spawn(aggressor());
    handler.victim = t0;
    sched.Run();
  }
  EXPECT_EQ(causes, (std::vector<AbortCause>{AbortCause::kExplicitAbort,
                                             AbortCause::kExplicitAbort,
                                             AbortCause::kContention, AbortCause::kContention,
                                             AbortCause::kNone}));
  EXPECT_EQ(completed, 1u);
  EXPECT_EQ(cells[6], 1u);
  EXPECT_EQ(cells[1], 0u);  // The aborted store never applied.
  EXPECT_EQ(live, 0);
  const FramePool::Stats after = FramePool::ForThread().stats();
  EXPECT_GT(after.allocs, before.allocs);
  EXPECT_EQ(after.allocs - before.allocs, after.frees - before.frees);
}

// The same balance under real runtimes whose contended barriers abort
// mid-flight: every frame allocated by a run is freed by the time its
// machine is gone.
TEST(TypedBarriers, ContendedRuntimesBalanceFrameAllocations) {
  for (int runtime = 0; runtime < 2; ++runtime) {
    const FramePool::Stats before = FramePool::ForThread().stats();
    uint64_t aborts = 0;
    {
      asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
      std::unique_ptr<TmRuntime> rt;
      if (runtime == 0) {
        rt = std::make_unique<AsfTm>(m);
      } else {
        rt = std::make_unique<TinyStm>(m);
      }
      CounterTest(*rt, m, 4, 100);
      aborts = rt->TotalStats().TotalAborts();
    }
    EXPECT_GT(aborts, 0u) << runtime;
    const FramePool::Stats after = FramePool::ForThread().stats();
    EXPECT_EQ(after.allocs - before.allocs, after.frees - before.frees) << runtime;
  }
}

}  // namespace
}  // namespace asftm
