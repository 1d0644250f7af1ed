// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Unit tests for the coroutine task type and the deterministic scheduler:
// ordering, work charging, abortable scopes (normal completion, self-abort,
// remote abort, destructor unwinding), sync primitives, timer interrupts.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/core.h"
#include "src/sim/scheduler.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace asfsim {
namespace {

using asfcommon::AbortCause;

// Handler with a fixed latency per access; records the global order of
// (core, addr) access events and can mark self-aborts for chosen addresses.
class RecordingHandler : public AccessHandler {
 public:
  explicit RecordingHandler(uint64_t latency) : latency_(latency) {}

  AccessOutcome OnAccess(SimThread& thread, AccessKind kind, uint64_t addr,
                         uint32_t size) override {
    log.push_back({thread.id(), addr, thread.core().clock()});
    if (addr == abort_addr_) {
      thread.MarkAbort(AbortCause::kExplicitAbort);
      return {latency_, true};
    }
    if (addr == remote_abort_addr_ && victim_ != nullptr && victim_->InAbortableScope()) {
      victim_->MarkAbort(AbortCause::kContention);
    }
    return {latency_, false};
  }

  void SetSelfAbortAddr(uint64_t a) { abort_addr_ = a; }
  void SetRemoteAbort(uint64_t trigger_addr, SimThread* victim) {
    remote_abort_addr_ = trigger_addr;
    victim_ = victim;
  }

  struct Entry {
    uint32_t core;
    uint64_t addr;
    uint64_t cycle;
  };
  std::vector<Entry> log;

 private:
  uint64_t latency_;
  uint64_t abort_addr_ = ~0ull;
  uint64_t remote_abort_addr_ = ~0ull;
  SimThread* victim_ = nullptr;
};

CoreParams NoTimerParams() {
  CoreParams p;
  p.timer_enabled = false;
  return p;
}

TEST(Task, CompletesAndReturnsValue) {
  Scheduler sched(1, NoTimerParams());
  RecordingHandler handler(3);
  sched.SetAccessHandler(&handler);

  int result = 0;
  auto inner = [](SimThread& t) -> Task<int> {
    co_await t.Access(AccessKind::kLoad, uint64_t{0x1000}, 8);
    co_return 42;
  };
  auto outer = [&](SimThread& t) -> Task<void> {
    result = co_await inner(t);
  };

  // Spawn needs the thread reference before building the task; use a
  // two-step: create thread with a trampoline.
  struct Box {
    SimThread* t = nullptr;
  } box;
  auto root = [&box, &outer]() -> Task<void> {
    co_await outer(*box.t);
  };
  SimThread& t = sched.Spawn(root());
  box.t = &t;
  sched.Run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(t.core().clock(), 3u);  // One access, 3 cycles.
}

// An exception escaping simulated code is a bug; the abort must name it.
TEST(TaskDeathTest, EscapingExceptionPrintsWhatAndAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched(1, NoTimerParams());
        RecordingHandler handler(3);
        sched.SetAccessHandler(&handler);
        SimThread* thread = nullptr;
        auto body = [&thread]() -> Task<void> {
          co_await thread->Access(AccessKind::kLoad, uint64_t{0x1000}, 8);
          throw std::runtime_error("boom");
        };
        thread = &sched.Spawn(body());
        sched.Run();
      },
      "boom");
}

TEST(Scheduler, InterleavesThreadsInCycleOrder) {
  Scheduler sched(2, NoTimerParams());
  RecordingHandler handler(10);
  sched.SetAccessHandler(&handler);

  struct Box {
    SimThread* t = nullptr;
  };
  Box b0;
  Box b1;
  // Thread 0 accesses at cycles 0, 10, 20...; thread 1 works 5 cycles first,
  // so it accesses at 5, 15, 25...
  auto body = [](Box* box, uint64_t head_work, uint64_t base) -> Task<void> {
    SimThread& t = *box->t;
    t.core().WorkCycles(head_work);
    for (int i = 0; i < 3; ++i) {
      co_await t.Access(AccessKind::kLoad, base + static_cast<uint64_t>(i) * 64, 8);
    }
  };
  b0.t = &sched.Spawn(body(&b0, 0, 0x1000));
  b1.t = &sched.Spawn(body(&b1, 5, 0x2000));
  sched.Run();

  ASSERT_EQ(handler.log.size(), 6u);
  // Expected processing cycles: t0@0, t1@5, t0@10, t1@15, t0@20, t1@25.
  std::vector<uint64_t> cycles;
  std::vector<uint32_t> cores;
  for (const auto& e : handler.log) {
    cycles.push_back(e.cycle);
    cores.push_back(e.core);
  }
  EXPECT_EQ(cycles, (std::vector<uint64_t>{0, 5, 10, 15, 20, 25}));
  EXPECT_EQ(cores, (std::vector<uint32_t>{0, 1, 0, 1, 0, 1}));
}

TEST(Scheduler, WorkCyclesRespectIpc) {
  CoreParams p = NoTimerParams();
  p.ipc = 2.0;
  Scheduler sched(1, p);
  RecordingHandler handler(0);
  sched.SetAccessHandler(&handler);
  struct Box {
    SimThread* t = nullptr;
  } box;
  auto body = [&box]() -> Task<void> {
    box.t->core().WorkInstructions(100);  // 50 cycles at IPC 2.
    co_await box.t->Access(AccessKind::kLoad, uint64_t{0x99}, 8);
  };
  box.t = &sched.Spawn(body());
  sched.Run();
  ASSERT_EQ(handler.log.size(), 1u);
  EXPECT_EQ(handler.log[0].cycle, 50u);
}

TEST(AbortScope, NormalCompletionReturnsNone) {
  Scheduler sched(1, NoTimerParams());
  RecordingHandler handler(1);
  sched.SetAccessHandler(&handler);
  AbortCause result = AbortCause::kContention;
  struct Box {
    SimThread* t = nullptr;
  } box;
  auto attempt = [&box]() -> Task<void> {
    co_await box.t->Access(AccessKind::kTxLoad, uint64_t{0x40}, 8);
  };
  auto root = [&]() -> Task<void> {
    result = co_await box.t->RunAbortable(attempt());
  };
  box.t = &sched.Spawn(root());
  sched.Run();
  EXPECT_EQ(result, AbortCause::kNone);
  EXPECT_FALSE(box.t->InAbortableScope());
}

TEST(AbortScope, SelfAbortUnwindsAndRunsDestructors) {
  Scheduler sched(1, NoTimerParams());
  RecordingHandler handler(1);
  sched.SetAccessHandler(&handler);
  int destroyed = 0;
  int after_abort_executed = 0;
  AbortCause result = AbortCause::kNone;

  struct Probe {
    int* counter;
    ~Probe() { ++*counter; }
  };
  struct Box {
    SimThread* t = nullptr;
  } box;
  auto inner = [&](SimThread& t) -> Task<void> {
    Probe p{&destroyed};
    co_await t.AbortSelf(AbortCause::kUserAbort);
    ++after_abort_executed;  // Must never run.
  };
  auto attempt = [&box, &inner, &destroyed]() -> Task<void> {
    Probe p{&destroyed};
    co_await inner(*box.t);
    co_return;
  };
  auto root = [&]() -> Task<void> {
    result = co_await box.t->RunAbortable(attempt());
  };
  box.t = &sched.Spawn(root());
  sched.Run();
  EXPECT_EQ(result, AbortCause::kUserAbort);
  EXPECT_EQ(destroyed, 2);  // Both frames unwound.
  EXPECT_EQ(after_abort_executed, 0);
}

TEST(AbortScope, RemoteAbortVictimUnwindsAtNextWake) {
  Scheduler sched(2, NoTimerParams());
  RecordingHandler handler(10);
  sched.SetAccessHandler(&handler);
  AbortCause victim_result = AbortCause::kNone;
  int victim_loops = 0;

  struct Box {
    SimThread* t = nullptr;
  };
  Box victim_box;
  Box attacker_box;

  auto victim_attempt = [&]() -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await victim_box.t->Access(AccessKind::kTxLoad, uint64_t{0x4000}, 8);
      ++victim_loops;
    }
  };
  auto victim_root = [&]() -> Task<void> {
    victim_result = co_await victim_box.t->RunAbortable(victim_attempt());
  };
  auto attacker_root = [&]() -> Task<void> {
    SimThread& t = *attacker_box.t;
    t.core().WorkCycles(35);  // Strike mid-run of the victim.
    co_await t.Access(AccessKind::kStore, uint64_t{0xDEAD}, 8);  // Trigger address.
  };
  victim_box.t = &sched.Spawn(victim_root());
  attacker_box.t = &sched.Spawn(attacker_root());
  handler.SetRemoteAbort(0xDEAD, nullptr);  // Re-set below once victim exists.
  handler.SetRemoteAbort(0xDEAD, victim_box.t);
  sched.Run();

  EXPECT_EQ(victim_result, AbortCause::kContention);
  EXPECT_LT(victim_loops, 100);
}

TEST(AbortScope, ScopeCanBeReenteredAfterAbort) {
  Scheduler sched(1, NoTimerParams());
  RecordingHandler handler(1);
  sched.SetAccessHandler(&handler);
  int attempts = 0;
  AbortCause last = AbortCause::kNone;
  struct Box {
    SimThread* t = nullptr;
  } box;
  auto attempt = [&](bool fail) -> Task<void> {
    ++attempts;
    if (fail) {
      co_await box.t->AbortSelf(AbortCause::kStmConflict);
    }
    co_await box.t->Access(AccessKind::kTxLoad, uint64_t{0x80}, 8);
  };
  auto root = [&]() -> Task<void> {
    // Retry loop: first two attempts fail, third succeeds.
    for (int i = 0;; ++i) {
      last = co_await box.t->RunAbortable(attempt(i < 2));
      if (last == AbortCause::kNone) {
        break;
      }
    }
  };
  box.t = &sched.Spawn(root());
  sched.Run();
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(last, AbortCause::kNone);
}

TEST(SimMutex, ProvidesMutualExclusionFifo) {
  Scheduler sched(3, NoTimerParams());
  RecordingHandler handler(5);
  sched.SetAccessHandler(&handler);
  SimMutex mu;
  std::vector<uint32_t> order;
  struct Box {
    SimThread* t = nullptr;
  };
  Box boxes[3];
  auto body = [&](Box* box, uint64_t head) -> Task<void> {
    SimThread& t = *box->t;
    t.core().WorkCycles(head);
    co_await t.Access(AccessKind::kLoad, uint64_t{0x100}, 8);  // Stagger arrival.
    co_await mu.Acquire(t);
    order.push_back(t.id());
    co_await t.Access(AccessKind::kLoad, uint64_t{0x200}, 8);
    mu.Release(t);
  };
  for (int i = 0; i < 3; ++i) {
    boxes[i].t = &sched.Spawn(body(&boxes[i], static_cast<uint64_t>(i)));
  }
  sched.Run();
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_FALSE(mu.IsLocked());
}

TEST(SimBarrier, ReleasesAllAtMaxArrivalCycle) {
  Scheduler sched(3, NoTimerParams());
  RecordingHandler handler(1);
  sched.SetAccessHandler(&handler);
  SimBarrier bar(3);
  std::vector<uint64_t> after_cycles(3);
  struct Box {
    SimThread* t = nullptr;
  };
  Box boxes[3];
  auto body = [&](Box* box, uint64_t head) -> Task<void> {
    SimThread& t = *box->t;
    t.core().WorkCycles(head);
    co_await t.Access(AccessKind::kLoad, uint64_t{0x100}, 8);  // Reach `head+1` cycles.
    co_await bar.Arrive(t);
    after_cycles[t.id()] = t.core().clock();
  };
  for (int i = 0; i < 3; ++i) {
    boxes[i].t = &sched.Spawn(body(&boxes[i], static_cast<uint64_t>(i) * 100));
  }
  sched.Run();
  // All threads leave the barrier at the last arrival (200 + 1 latency).
  EXPECT_EQ(after_cycles[0], 201u);
  EXPECT_EQ(after_cycles[1], 201u);
  EXPECT_EQ(after_cycles[2], 201u);
}

TEST(Scheduler, TimerInterruptChargesCost) {
  CoreParams p;
  p.timer_enabled = true;
  p.timer_period = 100;
  p.timer_cost = 7;
  Scheduler sched(1, p);
  RecordingHandler handler(1);
  sched.SetAccessHandler(&handler);
  struct Box {
    SimThread* t = nullptr;
  } box;
  auto root = [&box]() -> Task<void> {
    SimThread& t = *box.t;
    for (int i = 0; i < 3; ++i) {
      t.core().WorkCycles(60);
      co_await t.Access(AccessKind::kLoad, uint64_t{0x300}, 8);
    }
  };
  box.t = &sched.Spawn(root());
  sched.Run();
  // Work/access pattern: accesses issue at 60, 121, 182(+7 timer at >=100).
  // One timer fires (cost 7) between 100 and 200: total = 3*(60+1) + 7.
  EXPECT_EQ(box.t->core().clock(), 3 * 61u + 7u);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  auto run_once = [] {
    Scheduler sched(4, NoTimerParams());
    RecordingHandler handler(4);
    sched.SetAccessHandler(&handler);
    struct Box {
      SimThread* t = nullptr;
    };
    std::vector<Box> boxes(4);
    auto body = [](Box* box) -> Task<void> {
      SimThread& t = *box->t;
      for (int i = 0; i < 10; ++i) {
        t.core().WorkCycles((t.id() * 7 + static_cast<uint64_t>(i) * 3) % 11);
        co_await t.Access(AccessKind::kLoad, 0x1000 + t.id() * 0x100 + static_cast<uint64_t>(i),
                          8);
      }
    };
    for (auto& b : boxes) {
      b.t = &sched.Spawn(body(&b));
    }
    sched.Run();
    std::vector<std::pair<uint32_t, uint64_t>> trace;
    for (const auto& e : handler.log) {
      trace.emplace_back(e.core, e.cycle);
    }
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- EventHeap / wake fast path ---------------------------------------------

// The inline 4-ary heap must pop in exactly the order std::priority_queue
// does. Because (cycle, seq) is a strict total order this is a full
// equivalence, not just heap-property correctness.
TEST(EventHeap, PopOrderMatchesPriorityQueueReference) {
  struct RefCmp {
    bool operator()(const SchedEvent& a, const SchedEvent& b) const {
      return !EventBefore(a, b) && (a.cycle != b.cycle || a.seq != b.seq);
    }
  };
  EventHeap heap;
  std::priority_queue<SchedEvent, std::vector<SchedEvent>, RefCmp> ref;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  uint64_t seq = 0;
  for (int step = 0; step < 20000; ++step) {
    bool push = heap.empty() || next() % 100 < 60;
    if (push) {
      // Clustered cycles force plenty of ties, exercising the seq tiebreak.
      SchedEvent ev{next() % 64, seq++, nullptr};
      heap.push(ev);
      ref.push(ev);
    } else {
      ASSERT_EQ(heap.size(), ref.size());
      ASSERT_EQ(heap.top().cycle, ref.top().cycle) << "step " << step;
      ASSERT_EQ(heap.top().seq, ref.top().seq) << "step " << step;
      heap.pop();
      ref.pop();
    }
  }
  while (!heap.empty()) {
    ASSERT_EQ(heap.top().seq, ref.top().seq);
    heap.pop();
    ref.pop();
  }
  EXPECT_TRUE(ref.empty());
}

// With the next-event slot disabled, every wake goes through the heap — the
// reference behavior. The access event log must be bit-identical either way,
// and the fast path must actually engage when enabled.
TEST(Scheduler, WakeFastPathPreservesEventOrder) {
  auto run_once = [](bool fast_path) {
    Scheduler::SetWakeFastPathForTesting(fast_path);
    Scheduler sched(4, NoTimerParams());
    RecordingHandler handler(4);
    sched.SetAccessHandler(&handler);
    struct Box {
      SimThread* t = nullptr;
    };
    std::vector<Box> boxes(4);
    auto body = [](Box* box) -> Task<void> {
      SimThread& t = *box->t;
      for (int i = 0; i < 25; ++i) {
        // Mixed work amounts create both same-cycle ties (heap-ordered) and
        // strictly-sooner wakes (slot-eligible).
        t.core().WorkCycles((t.id() * 5 + static_cast<uint64_t>(i) * 7) % 13);
        co_await t.Access(AccessKind::kLoad, 0x2000 + t.id() * 0x100 + static_cast<uint64_t>(i),
                          8);
      }
    };
    for (auto& b : boxes) {
      b.t = &sched.Spawn(body(&b));
    }
    sched.Run();
    uint64_t fast_wakes = sched.fast_wakes();
    Scheduler::SetWakeFastPathForTesting(true);  // Restore the default.
    std::vector<std::tuple<uint32_t, uint64_t, uint64_t>> trace;
    for (const auto& e : handler.log) {
      trace.emplace_back(e.core, e.addr, e.cycle);
    }
    return std::make_pair(trace, fast_wakes);
  };
  auto [slow_trace, slow_fast_wakes] = run_once(false);
  auto [fast_trace, fast_fast_wakes] = run_once(true);
  EXPECT_EQ(slow_trace, fast_trace);
  EXPECT_EQ(slow_fast_wakes, 0u);
  EXPECT_GT(fast_fast_wakes, 0u);
}

// Work-heavy threads: WorkInstructions before every access (zero, counts in
// and beyond the core's work table), data-carrying operations, a mutex that
// hands wakes across threads, sleeps, and scopes that self-abort. The direct
// dispatch decision at the suspension points must reproduce the heap-only
// run exactly: the same event order, the same final memory, the same number
// of scheduled wakes (so sequence tie-breaks line up).
TEST(Scheduler, DirectDispatchMatchesHeapPathUnderWork) {
  constexpr uint32_t kThreads = 4;
  std::vector<uint64_t> cells(64);
  const uint64_t abort_addr = reinterpret_cast<uint64_t>(&cells[63]);
  struct Run {
    std::vector<std::tuple<uint32_t, uint64_t, uint64_t>> trace;
    std::vector<uint64_t> cells;
    std::vector<AbortCause> causes;
    uint64_t wakes = 0;
    uint64_t fast_wakes = 0;
    uint64_t inline_wakes = 0;
    uint64_t max_cycle = 0;
  };
  auto run_once = [&](bool fast_path) {
    std::fill(cells.begin(), cells.end(), 0);
    Scheduler::SetWakeFastPathForTesting(fast_path);
    Scheduler sched(kThreads, NoTimerParams());
    Scheduler::SetWakeFastPathForTesting(true);  // Restore the default.
    RecordingHandler handler(3);
    handler.SetSelfAbortAddr(abort_addr);
    sched.SetAccessHandler(&handler);
    SimMutex mu;
    Run out;
    std::vector<SimThread*> threads(kThreads);
    auto doomed = [&](SimThread& t) -> Task<void> {
      t.core().WorkInstructions(20);
      co_await t.Access(AccessKind::kTxLoad, &cells[48 + t.id()], 8);
      co_await t.Access(AccessKind::kTxLoad, &cells[63], 8);  // Self-aborts.
      co_await t.Access(AccessKind::kTxLoad, &cells[56], 8);  // Never issued.
    };
    auto body = [&](uint32_t id) -> Task<void> {
      SimThread& t = *threads[id];
      constexpr uint64_t kWork[] = {0, 1, 7, 90, 255, 256, 700};
      for (uint64_t i = 0; i < 40; ++i) {
        t.core().WorkInstructions(kWork[(id * 3 + i) % 7]);
        uint64_t* cell = &cells[(id * 8 + i) % 32];
        switch (i % 5) {
          case 0:
            co_await t.Access(AccessKind::kLoad, cell, 8);
            break;
          case 1:
            co_await t.Store(AccessKind::kStore, cell, 8, i);
            break;
          case 2:
            cells[32 + id] += co_await t.Load(AccessKind::kLoad, cell, 8);
            break;
          case 3:
            co_await t.FetchAdd(cell, 8, 1);
            break;
          default:
            co_await mu.Acquire(t);
            t.core().WorkInstructions(30);
            co_await t.Store(AccessKind::kStore, &cells[40], 8, cells[40] + 1);
            mu.Release(t);
            break;
        }
        if (i % 9 == 0) {
          co_await t.Sleep(5 + id);
        }
        if (i % 13 == 0) {
          out.causes.push_back(co_await t.RunAbortable(doomed(t)));
        }
      }
    };
    for (uint32_t i = 0; i < kThreads; ++i) {
      threads[i] = &sched.Spawn(body(i));
    }
    sched.Run();
    for (const auto& e : handler.log) {
      out.trace.emplace_back(e.core, e.addr, e.cycle);
    }
    out.cells = cells;
    out.wakes = sched.wakes_scheduled();
    out.fast_wakes = sched.fast_wakes();
    out.inline_wakes = sched.inline_wakes();
    out.max_cycle = sched.MaxCycle();
    return out;
  };
  const Run slow = run_once(false);
  const Run fast = run_once(true);
  EXPECT_EQ(slow.trace, fast.trace);
  EXPECT_EQ(slow.cells, fast.cells);
  EXPECT_EQ(slow.causes, fast.causes);
  EXPECT_EQ(slow.wakes, fast.wakes);
  EXPECT_EQ(slow.max_cycle, fast.max_cycle);
  EXPECT_EQ(fast.causes.size(), kThreads * 4u);
  EXPECT_EQ(fast.cells[40], kThreads * 8u);
  EXPECT_EQ(slow.fast_wakes, 0u);
  EXPECT_EQ(slow.inline_wakes, 0u);
  EXPECT_GT(fast.inline_wakes, 0u);
  EXPECT_GE(fast.fast_wakes, fast.inline_wakes);
}

}  // namespace
}  // namespace asfsim
