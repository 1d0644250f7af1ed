// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Deterministic execution-driven scheduler for simulated multicore runs.
//
// Simulated threads are coroutines (see task.h) bound 1:1 to Cores. Every
// memory access suspends the issuing thread into the scheduler, which always
// wakes the thread with the smallest pending cycle (ties broken by schedule
// order), so memory events are processed in global cycle order and the whole
// simulation is single-host-threaded and bit-for-bit reproducible.
//
// Plain computation is charged lazily (Core::WorkInstructions) and flushed
// by an extra suspension before the next access is processed, which keeps
// the global ordering exact: an access issued at cycle t is processed after
// every event scheduled before t.
//
// Transaction aborts are modeled in two halves, mirroring ASF (paper
// Sec. 2.2): the *architectural* rollback (LLB write-back, protected-set
// clear) is performed synchronously by the machine model at conflict time,
// so remote requesters observe pre-speculation data; the *control-flow*
// rollback (resume at the instruction after SPECULATE) happens when the
// victim thread is next scheduled: the scheduler destroys the suspended
// coroutine tree of the current AbortScope and resumes the scope's awaiter
// with the abort cause.
#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/abort_cause.h"
#include "src/common/defs.h"
#include "src/common/flat_table.h"
#include "src/sim/core.h"
#include "src/sim/slack.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"

namespace asfsim {

class Scheduler;
class SimThread;
class SlackWorkerPool;

// One pending wake-up. `seq` is the global schedule order and breaks cycle
// ties, so (cycle, seq) is a strict total order over all events ever queued —
// pop order is therefore independent of the container's internal layout.
struct SchedEvent {
  uint64_t cycle = 0;
  uint64_t seq = 0;
  SimThread* thread = nullptr;
  // The thread queued this wake by explicitly sleeping (backoff, polling
  // wait) rather than by completing an access. Interleaving choosers treat
  // a sleeping thread as having yielded the processor: the reference
  // schedule hands off instead of spinning it (see litmus::DfsChooser).
  bool yield = false;
};

constexpr bool EventBefore(const SchedEvent& a, const SchedEvent& b) {
  return a.cycle != b.cycle ? a.cycle < b.cycle : a.seq < b.seq;
}

// Min-heap of SchedEvents ordered by (cycle, seq), laid out as an inline
// 4-ary heap: one level of a 4-ary heap spans a single cache line of events,
// so sift-down touches ~half the cache lines of the equivalent binary heap.
// Because (cycle, seq) is a strict total order, pop order is identical to
// std::priority_queue with the same comparator — asserted by
// tests/sim_scheduler_test.cc against a reference run.
class EventHeap {
 public:
  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }
  const SchedEvent& top() const { return v_.front(); }

  void push(const SchedEvent& e) {
    size_t i = v_.size();
    v_.push_back(e);
    while (i != 0) {
      size_t parent = (i - 1) / kArity;
      if (!EventBefore(v_[i], v_[parent])) {
        break;
      }
      std::swap(v_[i], v_[parent]);
      i = parent;
    }
  }

  void pop() {
    SchedEvent last = v_.back();
    v_.pop_back();
    if (v_.empty()) {
      return;
    }
    size_t i = 0;
    const size_t n = v_.size();
    for (;;) {
      size_t first = i * kArity + 1;
      if (first >= n) {
        break;
      }
      size_t best = first;
      size_t end = first + kArity < n ? first + kArity : n;
      for (size_t c = first + 1; c < end; ++c) {
        if (EventBefore(v_[c], v_[best])) {
          best = c;
        }
      }
      if (!EventBefore(v_[best], last)) {
        break;
      }
      v_[i] = v_[best];
      i = best;
    }
    v_[i] = last;
  }

 private:
  static constexpr size_t kArity = 4;
  std::vector<SchedEvent> v_;
};

// Interleaving chooser (model checking; see src/litmus). When one is
// installed, every event-loop iteration surfaces the *entire* pending-event
// set — one event per runnable thread, sorted by (cycle, seq) — and asks the
// chooser which event to dispatch next. Index 0 is the reference choice (the
// event the default scheduler would pop), so a chooser that always returns 0
// reproduces the default execution exactly. Per-thread program order is
// preserved for free: a thread has at most one pending event, so any pop
// order is a legal interleaving of the per-thread sequences, and core clocks
// stay monotonic (OnWake advances only the woken thread's own core).
class ScheduleChooser {
 public:
  virtual ~ScheduleChooser() = default;
  // `eligible` is non-empty and (cycle, seq)-sorted; returns the index of
  // the event to dispatch. Out-of-range picks are a fatal error.
  virtual size_t Choose(const std::vector<SchedEvent>& eligible) = 0;
};

// Abortable scope: awaitable that runs `body` so that the scheduler can
// destroy it mid-flight and resume the awaiter with an abort cause. The TM
// runtimes wrap each transaction attempt in one scope; ASF flat nesting
// means there is never more than one scope per thread.
class AbortScope {
 public:
  AbortScope(SimThread& thread, Task<void> body)
      : thread_(thread), body_(std::move(body)) {}
  AbortScope(const AbortScope&) = delete;
  AbortScope& operator=(const AbortScope&) = delete;

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) noexcept;
  asfcommon::AbortCause await_resume() noexcept;

 private:
  friend class Scheduler;

  SimThread& thread_;
  Task<void> body_;
  std::coroutine_handle<> awaiter_;
  asfcommon::AbortCause result_ = asfcommon::AbortCause::kNone;
};

// One simulated thread of execution, bound to one Core.
class SimThread {
 public:
  enum class Phase : uint8_t {
    kIdle,       // Resume point is a coroutine to resume.
    kFlushWork,  // Pending work is being charged; an access awaits processing.
    kBlocked,    // Parked on a SimMutex/SimBarrier; no pending event.
    kSyncOp,     // A sync operation deferred from a parallel window: at the
                 // next wake the coordinator runs sync_fn_ (the acquire/
                 // arrive logic the worker could not execute safely).
  };

  Core& core() { return *core_; }
  const Core& core() const { return *core_; }
  Scheduler& scheduler() { return *scheduler_; }
  uint32_t id() const { return core_->id(); }
  bool finished() const { return finished_; }

  // --- Awaitable factories (used from coroutine code) ---------------------

  // One simulated memory operation. The operation's architectural effects
  // (cache fills, coherence probes, ASF set updates, conflict aborts of
  // remote regions) are applied at issue time; the returned awaitable
  // resumes after the access latency has been charged.
  //
  // Loads: the caller reads host memory after resuming. This is safe for
  // protected (tx) loads — any remote write to the line in the meantime
  // aborts this region first — and a bounded approximation for plain loads.
  //
  // Stores issued via Access() are TIMING-ONLY: they charge latency and run
  // coherence/conflict effects but do not mutate host memory. Any store
  // whose target can also be touched by speculative regions must instead use
  // Store() below, which applies the data atomically at issue time (after
  // the machine has versioned the line), so abort-time rollback ordering is
  // exact.
  struct AccessAwaiter {
    SimThread& t;
    AccessKind kind;
    uint64_t addr;
    uint32_t size;
    bool has_value = false;
    uint64_t value = 0;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) noexcept;
    void await_resume() const noexcept {}
  };
  AccessAwaiter Access(AccessKind kind, uint64_t addr, uint32_t size) {
    return AccessAwaiter{*this, kind, addr, size};
  }
  AccessAwaiter Access(AccessKind kind, const void* p, uint32_t size) {
    return AccessAwaiter{*this, kind, reinterpret_cast<uint64_t>(p), size};
  }

  // A data-carrying store (size <= 8 bytes, little-endian): host memory is
  // updated at issue time, after conflict resolution and (for kTxStore) the
  // LLB backup — the write is atomic with its coherence effects.
  AccessAwaiter Store(AccessKind kind, uint64_t addr, uint32_t size, uint64_t value) {
    ASF_CHECK(size <= 8);
    return AccessAwaiter{*this, kind, addr, size, true, value};
  }
  AccessAwaiter Store(AccessKind kind, const void* p, uint32_t size, uint64_t value) {
    return Store(kind, reinterpret_cast<uint64_t>(p), size, value);
  }

  // A value-binding load (size <= 8 bytes, little-endian): the value is
  // captured from host memory at issue time, atomically with the access's
  // coherence and conflict-resolution effects, and returned on resume.
  // Plain (unannotated) readers racing speculative regions need this for
  // exact strong-isolation semantics: speculative stores are applied to host
  // memory in place (LLB-backed), so a resume-time read as in Access() opens
  // a window in which a store issued *after* this load's conflict resolution
  // becomes visible to it — the litmus dirty-read test fails on that
  // artifact. Protected (tx) loads may keep the Access() pattern: a remote
  // write to the line aborts this region before the value could change.
  struct LoadAwaiter {
    SimThread& t;
    AccessKind kind;
    uint64_t addr;
    uint32_t size;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) noexcept;
    uint64_t await_resume() const noexcept { return t.load_result_; }
  };
  LoadAwaiter Load(AccessKind kind, uint64_t addr, uint32_t size) {
    ASF_CHECK(size <= 8);
    return LoadAwaiter{*this, kind, addr, size};
  }
  LoadAwaiter Load(AccessKind kind, const void* p, uint32_t size) {
    return Load(kind, reinterpret_cast<uint64_t>(p), size);
  }

  // Atomic read-modify-write operations (LOCK CMPXCHG / LOCK XADD), applied
  // at issue time like Store(). The awaitable resumes with the RMW result:
  // Cas -> 1 if the exchange happened, 0 otherwise; FetchAdd -> the previous
  // value. Used by the STM (orec acquisition, commit clock) and by lock
  // implementations.
  struct RmwAwaiter {
    SimThread& t;
    uint64_t addr;
    uint32_t size;
    bool is_cas;        // true: CAS(expected, operand); false: fetch-add(operand).
    uint64_t expected;
    uint64_t operand;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) noexcept;
    uint64_t await_resume() const noexcept { return t.rmw_result_; }
  };
  RmwAwaiter Cas(const void* p, uint32_t size, uint64_t expected, uint64_t desired) {
    ASF_CHECK(size <= 8);
    return RmwAwaiter{*this, reinterpret_cast<uint64_t>(p), size, true, expected, desired};
  }
  RmwAwaiter FetchAdd(const void* p, uint32_t size, uint64_t delta) {
    ASF_CHECK(size <= 8);
    return RmwAwaiter{*this, reinterpret_cast<uint64_t>(p), size, false, 0, delta};
  }

  // Advances simulated time by pending work plus `cycles` (used for backoff
  // and to model fixed-cost instruction sequences around suspension points).
  struct SleepAwaiter {
    SimThread& t;
    uint64_t cycles;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    void await_resume() const noexcept {}
  };
  SleepAwaiter Sleep(uint64_t cycles) { return SleepAwaiter{*this, cycles}; }

  // Software-initiated abort of the current AbortScope (never resumes the
  // awaiting coroutine; the scope unwinds instead). The caller must have
  // already performed any architectural rollback (e.g. ASF ABORT semantics
  // or STM undo) before awaiting this.
  struct SelfAbortAwaiter {
    SimThread& t;
    asfcommon::AbortCause cause;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    void await_resume() const noexcept {}
  };
  SelfAbortAwaiter AbortSelf(asfcommon::AbortCause cause) { return SelfAbortAwaiter{*this, cause}; }

  // Barrier between worker-window execution and coordinator-only code: a
  // no-op (not even a suspension) on the coordinating host thread, but
  // inside a concurrently executed slack window it parks the thread and
  // tears the window, so the code after the fence always runs on the
  // coordinator. The TM runtimes await this before calling into contention
  // policies whose state is shared across simulated threads
  // (ContentionPolicy::ParallelSafe() == false).
  struct HostFenceAwaiter {
    SimThread& t;
    bool await_ready() const noexcept { return !t.in_worker_window_; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    void await_resume() const noexcept {}
  };
  HostFenceAwaiter HostFence() { return HostFenceAwaiter{*this}; }

  // Runs `body` in an abortable scope; resumes with kNone on normal
  // completion or with the abort cause after an abort unwind.
  AbortScope RunAbortable(Task<void> body) { return AbortScope(*this, std::move(body)); }

  bool InAbortableScope() const { return scope_ != nullptr; }

  // Marks this thread's scope for control-flow abort; the unwind happens at
  // the thread's next wake-up. Called by the machine model for requester-
  // wins victims and for self-aborts discovered while processing an access.
  void MarkAbort(asfcommon::AbortCause cause);

  bool abort_marked() const { return abort_requested_; }

 private:
  friend class Scheduler;
  friend class AbortScope;
  friend class SimMutex;
  friend class SimBarrier;

  Scheduler* scheduler_ = nullptr;
  Core* core_ = nullptr;
  Task<void> root_;
  std::coroutine_handle<> resume_point_;
  Phase phase_ = Phase::kIdle;
  bool finished_ = false;
  bool abort_requested_ = false;
  asfcommon::AbortCause abort_cause_ = asfcommon::AbortCause::kNone;
  AbortScope* scope_ = nullptr;
  // One memory operation, as queued while work cycles flush.
  struct PendingOp {
    AccessKind kind = AccessKind::kLoad;
    uint64_t addr = 0;
    uint32_t size = 0;
    enum class Data : uint8_t { kNone, kStore, kCas, kFaa, kLoadCapture } data = Data::kNone;
    uint64_t value = 0;     // Store value / CAS desired / fetch-add delta.
    uint64_t expected = 0;  // CAS expected value.
  };

  // Flushes pending work cycles, then processes `op` at its issue cycle.
  // Returns the coroutine to transfer into from the awaiter's await_suspend:
  // this thread's own resume point when the access completed synchronously
  // (see Scheduler::ContinueOrWake), or std::noop_coroutine() to suspend
  // into the event loop.
  std::coroutine_handle<> SubmitPendingOp(const PendingOp& op);

  PendingOp pending_;
  uint64_t rmw_result_ = 0;
  uint64_t load_result_ = 0;
  // --- Host-parallel window execution (see Scheduler::RunSlackParallel) ----
  // True while this thread's coroutine frames run on a pool worker. Checked
  // by every path that would otherwise touch coordinator-only or cross-
  // thread state (ScheduleWake, ContinueOrWake, ProcessAccess, the sync
  // primitives' awaiters).
  bool in_worker_window_ = false;
  // Set when a worker window traps on this thread's access: the re-parked
  // flush-work wake must replay on the coordinator (re-admitting it would
  // re-trap the same op forever — a host livelock). Admission refuses the
  // thread until the coordinator processes an access for it.
  bool exec_trap_replay_ = false;
  // Count of sync objects (SimMutex) this thread currently owns. A thread
  // holding one is never admitted into a parallel window: releasing it would
  // wake another thread from worker context.
  uint32_t sync_held_ = 0;
  // Deferred sync operation (phase kSyncOp): at the thread's next wake the
  // coordinator calls sync_fn_(thread, sync_obj_); a true return resumes the
  // thread (it acquired / was released / fence passed), false leaves it
  // parked (the callback has re-registered it, e.g. on a mutex wait list).
  bool (*sync_fn_)(SimThread&, void*) = nullptr;
  void* sync_obj_ = nullptr;
};

// The scheduler: owns cores and threads, runs the event loop.
class Scheduler {
 public:
  explicit Scheduler(uint32_t num_cores, const CoreParams& params = CoreParams());
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Installs the machine model consulted for every access. Must be set
  // before Run() if any thread performs accesses.
  void SetAccessHandler(AccessHandler* handler) { handler_ = handler; }

  // Optional host-side tracer: records every processed operation and every
  // cycle-span charge at zero simulated cost (the paper's offline-analysis
  // methodology). Also installs the tracer as each core's span sink;
  // SetTracer(nullptr) detaches everywhere.
  void SetTracer(Tracer* tracer);

  // Hook invoked when a timer interrupt fires on a thread's core; returns
  // true if an active speculative region was rolled back (the scheduler then
  // unwinds the thread's scope). Part of AccessHandler.
  // Binds `root` to the next free core and schedules it at cycle 0.
  SimThread& Spawn(Task<void> root);

  // Runs the event loop to completion; checks every spawned thread finished.
  void Run();

  uint32_t num_cores() const { return static_cast<uint32_t>(cores_.size()); }
  Core& core(uint32_t i) { return *cores_[i]; }
  SimThread& thread(uint32_t i) { return *threads_[i]; }
  uint32_t num_threads() const { return static_cast<uint32_t>(threads_.size()); }

  // Maximum cycle reached across all cores (simulated wall-clock).
  uint64_t MaxCycle() const;

  // Schedules thread `t` to wake at `cycle` (used internally and by sync
  // primitives).
  void ScheduleWake(SimThread& t, uint64_t cycle, bool yield = false);

  // Host-side wake accounting (perf counters, zero simulated cost): total
  // wakes ever scheduled, how many took the next-event fast path (no heap
  // traffic), and how many of those were consumed inline — the thread
  // continued at the suspension point itself, without an event-loop
  // iteration (ContinueOrWake counts those as scheduled, fast and inline).
  // bench/perf_selfcheck reports the hit rates.
  uint64_t wakes_scheduled() const { return next_seq_; }
  uint64_t fast_wakes() const { return fast_wakes_; }
  uint64_t inline_wakes() const { return inline_wakes_; }

  // Test hook: globally disables the next-event wake fast path for
  // schedulers constructed afterwards, forcing every event through the heap.
  // The determinism tests run both ways and assert identical event orders.
  static void SetWakeFastPathForTesting(bool enabled);

  // Installs an interleaving chooser (model checking; see src/litmus). Must
  // be called before any thread is spawned: chooser mode turns off the
  // next-event slot and inline-wake fast paths so every scheduled wake is
  // visible in the pending set handed to the chooser. Pass nullptr to
  // detach (fast paths stay off for this scheduler's lifetime).
  void SetChooser(ScheduleChooser* chooser);

  // --- Bounded-slack quantum execution (src/sim/slack.h) -------------------
  //
  // Enables quantum windows of `cycles` simulated cycles: the thread owning
  // the global-minimum event may consume its own subsequent wakes at the
  // suspension point for as long as they provably precede every other
  // thread's next event (horizon cached at window open; the QuantumJournal
  // demotes a window whose horizon may have gone stale). Must be set before
  // any thread is spawned and is mutually exclusive with chooser mode.
  // 0 (the default) keeps the exact single-event loop. Results are
  // bit-identical for every value — enforced by perf_selfcheck
  // --slack-check and tests/slack_equivalence_test.cc.
  void SetSlackCycles(uint64_t cycles);
  uint64_t slack_cycles() const { return slack_cycles_; }
  const SlackStats& slack_stats() const { return slack_stats_; }

  // Host-parallel slack planning (src/sim/slack_pool.h): partitions the
  // simulated threads across `jobs` host workers (tid % jobs) that snapshot
  // their partitions' pending events into sorted plans at fork/join epochs;
  // the window loop then resolves the dispatch minimum and the cross-thread
  // horizon by merging the partition heads with a dirty-thread overlay.
  // The merged values equal the serial scans' values exactly, so results
  // stay bit-identical for every `jobs` — enforced by perf_selfcheck
  // --slack-par-check and tests/slack_parallel_test.cc. Must be set before
  // any thread is spawned; 0/1 keep the serial slack engine (no pool, no
  // host threads); a no-op unless slack_cycles is also set. Composes with
  // the sweep engine's per-(config,seed) --jobs: that fans out machines,
  // this parallelizes planning inside one machine.
  void SetSlackJobs(uint32_t jobs);
  uint32_t slack_jobs() const { return slack_jobs_; }

  // Host-parallel window EXECUTION (the third act of the slack arc): when
  // `jobs` > 1, the window loop forms fork/join epochs of co-runnable
  // windows — threads whose next wake chains lie below the global horizon
  // and whose predicted access footprints are pairwise disjoint (writes
  // versus everything; read-read sharing is allowed) — and resumes their
  // coroutine frames concurrently on a worker pool. Workers may only
  // perform accesses the machine model proves core-confined
  // (AccessHandler::TryParallelAccess); anything unproven — a footprint
  // first-touch outside the license, a timer boundary, a sync primitive, an
  // abort — traps the window back to the coordinator, which replays the
  // event through the exact serial path. A cross-window wave protocol
  // orders commits by cycle, and the epoch commit re-assigns event
  // sequence numbers in replay order, so results (digests, latency
  // histograms, heatmaps) are bit-identical to exec-jobs 1 and to
  // --slack 0 — enforced by perf_selfcheck --slack-exec-check and
  // tests/slack_exec_test.cc. Must be set before any thread is spawned; a
  // no-op unless slack_cycles is set; ignored (serial fallback) while a
  // tracer or span sink is attached or in chooser mode. Engaging the
  // parallel executor selects the serial scan planner — sharded planning
  // (SetSlackJobs) applies only when exec jobs <= 1.
  void SetSlackExecJobs(uint32_t jobs);
  uint32_t slack_exec_jobs() const { return slack_exec_jobs_; }

  // True while `tid`'s coroutine frames are executing on a pool worker
  // (between epoch formation and epoch commit).
  bool InWorkerWindow(uint32_t tid) const {
    return !exec_window_of_.empty() && exec_window_of_[tid] != nullptr;
  }

  // Defers a host-side observer effect (e.g. a TxEvent emission) from
  // worker-window context to the epoch commit, where it runs on the
  // coordinator in exact (cycle, seq) replay order. Call only when
  // InWorkerWindow(tid).
  void DeferWindowEffect(uint32_t tid, std::function<void()> fn);

  // Parks `t` (running on a pool worker) on a deferred sync operation and
  // ends its window: the coordinator will run `fn(t, obj)` at the parked
  // cycle and resume the thread iff it returns true. Used by the sync
  // primitives' awaiters and SimThread::HostFence; see Phase::kSyncOp.
  void WorkerParkSync(SimThread& t, std::coroutine_handle<> h,
                      bool (*fn)(SimThread&, void*), void* obj);

  // Machine-model notifications feeding the per-quantum journal (no-ops in
  // exact mode). `core` is the issuing/victim core of the event.
  void NoteSpeculativeWrite(uint32_t core, uint64_t first_line, uint64_t last_line) {
    if (window_owner_ == nullptr || window_owner_->id() != core) {
      return;
    }
    for (uint64_t line = first_line; line <= last_line; ++line) {
      journal_.RecordDirtyLine(line);
    }
  }
  void NoteCrossCoreAbort(uint32_t victim_core) {
    if (window_owner_ != nullptr && window_owner_->id() != victim_core) {
      journal_.MarkConflict();
    }
  }

 private:
  friend class SimThread;

  void OnWake(SimThread& t, uint64_t cycle);

  // The dispatch decision for `t`'s own wake at its current clock, made at
  // a suspension point (after a work flush, after an access). Exact mode:
  // if the wake would strictly precede every other pending event (the slot,
  // else the heap top) and no abort is pending, Run()'s next iteration
  // would do nothing but hand control straight back to `t` — so `t` simply
  // continues: returns true, queues nothing, and bumps next_seq_,
  // fast_wakes_ and inline_wakes_ exactly as parking the wake in the slot
  // and consuming it would, keeping seq tie-breaks and wakes_scheduled()
  // unchanged. Otherwise the wake is queued (ScheduleWake) and false is
  // returned. Off with the fast path (SetWakeFastPathForTesting(false),
  // chooser mode). Slack mode queues the wake and lets the window engines
  // decide (TryConsumeSlackBatch, TryConsumeWorker).
  //
  // The chain cap: symmetric transfer is only a guaranteed tail call under
  // optimization — ASan/-O0 builds grow one host stack frame group per hop.
  // Every kMaxInlineChain consecutive inline continuations the thread yields
  // back to Run() (which resets the counter), bounding host stack depth in
  // any build while keeping >95% of eligible wakes inline.
  bool ContinueOrWake(SimThread& t);

  // Slack-mode analog of the direct continuation above: the window owner may
  // consume its own just-scheduled wake without returning to the loop iff
  // the wake provably precedes every other thread's next event. The
  // comparison is against the horizon CACHED at window open — sound only
  // while the quantum journal is clean (see src/sim/slack.h): a cross-
  // thread wake scheduled by the owner mid-window may precede the cached
  // horizon, so a torn (or conflict-demoted) window stops batching and the
  // remaining events replay through the exact interleaved path in Run().
  bool TryConsumeSlackBatch(SimThread& t) {
    if (window_owner_ != &t || t.abort_requested_ || journal_.demoted() ||
        inline_chain_ >= kMaxInlineChain) {
      return false;
    }
    SlackSlot& slot = slack_pending_[t.id()];
    if (!slot.valid || slot.ev.cycle >= window_end_ ||
        (window_other_valid_ && !EventBefore(slot.ev, window_other_min_))) {
      return false;
    }
    slot.valid = false;
    MarkSlackDirty(t.id());
    ++inline_chain_;
    ++slack_stats_.batched_events;
    t.core_->AdvanceTo(slot.ev.cycle);
    return true;
  }

  // Sharded slack mode: records that thread `tid`'s pending slot mutated
  // since the last plan epoch, so its snapshot entries are dead and its live
  // slot is authoritative (the dirty overlay). Invariant: at any time,
  // {non-dirty threads' snapshot entries} ∪ {dirty threads' live slots}
  // is exactly the live pending-event table — which is why the merged
  // minimum below equals the serial scan's minimum, event for event.
  void MarkSlackDirty(uint32_t tid) {
    if (slack_sharded_ && !slack_dirty_[tid]) {
      slack_dirty_[tid] = 1;
      ++slack_dirty_count_;
    }
  }

  // Processes `op` at `t`'s clock and charges its latency. The completion
  // wake at the resulting clock is the caller's: ContinueOrWake at a
  // suspension point, ScheduleWake from the event loop and worker windows.
  void ProcessAccess(SimThread& t, const SimThread::PendingOp& op);
  void DoControlAbort(SimThread& t);
  void ResumeThread(SimThread& t);
  void RunSlack();
  void RunSlackScan();
  void RunSlackSharded();
  // One serial window: the factored body of a RunSlackScan iteration —
  // consumes slack_pending_[best], opens the quantum window, dispatches the
  // event, folds the journal. Shared by RunSlackScan and the parallel
  // executor's serial-fallback path.
  void RunSerialWindow(size_t best);
  // --- Host-parallel window execution (RunSlackParallel) -------------------
  void RunSlackParallel();
  // Tries to form and run one fork/join epoch of >= 2 co-runnable windows
  // around the global-minimum event slack_pending_[best]. Returns false
  // (without consuming anything) if no epoch forms; the caller then runs a
  // serial window.
  bool TryRunEpoch(size_t best);
  struct ExecWindow;
  // Worker-side body of one window: consumes the thread's own wake chain
  // below the epoch horizon, subject to the wave protocol and the footprint
  // license, until the window ends (clean, trapped, synced, or parked).
  void RunWindow(ExecWindow& w);
  // Worker-side analog of TryConsumeSlackBatch: consume this thread's
  // parked wake inside its window. Announces the wave low-water mark and
  // orders the consume against every co-window before committing to it.
  bool TryConsumeWorker(SimThread& t);
  // Worker-side analog of ProcessAccess; returns false (with ZERO simulated
  // side effects) when the access cannot be proven core-confined, in which
  // case the caller traps the window.
  bool WorkerProcessAccess(SimThread& t, const SimThread::PendingOp& op);
  // Blocks until consuming an event at `cycle` in window `w` is ordered
  // after every co-window's activity below `cycle`; returns false if the
  // window must park instead (co-window ended at or below `cycle`, or the
  // bounded spin expired on a cycle tie).
  bool WaveWait(ExecWindow& w, uint64_t cycle);
  // Coordinator-side epoch commit: merges every window's committed steps in
  // (cycle, seq) order, re-assigning event sequence numbers exactly as the
  // serial loop would have, flushes deferred observer effects in that order,
  // re-parks final pending events, and folds per-window telemetry.
  void CommitEpoch();
  void EndWindow(ExecWindow& w, uint32_t status, uint64_t end_cycle);
  void RotateFootprint(uint32_t tid);
  void TrackFootprint(SimThread& t, const SimThread::PendingOp& op);
  // Rebuilds every partition's sorted snapshot on the worker pool (fork/join)
  // and clears the dirty overlay; adapts the replan interval to how much
  // batching the previous plan bought.
  void ReplanShards();
  // Minimum pending event via snapshot-head merge + dirty overlay, excluding
  // thread `exclude` (kNoExclude for none). When `owner_partition_only` is
  // set (the ASF_SLACK_NO_BARRIER mutation), only `exclude`'s own partition
  // is consulted — a deliberate soundness hole. Returns false if empty.
  bool ShardedMinPending(uint32_t exclude, bool owner_partition_only, SchedEvent* out);

  AccessHandler* handler_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::unique_ptr<SimThread>> threads_;
  EventHeap events_;
  // Next-event slot: a queued wake that precedes every queued event (e.g. a
  // completion scheduled from the event loop, a sync-primitive wake, a wake
  // with an abort pending) parks here and bypasses the heap entirely. Invariant: when occupied, `next_` precedes events_.top() in
  // (cycle, seq) order, so Run() may always consume the slot first.
  SchedEvent next_;
  bool has_next_ = false;
  bool wake_fast_path_;
  uint64_t fast_wakes_ = 0;
  uint64_t inline_wakes_ = 0;
  static constexpr uint32_t kMaxInlineChain = 32;
  uint32_t inline_chain_ = 0;
  uint64_t next_seq_ = 0;
  uint32_t finished_count_ = 0;
  bool running_ = false;
  // Interleaving chooser (null in normal runs); `eligible_` is its reusable
  // scratch buffer for the drained pending set.
  ScheduleChooser* chooser_ = nullptr;
  std::vector<SchedEvent> eligible_;
  // --- Bounded-slack quantum state (src/sim/slack.h) -----------------------
  // In slack mode the heap+slot are bypassed entirely: every non-blocked,
  // non-finished thread has at most one pending event (blocked threads have
  // none; MarkAbort never schedules a wake), so a per-thread table replaces
  // the priority queue and the window loop scans it (threads <= cores <= 8).
  struct SlackSlot {
    SchedEvent ev;
    bool valid = false;
  };
  uint64_t slack_cycles_ = 0;
  std::vector<SlackSlot> slack_pending_;
  SimThread* window_owner_ = nullptr;   // Non-null while a window is open.
  uint64_t window_end_ = 0;             // Exclusive end cycle of the window.
  SchedEvent window_other_min_;         // Cached cross-thread horizon.
  bool window_other_valid_ = false;
  QuantumJournal journal_;
  SlackStats slack_stats_;
  // --- Host-parallel slack planning (src/sim/slack_pool.h) -----------------
  // Partition p owns threads with id % jobs == p. Snapshots are rebuilt at
  // plan epochs on the worker pool; `cursor` skips consumed/stale heads.
  struct SlackPartition {
    std::vector<SchedEvent> sorted;  // (cycle, seq)-ascending plan snapshot.
    size_t cursor = 0;               // First possibly-live snapshot entry.
    uint64_t planned = 0;            // Lifetime events planned (occupancy).
  };
  static constexpr uint32_t kNoExclude = UINT32_MAX;
  uint32_t slack_jobs_ = 1;
  bool slack_sharded_ = false;      // True while RunSlackSharded drives.
  const bool slack_barrier_disabled_;  // ASF_SLACK_NO_BARRIER mutation hook.
  std::unique_ptr<SlackWorkerPool> slack_pool_;
  std::vector<SlackPartition> slack_parts_;
  std::vector<uint8_t> slack_dirty_;   // Per-thread: slot mutated since plan.
  size_t slack_dirty_count_ = 0;
  uint64_t windows_since_plan_ = 0;
  uint64_t replan_interval_ = 1;       // Geometric backoff, doubled per plan
                                       // epoch up to a cap (see
                                       // ReplanShards); deterministic.
  // --- Host-parallel window execution (RunSlackParallel) -------------------
  // One committed worker-side event: the (cycle, yield) pair of a consumed
  // wake. Sequence numbers are re-assigned at epoch commit, in replay
  // order, exactly as the serial loop would have assigned them.
  struct ExecStep {
    uint64_t cycle;
    bool yield;
  };
  struct DeferredFx {
    size_t step;  // Index into steps: the event whose processing emitted it.
    std::function<void()> fn;
  };
  static constexpr uint32_t kWinActive = 0;
  static constexpr uint32_t kWinEndedClean = 1;    // No more activity below
                                                   // the epoch horizon.
  static constexpr uint32_t kWinEndedPending = 2;  // Ended with a pending
                                                   // event at end_cycle.
  struct ExecWindow {
    SimThread* thread = nullptr;
    // Wave protocol (cross-window commit ordering). low_water is the cycle
    // this window is about to consume (announced BEFORE waiting — both
    // fields are ordering tests over disjoint simulated state, no data
    // flows through them, hence relaxed). status/end_cycle publish the end
    // of the window: end_cycle is written before the status release-store
    // and read only after an acquire load observes an ended status.
    std::atomic<uint64_t> low_water{0};
    std::atomic<uint32_t> status{kWinActive};
    uint64_t end_cycle = 0;
    bool ended = false;  // Own-worker mirror of status != kWinActive.
    // Telemetry flags folded into SlackStats at commit.
    bool trapped = false;
    bool synced = false;
    bool finished_thread = false;
    uint32_t wave_parks = 0;
    uint32_t inline_chain = 0;
    // Single-slot parked wake (the worker-side ScheduleWake target; the
    // <=1-pending-event invariant holds per thread as in serial slack
    // mode). Seeded with the window's dispatch event at epoch formation.
    bool pending_valid = false;
    uint64_t pending_cycle = 0;
    bool pending_yield = false;
    uint64_t dispatch_seq = 0;  // Original seq of the dispatch event.
    std::vector<ExecStep> steps;
    std::vector<DeferredFx> deferred;
  };
  // Predicted access footprint of one simulated thread: the lines it
  // touched in its previous window (prev) and since (cur), split by access
  // direction. Admission tests pred = prev ∪ cur for pairwise disjointness;
  // the same sets are the window's in-flight license (first-touch reads
  // outside every co-window's predicted writes extend it; writes never
  // extend it). Purely a predictor — an incomplete footprint costs traps,
  // never soundness.
  struct ThreadFootprint {
    asfcommon::FlatSet64 prev_r, prev_w, cur_r, cur_w;
  };
  uint32_t slack_exec_jobs_ = 1;
  const bool slack_exec_no_admission_;  // ASF_SLACK_EXEC_NO_ADMISSION hook.
  const bool slack_exec_eager_;         // ASF_SLACK_EXEC_EAGER hook.
  bool track_footprints_ = false;       // True while RunSlackParallel drives.
  std::vector<std::unique_ptr<ExecWindow>> exec_windows_;
  size_t exec_epoch_count_ = 0;         // Windows in the current epoch.
  std::vector<ExecWindow*> exec_window_of_;  // Per thread; null = not in one.
  std::vector<ThreadFootprint> exec_fp_;
  uint64_t exec_horizon_ = 0;           // Exclusive cycle bound of the epoch.
  // Adaptive profitability gate: a fork/join epoch on an oversubscribed (or
  // conflict-heavy) host can cost far more than the handful of events it
  // executes. Epochs that consume fewer than kExecProfitableEvents worker
  // events grow an exponential backoff (serial windows between attempts);
  // a profitable epoch resets it. Purely a host-side pacing decision —
  // results are bit-identical for every admission schedule.
  uint64_t exec_backoff_len_ = 0;       // Current backoff length (windows).
  uint64_t exec_backoff_left_ = 0;      // Serial windows left before retry.
  uint64_t exec_last_epoch_events_ = 0; // Worker events in the last epoch.
  // Union of admitted windows' predicted-write lines (license denominator);
  // built at admission, read-only while workers run.
  asfcommon::FlatSet64 exec_union_w_;
  asfcommon::FlatSet64 exec_union_r_;   // Admission scratch.
  std::vector<size_t> exec_order_;      // Admission scratch (candidate tids).
  std::unique_ptr<SlackWorkerPool> exec_pool_;
  // Guards against two host threads driving the same scheduler (the sweep
  // engine runs one Machine per job; sharing one is a bug). See Run().
  std::atomic<bool> host_busy_{false};
};

}  // namespace asfsim

#endif  // SRC_SIM_SCHEDULER_H_
