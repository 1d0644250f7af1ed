// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/sim/scheduler.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/sim/slack_pool.h"

namespace asfsim {

using asfcommon::AbortCause;

// --- AbortScope -----------------------------------------------------------

std::coroutine_handle<> AbortScope::await_suspend(std::coroutine_handle<> awaiter) noexcept {
  ASF_CHECK_MSG(thread_.scope_ == nullptr, "nested AbortScope (ASF nesting is flat)");
  ASF_CHECK(body_.Valid());
  awaiter_ = awaiter;
  thread_.scope_ = this;
  body_.SetContinuation(awaiter);
  // Symmetric transfer into the attempt body.
  return body_.handle();
}

AbortCause AbortScope::await_resume() noexcept {
  // Reached either directly from the body's final suspend (normal
  // completion; the scope is still registered) or from DoControlAbort
  // (which already deregistered the scope and set result_).
  if (thread_.scope_ == this) {
    thread_.scope_ = nullptr;
  }
  return result_;
}

// --- SimThread ------------------------------------------------------------

void SimThread::MarkAbort(AbortCause cause) {
  ASF_CHECK_MSG(scope_ != nullptr, "abort marked on a thread without an abortable scope");
  ASF_CHECK_MSG(phase_ != Phase::kBlocked, "abort marked on a blocked thread");
  if (abort_requested_) {
    return;  // First cause wins; a single wake-up handles it.
  }
  abort_requested_ = true;
  abort_cause_ = cause;
}

std::coroutine_handle<> SimThread::SubmitPendingOp(const PendingOp& op) {
  // TakePendingWork advances the clock by the accumulated ALU work (charging
  // each batch to its recording category); the access is then processed at
  // its true issue cycle, in global order. Two dispatch decisions follow,
  // each made once (Scheduler::ContinueOrWake): after the work flush and
  // after the access. While the thread stays strictly first in global
  // order it carries on right here; otherwise the wake is queued and the
  // event loop finishes the job (OnWake) when the wake comes up.
  if (core_->TakePendingWork() > 0 && !scheduler_->ContinueOrWake(*this)) {
    phase_ = Phase::kFlushWork;
    pending_ = op;
    return std::noop_coroutine();
  }
  scheduler_->ProcessAccess(*this, op);
  if (!scheduler_->ContinueOrWake(*this)) {
    return std::noop_coroutine();
  }
  std::coroutine_handle<> h = resume_point_;
  resume_point_ = nullptr;
  return h;
}

std::coroutine_handle<> SimThread::AccessAwaiter::await_suspend(
    std::coroutine_handle<> h) noexcept {
  t.resume_point_ = h;
  PendingOp op;
  op.kind = kind;
  op.addr = addr;
  op.size = size;
  op.data = has_value ? PendingOp::Data::kStore : PendingOp::Data::kNone;
  op.value = value;
  return t.SubmitPendingOp(op);
}

std::coroutine_handle<> SimThread::LoadAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  t.resume_point_ = h;
  PendingOp op;
  op.kind = kind;
  op.addr = addr;
  op.size = size;
  op.data = PendingOp::Data::kLoadCapture;
  return t.SubmitPendingOp(op);
}

std::coroutine_handle<> SimThread::RmwAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  t.resume_point_ = h;
  PendingOp op;
  op.kind = AccessKind::kStore;
  op.addr = addr;
  op.size = size;
  op.data = is_cas ? PendingOp::Data::kCas : PendingOp::Data::kFaa;
  op.value = operand;
  op.expected = expected;
  return t.SubmitPendingOp(op);
}

void SimThread::SleepAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  t.resume_point_ = h;
  t.phase_ = Phase::kIdle;
  t.core_->TakePendingWork();
  t.scheduler_->ScheduleWake(t, t.core_->clock() + cycles, /*yield=*/true);
}

void SimThread::SelfAbortAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  t.resume_point_ = h;  // Never resumed; the scope unwind destroys this frame.
  t.phase_ = Phase::kIdle;
  t.MarkAbort(cause);
  t.core_->TakePendingWork();
  t.scheduler_->ScheduleWake(t, t.core_->clock());
}

// --- Scheduler --------------------------------------------------------------

namespace {
// Test-only global (read once per Scheduler construction, so the hot path
// stays a plain bool). Default on.
std::atomic<bool> g_wake_fast_path{true};
// Mutation hook for the slack digest gates (src/sim/slack.h): snapshot per
// Scheduler construction, like the speculator gate in src/asf/machine.cc.
std::atomic<bool> g_slack_journal_disabled{std::getenv("ASF_SLACK_NO_JOURNAL") != nullptr};
// Mutation hook for the sharded-slack digest gates: drops the cross-partition
// horizon merge at window boundaries (src/sim/slack.h). Same snapshot
// discipline as the journal hook above.
std::atomic<bool> g_slack_barrier_disabled{std::getenv("ASF_SLACK_NO_BARRIER") != nullptr};
// Mutation hook for the parallel-execution digest gates: skips footprint
// admission, the per-access license, and the cross-window wave ordering
// (src/sim/slack.h). Same snapshot discipline as the hooks above.
std::atomic<bool> g_slack_exec_no_admission{std::getenv("ASF_SLACK_EXEC_NO_ADMISSION") !=
                                            nullptr};
// Testing hook: disables the parallel-execution profitability gate so every
// window attempts epoch formation (src/sim/slack.h). Same snapshot
// discipline as the hooks above.
std::atomic<bool> g_slack_exec_eager{std::getenv("ASF_SLACK_EXEC_EAGER") != nullptr};
}  // namespace

void Scheduler::SetWakeFastPathForTesting(bool enabled) {
  g_wake_fast_path.store(enabled, std::memory_order_relaxed);
}

bool SlackJournalDisabled() {
  return g_slack_journal_disabled.load(std::memory_order_relaxed);
}

void SetSlackJournalDisabledForTesting(bool disabled) {
  g_slack_journal_disabled.store(disabled, std::memory_order_relaxed);
}

bool SlackBarrierDisabled() {
  return g_slack_barrier_disabled.load(std::memory_order_relaxed);
}

void SetSlackBarrierDisabledForTesting(bool disabled) {
  g_slack_barrier_disabled.store(disabled, std::memory_order_relaxed);
}

bool SlackExecAdmissionDisabled() {
  return g_slack_exec_no_admission.load(std::memory_order_relaxed);
}

void SetSlackExecAdmissionDisabledForTesting(bool disabled) {
  g_slack_exec_no_admission.store(disabled, std::memory_order_relaxed);
}

bool SlackExecEager() {
  return g_slack_exec_eager.load(std::memory_order_relaxed);
}

void SetSlackExecEagerForTesting(bool eager) {
  g_slack_exec_eager.store(eager, std::memory_order_relaxed);
}

namespace {
std::atomic<SlackExecAuditFn> g_slack_exec_audit{nullptr};
}  // namespace

SlackExecAuditFn SlackExecAudit() {
  return g_slack_exec_audit.load(std::memory_order_relaxed);
}

void SetSlackExecAuditForTesting(SlackExecAuditFn fn) {
  g_slack_exec_audit.store(fn, std::memory_order_relaxed);
}

void Scheduler::SetSlackCycles(uint64_t cycles) {
  ASF_CHECK_MSG(threads_.empty(), "SetSlackCycles must run before any thread is spawned");
  ASF_CHECK_MSG(chooser_ == nullptr || cycles == 0,
                "slack mode and chooser mode are mutually exclusive");
  slack_cycles_ = cycles;
  if (cycles != 0) {
    slack_pending_.assign(cores_.size(), SlackSlot{});
  }
}

void Scheduler::SetSlackJobs(uint32_t jobs) {
  ASF_CHECK_MSG(threads_.empty(), "SetSlackJobs must run before any thread is spawned");
  slack_jobs_ = jobs == 0 ? 1 : jobs;
}

void Scheduler::SetSlackExecJobs(uint32_t jobs) {
  ASF_CHECK_MSG(threads_.empty(), "SetSlackExecJobs must run before any thread is spawned");
  slack_exec_jobs_ = jobs == 0 ? 1 : jobs;
}

void Scheduler::SetChooser(ScheduleChooser* chooser) {
  ASF_CHECK_MSG(threads_.empty(), "SetChooser must run before any thread is spawned");
  ASF_CHECK_MSG(chooser == nullptr || slack_cycles_ == 0,
                "slack mode and chooser mode are mutually exclusive");
  chooser_ = chooser;
  if (chooser != nullptr) {
    // Fast paths short-circuit wakes past the event loop; in chooser mode
    // every wake must surface in the pending set the chooser sees.
    wake_fast_path_ = false;
  }
}

Scheduler::Scheduler(uint32_t num_cores, const CoreParams& params)
    : wake_fast_path_(g_wake_fast_path.load(std::memory_order_relaxed)),
      journal_(!SlackJournalDisabled()),
      slack_barrier_disabled_(SlackBarrierDisabled()),
      slack_exec_no_admission_(SlackExecAdmissionDisabled()),
      slack_exec_eager_(SlackExecEager()) {
  cores_.reserve(num_cores);
  for (uint32_t i = 0; i < num_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(i, params));
  }
}

Scheduler::~Scheduler() = default;

void Scheduler::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  for (auto& core : cores_) {
    core->SetSpanSink(tracer);
  }
}

SimThread& Scheduler::Spawn(Task<void> root) {
  ASF_CHECK_MSG(threads_.size() < cores_.size(), "more threads than cores");
  ASF_CHECK(!running_);
  auto t = std::make_unique<SimThread>();
  t->scheduler_ = this;
  t->core_ = cores_[threads_.size()].get();
  t->root_ = std::move(root);
  t->resume_point_ = t->root_.handle();
  t->phase_ = SimThread::Phase::kIdle;
  threads_.push_back(std::move(t));
  SimThread& ref = *threads_.back();
  ScheduleWake(ref, 0);
  return ref;
}

void Scheduler::ScheduleWake(SimThread& t, uint64_t cycle, bool yield) {
  if (t.in_worker_window_) {
    // Worker-window wakes are always self-wakes (sync primitives park before
    // waking anyone) and park in the window's single pending slot WITHOUT a
    // global sequence number — the epoch commit assigns one in replay order,
    // exactly where the serial loop would have.
    ExecWindow& w = *exec_window_of_[t.id()];
    ASF_CHECK_MSG(!w.pending_valid, "thread scheduled twice in a parallel window");
    w.pending_cycle = cycle;
    w.pending_yield = yield;
    w.pending_valid = true;
    return;
  }
  SchedEvent ev{cycle, next_seq_++, &t, yield};
  if (slack_cycles_ != 0) {
    // Slack mode: per-thread pending-event table instead of the heap. The
    // <=1-pending-event invariant (blocked threads have none; MarkAbort
    // never schedules a wake) makes the slot exclusive.
    SlackSlot& slot = slack_pending_[t.id()];
    ASF_CHECK_MSG(!slot.valid, "thread scheduled twice in slack mode");
    slot.ev = ev;
    slot.valid = true;
    MarkSlackDirty(t.id());
    if (window_owner_ != nullptr && &t != window_owner_) {
      // Cross-thread wake while a window is open (mutex/barrier release by
      // the owner): the cached horizon may be stale — tear the quantum.
      journal_.MarkTorn();
    }
    return;
  }
  if (!wake_fast_path_) {
    events_.push(ev);
    return;
  }
  // Next-event slot: in the common case the thread the loop just woke
  // re-schedules itself ahead of everything queued (it was the global
  // minimum, and its next wake is current cycle + latency while other
  // threads' events lie further out). Parking that event in a one-slot
  // buffer instead of the heap removes a push+pop per access. A new event
  // that beats every queued one strictly precedes them in (cycle, seq) —
  // ties lose to queued events because their seq is smaller — so consuming
  // the slot first in Run() preserves the exact reference order.
  if (!has_next_) {
    if (events_.empty() || EventBefore(ev, events_.top())) {
      next_ = ev;
      has_next_ = true;
      ++fast_wakes_;
    } else {
      events_.push(ev);
    }
    return;
  }
  if (EventBefore(ev, next_)) {
    // The newcomer beats the parked event; demote the old occupant. The slot
    // invariant (next_ precedes events_.top()) holds: ev < next_ <= old top.
    events_.push(next_);
    next_ = ev;
    ++fast_wakes_;
  } else {
    events_.push(ev);
  }
}

bool Scheduler::ContinueOrWake(SimThread& t) {
  const uint64_t cycle = t.core_->clock();
  if (slack_cycles_ != 0) {
    ScheduleWake(t, cycle);
    return t.in_worker_window_ ? TryConsumeWorker(t) : TryConsumeSlackBatch(t);
  }
  // The earliest other pending event is the slot if occupied (slot
  // invariant), else the heap top. A new wake carries the largest seq ever
  // issued, so it precedes that event iff its cycle is strictly smaller.
  const bool first = has_next_ ? cycle < next_.cycle
                               : events_.empty() || cycle < events_.top().cycle;
  if (wake_fast_path_ && first && !t.abort_requested_ && inline_chain_ < kMaxInlineChain) {
    // Exactly the counter updates of parking the wake in the slot and
    // consuming it inline, without touching the slot or the heap.
    ++next_seq_;
    ++fast_wakes_;
    ++inline_wakes_;
    ++inline_chain_;
    return true;
  }
  ScheduleWake(t, cycle);
  return false;
}

void Scheduler::Run() {
  ASF_CHECK_MSG(handler_ != nullptr || threads_.empty(), "no access handler installed");
  // Host-thread ownership guard: a scheduler (and the Machine built on it)
  // is single-host-threaded by design. The atomic exchange makes concurrent
  // entry fail deterministically — and visibly under TSan — instead of
  // corrupting simulation state (see src/harness/sweep.h for the fan-out
  // model that relies on this).
  ASF_CHECK_MSG(!host_busy_.exchange(true, std::memory_order_acquire),
                "Scheduler::Run entered from two host threads");
  running_ = true;
  if (slack_cycles_ != 0) {
    RunSlack();
    running_ = false;
    host_busy_.store(false, std::memory_order_release);
    ASF_CHECK_MSG(finished_count_ == threads_.size(),
                  "simulation stalled: threads blocked with no pending events (deadlock)");
    return;
  }
  while (has_next_ || !events_.empty()) {
    inline_chain_ = 0;  // Control is back in the loop; the host stack is flat.
    SchedEvent ev;
    if (has_next_) {
      // Slot invariant: the parked event precedes everything in the heap.
      ev = next_;
      has_next_ = false;
    } else if (chooser_ == nullptr) {
      ev = events_.top();
      events_.pop();
    } else {
      // Chooser mode: drain the heap (pop order is already (cycle, seq)-
      // sorted) into the pending set, let the chooser pick, re-queue the
      // rest. Re-pushed events keep their original seq, so later drains
      // re-sort them into the exact same reference order.
      eligible_.clear();
      while (!events_.empty()) {
        if (!events_.top().thread->finished_) {
          eligible_.push_back(events_.top());
        }
        events_.pop();
      }
      if (eligible_.empty()) {
        break;
      }
      const size_t pick = eligible_.size() > 1 ? chooser_->Choose(eligible_) : 0;
      ASF_CHECK_MSG(pick < eligible_.size(), "chooser picked an out-of-range event");
      ev = eligible_[pick];
      for (size_t i = 0; i < eligible_.size(); ++i) {
        if (i != pick) {
          events_.push(eligible_[i]);
        }
      }
    }
    SimThread& t = *ev.thread;
    if (t.finished_) {
      continue;
    }
    OnWake(t, ev.cycle);
  }
  running_ = false;
  host_busy_.store(false, std::memory_order_release);
  ASF_CHECK_MSG(finished_count_ == threads_.size(),
                "simulation stalled: threads blocked with no pending events (deadlock)");
}

// Bounded-slack window loop (src/sim/slack.h). Each iteration dispatches
// the global-minimum event exactly as the default loop would, but first
// opens a quantum window [W, W + slack) owned by that event's thread and
// caches the other threads' event horizon; TryConsumeSlackBatch then lets
// the owner consume its own subsequent wakes at the suspension point while
// they provably precede the horizon and the window end. A quantum journal
// demotion (cross-thread wake, cross-core speculative overlap) stops the
// batch, and the remaining events simply fall through to the next loop
// iteration — the exact interleaved path; nothing is rolled back, so
// results are bit-identical to slack 0 by construction.
//
// Two interchangeable backends feed the loop the (minimum, horizon) pair:
// the serial scan (slack_jobs <= 1: two O(n) passes over the pending
// table, PR 8's engine verbatim) and the sharded merge (slack_jobs > 1:
// partition snapshots planned on the host worker pool + dirty overlay).
// Both compute identical values, so backend choice never changes results.
void Scheduler::RunSlack() {
  const size_t n = threads_.size();
  bool any_span_sink = false;
  for (const auto& c : cores_) {
    any_span_sink = any_span_sink || c->has_span_sink();
  }
  if (slack_exec_jobs_ > 1 && n > 1 && tracer_ == nullptr && !any_span_sink) {
    // Parallel window execution uses the serial scan planner; sharded
    // planning (slack_jobs) applies only when exec jobs <= 1. A tracer or
    // span sink records per-access/per-span host-side state that workers
    // cannot touch safely, so those runs stay serial.
    RunSlackParallel();
  } else if (slack_jobs_ > 1 && n > 1) {
    RunSlackSharded();
  } else {
    RunSlackScan();
  }
}

void Scheduler::RunSerialWindow(size_t best) {
  const size_t n = slack_pending_.size();
  SchedEvent ev = slack_pending_[best].ev;
  slack_pending_[best].valid = false;
  MarkSlackDirty(static_cast<uint32_t>(best));
  SimThread& t = *ev.thread;
  // Open the window: cache the cross-thread horizon once. A solo quantum
  // has no other pending event before the window end — the common case
  // the active-speculator telemetry predicts (~70% of conflict
  // resolutions see no other active speculator).
  window_owner_ = &t;
  window_end_ = ev.cycle + slack_cycles_;
  window_other_valid_ = false;
  for (size_t i = 0; i < n; ++i) {
    if (i != best && slack_pending_[i].valid &&
        (!window_other_valid_ || EventBefore(slack_pending_[i].ev, window_other_min_))) {
      window_other_min_ = slack_pending_[i].ev;
      window_other_valid_ = true;
    }
  }
  const bool solo = !window_other_valid_ || window_other_min_.cycle >= window_end_;
  if (track_footprints_) {
    RotateFootprint(t.id());
  }
  journal_.Open();
  ++slack_stats_.quanta;
  slack_stats_.solo_quanta += solo ? 1 : 0;
  ++slack_stats_.loop_events;
  OnWake(t, ev.cycle);
  // Close the window and fold the journal into the telemetry.
  slack_stats_.torn_quanta += journal_.torn() ? 1 : 0;
  slack_stats_.conflict_quanta += journal_.conflicted() ? 1 : 0;
  slack_stats_.journal_lines += journal_.dirty_lines();
  window_owner_ = nullptr;
}

void Scheduler::RunSlackScan() {
  const size_t n = slack_pending_.size();
  for (;;) {
    inline_chain_ = 0;  // Control is back in the loop; the host stack is flat.
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      if (slack_pending_[i].valid &&
          (best == n || EventBefore(slack_pending_[i].ev, slack_pending_[best].ev))) {
        best = i;
      }
    }
    if (best == n) {
      break;
    }
    if (slack_pending_[best].ev.thread->finished_) {
      slack_pending_[best].valid = false;
      continue;
    }
    RunSerialWindow(best);
  }
}

// --- Host-parallel window execution ------------------------------------------
//
// The third act of the slack arc (PR 8 batched same-thread wake chains, PR 9
// sharded the planning): fork/join epochs that EXECUTE footprint-disjoint
// windows concurrently on pool workers. Soundness rests on four mechanisms,
// each of which fails closed (a serial replay, never a wrong result):
//
//  * Admission: only threads the machine model vouches for (no active
//    speculative region, no fault injector) with pairwise-disjoint predicted
//    footprints (writes vs everything; read-read sharing allowed) co-run.
//  * License: a worker access may read a line only if no co-window predicted
//    writing it (or this thread itself did), and may write only lines in its
//    own predicted write set — everything else traps the window back to the
//    coordinator with zero side effects, and the machine model additionally
//    accepts only accesses that are provably core-confined (L1-hit, no
//    directory/page mutation: AccessHandler::TryParallelAccess).
//  * Wave ordering: a window consumes an event at cycle c only once every
//    co-window provably produces no more activity below c (low-water marks,
//    announced before waiting). This keeps the global cycle order exact even
//    when a co-window traps and its event must replay serially: windows that
//    ran past the trap cycle cannot exist.
//  * Replay commit: committed events get their sequence numbers re-assigned
//    in (cycle, seq) merge order — reproducing the serial loop's assignment
//    exactly — and deferred observer effects (TxEvents) flush in that order.
//
// Epochs never touch the quantum journal; serial-fallback windows (epoch not
// formed) run the ordinary RunSerialWindow body, journal and all.

namespace {

// Profitability-gate tuning (see Scheduler::RunSlackParallel): an epoch that
// consumes fewer worker events than kExecProfitableEvents did not repay its
// fork/join; the gate then skips formation for an exponentially growing run
// of serial windows (kExecBackoffStart doubling up to kExecBackoffCap).
constexpr uint64_t kExecProfitableEvents = 16;
constexpr uint64_t kExecBackoffStart = 16;
constexpr uint64_t kExecBackoffCap = 8192;
// Per-access footprint tracking is pure overhead while the gate is backing
// off; it switches back on for the last kExecWarmupWindows windows per
// thread of a backoff run, so every candidate rotates fresh prediction sets
// in before the next admission scan.
constexpr uint64_t kExecWarmupWindows = 4;

}  // namespace

void Scheduler::RunSlackParallel() {
  const size_t n = slack_pending_.size();
  // The 64 cap bounds the fixed admission/commit scratch arrays; threads
  // (<= cores) stay well below it in every modeled configuration.
  const size_t jobs = std::min<size_t>(std::min<size_t>(slack_exec_jobs_, threads_.size()), 64);
  track_footprints_ = true;
  exec_fp_.resize(n);
  exec_window_of_.assign(n, nullptr);
  exec_windows_.clear();
  for (size_t i = 0; i < jobs; ++i) {
    exec_windows_.push_back(std::make_unique<ExecWindow>());
  }
  slack_stats_.exec_worker_events.assign(jobs, 0);
  exec_backoff_len_ = 0;
  exec_backoff_left_ = 0;
  exec_pool_ = std::make_unique<SlackWorkerPool>(static_cast<uint32_t>(jobs));
  for (;;) {
    inline_chain_ = 0;  // Control is back in the loop; the host stack is flat.
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      if (slack_pending_[i].valid &&
          (best == n || EventBefore(slack_pending_[i].ev, slack_pending_[best].ev))) {
        best = i;
      }
    }
    if (best == n) {
      break;
    }
    if (slack_pending_[best].ev.thread->finished_) {
      slack_pending_[best].valid = false;
      continue;
    }
    // Profitability gate: skip epoch formation entirely while backing off —
    // on a host with fewer free CPUs than workers, the fork/join futex round
    // trip dwarfs a near-empty epoch's work. The mutation hook disables the
    // gate so the divergence test always exercises real co-execution.
    if (exec_backoff_left_ > 0 && !slack_exec_no_admission_ && !slack_exec_eager_) {
      --exec_backoff_left_;
      // Cold stretch: footprint tracking (and rotation) pause too — stale
      // sets are sound (admission and the license both fail closed) and the
      // warm-up below refreshes them before the next scan.
      track_footprints_ = exec_backoff_left_ < kExecWarmupWindows * n;
      ++slack_stats_.exec_backoff_skips;
      ++slack_stats_.exec_serial_windows;
      RunSerialWindow(best);
      continue;
    }
    track_footprints_ = true;
    if (TryRunEpoch(best)) {
      if (exec_last_epoch_events_ >= kExecProfitableEvents) {
        exec_backoff_len_ = 0;  // Paying off: keep forking.
      } else {
        exec_backoff_len_ =
            exec_backoff_len_ == 0 ? kExecBackoffStart
                                   : std::min<uint64_t>(exec_backoff_len_ * 2, kExecBackoffCap);
        exec_backoff_left_ = exec_backoff_len_;
      }
      continue;
    }
    // No epoch formed (cheap: no fork happened). Repeated failures still
    // signal a non-co-runnable phase; pace the admission scan too.
    exec_backoff_len_ =
        exec_backoff_len_ == 0 ? kExecBackoffStart
                               : std::min<uint64_t>(exec_backoff_len_ * 2, kExecBackoffCap);
    exec_backoff_left_ = exec_backoff_len_;
    ++slack_stats_.exec_serial_windows;
    RunSerialWindow(best);
  }
  exec_pool_.reset();
  track_footprints_ = false;
}

namespace {

// True iff any key of `a` is present in `b` (used on small footprint sets).
bool SetsIntersect(const asfcommon::FlatSet64& a, const asfcommon::FlatSet64& b) {
  if (a.size() == 0 || b.size() == 0) {
    return false;
  }
  bool hit = false;
  const asfcommon::FlatSet64& probe = a.size() <= b.size() ? a : b;
  const asfcommon::FlatSet64& table = a.size() <= b.size() ? b : a;
  probe.ForEach([&](uint64_t key) { hit = hit || table.Contains(key); });
  return hit;
}

void SetUnionInto(const asfcommon::FlatSet64& from, asfcommon::FlatSet64& into) {
  from.ForEach([&](uint64_t key) { into.Insert(key); });
}

uint64_t ReadHost(uint64_t addr, uint32_t size) {
  uint64_t v = 0;
  std::memcpy(&v, reinterpret_cast<const void*>(addr), size);
  return v;
}

}  // namespace

bool Scheduler::TryRunEpoch(size_t best) {
  const size_t n = slack_pending_.size();
  const SchedEvent& min_ev = slack_pending_[best].ev;
  const uint64_t e0 = min_ev.cycle + slack_cycles_;
  uint64_t horizon = e0;
  // Candidate threads in (cycle, seq) dispatch order.
  exec_order_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (slack_pending_[i].valid && !slack_pending_[i].ev.thread->finished_) {
      exec_order_.push_back(i);
    }
  }
  std::sort(exec_order_.begin(), exec_order_.end(), [this](size_t a, size_t b) {
    return EventBefore(slack_pending_[a].ev, slack_pending_[b].ev);
  });
  // Greedy admission: a candidate joins the epoch iff it is runnable on a
  // worker and its predicted footprint is disjoint from every admitted
  // window's (its writes vs their everything, its reads vs their writes).
  // A refused candidate clamps the horizon at its dispatch cycle — its event
  // stays pending and must not be overtaken.
  exec_union_r_.Clear();
  exec_union_w_.Clear();
  exec_epoch_count_ = 0;
  size_t admitted[64];
  size_t admitted_count = 0;
  uint64_t last_dispatch_cycle = 0;
  for (size_t idx : exec_order_) {
    const SchedEvent& ev = slack_pending_[idx].ev;
    if (ev.cycle >= horizon) {
      break;  // Can neither run nor shrink the horizon further.
    }
    SimThread& t = *ev.thread;
    const ThreadFootprint& fp = exec_fp_[idx];
    bool ok = admitted_count < exec_windows_.size() && !t.abort_requested_ &&
              t.phase_ != SimThread::Phase::kSyncOp && t.sync_held_ == 0 &&
              !t.exec_trap_replay_ && handler_->AdmitParallelWindow(t.id());
    // Two windows dispatching at the same cycle would deadlock the wave
    // protocol into a zero-progress park loop; the later-seq one waits.
    ok = ok && (admitted_count == 0 || ev.cycle != last_dispatch_cycle);
    if (ok && !slack_exec_no_admission_) {
      ok = !SetsIntersect(fp.prev_w, exec_union_r_) && !SetsIntersect(fp.cur_w, exec_union_r_) &&
           !SetsIntersect(fp.prev_w, exec_union_w_) && !SetsIntersect(fp.cur_w, exec_union_w_) &&
           !SetsIntersect(fp.prev_r, exec_union_w_) && !SetsIntersect(fp.cur_r, exec_union_w_);
    }
    if (!ok) {
      ++slack_stats_.exec_admit_rejects;
      horizon = std::min(horizon, ev.cycle);
      continue;
    }
    SetUnionInto(fp.prev_r, exec_union_r_);
    SetUnionInto(fp.cur_r, exec_union_r_);
    SetUnionInto(fp.prev_w, exec_union_w_);
    SetUnionInto(fp.cur_w, exec_union_w_);
    admitted[admitted_count++] = idx;
    last_dispatch_cycle = ev.cycle;
  }
  // Drop admitted windows whose dispatch fell at/after the final horizon
  // (a later candidate's rejection clamped past them); their events simply
  // stay pending. The global minimum is never dropped: every clamp cycle
  // exceeds its dispatch cycle.
  size_t count = 0;
  for (size_t i = 0; i < admitted_count; ++i) {
    if (slack_pending_[admitted[i]].ev.cycle < horizon) {
      admitted[count++] = admitted[i];
    }
  }
  if (count < 2) {
    return false;
  }
  ASF_CHECK(admitted[0] == best);
  if (SlackExecAuditFn audit = SlackExecAudit(); audit != nullptr) {
    // Report the pre-rotation prediction sets — exactly what the admission
    // scan above intersected — for the brute-force disjointness oracle.
    std::vector<ExecAuditWindow> report(count);
    for (size_t i = 0; i < count; ++i) {
      const ThreadFootprint& fp = exec_fp_[admitted[i]];
      report[i].tid = static_cast<uint32_t>(admitted[i]);
      fp.prev_r.ForEach([&](uint64_t l) { report[i].reads.push_back(l); });
      fp.cur_r.ForEach([&](uint64_t l) { report[i].reads.push_back(l); });
      fp.prev_w.ForEach([&](uint64_t l) { report[i].writes.push_back(l); });
      fp.cur_w.ForEach([&](uint64_t l) { report[i].writes.push_back(l); });
    }
    audit(report);
  }
  // Form the epoch: seed each window's pending slot with its dispatch event,
  // rotate footprints (the pre-rotation sets were the admission predicate;
  // the post-rotation pair is the in-flight license), and flip the threads
  // into worker mode.
  exec_horizon_ = horizon;
  for (size_t i = 0; i < count; ++i) {
    const size_t tid = admitted[i];
    SlackSlot& slot = slack_pending_[tid];
    ExecWindow& w = *exec_windows_[i];
    SimThread& t = *slot.ev.thread;
    w.thread = &t;
    w.low_water.store(slot.ev.cycle, std::memory_order_relaxed);
    w.status.store(kWinActive, std::memory_order_relaxed);
    w.end_cycle = 0;
    w.ended = false;
    w.trapped = w.synced = w.finished_thread = false;
    w.wave_parks = 0;
    w.inline_chain = 0;
    w.pending_valid = true;
    w.pending_cycle = slot.ev.cycle;
    w.pending_yield = slot.ev.yield;
    w.dispatch_seq = slot.ev.seq;
    w.steps.clear();
    w.deferred.clear();
    slot.valid = false;
    RotateFootprint(static_cast<uint32_t>(tid));
    t.in_worker_window_ = true;
    exec_window_of_[tid] = &w;
  }
  exec_epoch_count_ = count;
  ++slack_stats_.exec_epochs;
  // Fork: each worker runs one window to its end. The pool's fork/join
  // barrier is the happens-before edge for everything the coordinator wrote
  // above and everything the workers hand back.
  exec_pool_->Run([this, count](size_t wi) {
    if (wi < count) {
      RunWindow(*exec_windows_[wi]);
    }
  });
  CommitEpoch();
  return true;
}

void Scheduler::EndWindow(ExecWindow& w, uint32_t status, uint64_t end_cycle) {
  ASF_CHECK(!w.ended);
  w.ended = true;
  w.end_cycle = end_cycle;
  w.status.store(status, std::memory_order_release);
}

bool Scheduler::WaveWait(ExecWindow& w, uint64_t cycle) {
  if (slack_exec_no_admission_) {
    return true;  // Mutation hook: unordered co-execution, on purpose.
  }
  // Bounded spin per co-window: a cycle tie (both windows about to consume
  // the same cycle) never resolves, so after the spin budget the caller
  // parks — always sound, the event replays serially after the epoch.
  constexpr uint32_t kSpinLimit = 256;
  for (size_t i = 0; i < exec_epoch_count_; ++i) {
    ExecWindow& v = *exec_windows_[i];
    if (&v == &w) {
      continue;
    }
    uint32_t spins = 0;
    for (;;) {
      const uint32_t s = v.status.load(std::memory_order_acquire);
      if (s == kWinEndedClean) {
        break;  // No more activity below the horizon.
      }
      if (s == kWinEndedPending) {
        // v's final event at end_cycle replays on the coordinator after the
        // epoch; we may only commit events strictly before it.
        if (v.end_cycle > cycle) {
          break;
        }
        return false;
      }
      if (v.low_water.load(std::memory_order_relaxed) > cycle) {
        break;  // v provably produces no more activity at or below `cycle`.
      }
      if (++spins > kSpinLimit) {
        return false;
      }
      std::this_thread::yield();
    }
  }
  return true;
}

bool Scheduler::TryConsumeWorker(SimThread& t) {
  ExecWindow& w = *exec_window_of_[t.id()];
  if (w.ended) {
    return false;
  }
  if (t.abort_requested_) {
    // The parked wake unwinds the abortable scope on the coordinator at its
    // cycle; co-windows must not commit events at or past it. (In worker
    // context aborts only arise from AbortSelf, which parks the wake.)
    ASF_CHECK(w.pending_valid);
    EndWindow(w, kWinEndedPending, w.pending_cycle);
    return false;
  }
  if (!w.pending_valid || w.pending_cycle >= exec_horizon_ ||
      w.inline_chain >= kMaxInlineChain) {
    return false;
  }
  const uint64_t c = w.pending_cycle;
  // Announce BEFORE waiting: "this window produces nothing below c" must
  // already be published while we wait on the co-windows, or two windows
  // probing each other would deadlock into mutual parks every time.
  w.low_water.store(c, std::memory_order_relaxed);
  if (!WaveWait(w, c)) {
    ++w.wave_parks;
    EndWindow(w, kWinEndedPending, c);
    return false;
  }
  w.pending_valid = false;
  ++w.inline_chain;
  w.steps.push_back(ExecStep{c, w.pending_yield});
  t.core_->AdvanceTo(c);
  return true;
}

void Scheduler::RunWindow(ExecWindow& w) {
  SimThread& t = *w.thread;
  for (;;) {
    w.inline_chain = 0;  // Loop-level consume: the worker stack is flat.
    if (!TryConsumeWorker(t)) {
      break;
    }
    // Dispatch the consumed event (the worker-side OnWake): flush-work
    // completion or a coroutine resume. Aborts never dispatch here —
    // TryConsumeWorker refuses them and the coordinator unwinds the scope.
    if (t.phase_ == SimThread::Phase::kFlushWork) {
      t.phase_ = SimThread::Phase::kIdle;
      ProcessAccess(t, t.pending_);
      ScheduleWake(t, t.core_->clock());
    } else {
      std::coroutine_handle<> h = t.resume_point_;
      ASF_CHECK(h && !h.done());
      t.resume_point_ = nullptr;
      h.resume();
      if (t.root_.Done() && !t.finished_) {
        // Defer the finished-count bump to the epoch commit (it is
        // coordinator state); the flag keeps the thread's own paths exact.
        t.finished_ = true;
        w.finished_thread = true;
      }
    }
  }
  if (!w.ended) {
    // No more consumable activity below the horizon: the thread finished,
    // aborted (coordinator unwinds at its parked wake), or its next wake
    // lies at/after the horizon. Its pending event (if any) re-parks at
    // commit; co-windows need no cycle bound against us.
    EndWindow(w, kWinEndedClean, w.steps.empty() ? w.pending_cycle : w.steps.back().cycle);
  }
}

bool Scheduler::WorkerProcessAccess(SimThread& t, const SimThread::PendingOp& op) {
  Core& core = *t.core_;
  // Timer delivery mutates core state and may raise an interrupt through
  // the handler; trap WITHOUT consuming it (CheckTimer at the coordinator
  // replay fires identically — nothing was charged here).
  if (core.TimerWouldFire(core.clock())) {
    return false;
  }
  if (op.kind != AccessKind::kLoad && op.kind != AccessKind::kStore) {
    return false;  // Tx/control accesses touch shared machine state.
  }
  const uint64_t first = asfcommon::LineOf(op.addr);
  const uint64_t last = asfcommon::LineOf(op.addr + op.size - 1);
  const bool write_like = op.kind == AccessKind::kStore;
  const ThreadFootprint& fp = exec_fp_[t.id()];
  if (!slack_exec_no_admission_) {
    for (uint64_t line = first; line <= last; ++line) {
      if (write_like) {
        // Writes only within the predicted write set: admission made those
        // lines exclusively ours; anything else might be first-touch-read
        // by a co-window right now.
        if (!fp.prev_w.Contains(line) && !fp.cur_w.Contains(line)) {
          return false;
        }
      } else if (exec_union_w_.Contains(line) && !fp.prev_r.Contains(line) &&
                 !fp.cur_r.Contains(line) && !fp.prev_w.Contains(line) &&
                 !fp.cur_w.Contains(line)) {
        // A co-window predicted writing this line (admission disjointness
        // means any self-predicted line is ours alone, checked above).
        return false;
      }
    }
  }
  AccessOutcome outcome;
  if (!handler_->TryParallelAccess(t, op.kind, op.addr, op.size, &outcome)) {
    return false;
  }
  // Committed: replay exactly what ProcessAccess does on this path.
  uint64_t latency = outcome.latency;
  if (op.data == SimThread::PendingOp::Data::kCas ||
      op.data == SimThread::PendingOp::Data::kFaa) {
    latency += core.params().rmw_extra_cycles;
  }
  core.AdvanceTo(core.clock() + latency);
  using Data = SimThread::PendingOp::Data;
  switch (op.data) {
    case Data::kNone:
      break;
    case Data::kStore:
      std::memcpy(reinterpret_cast<void*>(op.addr), &op.value, op.size);
      break;
    case Data::kLoadCapture:
      t.load_result_ = ReadHost(op.addr, op.size);
      break;
    case Data::kCas: {
      uint64_t cur = ReadHost(op.addr, op.size);
      if (cur == op.expected) {
        std::memcpy(reinterpret_cast<void*>(op.addr), &op.value, op.size);
        t.rmw_result_ = 1;
      } else {
        t.rmw_result_ = 0;
      }
      break;
    }
    case Data::kFaa: {
      uint64_t cur = ReadHost(op.addr, op.size);
      uint64_t next = cur + op.value;
      std::memcpy(reinterpret_cast<void*>(op.addr), &next, op.size);
      t.rmw_result_ = cur;
      break;
    }
  }
  // First-touch extension of the license (reads) / footprint bookkeeping.
  ThreadFootprint& mfp = exec_fp_[t.id()];
  for (uint64_t line = first; line <= last; ++line) {
    if (write_like) {
      mfp.cur_w.Insert(line);
    } else {
      mfp.cur_r.Insert(line);
    }
  }
  return true;
}

void Scheduler::CommitEpoch() {
  const size_t count = exec_epoch_count_;
  // Leave worker mode first: deferred effects flush directly below.
  for (size_t i = 0; i < count; ++i) {
    ExecWindow& w = *exec_windows_[i];
    w.thread->in_worker_window_ = false;
    exec_window_of_[w.thread->id()] = nullptr;
  }
  // Replay merge: pop committed steps in (cycle, seq) order, assigning each
  // popped step's successor the next sequence number — the serial loop's
  // assignment, reproduced exactly. head_seq[i] is the seq of window i's
  // current head step (the dispatch event's original seq initially).
  size_t head[64];
  uint64_t head_seq[64];
  size_t deferred_cursor[64];
  for (size_t i = 0; i < count; ++i) {
    head[i] = 0;
    head_seq[i] = exec_windows_[i]->dispatch_seq;
    deferred_cursor[i] = 0;
  }
  for (;;) {
    size_t pick = count;
    for (size_t i = 0; i < count; ++i) {
      ExecWindow& w = *exec_windows_[i];
      if (head[i] >= w.steps.size()) {
        continue;
      }
      if (pick == count) {
        pick = i;
        continue;
      }
      const uint64_t ci = w.steps[head[i]].cycle;
      const uint64_t cp = exec_windows_[pick]->steps[head[pick]].cycle;
      if (ci < cp || (ci == cp && head_seq[i] < head_seq[pick])) {
        pick = i;
      }
    }
    if (pick == count) {
      break;
    }
    ExecWindow& w = *exec_windows_[pick];
    // Flush observer effects emitted while processing this step.
    while (deferred_cursor[pick] < w.deferred.size() &&
           w.deferred[deferred_cursor[pick]].step == head[pick]) {
      w.deferred[deferred_cursor[pick]].fn();
      ++deferred_cursor[pick];
    }
    ++head[pick];
    if (head[pick] < w.steps.size()) {
      head_seq[pick] = next_seq_++;
    } else {
      // Window exhausted: its successor is the final pending wake (re-park
      // with a fresh seq), or the thread finished.
      SimThread& t = *w.thread;
      if (w.pending_valid) {
        SlackSlot& slot = slack_pending_[t.id()];
        ASF_CHECK(!slot.valid);
        slot.ev = SchedEvent{w.pending_cycle, next_seq_++, &t, w.pending_yield};
        slot.valid = true;
        w.pending_valid = false;
      } else {
        ASF_CHECK_MSG(w.finished_thread, "parallel window ended with no successor event");
        ++finished_count_;
      }
    }
  }
  // Windows whose dispatch never ran (parked on the first wave check): the
  // original event goes back untouched, original seq and all.
  for (size_t i = 0; i < count; ++i) {
    ExecWindow& w = *exec_windows_[i];
    if (w.steps.empty() && w.pending_valid) {
      SimThread& t = *w.thread;
      SlackSlot& slot = slack_pending_[t.id()];
      ASF_CHECK(!slot.valid);
      slot.ev = SchedEvent{w.pending_cycle, w.dispatch_seq, &t, w.pending_yield};
      slot.valid = true;
      w.pending_valid = false;
    }
  }
  // Fold telemetry.
  exec_last_epoch_events_ = 0;
  for (size_t i = 0; i < count; ++i) {
    ExecWindow& w = *exec_windows_[i];
    ++slack_stats_.exec_windows;
    slack_stats_.exec_events += w.steps.size();
    exec_last_epoch_events_ += w.steps.size();
    slack_stats_.exec_worker_events[i] += w.steps.size();
    slack_stats_.exec_trapped += w.trapped ? 1 : 0;
    slack_stats_.exec_synced += w.synced ? 1 : 0;
    slack_stats_.exec_wave_parks += w.wave_parks;
    w.thread = nullptr;
  }
  exec_epoch_count_ = 0;
}

void Scheduler::RotateFootprint(uint32_t tid) {
  ThreadFootprint& fp = exec_fp_[tid];
  std::swap(fp.prev_r, fp.cur_r);
  std::swap(fp.prev_w, fp.cur_w);
  fp.cur_r.Clear();
  fp.cur_w.Clear();
}

void Scheduler::TrackFootprint(SimThread& t, const SimThread::PendingOp& op) {
  // Only data-carrying kinds predict lines; control ops (SPECULATE, COMMIT,
  // ABORT, syscall) carry address 0 and would poison every footprint with
  // line 0. Transactional kinds DO count — their lines predict conflicts,
  // which is exactly what keeps speculative windows from co-running.
  switch (op.kind) {
    case AccessKind::kLoad:
    case AccessKind::kTxLoad:
    case AccessKind::kWatchR:
    case AccessKind::kRelease: {
      ThreadFootprint& fp = exec_fp_[t.id()];
      const uint64_t last = asfcommon::LineOf(op.addr + op.size - 1);
      for (uint64_t line = asfcommon::LineOf(op.addr); line <= last; ++line) {
        fp.cur_r.Insert(line);
      }
      break;
    }
    case AccessKind::kStore:
    case AccessKind::kTxStore:
    case AccessKind::kWatchW: {
      ThreadFootprint& fp = exec_fp_[t.id()];
      const uint64_t last = asfcommon::LineOf(op.addr + op.size - 1);
      for (uint64_t line = asfcommon::LineOf(op.addr); line <= last; ++line) {
        fp.cur_w.Insert(line);
      }
      break;
    }
    default:
      break;
  }
}

void Scheduler::DeferWindowEffect(uint32_t tid, std::function<void()> fn) {
  ExecWindow& w = *exec_window_of_[tid];
  ASF_CHECK(!w.steps.empty());
  w.deferred.push_back(DeferredFx{w.steps.size() - 1, std::move(fn)});
}

void Scheduler::WorkerParkSync(SimThread& t, std::coroutine_handle<> h,
                               bool (*fn)(SimThread&, void*), void* obj) {
  ASF_CHECK(t.in_worker_window_);
  t.resume_point_ = h;
  t.phase_ = SimThread::Phase::kSyncOp;
  t.sync_fn_ = fn;
  t.sync_obj_ = obj;
  ScheduleWake(t, t.core_->clock());
  ExecWindow& w = *exec_window_of_[t.id()];
  w.synced = true;
  EndWindow(w, kWinEndedPending, t.core_->clock());
}

void SimThread::HostFenceAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  t.scheduler_->WorkerParkSync(
      t, h, +[](SimThread&, void*) { return true; }, nullptr);
}

// Rebuilds every partition's sorted snapshot on the worker pool. Workers
// read the pending table concurrently but write only their own partition —
// the fork/join barrier in SlackWorkerPool::Run supplies the ordering (see
// slack_pool.h). The replan interval backs off geometrically: each epoch
// doubles it up to a cap, so a run of W windows pays O(log W + W/cap)
// fork/joins total. The backoff is unconditional by design — a fork/join
// epoch costs two host context switches whenever the workers share the
// coordinator's CPU, while a stale snapshot costs almost nothing (resolves
// fall through to the dirty overlay, the same cheap serial scan the kScan
// backend runs), and any freshness-based feedback signal is self-defeating:
// replanning often keeps the snapshot fresh, which then reads as "plans are
// paying off". Correctness never depends on snapshot age, only the
// plan-speedup opportunity does, and the cap bounds that staleness. Purely
// a function of simulation state, so the epoch schedule (and the occupancy
// telemetry) is reproducible run over run.
void Scheduler::ReplanShards() {
  replan_interval_ = std::min<uint64_t>(replan_interval_ * 2, 65536);
  windows_since_plan_ = 0;
  const size_t jobs = slack_parts_.size();
  slack_pool_->Run([this, jobs](size_t w) {
    SlackPartition& part = slack_parts_[w];
    part.sorted.clear();
    part.cursor = 0;
    for (size_t tid = w; tid < slack_pending_.size(); tid += jobs) {
      if (slack_pending_[tid].valid) {
        part.sorted.push_back(slack_pending_[tid].ev);
      }
    }
    std::sort(part.sorted.begin(), part.sorted.end(),
              [](const SchedEvent& a, const SchedEvent& b) { return EventBefore(a, b); });
    part.planned += part.sorted.size();
  });
  ++slack_stats_.plan_forks;
  for (size_t w = 0; w < jobs; ++w) {
    slack_stats_.plan_events += slack_parts_[w].sorted.size();
    slack_stats_.worker_planned[w] = slack_parts_[w].planned;
  }
  std::fill(slack_dirty_.begin(), slack_dirty_.end(), uint8_t{0});
  slack_dirty_count_ = 0;
}

bool Scheduler::ShardedMinPending(uint32_t exclude, bool owner_partition_only,
                                  SchedEvent* out) {
  const size_t jobs = slack_parts_.size();
  size_t first_part = 0;
  size_t last_part = jobs;
  if (owner_partition_only) {
    // ASF_SLACK_NO_BARRIER mutation: the horizon ignores every partition but
    // the owner's — the deliberate soundness hole the digest gates must
    // catch. Never used for the dispatch minimum, so dispatch stays exact.
    first_part = exclude % jobs;
    last_part = first_part + 1;
  }
  bool found = false;
  SchedEvent best{};
  for (size_t p = first_part; p < last_part; ++p) {
    SlackPartition& part = slack_parts_[p];
    // Snapshot entries of dirty threads are dead (their live slot is
    // authoritative); skipping is permanent because a thread stays dirty
    // until the next plan epoch rebuilds the snapshot.
    while (part.cursor < part.sorted.size() &&
           slack_dirty_[part.sorted[part.cursor].thread->id()]) {
      ++part.cursor;
    }
    if (part.cursor < part.sorted.size()) {
      const SchedEvent& ev = part.sorted[part.cursor];
      if (ev.thread->id() != exclude && (!found || EventBefore(ev, best))) {
        best = ev;
        found = true;
      }
    }
  }
  const bool snapshot_hit = found;
  // Dirty overlay: threads whose slot mutated since the plan epoch.
  for (size_t tid = 0; tid < slack_dirty_.size(); ++tid) {
    if (!slack_dirty_[tid] || tid == exclude || !slack_pending_[tid].valid) {
      continue;
    }
    if (owner_partition_only && tid % jobs != first_part) {
      continue;
    }
    if (!found || EventBefore(slack_pending_[tid].ev, best)) {
      best = slack_pending_[tid].ev;
      found = true;
    }
  }
  if (found) {
    *out = best;
    if (!snapshot_hit) {
      ++slack_stats_.overlay_resolves;
    }
  }
  return found;
}

// Sharded window loop: identical window semantics to RunSlackScan, with the
// (minimum, horizon) pair resolved by ShardedMinPending over the worker-
// planned partition snapshots. Simulated coroutines still execute only on
// this (coordinating) host thread — host parallelism covers planning, which
// is what keeps every digest bit-identical and the mode TSan-clean.
void Scheduler::RunSlackSharded() {
  const size_t n = slack_pending_.size();
  const size_t jobs = std::min<size_t>(slack_jobs_, threads_.size());
  slack_sharded_ = true;
  slack_parts_.assign(jobs, SlackPartition{});
  slack_stats_.worker_planned.assign(jobs, 0);
  // Everything starts dirty; the first window forces the initial plan epoch.
  slack_dirty_.assign(n, 1);
  slack_dirty_count_ = n;
  windows_since_plan_ = replan_interval_ = 1;
  slack_pool_ = std::make_unique<SlackWorkerPool>(jobs);
  for (;;) {
    inline_chain_ = 0;  // Control is back in the loop; the host stack is flat.
    if (slack_dirty_count_ > 0 && windows_since_plan_ >= replan_interval_) {
      ReplanShards();
    }
    ++windows_since_plan_;
    SchedEvent ev;
    if (!ShardedMinPending(kNoExclude, /*owner_partition_only=*/false, &ev)) {
      break;
    }
    SimThread& t = *ev.thread;
    slack_pending_[t.id()].valid = false;
    MarkSlackDirty(t.id());
    if (t.finished_) {
      continue;
    }
    window_owner_ = &t;
    window_end_ = ev.cycle + slack_cycles_;
    window_other_valid_ =
        ShardedMinPending(t.id(), slack_barrier_disabled_, &window_other_min_);
    const bool solo = !window_other_valid_ || window_other_min_.cycle >= window_end_;
    journal_.Open();
    ++slack_stats_.quanta;
    slack_stats_.solo_quanta += solo ? 1 : 0;
    ++slack_stats_.loop_events;
    ++slack_stats_.sharded_windows;
    OnWake(t, ev.cycle);
    slack_stats_.torn_quanta += journal_.torn() ? 1 : 0;
    slack_stats_.conflict_quanta += journal_.conflicted() ? 1 : 0;
    slack_stats_.journal_lines += journal_.dirty_lines();
    window_owner_ = nullptr;
  }
  slack_sharded_ = false;
  slack_pool_.reset();
}

uint64_t Scheduler::MaxCycle() const {
  uint64_t max_cycle = 0;
  for (const auto& c : cores_) {
    max_cycle = std::max(max_cycle, c->clock());
  }
  return max_cycle;
}

void Scheduler::OnWake(SimThread& t, uint64_t cycle) {
  t.core_->AdvanceTo(cycle);
  if (t.abort_requested_) {
    // Instantaneous-abort semantics: a pending access of a doomed region is
    // never performed; unwind immediately.
    DoControlAbort(t);
    return;
  }
  if (t.phase_ == SimThread::Phase::kFlushWork) {
    t.phase_ = SimThread::Phase::kIdle;
    ProcessAccess(t, t.pending_);
    ScheduleWake(t, t.core_->clock());
    return;
  }
  if (t.phase_ == SimThread::Phase::kSyncOp) {
    // A sync operation deferred from a parallel window: run the acquire/
    // arrive/fence logic here on the coordinator. A true return means the
    // thread proceeds now; false means the callback re-parked it (e.g. on a
    // mutex wait list, phase kBlocked).
    t.phase_ = SimThread::Phase::kIdle;
    bool (*fn)(SimThread&, void*) = t.sync_fn_;
    void* obj = t.sync_obj_;
    t.sync_fn_ = nullptr;
    t.sync_obj_ = nullptr;
    ASF_CHECK(fn != nullptr);
    if (fn(t, obj)) {
      ResumeThread(t);
    }
    return;
  }
  ResumeThread(t);
}

void Scheduler::ProcessAccess(SimThread& t, const SimThread::PendingOp& op) {
  Core& core = *t.core_;
  if (t.in_worker_window_) {
    if (WorkerProcessAccess(t, op)) {
      return;
    }
    // Trap: the access could not be proven core-confined. Zero simulated
    // effects have happened; defer the op to the coordinator as a flush-work
    // wake at the issue cycle and end the window pending there. The
    // coordinator replays the identical access through the exact path (the
    // caller parks the wake, as for any access).
    t.phase_ = SimThread::Phase::kFlushWork;
    t.pending_ = op;
    t.exec_trap_replay_ = true;
    ExecWindow& w = *exec_window_of_[t.id()];
    w.trapped = true;
    EndWindow(w, kWinEndedPending, core.clock());
    return;
  }
  t.exec_trap_replay_ = false;
  // Timer interrupt delivery is checked at access boundaries (the paper's
  // regions abort on any interrupt; OS tick cost is charged either way).
  if (core.CheckTimer(core.clock())) {
    core.AdvanceTo(core.clock() + core.params().timer_cost);
    if (handler_->OnInterrupt(t)) {
      t.MarkAbort(AbortCause::kInterrupt);
      return;
    }
  }
  const uint64_t issue_cycle = core.clock();
  AccessOutcome outcome = handler_->OnAccess(t, op.kind, op.addr, op.size);
  uint64_t latency = outcome.latency;
  if (op.data == SimThread::PendingOp::Data::kCas || op.data == SimThread::PendingOp::Data::kFaa) {
    latency += core.params().rmw_extra_cycles;
  }
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEvent{issue_cycle, op.addr, core.id(), op.size, op.kind,
                               core.category(), latency});
  }
  core.AdvanceTo(core.clock() + latency);
  if (outcome.self_abort) {
    ASF_CHECK_MSG(t.abort_requested_, "handler reported self-abort without marking the thread");
  } else {
    // Data-carrying operations apply atomically with the access's coherence
    // effects (the machine has already versioned the line if speculative).
    using Data = SimThread::PendingOp::Data;
    switch (op.data) {
      case Data::kNone:
        break;
      case Data::kStore:
        std::memcpy(reinterpret_cast<void*>(op.addr), &op.value, op.size);
        break;
      case Data::kLoadCapture:
        // Bind the loaded value now — after conflict resolution rolled back
        // any victim region — so a later speculative store cannot leak into
        // this load's result (see SimThread::Load).
        t.load_result_ = ReadHost(op.addr, op.size);
        break;
      case Data::kCas: {
        uint64_t cur = ReadHost(op.addr, op.size);
        if (cur == op.expected) {
          std::memcpy(reinterpret_cast<void*>(op.addr), &op.value, op.size);
          t.rmw_result_ = 1;
        } else {
          t.rmw_result_ = 0;
        }
        break;
      }
      case Data::kFaa: {
        uint64_t cur = ReadHost(op.addr, op.size);
        uint64_t next = cur + op.value;
        std::memcpy(reinterpret_cast<void*>(op.addr), &next, op.size);
        t.rmw_result_ = cur;
        break;
      }
    }
  }
  if (track_footprints_) {
    TrackFootprint(t, op);
  }
}

void Scheduler::DoControlAbort(SimThread& t) {
  AbortScope* scope = t.scope_;
  ASF_CHECK(scope != nullptr);
  t.scope_ = nullptr;
  t.abort_requested_ = false;
  scope->result_ = t.abort_cause_;
  t.abort_cause_ = AbortCause::kNone;
  // Destroy the attempt's coroutine tree (rollback of control flow); then
  // resume the retry loop, which observes the abort cause.
  scope->body_.Destroy();
  t.resume_point_ = scope->awaiter_;
  t.phase_ = SimThread::Phase::kIdle;
  ResumeThread(t);
}

void Scheduler::ResumeThread(SimThread& t) {
  std::coroutine_handle<> h = t.resume_point_;
  ASF_CHECK(h && !h.done());
  t.resume_point_ = nullptr;
  h.resume();
  if (t.root_.Done() && !t.finished_) {
    t.finished_ = true;
    ++finished_count_;
  }
}

}  // namespace asfsim
