// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/lock_elision.h"

#include <cstring>

#include "src/tm/tx_observe.h"

namespace asftm {

using asfcommon::AbortCause;
using asfobs::TxEventKind;
using asfobs::TxMode;
using asfsim::AccessKind;
using asfsim::CategoryGuard;
using asfsim::CycleCategory;
using asfsim::SimThread;
using asfsim::Task;

ElidableLock::ElidableLock(asf::Machine& machine, const ElisionParams& params)
    : ElidableLock(machine, params, 0, 0) {}

ElidableLock::ElidableLock(asf::Machine& machine, const ElisionParams& params,
                           uint32_t barrier_instructions, uint32_t alloc_instructions)
    : machine_(machine),
      params_(params),
      lock_word_(machine.arena().New<LockWord>()),
      // An oversized critical section keeps retrying until the budget is
      // spent (capacity does not short-circuit to the real lock), and one
      // RNG is shared across threads: the historical behavior. Eliding adds
      // no begin/commit path around the raw ASF instructions.
      loop_(machine, {.policy = params.policy,
                      .default_policy = {.base_cycles = params.backoff_base_cycles,
                                         .shift_cap = 6,
                                         .max_retries = params.max_elision_retries,
                                         .capacity_serializes = false,
                                         .seed = params.rng_seed,
                                         .seed_stride = 0},
                      .mode = TxMode::kElision,
                      .monitored_word = &lock_word_->word,
                      .barrier_instructions = barrier_instructions,
                      .alloc_instructions = alloc_instructions,
                      .wait = [this](SimThread& t) { return AwaitFree(t); }}) {
  machine.mem().PretouchPages(reinterpret_cast<uint64_t>(lock_word_), sizeof(LockWord));
  const uint32_t n = machine.scheduler().num_cores();
  for (uint32_t i = 0; i < n; ++i) {
    threads_.push_back(std::make_unique<TmThread>(nullptr));
  }
}

Task<bool> ElidableLock::AwaitFree(SimThread& t) {
  for (;;) {
    co_await t.Access(AccessKind::kLoad, &lock_word_->word, 8);
    if (lock_word_->word == 0) {
      co_return true;
    }
    co_await t.Sleep(100);
  }
}

Task<void> ElidableLock::RunLocked(SimThread& t, TmThread& pt, const LockedFn& locked) {
  EmitTxEvent(machine_, t, TxEventKind::kFallbackTransition, TxMode::kLock, AbortCause::kNone, 0,
              0, static_cast<uint64_t>(TxMode::kElision));
  co_await fallback_.Acquire(t);
  // The store aborts every concurrent elision monitoring the word.
  co_await t.Store(AccessKind::kStore, &lock_word_->word, 8, 1);
  ++pt.stats.serial_attempts;
  EmitTxEvent(machine_, t, TxEventKind::kTxBegin, TxMode::kLock, AbortCause::kNone, 0, 0);
  pt.alloc.OnAttemptStart();
  co_await locked();
  pt.alloc.OnCommit();
  co_await t.Store(AccessKind::kStore, &lock_word_->word, 8, 0);
  fallback_.Release(t);
  ++pt.stats.serial_commits;
  EmitTxEvent(machine_, t, TxEventKind::kTxCommit, TxMode::kLock, AbortCause::kNone, 0, 0);
}

Task<void> ElidableLock::Section(SimThread& t, TmThread& pt, uint32_t site,
                                 const BodyFn& elided, const LockedFn& locked) {
  AttemptLoop::Block block = loop_.StartBlock(t, pt, site);
  if (!params_.always_acquire &&
      co_await loop_.Run(t, pt, block, elided) != AttemptLoop::Outcome::kFallback) {
    co_return;
  }
  co_await RunLocked(t, pt, locked);
}

Task<void> ElidableLock::CriticalSection(SimThread& t, Body body, uint32_t site) {
  co_await Section(
      t, *threads_[t.id()], site, [&body](Tx&) { return body(/*elided=*/true); },
      [&body] { return body(/*elided=*/false); });
}

// Transaction handle for ElisionTm while the real lock is held: plain
// irrevocable accesses (elided attempts run on the attempt loop's Tx).
class ElisionTx : public Tx {
 public:
  ElisionTx(ElisionTm& rt, SimThread& t, TmThread& pt) : Tx(t), rt_(rt), pt_(pt) {}

  bool irrevocable() const override { return true; }

  Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.barrier_instructions);
    co_await t.Access(AccessKind::kLoad, addr, size);
    uint64_t v = 0;
    std::memcpy(&v, reinterpret_cast<const void*>(addr), size);
    co_return v;
  }

  Task<void> WriteBarrier(uint64_t addr, uint32_t size, uint64_t value) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.barrier_instructions);
    co_await t.Store(AccessKind::kStore, addr, size, value);
  }

  Task<void*> TxMalloc(uint64_t bytes) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxNonInstr);
    t.core().WorkInstructions(rt_.params_.alloc_instructions);
    void* p = pt_.alloc.TryAlloc(bytes);
    if (p == nullptr) {
      // Lock held: refill inline (heap growth = system call).
      co_await t.Access(AccessKind::kSyscall, uint64_t{0}, 1);
      pt_.alloc.Refill(bytes);
      p = pt_.alloc.TryAlloc(bytes);
      ASF_CHECK(p != nullptr);
    }
    co_return p;
  }

  Task<void> TxFree(void* p) override {
    thread().core().WorkInstructions(4);
    pt_.alloc.DeferFree(p);
    co_return;
  }

  Task<void> UserAbort() override {
    ASF_CHECK_MSG(false,
                  "ElisionTm: UserAbort is unsupported while the real lock is held "
                  "(a plain lock has no rollback mechanism)");
    co_return;
  }

 private:
  ElisionTm& rt_;
  TmThread& pt_;
};

ElisionTm::ElisionTm(asf::Machine& machine, const ElisionTmParams& params)
    : machine_(machine),
      params_(params),
      lock_(machine, params.lock, params.barrier_instructions, params.alloc_instructions) {
  const uint32_t n = machine.scheduler().num_cores();
  for (uint32_t i = 0; i < n; ++i) {
    auto pt = std::make_unique<TmThread>(&machine.arena());
    pt->alloc.Refill(1);
    threads_.push_back(std::move(pt));
  }
}

ElisionTm::~ElisionTm() = default;

std::string ElisionTm::name() const {
  return "LockElision (" + machine_.params().variant.Name() + ")";
}

Task<void> ElisionTm::Atomic(SimThread& t, uint32_t site, BodyFn body) {
  TmThread& pt = *threads_[t.id()];
  ElidableLock::LockedFn locked = [&]() -> Task<void> {
    CategoryGuard g(t.core(), CycleCategory::kTxAppCode);
    ElisionTx tx(*this, t, pt);
    co_await body(tx);
  };
  co_await lock_.Section(t, pt, site, body, locked);
}

}  // namespace asftm
