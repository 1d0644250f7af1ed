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
    : machine_(machine),
      params_(params),
      lock_word_(machine.arena().New<LockWord>()),
      // An oversized critical section keeps retrying until the budget is
      // spent (capacity does not short-circuit to the real lock), and one
      // RNG is shared across threads: the historical behavior. Eliding adds
      // no software path around the raw ASF instructions.
      loop_(machine, {.policy = params.policy,
                      .default_policy = {.base_cycles = params.backoff_base_cycles,
                                         .shift_cap = 6,
                                         .max_retries = params.max_elision_retries,
                                         .capacity_serializes = false,
                                         .seed = params.rng_seed,
                                         .seed_stride = 0},
                      .mode = TxMode::kElision,
                      .monitored_word = &lock_word_->word,
                      .wait = [this](SimThread& t) { return AwaitFree(t); }}) {
  machine.mem().PretouchPages(reinterpret_cast<uint64_t>(lock_word_), sizeof(LockWord));
  const uint32_t n = machine.scheduler().num_cores();
  for (uint32_t i = 0; i < n; ++i) {
    threads_.push_back(std::make_unique<HwThread>(nullptr));
  }
}

TxStats ElidableLock::TotalStats() const {
  TxStats total;
  for (const auto& pt : threads_) {
    total.Add(pt->stats);
  }
  return total;
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

Task<void> ElidableLock::RunLocked(SimThread& t, HwThread& pt, const Body& body) {
  EmitTxEvent(machine_, t, TxEventKind::kFallbackTransition, TxMode::kLock, AbortCause::kNone, 0,
              0, static_cast<uint64_t>(TxMode::kElision));
  co_await fallback_.Acquire(t);
  // The store aborts every concurrent elision monitoring the word.
  co_await t.Store(AccessKind::kStore, &lock_word_->word, 8, 1);
  ++pt.stats.serial_attempts;
  EmitTxEvent(machine_, t, TxEventKind::kTxBegin, TxMode::kLock, AbortCause::kNone, 0, 0);
  pt.alloc.OnAttemptStart();
  co_await body(/*elided=*/false);
  pt.alloc.OnCommit();
  co_await t.Store(AccessKind::kStore, &lock_word_->word, 8, 0);
  fallback_.Release(t);
  ++pt.stats.serial_commits;
  EmitTxEvent(machine_, t, TxEventKind::kTxCommit, TxMode::kLock, AbortCause::kNone, 0, 0);
}

Task<void> ElidableLock::Section(SimThread& t, HwThread& pt, uint32_t site, const Body& body) {
  HwAttemptLoop::Block block = loop_.StartBlock(t, pt, site);
  if (!params_.always_acquire) {
    HwAttemptLoop::AttemptFn elided = [&body] { return body(/*elided=*/true); };
    if (co_await loop_.Run(t, pt, block, elided) != HwAttemptLoop::Outcome::kFallback) {
      co_return;
    }
  }
  co_await RunLocked(t, pt, body);
}

Task<void> ElidableLock::CriticalSection(SimThread& t, Body body, uint32_t site) {
  co_await Section(t, *threads_[t.id()], site, body);
}

// Transaction handle for ElisionTm: transactional accesses while elided,
// plain irrevocable accesses while the real lock is held.
class ElisionTx : public Tx {
 public:
  ElisionTx(ElisionTm& rt, SimThread& t, HwThread& pt, bool elided)
      : Tx(t), rt_(rt), pt_(pt), elided_(elided) {}

  bool irrevocable() const override { return !elided_; }

  Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.barrier_instructions);
    co_await t.Access(elided_ ? AccessKind::kTxLoad : AccessKind::kLoad, addr, size);
    uint64_t v = 0;
    std::memcpy(&v, reinterpret_cast<const void*>(addr), size);
    co_return v;
  }

  Task<void> WriteBarrier(uint64_t addr, uint32_t size, uint64_t value) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.barrier_instructions);
    co_await t.Store(elided_ ? AccessKind::kTxStore : AccessKind::kStore, addr, size, value);
  }

  Task<void> ReleaseBarrier(uint64_t addr, uint32_t size) override {
    if (!elided_) {
      co_return;  // Nothing monitored under the real lock.
    }
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    co_await t.Access(AccessKind::kRelease, addr, size);
  }

  Task<void*> TxMalloc(uint64_t bytes) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxNonInstr);
    t.core().WorkInstructions(rt_.params_.alloc_instructions);
    void* p = pt_.alloc.TryAlloc(bytes);
    if (p == nullptr) {
      if (elided_) {
        // Refilling means a system call, which cannot run speculatively:
        // abort, refill nonspeculatively, retry the section.
        pt_.refill_bytes = bytes;
        co_await rt_.machine_.AbortRegion(t, AbortCause::kMallocRefill);
      }
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
    ASF_CHECK_MSG(elided_,
                  "ElisionTm: UserAbort is unsupported while the real lock is held "
                  "(a plain lock has no rollback mechanism)");
    co_await rt_.machine_.AbortRegion(thread(), AbortCause::kUserAbort);
  }

 private:
  ElisionTm& rt_;
  HwThread& pt_;
  const bool elided_;
};

ElisionTm::ElisionTm(asf::Machine& machine, const ElisionTmParams& params)
    : machine_(machine), params_(params) {
  lock_ = std::make_unique<ElidableLock>(machine, params.lock);
  const uint32_t n = machine.scheduler().num_cores();
  for (uint32_t i = 0; i < n; ++i) {
    auto pt = std::make_unique<HwThread>(&machine.arena());
    pt->alloc.Refill(1);
    threads_.push_back(std::move(pt));
  }
}

ElisionTm::~ElisionTm() = default;

std::string ElisionTm::name() const {
  return "LockElision (" + machine_.params().variant.Name() + ")";
}

Task<void> ElisionTm::Atomic(SimThread& t, uint32_t site, BodyFn body) {
  HwThread& pt = *threads_[t.id()];
  ElidableLock::Body section = [&](bool elided) -> Task<void> {
    CategoryGuard g(t.core(), CycleCategory::kTxAppCode);
    ElisionTx tx(*this, t, pt, elided);
    co_await body(tx);
  };
  co_await lock_->Section(t, pt, site, section);
}

TxStats ElisionTm::TotalStats() const {
  TxStats total;
  for (const auto& pt : threads_) {
    total.Add(pt->stats);
  }
  return total;
}

void ElisionTm::ResetStats() {
  for (auto& pt : threads_) {
    pt->stats = TxStats{};
  }
}

}  // namespace asftm
