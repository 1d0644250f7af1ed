// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Size-bucketed recycler for C++20 coroutine frames.
//
// Every simulated function that touches simulated memory is a coroutine
// (src/sim/task.h), so one transaction executes a handful of frame
// allocations — and every abort/retry cycle destroys and re-allocates the
// whole attempt tree. Under contention (the regime the paper's Figures 5-7
// study) that frame churn hits malloc once per frame per retry and becomes a
// first-order host cost. The pool below intercepts TaskPromise::operator
// new/delete and recycles frames through per-thread free lists: a retry
// re-uses the frames its previous attempt just released, in LIFO order, so
// the hot path is a pointer pop from memory that is already in the host's L1.
//
// Design constraints:
//  * One pool per host thread (`FramePool::ForThread()`), matching the sweep
//    engine's job model (src/harness/sweep.h): a job's frames live and die
//    on its worker thread, because one Machine is only ever driven by one
//    host thread. Each block carries its owning pool in a 16-byte header so
//    that a block freed from a different thread anyway (a coroutine created
//    on one host thread and destroyed on another) stays safe: it is adopted
//    into the freeing thread's own free list — never pushed onto the
//    foreign list (that would corrupt it) and never silently leaked to the
//    host allocator on the hot path.
//  * Frames are recycled verbatim, so stale-frame bugs (use-after-destroy of
//    a coroutine local) would become silent instead of crashing. Under ASan
//    the pool poisons the payload of every free-listed block and unpoisons on
//    reuse, so the sanitizer still sees those bugs (tests/frame_pool_test.cc
//    exercises this).
//  * Host-only: frame addresses never reach the simulated memory model (all
//    simulation-visible data lives in the SimArena), so recycling cannot
//    change any simulated outcome. bench/perf_selfcheck verifies digests
//    stay bit-identical.
#ifndef SRC_COMMON_FRAME_POOL_H_
#define SRC_COMMON_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>
#include <new>

#include "src/common/defs.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ASF_FRAME_POOL_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define ASF_FRAME_POOL_ASAN 1
#endif

#ifdef ASF_FRAME_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace asfcommon {

class FramePool {
 public:
  // Allocation counters for the owning thread (monotone; never reset by the
  // pool). pool_hits/allocs is the recycle rate perfbench reports as
  // sim.frame_recycle_ratio.
  struct Stats {
    uint64_t allocs = 0;         // Total Alloc() calls.
    uint64_t pool_hits = 0;      // Served from a free list (no malloc).
    uint64_t frees = 0;          // Total Free() calls.
    uint64_t oversize = 0;       // Larger than kMaxPooledBytes; malloc passthrough.
    uint64_t foreign_frees = 0;  // Freed by a non-owning thread.
    uint64_t bytes_requested = 0;
  };

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() { Trim(); }

  // The calling thread's pool (created on first use, destroyed at thread
  // exit). Blocks may outlive the allocating call but not the thread.
  static FramePool& ForThread() {
    thread_local FramePool pool;
    return pool;
  }

  void* Alloc(std::size_t size) {
    ++stats_.allocs;
    stats_.bytes_requested += size;
    const std::size_t payload = RoundUp(size);
    if (payload > kMaxPooledBytes) {
      ++stats_.oversize;
      Header* h = static_cast<Header*>(::operator new(kHeaderBytes + payload));
      h->pool = nullptr;  // Oversize: never pooled, any thread may free.
      h->payload_bytes = payload;
      return h + 1;
    }
    const std::size_t bucket = BucketOf(payload);
    Header* h = free_[bucket];
    if (h != nullptr) {
      ++stats_.pool_hits;
      free_[bucket] = h->next;
      --free_count_[bucket];
      h->pool = this;
      Unpoison(h + 1, payload);
      return h + 1;
    }
    h = static_cast<Header*>(::operator new(kHeaderBytes + payload));
    h->pool = this;
    h->payload_bytes = payload;
    return h + 1;
  }

  // Frees through the freeing thread's own free list; oversize blocks go
  // back to the host allocator. Safe to call from any thread: a block freed
  // off its allocating thread is exclusively owned by the freeing thread at
  // this point — the hand-over between host threads (e.g. a thread join)
  // ordered it — so it is re-tagged and adopted into the local pool rather
  // than leaked to the host allocator. The old-owner
  // pointer is only *compared*, never dereferenced, so a pool that died with
  // its thread cannot be touched.
  static void Free(void* p) {
    if (p == nullptr) {
      return;
    }
    Header* h = static_cast<Header*>(p) - 1;
    FramePool* owner = h->pool;
    FramePool& self = ForThread();
    ++self.stats_.frees;
    if (owner == nullptr) {
      // Oversize: never pooled, any thread may free.
      ::operator delete(h);
      return;
    }
    if (owner != &self) {
      ++self.stats_.foreign_frees;
      h->pool = &self;  // Adopt: the block now lives and dies locally.
    }
    const std::size_t payload = h->payload_bytes;
    const std::size_t bucket = BucketOf(payload);
    if (self.free_count_[bucket] >= kMaxFreePerBucket) {
      ::operator delete(h);
      return;
    }
    h->next = self.free_[bucket];
    self.free_[bucket] = h;
    ++self.free_count_[bucket];
    // The header stays readable (it holds the free list link); the payload
    // is poisoned so any touch of a recycled frame's body trips ASan.
    Poison(h + 1, payload);
  }

  // Releases every free-listed block back to the host allocator.
  void Trim() {
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      Header* h = free_[b];
      free_[b] = nullptr;
      free_count_[b] = 0;
      while (h != nullptr) {
        Header* next = h->next;
        Unpoison(h + 1, h->payload_bytes);
        ::operator delete(h);
        h = next;
      }
    }
  }

  const Stats& stats() const { return stats_; }
  uint32_t free_blocks(std::size_t bucket) const { return free_count_[bucket]; }

  // Bucket layout, exposed for the tests' reference model.
  static constexpr std::size_t kGranuleBytes = 64;
  static constexpr std::size_t kNumBuckets = 32;
  static constexpr std::size_t kMaxPooledBytes = kGranuleBytes * kNumBuckets;  // 2 KiB.
  static constexpr uint32_t kMaxFreePerBucket = 4096;

  static constexpr std::size_t RoundUp(std::size_t size) {
    return size == 0 ? kGranuleBytes : (size + kGranuleBytes - 1) & ~(kGranuleBytes - 1);
  }
  static constexpr std::size_t BucketOf(std::size_t payload) {
    return payload / kGranuleBytes - 1;
  }

 private:
  // 16 bytes, so payloads keep the host allocator's fundamental alignment.
  // `pool` doubles as the free-list link while the block is parked.
  struct Header {
    union {
      FramePool* pool;  // While allocated: owning pool (null = unpooled).
      Header* next;     // While free-listed.
    };
    std::size_t payload_bytes;
  };
  static constexpr std::size_t kHeaderBytes = sizeof(Header);
  static_assert(sizeof(Header) == 16);

  static void Poison(void* p, std::size_t n) {
#ifdef ASF_FRAME_POOL_ASAN
    ASAN_POISON_MEMORY_REGION(p, n);
#else
    (void)p;
    (void)n;
#endif
  }
  static void Unpoison(void* p, std::size_t n) {
#ifdef ASF_FRAME_POOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
    (void)p;
    (void)n;
#endif
  }

  Header* free_[kNumBuckets] = {};
  uint32_t free_count_[kNumBuckets] = {};
  Stats stats_;
};

}  // namespace asfcommon

#endif  // SRC_COMMON_FRAME_POOL_H_
