// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// First-order timing model of the simulated memory hierarchy: per-core L1/L2,
// a shared L3, a precise line directory for coherence effects, per-core
// D-TLBs and a first-touch page-fault model.
//
// Mirrors the paper's PTLsim-ASF configuration (Sec. 5): eight cores behave
// as if on one socket; the coherence model "accurately captures first-order
// effects ... but ignores further topology information". Conflict *detection*
// for ASF is performed exactly (line-granular) by the ASF layer on every
// access; this module only provides latencies and the L1 eviction events the
// cache-based read-set tracking variant needs.
#ifndef SRC_MEM_MEMORY_SYSTEM_H_
#define SRC_MEM_MEMORY_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/defs.h"
#include "src/common/flat_table.h"
#include "src/mem/cache.h"
#include "src/mem/tlb.h"

namespace asfmem {

struct MemParams {
  // Barcelona-like cache configuration (paper Sec. 4/5).
  CacheGeometry l1{64 * 1024, 2};
  CacheGeometry l2{512 * 1024, 16};
  CacheGeometry l3{2 * 1024 * 1024, 16};

  // Load-to-use latencies in cycles.
  uint64_t l1_latency = 3;
  uint64_t l2_latency = 15;
  uint64_t l3_latency = 50;
  uint64_t ram_latency = 210;
  // Cache-to-cache transfer from a remote owner (dirty forward).
  uint64_t remote_latency = 70;
  // Store retiring into an L1 line already owned exclusively (store buffer).
  uint64_t store_hit_latency = 1;
  // Upgrade of a shared line to exclusive (invalidation round-trip).
  uint64_t upgrade_latency = 12;

  TlbParams tlb;
  // The paper notes a PTLsim quirk: stores do not consult the TLB. We model
  // stores realistically by default; setting this true reproduces the quirk
  // (used by the Figure-3 accuracy discussion and an ablation bench).
  bool ptlsim_store_tlb_quirk = false;

  // OS page-fault service cost (minor fault, first touch).
  uint64_t page_fault_cycles = 3000;
  // When false, all pages are considered pre-faulted (microbenchmarks that
  // pre-touch their working set).
  bool model_page_faults = true;

  // CHECK-fails unless every latency is physically meaningful (nonzero —
  // the simulator's global event ordering assumes accesses take time), the
  // hierarchy latencies are monotone (L1 <= L2 <= L3 <= RAM), and the
  // page-fault cost is nonzero when faults are modeled. Called by every
  // MemorySystem, mirroring CacheGeometry::Validate().
  void Validate() const;
};

// Receives L1 line-drop events (evictions and invalidations). The ASF
// "w/ L1" variants track the speculative read set in the L1, so a dropped
// line that is in the read set costs the region its tracking (capacity
// abort) — the effect the paper analyzes in "ASF abort reasons".
class MemEventListener {
 public:
  virtual ~MemEventListener() = default;
  virtual void OnL1LineDropped(uint32_t core, uint64_t line) = 0;
};

struct MemResult {
  uint64_t latency = 0;
  bool page_fault = false;
};

struct MemStats {
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t l3_hits = 0;
  uint64_t remote_hits = 0;
  uint64_t ram_accesses = 0;
  uint64_t upgrades = 0;
  uint64_t page_faults = 0;
};

// Host-side fast-path counters (whole-run; not cleared by ResetStats, which
// tracks the *simulated* measurement window). The hit rates quantify how
// much per-access bookkeeping the last-line/last-page memoization skipped —
// perfbench reports them (mem.line_memo_ratio, mem.page_memo_ratio).
struct MemFastPathStats {
  uint64_t accesses = 0;   // Access() calls.
  uint64_t line_hits = 0;  // Full fast path: TLB+directory+cache all skipped.
  uint64_t page_hits = 0;  // Translation memo only (line took the slow path).
};

class MemorySystem {
 public:
  MemorySystem(uint32_t num_cores, const MemParams& params);

  // Disables the last-line/last-page memoization for newly constructed
  // MemorySystems (read once at construction, like the scheduler's wake fast
  // path). tests/mem_test.cc uses this to prove fast-path bit-identity.
  static void SetFastPathForTesting(bool enabled);

  void SetListener(MemEventListener* listener) { listener_ = listener; }

  // Performs the timing side of one access (and coherence bookkeeping).
  // `size` may span a line boundary; both lines are charged.
  MemResult Access(uint32_t core, uint64_t addr, uint32_t size, bool is_write);

  // Marks pages [addr, addr+bytes) as present without charging anything
  // (benchmark setup data).
  void PretouchPages(uint64_t addr, uint64_t bytes);

  // Drops every cached copy of `line` on all cores (used by tests).
  void FlushLine(uint64_t line);

  const MemStats& stats(uint32_t core) const { return stats_[core]; }
  MemStats TotalStats() const;
  void ResetStats();

  MemFastPathStats fast_path_stats() const { return fast_stats_; }
  bool fast_path_enabled() const { return fast_path_enabled_; }

  uint32_t num_cores() const { return static_cast<uint32_t>(l1s_.size()); }
  const MemParams& params() const { return params_; }

  // True if `core`'s L1 currently holds `line` (used by tests and the ASF
  // read-set tracker).
  bool L1Holds(uint32_t core, uint64_t line) const { return l1s_[core]->Probe(line); }

  const Tlb& tlb(uint32_t core) const { return *tlbs_[core]; }

 private:
  struct DirEntry {
    // Bitmask of cores whose private hierarchy may hold the line.
    uint32_t sharers = 0;
    // Core that holds the line exclusively/dirty, or kNoOwner.
    int32_t owner = kNoOwner;
  };
  static constexpr int32_t kNoOwner = -1;

  // Per-core memo of the most recent access: the line is MRU in the core's
  // L1 (so a repeat load is a guaranteed 3-cycle hit), `writable` means the
  // directory still records the core as owner (so a repeat store is a
  // guaranteed store-buffer hit), and the page — when set — is MRU in the
  // core's L1 TLB and present. Consecutive same-line accesses (the pointer
  // chase in intset traversals issues key+next from one line back-to-back)
  // then skip the TLB scan, directory probe and cache LRU walks entirely.
  // Every state transition that could falsify a memo clears it:
  // DropFromCore (invalidation/flush) kills the line memo, a remote load's
  // dirty-downgrade kills `writable`, and the memo is overwritten on every
  // slow-path access. Validity argument: re-touching the MRU way of an LRU
  // set is idempotent, so skipping it is unobservable — digests stay
  // bit-identical (tests/mem_test.cc and tests/sweep_test.cc verify).
  struct CoreMemo {
    uint64_t line = kNoAddr;
    uint64_t page = kNoAddr;
    bool writable = false;
  };
  static constexpr uint64_t kNoAddr = ~uint64_t{0};

  // Inclusive page range marked present by PretouchPages. Benchmarks pretouch
  // whole arenas (gigabytes), so ranges replace per-page hash inserts: setup
  // becomes O(ranges) instead of O(pages), and the hot fault check is a
  // two-comparison binary search over a handful of ranges.
  struct PageRange {
    uint64_t first = 0;
    uint64_t last = 0;
  };
  bool InPretouched(uint64_t page) const;

  uint64_t AccessLine(uint32_t core, uint64_t line, bool is_write);
  void DropFromCore(uint32_t core, uint64_t line);
  void FillLine(uint32_t core, uint64_t line);

  const MemParams params_;
  const bool fast_path_enabled_;
  std::vector<std::unique_ptr<Cache>> l1s_;
  std::vector<std::unique_ptr<Cache>> l2s_;
  Cache l3_;
  std::vector<std::unique_ptr<Tlb>> tlbs_;
  // Open-addressing tables (src/common/flat_table.h): the directory is hit
  // once per line on every access, so lookup cost is first-order for
  // simulation throughput.
  asfcommon::FlatMap64<DirEntry> directory_{1024};
  asfcommon::FlatSet64 present_pages_{256};
  std::vector<MemStats> stats_;
  std::vector<CoreMemo> memos_;
  std::vector<PageRange> pretouched_;  // Sorted, non-overlapping, non-adjacent.
  MemFastPathStats fast_stats_;
  MemEventListener* listener_ = nullptr;
};

}  // namespace asfmem

#endif  // SRC_MEM_MEMORY_SYSTEM_H_
