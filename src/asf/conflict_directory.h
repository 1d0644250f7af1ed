// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Machine-global speculative-line directory: the O(1) answer to "who holds
// this cache line speculatively?" that a real coherence protocol gets from
// its directory/probe filters. One record per line that any active region
// protects, holding a reader-core bitmap plus the (at most one) writer core.
//
// The Machine's requester-wins conflict resolution used to sweep every other
// core's context on every memory access (O(threads) hash probes per access);
// with this directory it is one FlatMap64 probe per touched line, plus two
// host-side short circuits that both leave simulated results bit-identical:
//
//  * active-speculator gate: a bitmap of cores with an open region; when no
//    *other* core is speculating (the dominant case in low-contention
//    phases), resolution is skipped without probing anything.
//  * single-speculator fast path: with exactly one other speculator the
//    victim candidate is known up front, so the per-line decode is a direct
//    membership test that stops at the first conflicting line instead of a
//    bitmap accumulation over all lines.
//
// Coherence contract: AsfContext mirrors every protected-set mutation into
// the directory at the point it happens — AddRead/AddWrite/Release while the
// region runs, and the per-line teardown on outermost commit, on abort (any
// cause: contention, capacity, displacement, fault injection), and nowhere
// else. A record therefore never names an inactive core, and at most one
// core is writer of a line at a time (requester-wins aborts every other
// holder before a write proceeds). tests/conflict_directory_test.cc checks
// both invariants against a brute-force all-contexts reference scan.
#ifndef SRC_ASF_CONFLICT_DIRECTORY_H_
#define SRC_ASF_CONFLICT_DIRECTORY_H_

#include <bit>
#include <cstdint>

#include "src/common/defs.h"
#include "src/common/flat_table.h"

namespace asf {

class ConflictDirectory {
 public:
  static constexpr uint32_t kNoWriter = ~0u;

  // Packed per-line record: which cores monitor the line for reading and
  // which single core (if any) speculatively wrote it. A written line is
  // held exclusively, so `readers` and `writer` are never populated by
  // different cores at once.
  struct LineRecord {
    uint64_t readers = 0;        // Bit per core with the line in its read set.
    uint32_t writer = kNoWriter; // Core with the line in its write set.

    bool Empty() const { return readers == 0 && writer == kNoWriter; }
    // All cores holding the line in any protected set.
    uint64_t PresentBits() const {
      return readers | (writer == kNoWriter ? 0 : uint64_t{1} << writer);
    }
  };

  // Host-side telemetry (zero simulated cost, never part of result digests).
  struct Stats {
    uint64_t resolutions = 0;     // Conflict-resolution invocations.
    uint64_t gate_skips = 0;      // Skipped entirely: no other speculator.
    uint64_t solo_fast_paths = 0; // Resolved via the single-speculator path.
    uint64_t probes = 0;          // Directory lookups performed.
    uint64_t probe_hits = 0;      // Lookups that found a record.
  };

  // The reader bitmap limits the directory to 64 cores; the gate must be
  // disabled only for the fast-vs-slow equivalence test
  // (Machine::SetSpeculatorGateForTesting), never because results depend
  // on it.
  ConflictDirectory(uint32_t num_cores, bool gate_enabled)
      : gate_enabled_(gate_enabled) {
    ASF_CHECK_MSG(num_cores <= 64, "conflict directory supports at most 64 cores");
  }

  // --- Active-speculator tracking (AsfContext region transitions) ----------
  void OnActivate(uint32_t core) {
    ASF_CHECK((active_bitmap_ & Bit(core)) == 0);
    active_bitmap_ |= Bit(core);
  }
  void OnDeactivate(uint32_t core) {
    ASF_CHECK((active_bitmap_ & Bit(core)) != 0);
    active_bitmap_ &= ~Bit(core);
  }
  uint64_t active_bitmap() const { return active_bitmap_; }
  uint32_t active_count() const { return static_cast<uint32_t>(std::popcount(active_bitmap_)); }

  // --- Record maintenance (mirrored from AsfContext mutations) -------------
  void AddReader(uint32_t core, uint64_t line) {
    LineRecord& r = lines_[LineKey(line)];
    // Requester-wins resolved any remote writer before this read proceeded.
    ASF_CHECK(r.writer == kNoWriter);
    r.readers |= Bit(core);
  }

  // The line joins `core`'s write set; a read-set entry of the same core is
  // subsumed (the write monitoring covers it).
  void SetWriter(uint32_t core, uint64_t line) {
    LineRecord& r = lines_[LineKey(line)];
    // Exclusive-writer invariant: every other holder was aborted first.
    ASF_CHECK(r.writer == kNoWriter || r.writer == core);
    ASF_CHECK((r.readers & ~Bit(core)) == 0);
    r.readers &= ~Bit(core);
    r.writer = core;
  }

  // RELEASE (or L1 read-bit subsumption): the core dropped read monitoring.
  void DropReader(uint32_t core, uint64_t line) {
    LineRecord* r = lines_.Find(LineKey(line));
    if (r == nullptr) {
      return;
    }
    r->readers &= ~Bit(core);
    if (r->Empty()) {
      lines_.Erase(LineKey(line));
    }
  }

  // Commit/abort teardown: the core leaves the line entirely.
  void RemoveLine(uint32_t core, uint64_t line) {
    LineRecord* r = lines_.Find(LineKey(line));
    if (r == nullptr) {
      return;
    }
    r->readers &= ~Bit(core);
    if (r->writer == core) {
      r->writer = kNoWriter;
    }
    if (r->Empty()) {
      lines_.Erase(LineKey(line));
    }
  }

  // --- Conflict resolution -------------------------------------------------
  // Requester-wins victim set for an access of [first_line, last_line]:
  // a write-like access conflicts with every holder of a touched line, a
  // read-like one only with its writer. Returns the victim cores as a bitmap
  // (decoded in ascending core order by the caller, which preserves the
  // abort order of the old all-contexts sweep). Pure query plus telemetry:
  // the caller aborts the victims, which tears their records down.
  uint64_t Resolve(uint64_t first_line, uint64_t last_line, bool write_like,
                   uint32_t requester) {
    ++stats_.resolutions;
    const uint64_t others = active_bitmap_ & ~Bit(requester);
    if (gate_enabled_) {
      if (others == 0) {
        ++stats_.gate_skips;
        return 0;
      }
      if ((others & (others - 1)) == 0) {
        // Exactly one other speculator: test its membership directly and
        // stop at the first conflicting line — no bitmap accumulation.
        ++stats_.solo_fast_paths;
        const uint32_t solo = static_cast<uint32_t>(std::countr_zero(others));
        for (uint64_t line = first_line; line <= last_line; ++line) {
          const LineRecord* r = Probe(line);
          if (r == nullptr) {
            continue;
          }
          if (write_like ? (r->PresentBits() & others) != 0 : r->writer == solo) {
            return others;
          }
        }
        return 0;
      }
    }
    uint64_t victims = 0;
    for (uint64_t line = first_line; line <= last_line; ++line) {
      const LineRecord* r = Probe(line);
      if (r == nullptr) {
        continue;
      }
      victims |= write_like ? r->PresentBits()
                            : (r->writer == kNoWriter ? 0 : Bit(r->writer));
    }
    return victims & ~Bit(requester);
  }

  // --- Introspection (tests, telemetry) ------------------------------------
  const LineRecord* Find(uint64_t line) const { return lines_.Find(LineKey(line)); }
  size_t size() const { return lines_.size(); }
  // Visits every (line, record) pair in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    lines_.ForEach([&](uint64_t key, const LineRecord& r) { fn(key, r); });
  }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

 private:
  static uint64_t Bit(uint32_t core) { return uint64_t{1} << core; }
  // Line numbers are host addresses >> 6, which can never be the flat
  // table's all-ones empty sentinel; use them as keys directly.
  static uint64_t LineKey(uint64_t line) { return line; }

  const LineRecord* Probe(uint64_t line) {
    ++stats_.probes;
    const LineRecord* r = lines_.Find(LineKey(line));
    if (r != nullptr) {
      ++stats_.probe_hits;
    }
    return r;
  }

  const bool gate_enabled_;
  uint64_t active_bitmap_ = 0;
  asfcommon::FlatMap64<LineRecord> lines_{256};
  Stats stats_;
};

}  // namespace asf

#endif  // SRC_ASF_CONFLICT_DIRECTORY_H_
