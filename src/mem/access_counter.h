// Memory-access accounting.
//
// The paper's §6 metric is "the number of memory accesses (to a table or the
// trie)" per lookup, not wall time: in a 1999 router (and still today for
// DRAM-resident FIBs) each dependent memory reference dominates the lookup
// cost. Every data structure in this library charges one unit per node /
// bucket / entry it touches, categorised so benchmarks can break costs down.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#ifndef NDEBUG
#include <thread>
#include "common/check.h"
#endif

namespace cluert::mem {

// Where an access landed. Kept coarse on purpose — the unit of accounting is
// "a dependent memory reference", matching the paper.
enum class Region : std::uint8_t {
  kClueTable,     // probe of the clues hash / indexed table (§3.3)
  kTrieNode,      // binary-trie or Patricia vertex visit
  kIntervalNode,  // node of a binary/multiway interval search (§4)
  kLengthHash,    // hash probe of the log-W scheme (§4)
  kCandidateSet,  // per-clue restricted candidate structure (case 3)
  kLabelTable,    // MPLS / Tag-switching label table (§5.1)
  kFibEntry,      // final forwarding-table entry fetch
  kCount,
};

std::string_view regionName(Region r);

// Accumulates access counts. Cheap enough to pass by reference into every
// lookup call; copyable, so a lookup is costed by snapshotting the counter
// around it (lookupDelta below).
//
// NOT thread-safe: a counter belongs to one thread. Concurrent code (the
// forwarding pipeline) keeps one counter per worker and combines them on the
// owning thread afterwards via mergeFrom(). Debug builds enforce the
// single-mutator discipline: the first mutation pins the counter to the
// calling thread and later mutations from another thread assert.
class AccessCounter {
 public:
  static constexpr std::size_t kRegions =
      static_cast<std::size_t>(Region::kCount);

  void add(Region r, std::uint64_t n = 1) {
    debugCheckOwner();
    counts_[static_cast<std::size_t>(r)] += n;
  }

  std::uint64_t count(Region r) const {
    return counts_[static_cast<std::size_t>(r)];
  }

  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto c : counts_) t += c;
    return t;
  }

  void reset() {
    counts_.fill(0);
#ifndef NDEBUG
    owner_set_ = false;
#endif
  }

  AccessCounter& operator+=(const AccessCounter& other) {
    debugCheckOwner();
    for (std::size_t i = 0; i < kRegions; ++i) counts_[i] += other.counts_[i];
    return *this;
  }

  // Explicit cross-thread aggregation: folds a worker's (now quiescent)
  // counter into this one. Semantically operator+=, but named so hot-path
  // code can't accidentally merge where it meant to count — the pipeline
  // calls this exactly once per worker, after join(), on the owning thread.
  void mergeFrom(const AccessCounter& worker) { *this += worker; }

  // Visits every region with a non-zero count as (Region, count). The one
  // loop exporters and reports need — written here once so they stop
  // hand-rolling the enum iteration.
  template <typename Fn>
  void forEachNonZero(Fn&& fn) const {
    for (std::size_t i = 0; i < kRegions; ++i) {
      if (counts_[i] != 0) fn(static_cast<Region>(i), counts_[i]);
    }
  }

  // "clue-table=2 trie-node=5 (total 7)"; "(empty)" when all-zero.
  std::string toString() const;

 private:
  void debugCheckOwner() {
#ifndef NDEBUG
    if (!owner_set_) {
      owner_ = std::this_thread::get_id();
      owner_set_ = true;
    }
    CLUERT_CHECK(owner_ == std::this_thread::get_id())
        << "AccessCounter mutated from two threads; use one counter per "
           "worker and mergeFrom() after join";
#endif
  }

  std::array<std::uint64_t, kRegions> counts_{};
#ifndef NDEBUG
  std::thread::id owner_;
  bool owner_set_ = false;
#endif
};

// One lookup's accesses by region, each saturating at 0xffff (a single
// lookup touches at most a few dozen nodes even in the Regular method): the
// per-lookup record CluePort results and packet spans carry.
using LookupAccesses = std::array<std::uint16_t, AccessCounter::kRegions>;

// One LookupAccesses element: `n` saturated at 0xffff.
inline std::uint16_t saturatedAccesses(std::uint64_t n) {
  return static_cast<std::uint16_t>(n > 0xffff ? 0xffff : n);
}

// Per-region (after - before), saturated: costs one lookup by snapshotting
// the counter around it.
inline LookupAccesses lookupDelta(const AccessCounter& after,
                                  const AccessCounter& before) {
  LookupAccesses d;
  for (std::size_t i = 0; i < AccessCounter::kRegions; ++i) {
    const auto r = static_cast<Region>(i);
    d[i] = saturatedAccesses(after.count(r) - before.count(r));
  }
  return d;
}

inline std::uint32_t accessTotal(const LookupAccesses& a) {
  std::uint32_t t = 0;
  for (const auto n : a) t += n;
  return t;
}

// Models the SDRAM cache-line packing discussed in §3.5 and §4: a 32-byte
// line holds two 16-byte clue entries, or `lineBytes/entryBytes` candidate
// prefixes, so a group of that many consecutive entries costs one access.
class CacheLineModel {
 public:
  constexpr CacheLineModel(unsigned line_bytes, unsigned entry_bytes)
      : line_bytes_(line_bytes), entry_bytes_(entry_bytes) {}

  constexpr unsigned lineBytes() const { return line_bytes_; }
  constexpr unsigned entryBytes() const { return entry_bytes_; }

  // How many entries fit in one line (at least 1).
  constexpr unsigned entriesPerLine() const {
    const unsigned n = line_bytes_ / entry_bytes_;
    return n == 0 ? 1 : n;
  }

  // Number of line fetches needed to scan `entries` consecutive entries.
  constexpr std::uint64_t linesFor(std::uint64_t entries) const {
    const unsigned per = entriesPerLine();
    return (entries + per - 1) / per;
  }

 private:
  unsigned line_bytes_;
  unsigned entry_bytes_;
};

// The paper's running assumption: 32-byte SDRAM lines, 16-byte clue entries
// (clue value + FD + Ptr + padding), hence two clue entries per line.
inline constexpr CacheLineModel kSdramLine{32, 16};

}  // namespace cluert::mem
