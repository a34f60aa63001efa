// Sorted-segment representation of a prefix set, for the binary-search and
// B-way-search lookup methods ([19] and [11] in the paper, §4).
//
// A set of (nested) prefixes partitions the address space into half-open
// segments on which the best matching prefix is constant. A lookup is then a
// predecessor search over the sorted segment start addresses; the answer is
// stored with the segment, so the final fetch is part of the last probe.
//
// The same structure, built over a clue's candidate set P(s, R1), implements
// the paper's restricted continuation search ("the entire set may be placed
// in the same cache line with the clue's entry" — see inlineScanThreshold).
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "ip/prefix.h"
#include "mem/access_counter.h"
#include "trie/binary_trie.h"
#include "common/check.h"

namespace cluert::lookup {

template <typename A>
class SegmentTable {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  struct Segment {
    A start;  // first address of the segment (segments are contiguous)
    MatchT match;
    bool has_match = false;
  };

  SegmentTable() = default;

  // Builds the table from a list of table entries (prefix, next hop).
  // Duplicate prefixes keep the last next hop. `floor` is the address where
  // the table's coverage begins (0 for a full table; the clue's range start
  // for a per-clue candidate table).
  static SegmentTable build(std::vector<MatchT> entries, const A& floor) {
    SegmentTable t;
    if (entries.empty()) {
      t.segments_.push_back(Segment{floor, MatchT{}, false});
      return t;
    }
    // Sort by (range start, length): outer prefixes before the prefixes
    // nested inside them.
    std::ranges::sort(entries, {}, &MatchT::prefix);
    entries.erase(std::unique(entries.begin(), entries.end(),
                              [](const MatchT& x, const MatchT& y) {
                                return x.prefix == y.prefix;
                              }),
                  entries.end());

    // Boundary points: every range start, and the address just past every
    // range end (when it exists).
    std::vector<A> points;
    points.reserve(entries.size() * 2 + 1);
    points.push_back(floor);
    for (const MatchT& e : entries) {
      points.push_back(e.prefix.rangeLow());
      if (auto next = ip::successor(e.prefix.rangeHigh())) {
        points.push_back(*next);
      }
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());

    // Sweep: maintain the stack of prefixes covering the current point;
    // nesting guarantees strict stack discipline.
    std::vector<const MatchT*> stack;
    std::size_t next_entry = 0;
    t.segments_.reserve(points.size());
    for (const A& p : points) {
      while (!stack.empty() && stack.back()->prefix.rangeHigh() < p) {
        stack.pop_back();
      }
      while (next_entry < entries.size() &&
             entries[next_entry].prefix.rangeLow() == p) {
        stack.push_back(&entries[next_entry]);
        ++next_entry;
      }
      Segment seg;
      seg.start = p;
      if (!stack.empty()) {
        seg.match = *stack.back();
        seg.has_match = true;
      }
      t.segments_.push_back(seg);
    }
    return t;
  }

  std::size_t segmentCount() const { return segments_.size(); }
  bool empty() const { return segments_.empty(); }

  // Read-only view of the segment array, in table order (the structural
  // validators in src/check/ cross-check it against the entry list).
  std::span<const Segment> segments() const { return segments_; }

  // Predecessor search with fanout 2 (binary, [19]) or B (multiway, [11]).
  // Charges one `region` access per probed node: with fanout B, one probe
  // examines the B-1 separators that share a memory line. Addresses below
  // the first segment have no match.
  std::optional<MatchT> lookup(const A& address, unsigned fanout,
                               mem::Region region,
                               mem::AccessCounter& acc) const {
    CLUERT_DCHECK(fanout >= 2) << "predecessor search needs fanout >= 2";
    if (segments_.empty() || address < segments_.front().start) {
      return std::nullopt;
    }
    // Narrow [lo, hi] (inclusive) to the predecessor segment index.
    std::size_t lo = 0;
    std::size_t hi = segments_.size() - 1;
    while (lo < hi) {
      acc.add(region);
      // Examine fanout-1 separators splitting [lo, hi] into `fanout` runs.
      const std::size_t span = hi - lo + 1;
      const std::size_t step = (span + fanout - 1) / fanout;
      std::size_t new_lo = lo;
      std::size_t new_hi = hi;
      for (unsigned k = 1; k < fanout; ++k) {
        const std::size_t sep = lo + k * step;
        if (sep > hi) break;
        if (segments_[sep].start <= address) {
          new_lo = sep;
        } else {
          new_hi = sep - 1;
          break;
        }
      }
      lo = new_lo;
      hi = new_hi;
    }
    // Fetching the answer record of the final segment is one more access
    // unless the last probe already was that record; charge it when the loop
    // never ran (single-segment table) to preserve the >=1 access floor.
    if (segments_.size() == 1) acc.add(region);
    const Segment& seg = segments_[lo];
    if (!seg.has_match) return std::nullopt;
    return seg.match;
  }

  // Linear scan over the underlying match list — models the paper's "set P
  // small enough to share the clue entry's cache line" case: zero additional
  // memory accesses. Only sensible for tiny tables.
  std::optional<MatchT> scan(const A& address) const {
    const Segment* best = nullptr;
    for (const Segment& s : segments_) {
      if (s.start <= address) {
        best = &s;
      } else {
        break;
      }
    }
    if (best == nullptr || !best->has_match) return std::nullopt;
    return best->match;
  }

 private:
  std::vector<Segment> segments_;
};

}  // namespace cluert::lookup
