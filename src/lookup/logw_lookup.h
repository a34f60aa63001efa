// "Log W" lookup ([26] Waldvogel et al., §2 item (1), §4 "Adapting the
// log W method"): binary search over prefix lengths, one hash probe per
// visited length.
//
// Marker discipline. The original scheme inserts markers only along the
// global binary-search tree of lengths. A clue-restricted search probes an
// arbitrary sub-window of lengths (§4), for which those markers are
// insufficient, so this implementation uses *full* markers: the hash table
// at length l holds every trie vertex of depth l, each precomputed with the
// best matching prefix at or above it. The predicate "dest's first l bits
// are a vertex" is then monotone in l, making binary search over any length
// window sound. Probe counts match the original ceil(log2 |lengths|) and the
// extra space is exactly the trie's vertex set (documented in DESIGN.md).
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "lookup/engine.h"

namespace cluert::lookup {

template <typename A>
class LogWLookup final : public LookupEngine<A> {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  explicit LogWLookup(const trie::BinaryTrie<A>& table) {
    levels_.resize(A::kBits + 1);
    // Record every vertex with its best match at-or-above. The root (length
    // 0) is kept out of the binary search: its match is the default route,
    // the search's starting fallback.
    buildFrom(table, table.root(),
              table.root()->marked
                  ? std::optional<MatchT>(MatchT{table.root()->prefix,
                                                 table.root()->next_hop})
                  : std::nullopt);
    if (auto it = levels_[0].find(A{}); it != levels_[0].end()) {
      if (it->second.has_bmp) default_route_ = it->second.bmp;
    }
    for (int l = 1; l <= A::kBits; ++l) {
      if (!levels_[l].empty()) lengths_.push_back(l);
    }
  }

  Method method() const override { return Method::kLogW; }

  std::optional<MatchT> lookup(const A& address,
                               mem::AccessCounter& acc) const override {
    if (lengths_.empty()) {
      // Degenerate table (at most a default route): still one probe — the
      // router fetches the root record, like every other method.
      acc.add(mem::Region::kLengthHash);
      return default_route_;
    }
    return searchWindow(address, 0, static_cast<int>(lengths_.size()) - 1,
                        /*min_match_len=*/1, default_route_, acc);
  }

  Continuation makeContinuation(const PrefixT& /*clue*/,
                                std::span<const MatchT> candidates,
                                CandidateStore<A>* /*store*/) const override {
    int max_len = 0;
    for (const MatchT& m : candidates) {
      max_len = std::max(max_len, m.prefix.length());
    }
    return Continuation{nullptr, static_cast<std::uint32_t>(max_len)};
  }

  // `cont.n` bounds the window: candidate lengths fall within (clue length,
  // cont.n].
  std::optional<MatchT> continueLookup(
      const Continuation& cont, int clue_length, const A& address,
      std::optional<NeighborIndex> /*neighbor*/,
      mem::AccessCounter& acc) const override {
    const int min_len = clue_length + 1;
    const int max_len = static_cast<int>(cont.n);
    if (max_len < min_len) return std::nullopt;
    // Window of length indices covering (clue length, max candidate length].
    const auto lo_it =
        std::lower_bound(lengths_.begin(), lengths_.end(), min_len);
    const auto hi_it =
        std::upper_bound(lengths_.begin(), lengths_.end(), max_len);
    if (lo_it >= hi_it) return std::nullopt;
    const int lo = static_cast<int>(lo_it - lengths_.begin());
    const int hi = static_cast<int>(hi_it - lengths_.begin()) - 1;
    return searchWindow(address, lo, hi, min_len, std::nullopt, acc);
  }

  std::size_t vertexCount() const {
    std::size_t n = 0;
    for (const auto& level : levels_) n += level.size();
    return n;
  }

  std::size_t distinctLengths() const { return lengths_.size(); }

 private:
  struct Entry {
    MatchT bmp;            // best match at or above this vertex
    bool has_bmp = false;
  };

  void buildFrom(const trie::BinaryTrie<A>& table,
                 const typename trie::BinaryTrie<A>::Node* node,
                 std::optional<MatchT> bmp_above) {
    if (node == nullptr) return;
    std::optional<MatchT> bmp = bmp_above;
    if (node->marked) bmp = MatchT{node->prefix, node->next_hop};
    Entry e;
    if (bmp) {
      e.bmp = *bmp;
      e.has_bmp = true;
    }
    levels_[node->prefix.length()].emplace(node->prefix.addr(), e);
    buildFrom(table, table.child(node, 0), bmp);
    buildFrom(table, table.child(node, 1), bmp);
  }

  // Binary search over lengths_[lo..hi] for the deepest vertex on the
  // address's path; returns that vertex's precomputed best match, provided
  // its length is >= min_match_len, else `fallback`.
  std::optional<MatchT> searchWindow(const A& address, int lo, int hi,
                                     int min_match_len,
                                     std::optional<MatchT> fallback,
                                     mem::AccessCounter& acc) const {
    std::optional<MatchT> best = fallback;
    while (lo <= hi) {
      const int mid = lo + (hi - lo) / 2;
      const int len = lengths_[static_cast<std::size_t>(mid)];
      acc.add(mem::Region::kLengthHash);
      const auto& level = levels_[len];
      const auto it = level.find(address.masked(len));
      if (it != level.end()) {
        if (it->second.has_bmp &&
            it->second.bmp.prefix.length() >= min_match_len) {
          best = it->second.bmp;
        }
        lo = mid + 1;  // a vertex exists at this depth: try deeper
      } else {
        hi = mid - 1;
      }
    }
    return best;
  }

  std::vector<std::unordered_map<A, Entry>> levels_;
  std::vector<int> lengths_;  // sorted distinct vertex depths >= 1
  std::optional<MatchT> default_route_;
};

}  // namespace cluert::lookup
