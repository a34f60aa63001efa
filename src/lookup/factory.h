// LookupSuite: one router's complete set of lookup structures — the binary
// trie (control plane + "Regular" data plane), the Patricia trie, and the
// five LookupEngine implementations of §6, all built from one prefix table.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "lookup/binary_interval_lookup.h"
#include "lookup/bit_trie_lookup.h"
#include "lookup/engine.h"
#include "lookup/logw_lookup.h"
#include "lookup/multiway_lookup.h"
#include "lookup/patricia_lookup.h"
#include "lookup/stride_trie_lookup.h"
#include "common/check.h"

namespace cluert::lookup {

// One bit per Method, for SuiteOptions::methods.
constexpr std::uint32_t methodBit(Method m) {
  return 1u << static_cast<std::uint32_t>(m);
}
inline constexpr std::uint32_t kAllMethodsMask = (1u << kMethodCount) - 1;

struct SuiteOptions {
  // See IntervalLookupBase: candidate sets up to this size are scanned for
  // free ("same cache line as the clue entry", §4). 0 = disabled.
  unsigned inline_candidates = 0;
  // Which engines the suite materialises (default: all six). The tries are
  // always maintained — they are the source of truth — but every engine in
  // the mask is reconstructed on each route update, so a suite that serves
  // one data-plane method under churn should name just that method: the
  // per-delta cost drops from rebuilding six snapshot structures over the
  // whole table to rebuilding one. engine() on an unmaterialised method is
  // a CLUERT_CHECK failure, not a silent stale answer.
  std::uint32_t methods = kAllMethodsMask;
};

template <typename A>
class LookupSuite {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  explicit LookupSuite(const std::vector<MatchT>& entries,
                       SuiteOptions options = {})
      : options_(options) {
    for (const MatchT& e : entries) trie_.insert(e.prefix, e.next_hop);
    patricia_ = trie::PatriciaTrie<A>::fromBinaryTrie(trie_);
    buildEngines();
  }

  LookupSuite(const LookupSuite&) = delete;
  LookupSuite& operator=(const LookupSuite&) = delete;

  const trie::BinaryTrie<A>& binaryTrie() const { return trie_; }
  const trie::PatriciaTrie<A>& patricia() const { return patricia_; }

  const LookupEngine<A>& engine(Method m) const {
    CLUERT_CHECK(engines_[idx(m)] != nullptr)
        << "method " << methodName(m)
        << " is not materialised in this suite (SuiteOptions::methods)";
    return *engines_[idx(m)];
  }

  // Precomputes the per-vertex Claim-1 "continue" booleans for a neighbor
  // (§4), on both walkable structures. Must be called before running any
  // Advance lookup that names this neighbor index. The annotation is
  // remembered and replayed after route updates.
  void annotateNeighbor(NeighborIndex neighbor,
                        const trie::BinaryTrie<A>& neighbor_trie) {
    applyAnnotation(neighbor, neighbor_trie);
    for (auto& [idx, trie_ptr] : annotations_) {
      if (idx == neighbor) {
        trie_ptr = &neighbor_trie;
        return;
      }
    }
    annotations_.emplace_back(neighbor, &neighbor_trie);
  }

  // -- route updates (the dynamics behind §3.4) -----------------------------
  //
  // Applies every removal and upsert to the tries, which update
  // incrementally, then reconstructs the snapshot-style engines (interval
  // tables, length hashes) ONCE and replays the neighbor annotations. Engine
  // *references* obtained via engine() before the update are invalidated —
  // callers hold the suite and re-fetch (CluePort does). No-op on empty
  // input.
  void applyRouteDelta(std::span<const PrefixT> removals,
                       std::span<const MatchT> upserts) {
    bool changed = false;
    for (const PrefixT& p : removals) {
      const bool erased = trie_.erase(p);
      patricia_.erase(p);
      changed |= erased;
    }
    for (const MatchT& e : upserts) {
      trie_.insert(e.prefix, e.next_hop);
      patricia_.insert(e.prefix, e.next_hop);
      changed = true;
    }
    if (!changed) return;
    buildEngines();
    for (const auto& [neighbor, trie_ptr] : annotations_) {
      applyAnnotation(neighbor, *trie_ptr);
    }
  }

 private:
  static constexpr std::size_t idx(Method m) {
    return static_cast<std::size_t>(m);
  }

  void buildEngines() {
    const auto want = [&](Method m) {
      return (options_.methods & methodBit(m)) != 0;
    };
    engines_[idx(Method::kRegular)] =
        want(Method::kRegular) ? std::make_unique<BitTrieLookup<A>>(trie_)
                               : nullptr;
    engines_[idx(Method::kPatricia)] =
        want(Method::kPatricia)
            ? std::make_unique<PatriciaLookup<A>>(patricia_)
            : nullptr;
    engines_[idx(Method::kBinary)] =
        want(Method::kBinary) ? std::make_unique<BinaryIntervalLookup<A>>(
                                    trie_, options_.inline_candidates)
                              : nullptr;
    engines_[idx(Method::kMultiway)] =
        want(Method::kMultiway)
            ? std::make_unique<MultiwayLookup<A>>(trie_,
                                                  options_.inline_candidates)
            : nullptr;
    engines_[idx(Method::kLogW)] =
        want(Method::kLogW) ? std::make_unique<LogWLookup<A>>(trie_) : nullptr;
    engines_[idx(Method::kStride)] =
        want(Method::kStride) ? std::make_unique<StrideTrieLookup<A>>(trie_)
                              : nullptr;
  }

  void applyAnnotation(NeighborIndex neighbor,
                       const trie::BinaryTrie<A>& neighbor_trie) {
    trie_.computeContinueBits(neighbor, neighbor_trie);
    patricia_.annotateContinueBits(neighbor, trie_);
  }

  SuiteOptions options_;
  trie::BinaryTrie<A> trie_;
  trie::PatriciaTrie<A> patricia_;
  std::unique_ptr<LookupEngine<A>> engines_[kMethodCount];
  std::vector<std::pair<NeighborIndex, const trie::BinaryTrie<A>*>>
      annotations_;
};

}  // namespace cluert::lookup
