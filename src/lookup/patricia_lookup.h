// Patricia lookup ([22, 23], §4 "Adapting Patricia") — the paper's preferred
// structure both as a baseline and for continuing a clue-restricted search
// ("the combination of the Advance method with Patricia ... is better ...
// the former searches more locally", §6).
#pragma once

#include <algorithm>
#include <cstdint>

#include "lookup/engine.h"

namespace cluert::lookup {

template <typename A>
class PatriciaLookup final : public LookupEngine<A> {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;
  using Node = typename trie::PatriciaTrie<A>::Node;

  // The engine is a view over the router's Patricia trie.
  explicit PatriciaLookup(const trie::PatriciaTrie<A>& trie) : trie_(trie) {}

  Method method() const override { return Method::kPatricia; }

  std::optional<MatchT> lookup(const A& address,
                               mem::AccessCounter& acc) const override {
    return trie_.lookup(address, acc);
  }

  Continuation makeContinuation(const PrefixT& clue,
                                std::span<const MatchT> /*candidates*/,
                                CandidateStore<A>* /*store*/) const override {
    return Continuation{trie_.descendAnchor(clue), 0};
  }

  std::optional<MatchT> continueLookup(const Continuation& cont,
                                       int clue_length, const A& address,
                                       std::optional<NeighborIndex> neighbor,
                                       mem::AccessCounter& acc) const override {
    if (cont.anchor == nullptr) return std::nullopt;
    return trie_.lookupBelow(static_cast<const Node*>(cont.anchor),
                             clue_length, address, neighbor, acc);
  }

  // The interleaved walk: every walk advances one node per round and
  // prefetches the node it visits next, so while one walk's node is in
  // flight from DRAM the others are being examined — up to a window of
  // misses overlap where a lone walk waits on each in turn. Each visit is
  // one PatriciaTrie::step, the step lookup() and lookupBelow() loop over,
  // and charges one trie-node access, so each walk visits exactly the nodes
  // its solo call visits, in the same order.
  void walkBatch(std::span<Walk<A>> walks,
                 std::optional<NeighborIndex> neighbor, bool per_walk,
                 mem::AccessCounter& acc) const override {
    using Trie = trie::PatriciaTrie<A>;
    // Bounds the cursor arrays, which stay L1-resident.
    constexpr std::size_t kWindow = 64;
    constexpr auto kTrie = static_cast<std::size_t>(mem::Region::kTrieNode);
    std::uint64_t visits = 0;
    for (std::size_t base = 0; base < walks.size(); base += kWindow) {
      const std::size_t n = std::min(kWindow, walks.size() - base);
      Walk<A>* batch = walks.data() + base;
      typename Trie::Walker cur[kWindow];
      std::uint8_t live[kWindow];
      std::size_t n_live = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Walk<A>& w = batch[i];
        cur[i] = w.clue_length == kFullLookup
                     ? trie_.startLookup()
                     : Trie::startBelow(static_cast<const Node*>(w.cont.anchor),
                                        w.clue_length);
        if (per_walk) batch[i].accesses = {};
        if (cur[i].node != nullptr) {
          __builtin_prefetch(cur[i].node);
          live[n_live++] = static_cast<std::uint8_t>(i);
        }
      }
      while (n_live > 0) {
        visits += n_live;
        std::size_t kept = 0;
        for (std::size_t k = 0; k < n_live; ++k) {
          const std::size_t i = live[k];
          // Only a walk that asks for it stops at Claim-1 bits (Walk::prune).
          trie_.step(cur[i], batch[i].address,
                     batch[i].prune ? neighbor : std::nullopt);
          if (per_walk) ++batch[i].accesses[kTrie];
          if (cur[i].node != nullptr) {
            __builtin_prefetch(cur[i].node);
            live[kept++] = static_cast<std::uint8_t>(i);
          }
        }
        n_live = kept;
      }
      for (std::size_t i = 0; i < n; ++i) batch[i].match = Trie::result(cur[i]);
    }
    acc.add(mem::Region::kTrieNode, visits);
  }

 private:
  const trie::PatriciaTrie<A>& trie_;
};

}  // namespace cluert::lookup
