// "Regular" lookup (§6): the standard bit-by-bit scan of the binary trie.
#pragma once

#include "lookup/engine.h"

namespace cluert::lookup {

template <typename A>
class BitTrieLookup final : public LookupEngine<A> {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;
  using Node = typename trie::BinaryTrie<A>::Node;

  // The engine is a view over the router's trie; `trie` must outlive it.
  explicit BitTrieLookup(const trie::BinaryTrie<A>& trie) : trie_(trie) {}

  Method method() const override { return Method::kRegular; }

  std::optional<MatchT> lookup(const A& address,
                               mem::AccessCounter& acc) const override {
    return trie_.lookup(address, acc);
  }

  Continuation makeContinuation(const PrefixT& clue,
                                std::span<const MatchT> /*candidates*/,
                                CandidateStore<A>* /*store*/) const override {
    return Continuation{trie_.findVertex(clue), 0};
  }

  std::optional<MatchT> continueLookup(const Continuation& cont,
                                       int /*clue_length*/, const A& address,
                                       std::optional<NeighborIndex> neighbor,
                                       mem::AccessCounter& acc) const override {
    if (cont.anchor == nullptr) return std::nullopt;
    return trie_.lookupBelow(static_cast<const Node*>(cont.anchor), address,
                             neighbor, acc);
  }

 private:
  const trie::BinaryTrie<A>& trie_;
};

}  // namespace cluert::lookup
