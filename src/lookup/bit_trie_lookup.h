// "Regular" lookup (§6): the standard bit-by-bit scan of the binary trie.
#pragma once

#include "lookup/engine.h"

namespace cluert::lookup {

template <typename A>
class BitTrieLookup final : public LookupEngine<A> {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  // The engine is a view over the router's trie; `trie` must outlive it.
  explicit BitTrieLookup(const trie::BinaryTrie<A>& trie) : trie_(trie) {}

  Method method() const override { return Method::kRegular; }

  std::optional<MatchT> lookup(const A& address,
                               mem::AccessCounter& acc) const override {
    return trie_.lookup(address, acc);
  }

  Continuation<A> makeContinuation(
      const PrefixT& clue,
      std::span<const MatchT> /*candidates*/) const override {
    Continuation<A> c;
    c.clue = clue;
    c.trie_anchor = trie_.findVertex(clue);
    return c;
  }

  std::optional<MatchT> continueLookup(const Continuation<A>& cont,
                                       const A& address,
                                       std::optional<NeighborIndex> neighbor,
                                       mem::AccessCounter& acc) const override {
    if (cont.trie_anchor == nullptr) return std::nullopt;
    return trie_.lookupBelow(cont.trie_anchor, address, neighbor, acc);
  }

 private:
  const trie::BinaryTrie<A>& trie_;
};

}  // namespace cluert::lookup
