// "Binary" lookup ([19], §2 item (3), §4 "Adapting binary search"): binary
// search over the space of prefix interval endpoints. The clue continuation
// searches only the candidate set P(s, R1); when P is small enough to share
// the clue entry's memory line it is scanned for free (§4).
#pragma once

#include <vector>

#include "lookup/engine.h"

namespace cluert::lookup {

template <typename A>
class IntervalLookupBase : public LookupEngine<A> {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  // `inline_candidates`: candidate sets up to this size are assumed to live
  // in the clue entry's cache line and cost zero extra accesses (§4). Zero
  // disables the optimisation (the conservative default every bench and
  // data plane uses; only LookupMethods.InlineCandidateScanCostsNothing
  // sets it).
  IntervalLookupBase(const trie::BinaryTrie<A>& table, unsigned fanout,
                     unsigned inline_candidates)
      : fanout_(fanout), inline_candidates_(inline_candidates) {
    std::vector<MatchT> entries;
    entries.reserve(table.prefixCount());
    table.forEachPrefix([&](const PrefixT& p, NextHop nh) {
      entries.push_back(MatchT{p, nh});
    });
    segments_ = SegmentTable<A>::build(std::move(entries), A{});
  }

  std::optional<MatchT> lookup(const A& address,
                               mem::AccessCounter& acc) const override {
    return segments_.lookup(address, fanout_, mem::Region::kIntervalNode, acc);
  }

  // The anchor is the candidate set, kept in the clue table's `store`, and
  // `n` its size.
  Continuation makeContinuation(const PrefixT& clue,
                                std::span<const MatchT> candidates,
                                CandidateStore<A>* store) const override {
    if (candidates.empty()) return Continuation{};
    CLUERT_CHECK(store != nullptr)
        << "a " << methodName(this->method())
        << " continuation keeps its candidate set in the clue table's store";
    std::vector<MatchT> cands(candidates.begin(), candidates.end());
    return Continuation{
        store->add(SegmentTable<A>::build(std::move(cands), clue.rangeLow())),
        static_cast<std::uint32_t>(candidates.size())};
  }

  std::optional<MatchT> continueLookup(
      const Continuation& cont, int /*clue_length*/, const A& address,
      std::optional<NeighborIndex> /*neighbor*/,
      mem::AccessCounter& acc) const override {
    const auto* set = static_cast<const SegmentTable<A>*>(cont.anchor);
    if (set == nullptr) return std::nullopt;
    if (inline_candidates_ > 0 && cont.n <= inline_candidates_) {
      return set->scan(address);  // rides the entry's line: free
    }
    return set->lookup(address, fanout_, mem::Region::kCandidateSet, acc);
  }

  std::size_t segmentCount() const { return segments_.segmentCount(); }

 private:
  SegmentTable<A> segments_;
  unsigned fanout_;
  unsigned inline_candidates_;
};

template <typename A>
class BinaryIntervalLookup final : public IntervalLookupBase<A> {
 public:
  explicit BinaryIntervalLookup(const trie::BinaryTrie<A>& table,
                                unsigned inline_candidates = 0)
      : IntervalLookupBase<A>(table, /*fanout=*/2, inline_candidates) {}

  Method method() const override { return Method::kBinary; }
};

}  // namespace cluert::lookup
