// "6-way" lookup ([11], §2 item (3)): the same interval search as [19] but
// with B-way branching — each probed node packs B-1 separator keys into one
// wide SDRAM line, so a probe narrows the range six-fold for the price of a
// single memory access.
#pragma once

#include "lookup/binary_interval_lookup.h"

namespace cluert::lookup {

template <typename A>
class MultiwayLookup final : public IntervalLookupBase<A> {
 public:
  static constexpr unsigned kFanout = 6;

  explicit MultiwayLookup(const trie::BinaryTrie<A>& table,
                          unsigned inline_candidates = 0)
      : IntervalLookupBase<A>(table, kFanout, inline_candidates) {}

  Method method() const override { return Method::kMultiway; }
};

}  // namespace cluert::lookup
