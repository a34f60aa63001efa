// MPLS / Tag-switching label machinery (§2 "Label swapping", §5.1).
//
// Topology (control) based label assignment: a router binds one label to
// each prefix (FEC) in its forwarding table and advertises the binding
// upstream. Forwarding a labelled packet is a single memory reference into
// the label table — unless the router is an *aggregation point* for the FEC
// (its table holds prefixes extending the FEC, Figure 8), where a full IP
// lookup is unavoidable. §5.1's observation: that lookup can ride the clue
// implied by the label, because a topology-bound label *is* a clue.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "ip/prefix.h"
#include "lookup/engine.h"
#include "mem/access_counter.h"

namespace cluert::mpls {

using Label = std::uint32_t;
inline constexpr Label kNoLabel = std::numeric_limits<Label>::max();

// One label binding at a router.
template <typename A>
struct LabelEntry {
  ip::Prefix<A> fec;               // the prefix this label is bound to
  NextHop next_hop = kNoNextHop;
  Label out_label = kNoLabel;      // downstream neighbor's label for the FEC
  bool aggregation_point = false;  // a longer prefix exists here (Figure 8)
  // §5.1 integration: the clue-table entry the label indexes ("the label can
  // be used as an efficient indexing into the clues table, thus eliminating
  // the hash function").
  std::optional<trie::Match<A>> fd;
  bool ptr_empty = true;
  lookup::Continuation cont;
};

// Dense label table: the label is the index; one probe = one access.
template <typename A>
class LabelTable {
 public:
  Label bind(LabelEntry<A> entry) {
    entries_.push_back(std::move(entry));
    return static_cast<Label>(entries_.size() - 1);
  }

  const LabelEntry<A>* at(Label label, mem::AccessCounter& acc) const {
    acc.add(mem::Region::kLabelTable);
    if (label >= entries_.size()) return nullptr;
    return &entries_[label];
  }

  LabelEntry<A>* mutableAt(Label label) {
    return label < entries_.size() ? &entries_[label] : nullptr;
  }

  // Sets the continuation of `label`'s entry, built into candidates(), and
  // releases the candidate set of the one it replaces. Control plane only:
  // the released set's storage is reused at once, so no forwarding may run
  // concurrently.
  void setContinuation(Label label, lookup::Continuation cont) {
    LabelEntry<A>& e = entries_[label];
    candidates_.release(e.cont.anchor);
    candidates_.reclaim();
    e.cont = cont;
  }

  // The candidate sets (§4) of the entries' Binary and Multiway
  // continuations.
  lookup::CandidateStore<A>& candidates() { return candidates_; }

  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<LabelEntry<A>> entries_;
  lookup::CandidateStore<A> candidates_;
};

}  // namespace cluert::mpls
