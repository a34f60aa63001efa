// Control-plane analysis of a clue against the receiver's table (§3.1):
// the case classification of §3.1.2, Claim 1, and the condition-C1 candidate
// sets (Definition 1) that restrict the continued search.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ip/prefix.h"
#include "trie/binary_trie.h"

namespace cluert::core {

// How the receiving router may treat a given clue (§3.1.2). One byte, so a
// clue entry packs it into two bits of its flags byte.
enum class ClueCase : std::uint8_t {
  kAbsent,  // case 1: the clue vertex does not exist in the receiver's trie
  kFinal,   // case 2: Claim 1 holds — the FD is the final answer
  kSearch,  // case 3: a longer match may exist; continue from the clue
};

// Everything the control plane derives about one clue.
template <typename A>
struct ClueAnalysis {
  ClueCase kase = ClueCase::kAbsent;
  // The FD field: best matching prefix of the clue string in the receiver's
  // table (also the fallback when a case-3 search fails). Empty = no route.
  std::optional<trie::Match<A>> fd;
  // Case 3 only: the prefixes a continued search may still report —
  // all of them strictly extend the clue.
  std::vector<trie::Match<A>> candidates;
  // Advance only: true when the case-2 classification is Claim 1's doing —
  // the clue vertex has descendants, but every marked one sits behind a
  // sender prefix. False for the trivial leaf case (where Simple would have
  // stopped too). Observability uses this to count how often Claim 1
  // actually saves a search.
  bool claim1_pruned = false;
};

// Analyzer bound to a receiver table t2 and (for Advance) the sender table
// t1. Both tries must outlive the analyzer. All queries are control-plane:
// they charge no memory accesses (they run when routing tables are built, or
// once per newly learned clue — §3.3).
template <typename A>
class ClueAnalyzer {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;
  using Node = typename trie::BinaryTrie<A>::Node;

  // `t1` may be null, in which case only Simple analysis is available.
  ClueAnalyzer(const trie::BinaryTrie<A>& t2, const trie::BinaryTrie<A>* t1)
      : t2_(t2), t1_(t1) {}

  bool hasNeighborTable() const { return t1_ != nullptr; }

  // §3.1.1 (Simple): continue the search iff the clue vertex exists and has
  // descendants; candidates are every t2 prefix strictly extending the clue.
  ClueAnalysis<A> analyzeSimple(const PrefixT& clue) const {
    ClueAnalysis<A> out;
    const Node* v = walkClue(clue, out.fd);
    if (v == nullptr) {
      out.kase = ClueCase::kAbsent;
      return out;
    }
    if (v->isLeaf()) {
      out.kase = ClueCase::kFinal;
      return out;
    }
    out.kase = ClueCase::kSearch;
    collectStrictDescendants(v, out.candidates);
    return out;
  }

  // §3.1.2 (Advance): additionally prune with Claim 1 — a t2 branch below
  // the clue is dead as soon as it passes through a t1 prefix, because the
  // sender would have found that longer prefix itself. Requires t1.
  ClueAnalysis<A> analyzeAdvance(const PrefixT& clue) const {
    ClueAnalysis<A> out;
    const Node* v = walkClue(clue, out.fd);
    if (v == nullptr) {
      out.kase = ClueCase::kAbsent;  // case 1
      return out;
    }
    collectCandidates(v, out.candidates);
    out.kase = out.candidates.empty() ? ClueCase::kFinal    // case 2
                                      : ClueCase::kSearch;  // case 3
    out.claim1_pruned = out.candidates.empty() && !v->isLeaf();
    return out;
  }

  // Claim 1 as a predicate: true iff no prefix of t2 longer than the clue
  // can be the BMP of any packet carrying this (genuine) clue.
  bool claim1Holds(const PrefixT& clue) const {
    const Node* v = t2_.findVertex(clue);
    if (v == nullptr) return true;
    std::vector<MatchT> cands;
    collectCandidates(v, cands);
    return cands.empty();
  }

  // Condition C1 (Definition 1): the prefixes of t2 that, given the clue,
  // may still be the destination's BMP at the receiver.
  std::vector<MatchT> candidates(const PrefixT& clue) const {
    std::vector<MatchT> out;
    const Node* v = t2_.findVertex(clue);
    if (v != nullptr) collectCandidates(v, out);
    return out;
  }

 private:
  // One walk down the clue's path in t2: returns the clue's vertex (nullptr
  // when it does not exist) and sets `fd` to the longest marked vertex at or
  // above the clue string, as t2_.longestMarkedAtOrAbove(clue) would.
  const Node* walkClue(const PrefixT& clue,
                       std::optional<MatchT>& fd) const {
    const Node* node = t2_.root();
    for (int d = 0;; ++d) {
      if (node->marked) fd = MatchT{node->prefix, node->next_hop};
      if (d == clue.length()) return node;
      node = t2_.child(node, clue.bit(d));
      if (node == nullptr) return nullptr;
    }
  }

  // All marked t2 vertices strictly below `v`.
  void collectStrictDescendants(const Node* v,
                                std::vector<MatchT>& out) const {
    for (unsigned b = 0; b < 2; ++b) {
      const Node* c = t2_.child(v, b);
      if (c == nullptr) continue;
      t2_.visitSubtree(c, [&](const Node& n) {
        if (n.marked) out.push_back(MatchT{n.prefix, n.next_hop});
        return true;
      });
    }
  }

  // Marked t2 vertices p strictly below `v` such that no vertex q with
  // v < q <= p is a t1 prefix: walk the subtree, pruning any branch whose
  // head string is marked in t1 (that string is the blocking q for
  // everything beneath it). The walk descends t1 alongside: `mirror` is
  // t1's vertex for n's string, or nullptr where t1 has none.
  void collectCandidates(const Node* v, std::vector<MatchT>& out) const {
    const Node* mirror = t1_ != nullptr ? t1_->findVertex(v->prefix) : nullptr;
    for (unsigned b = 0; b < 2; ++b) {
      collectCandidatesImpl(t2_.child(v, b), mirrorChild(mirror, b), out);
    }
  }

  void collectCandidatesImpl(const Node* n, const Node* mirror,
                             std::vector<MatchT>& out) const {
    if (n == nullptr) return;
    if (mirror != nullptr && mirror->marked) return;  // blocked branch
    if (n->marked) out.push_back(MatchT{n->prefix, n->next_hop});
    for (unsigned b = 0; b < 2; ++b) {
      collectCandidatesImpl(t2_.child(n, b), mirrorChild(mirror, b), out);
    }
  }

  const Node* mirrorChild(const Node* mirror, unsigned b) const {
    return mirror != nullptr ? t1_->child(mirror, b) : nullptr;
  }

  const trie::BinaryTrie<A>& t2_;
  const trie::BinaryTrie<A>* t1_;
};

}  // namespace cluert::core
