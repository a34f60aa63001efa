// Structural validators for the two trie structures.
//
// Invariant catalogue (ids are stable; see DESIGN.md "Verification"):
//
//   BinaryTrie (§3.1 "pruned trie"):
//     root-prefix          root vertex must represent the empty string
//     child-prefix         child[b] extends the parent's string by bit b
//     pool-accounting      the walk from the root reaches every live slot of
//                          the trie's node pool exactly once and no released
//                          slot (nodeCount() is the pool's live count, so
//                          this also holds the node count to the walk)
//     pruned-subtree       every non-root vertex is marked or has a marked
//                          descendant (the property case 1 of §3.1.2 —
//                          "vertex absent => no longer match" — relies on)
//     unmarked-next-hop    an unmarked vertex carries no next hop
//     marked-no-next-hop   a marked vertex must carry a real next hop
//     prefix-count         stored prefix counter == number of marked vertices
//     claim1-continue-bit  (validateContinueBits) the per-vertex Claim-1
//                          boolean for a neighbor equals its §4 definition
//                          recomputed from scratch against that neighbor's
//                          table
//
//   PatriciaTrie (§4 "Adapting Patricia"):
//     root-prefix, pool-accounting, unmarked-next-hop, marked-no-next-hop,
//     prefix-count         as above
//     child-extends        a child's string strictly extends the parent's
//     child-slot           the child hangs off the branch bit at the
//                          parent's length
//     path-compression     every vertex is marked, or the root, or binary
//                          (unmarked unary vertices must be contracted)
//
//   validateEquivalent: a router's Patricia trie must encode exactly the
//   binary (reference) trie's prefix set with identical next hops —
//   prefix-set-mismatch / next-hop-mismatch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/report.h"
#include "common/types.h"
#include "trie/binary_trie.h"
#include "trie/patricia_trie.h"

namespace cluert::check {

namespace detail {

template <typename A>
std::string describe(const ip::Prefix<A>& p) {
  return p.toString();
}

// Pool accounting for either trie: the validator's walk starts at the root
// and follows child links only through reach(), so a slot linked twice (or a
// cycle) is visited once. Slots are kept by their ordinal, the order the
// pool handed them out in.
template <typename Trie>
class SlotLedger {
 public:
  SlotLedger(const Trie& t, const char* component, Report& report)
      : pool_(t.pool()), component_(component), report_(report),
        state_(pool_.size(), kUnreached) {
    for (const trie::NodeIndex i : pool_.freeSlots()) {
      state_[pool_.ordinal(i)] = kReleased;
    }
    state_[pool_.ordinal(trie::kRootSlot)] = kReached;
  }

  // Child b of `node` for the walk to descend into. nullptr when there is
  // none, and, with a violation, when the link leads to a slot the pool
  // never handed out, a released slot, or a slot another link reached.
  const typename Trie::Node* reach(const typename Trie::Node& node,
                                   unsigned b) {
    const trie::NodeIndex i = node.child[b];
    if (i == trie::kNoChild) return nullptr;
    const std::size_t o = pool_.ordinal(i);
    const char* fault = nullptr;
    if (o >= state_.size()) {
      fault = " that the pool never handed out";
    } else if (state_[o] == kReleased) {
      fault = " that was released";
    } else if (state_[o] == kReached) {
      fault = " that another link already reached";
    }
    if (fault != nullptr) {
      report_.add(component_, "pool-accounting",
                  describe(node.prefix) + " links to slot " +
                      std::to_string(i) + fault);
      return nullptr;
    }
    state_[o] = kReached;
    return &pool_[i];
  }

  // Reports every live slot the walk never reached (a leak). nodeCount() is
  // the pool's live count, so a clean ledger also proves the node count.
  void finish() {
    for (std::size_t o = 0; o < state_.size(); ++o) {
      if (state_[o] == kUnreached) {
        report_.add(component_, "pool-accounting",
                    "slot #" + std::to_string(o) +
                        " (in hand-out order) is live but unreachable from "
                        "the root (leaked)");
      }
    }
  }

 private:
  enum State : std::uint8_t { kUnreached, kReached, kReleased };

  const typename Trie::Pool& pool_;
  const char* component_;
  Report& report_;
  std::vector<std::uint8_t> state_;
};

// Post-order walk of a BinaryTrie subtree; returns whether the subtree
// contains a marked vertex, reporting violations along the way.
template <typename A>
bool checkBinaryNode(const typename trie::BinaryTrie<A>::Node& node,
                     bool is_root, Report& report,
                     SlotLedger<trie::BinaryTrie<A>>& ledger,
                     std::size_t& marked) {
  if (node.marked) ++marked;
  if (is_root && node.prefix.length() != 0) {
    report.add("BinaryTrie", "root-prefix",
               "root represents " + describe(node.prefix));
  }
  if (!node.marked && node.next_hop != kNoNextHop) {
    report.add("BinaryTrie", "unmarked-next-hop",
               describe(node.prefix) + " is unmarked but holds next hop " +
                   std::to_string(node.next_hop));
  }
  if (node.marked && node.next_hop == kNoNextHop) {
    report.add("BinaryTrie", "marked-no-next-hop",
               describe(node.prefix) + " is marked but routes nowhere");
  }
  bool subtree_marked = node.marked;
  for (unsigned b = 0; b < 2; ++b) {
    const auto* child = ledger.reach(node, b);
    if (child == nullptr) continue;
    const bool child_shape =
        child->prefix.length() == node.prefix.length() + 1 &&
        node.prefix.isStrictPrefixOf(child->prefix) &&
        child->prefix.bit(node.prefix.length()) == b;
    if (!child_shape) {
      report.add("BinaryTrie", "child-prefix",
                 describe(child->prefix) + " hangs off branch " +
                     std::to_string(b) + " of " + describe(node.prefix));
    }
    if (checkBinaryNode<A>(*child, /*is_root=*/false, report, ledger,
                           marked)) {
      subtree_marked = true;
    }
  }
  if (!is_root && !subtree_marked) {
    report.add("BinaryTrie", "pruned-subtree",
               describe(node.prefix) +
                   " is unmarked with no marked descendant (trie not pruned)");
  }
  return subtree_marked;
}

}  // namespace detail

// Full structural validation of a binary trie.
template <typename A>
Report validate(const trie::BinaryTrie<A>& t) {
  Report report;
  detail::SlotLedger<trie::BinaryTrie<A>> ledger(t, "BinaryTrie", report);
  std::size_t marked = 0;
  detail::checkBinaryNode<A>(*t.root(), /*is_root=*/true, report, ledger,
                             marked);
  ledger.finish();
  if (marked != t.prefixCount()) {
    report.add("BinaryTrie", "prefix-count",
               std::to_string(marked) + " marked vertices vs stored count " +
                   std::to_string(t.prefixCount()));
  }
  return report;
}

// Checks the per-vertex Claim-1 "continue" booleans of t2 for `neighbor`
// against their definition (§4): continue(v) is true iff some marked
// descendant p of v exists with no t1 prefix q, v < q <= p, on the way.
// Recomputed bottom-up from scratch, so a stale annotation (e.g. after a
// missed CluePort::refreshNeighbor) is caught exactly.
template <typename A>
Report validateContinueBits(const trie::BinaryTrie<A>& t2,
                            NeighborIndex neighbor,
                            const trie::BinaryTrie<A>& t1) {
  Report report;
  using Node = typename trie::BinaryTrie<A>::Node;
  // Returns the freshly computed continue value for `node`.
  auto walk = [&](auto&& self, const Node& node) -> bool {
    bool expect = false;
    for (unsigned b = 0; b < 2; ++b) {
      const Node* c = t2.child(&node, b);
      if (c == nullptr) continue;
      const bool below = self(self, *c);
      if (!t1.contains(c->prefix) && (c->marked || below)) expect = true;
    }
    const bool stored = trie::BinaryTrie<A>::continueBit(&node, neighbor);
    if (stored != expect) {
      report.add("BinaryTrie", "claim1-continue-bit",
                 detail::describe(node.prefix) + " stores " +
                     (stored ? "continue" : "stop") + " for neighbor " +
                     std::to_string(neighbor) + " but Claim 1 says " +
                     (expect ? "continue" : "stop"));
    }
    return expect;
  };
  walk(walk, *t2.root());
  return report;
}

// Full structural validation of a Patricia trie.
template <typename A>
Report validate(const trie::PatriciaTrie<A>& t) {
  Report report;
  using Node = typename trie::PatriciaTrie<A>::Node;
  detail::SlotLedger<trie::PatriciaTrie<A>> ledger(t, "PatriciaTrie", report);
  std::size_t marked = 0;
  auto walk = [&](auto&& self, const Node& node, bool is_root) -> void {
    if (node.marked) ++marked;
    if (is_root && node.prefix.length() != 0) {
      report.add("PatriciaTrie", "root-prefix",
                 "root represents " + detail::describe(node.prefix));
    }
    if (!node.marked && node.next_hop != kNoNextHop) {
      report.add("PatriciaTrie", "unmarked-next-hop",
                 detail::describe(node.prefix) +
                     " is unmarked but holds next hop " +
                     std::to_string(node.next_hop));
    }
    if (node.marked && node.next_hop == kNoNextHop) {
      report.add("PatriciaTrie", "marked-no-next-hop",
                 detail::describe(node.prefix) + " is marked but routes nowhere");
    }
    const int kids = (node.child[0] != trie::kNoChild ? 1 : 0) +
                     (node.child[1] != trie::kNoChild ? 1 : 0);
    if (!is_root && !node.marked && kids != 2) {
      report.add("PatriciaTrie", "path-compression",
                 detail::describe(node.prefix) + " is unmarked with " +
                     std::to_string(kids) +
                     " children (unary vertices must be contracted)");
    }
    for (unsigned b = 0; b < 2; ++b) {
      const Node* child = ledger.reach(node, b);
      if (child == nullptr) continue;
      if (!node.prefix.isStrictPrefixOf(child->prefix)) {
        report.add("PatriciaTrie", "child-extends",
                   detail::describe(child->prefix) +
                       " does not strictly extend " +
                       detail::describe(node.prefix));
      } else if (child->prefix.bit(node.prefix.length()) != b) {
        report.add("PatriciaTrie", "child-slot",
                   detail::describe(child->prefix) + " sits in slot " +
                       std::to_string(b) + " of " +
                       detail::describe(node.prefix) +
                       " but its branch bit disagrees");
      }
      self(self, *child, /*is_root=*/false);
    }
  };
  walk(walk, *t.root(), /*is_root=*/true);
  ledger.finish();
  if (marked != t.prefixCount()) {
    report.add("PatriciaTrie", "prefix-count",
               std::to_string(marked) + " marked vertices vs stored count " +
                   std::to_string(t.prefixCount()));
  }
  return report;
}

// The two LPM structures of one router must encode the same forwarding
// function: identical prefix sets, identical next hops.
template <typename A>
Report validateEquivalent(const trie::BinaryTrie<A>& reference,
                          const trie::PatriciaTrie<A>& patricia) {
  Report report;
  reference.forEachPrefix([&](const ip::Prefix<A>& p, NextHop) {
    if (!patricia.contains(p)) {
      report.add("PatriciaTrie", "prefix-set-mismatch",
                 detail::describe(p) + " is in the binary trie only");
    }
  });
  patricia.forEachNode([&](const typename trie::PatriciaTrie<A>::Node& n) {
    if (!n.marked) return;
    if (!reference.contains(n.prefix)) {
      report.add("PatriciaTrie", "prefix-set-mismatch",
                 detail::describe(n.prefix) + " is in the Patricia trie only");
    } else if (reference.nextHopOf(n.prefix) != n.next_hop) {
      report.add("PatriciaTrie", "next-hop-mismatch",
                 detail::describe(n.prefix) + " routes to " +
                     std::to_string(n.next_hop) + " vs binary-trie " +
                     std::to_string(reference.nextHopOf(n.prefix)));
    }
  });
  return report;
}

}  // namespace cluert::check
