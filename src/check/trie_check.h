// Structural validators for the two trie structures.
//
// Invariant catalogue (ids are stable; see DESIGN.md "Verification"):
//
//   BinaryTrie (§3.1 "pruned trie"):
//     root-prefix          root vertex must represent the empty string
//     child-prefix         child[b] extends the parent's string by bit b
//     parent-link          child->parent points back at the parent
//     pruned-subtree       every non-root vertex is marked or has a marked
//                          descendant (the property case 1 of §3.1.2 —
//                          "vertex absent => no longer match" — relies on)
//     unmarked-next-hop    an unmarked vertex carries no next hop
//     marked-no-next-hop   a marked vertex must carry a real next hop
//     prefix-count         stored prefix counter == number of marked vertices
//     node-count           stored node counter == number of vertices
//     claim1-continue-bit  (validateContinueBits) the per-vertex Claim-1
//                          boolean for a neighbor equals its §4 definition
//                          recomputed from scratch against that neighbor's
//                          table
//
//   PatriciaTrie (§4 "Adapting Patricia"):
//     root-prefix, parent-link, unmarked-next-hop, marked-no-next-hop,
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

#include <string>

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

// Post-order walk of a BinaryTrie subtree; returns whether the subtree
// contains a marked vertex, reporting violations along the way.
template <typename A>
bool checkBinaryNode(const typename trie::BinaryTrie<A>::Node& node,
                     bool is_root, Report& report, std::size_t& nodes,
                     std::size_t& marked) {
  ++nodes;
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
    const auto* child = node.child[b].get();
    if (child == nullptr) continue;
    if (child->parent != &node) {
      report.add("BinaryTrie", "parent-link",
                 describe(child->prefix) + " does not point back at " +
                     describe(node.prefix));
    }
    const bool child_shape =
        child->prefix.length() == node.prefix.length() + 1 &&
        node.prefix.isStrictPrefixOf(child->prefix) &&
        child->prefix.bit(node.prefix.length()) == b;
    if (!child_shape) {
      report.add("BinaryTrie", "child-prefix",
                 describe(child->prefix) + " hangs off branch " +
                     std::to_string(b) + " of " + describe(node.prefix));
    }
    if (checkBinaryNode<A>(*child, /*is_root=*/false, report, nodes, marked)) {
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
  std::size_t nodes = 0;
  std::size_t marked = 0;
  detail::checkBinaryNode<A>(*t.root(), /*is_root=*/true, report, nodes,
                             marked);
  if (marked != t.prefixCount()) {
    report.add("BinaryTrie", "prefix-count",
               std::to_string(marked) + " marked vertices vs stored count " +
                   std::to_string(t.prefixCount()));
  }
  if (nodes != t.nodeCount()) {
    report.add("BinaryTrie", "node-count",
               std::to_string(nodes) + " vertices vs stored count " +
                   std::to_string(t.nodeCount()));
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
      const Node* c = node.child[b].get();
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
    const int kids = (node.child[0] ? 1 : 0) + (node.child[1] ? 1 : 0);
    if (!is_root && !node.marked && kids != 2) {
      report.add("PatriciaTrie", "path-compression",
                 detail::describe(node.prefix) + " is unmarked with " +
                     std::to_string(kids) +
                     " children (unary vertices must be contracted)");
    }
    for (unsigned b = 0; b < 2; ++b) {
      const Node* child = node.child[b].get();
      if (child == nullptr) continue;
      if (child->parent != &node) {
        report.add("PatriciaTrie", "parent-link",
                   detail::describe(child->prefix) +
                       " does not point back at " +
                       detail::describe(node.prefix));
      }
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
