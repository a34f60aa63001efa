// Binary (1-bit-per-level) trie over prefixes — the reference longest-prefix
// match structure of §3.1.
//
// Vertices correspond to binary strings; a vertex is *marked* iff the string
// is a prefix in the forwarding table. As in the paper, the trie is kept
// pruned: every vertex either is marked or has a marked descendant, so all
// leaves are marked. This pruning is what gives the clue table its "vertex
// does not exist => no longer match possible" semantics (case 1 of §3.1.2).
//
// Besides lookups, the trie supports the per-vertex, per-neighbor Claim-1
// "continue" booleans of §4 (see ContinueBits below) that let an Advance
// search stop as early as possible.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.h"
#include "ip/prefix.h"
#include "mem/access_counter.h"
#include "mem/node_pool.h"
#include "common/check.h"

namespace cluert::trie {

// A successful longest-prefix match.
template <typename A>
struct Match {
  ip::Prefix<A> prefix;
  NextHop next_hop = kNoNextHop;

  friend bool operator==(const Match&, const Match&) = default;
};

// Both tries keep their nodes in one mem::NodePool and link children by pool
// index. Each trie allocates its root first, so the root is slot 0; no node
// links to the root, which leaves index 0 free to mean "no child".
using NodeIndex = mem::PoolIndex;
inline constexpr NodeIndex kRootSlot = 0;
inline constexpr NodeIndex kNoChild = 0;

template <typename A>
class BinaryTrie {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = Match<A>;

  struct Node {
    PrefixT prefix;                   // the string this vertex represents
    NodeIndex child[2] = {kNoChild, kNoChild};  // child[b]: prefix + bit b
    NextHop next_hop = kNoNextHop;    // valid iff marked
    bool marked = false;              // is `prefix` in the forwarding table?
    // Per-neighbor "search may find a longer match below here" booleans
    // (Claim 1 applied to this vertex; §4 "Adapting Patricia"). Bit j set
    // means: continuing below this vertex can still discover a C1 candidate
    // with respect to neighbor j.
    std::uint64_t continue_bits = 0;

    bool isLeaf() const {
      return child[0] == kNoChild && child[1] == kNoChild;
    }
  };
  using Pool = mem::NodePool<Node>;

  BinaryTrie() { pool_.allocate(); }  // the root, slot kRootSlot

  BinaryTrie(const BinaryTrie&) = delete;
  BinaryTrie& operator=(const BinaryTrie&) = delete;
  BinaryTrie(BinaryTrie&&) = default;
  BinaryTrie& operator=(BinaryTrie&&) = default;

  // -- construction ---------------------------------------------------------

  // Inserts (or overwrites) a prefix with its next hop.
  void insert(const PrefixT& prefix, NextHop next_hop) {
    NodeIndex at = kRootSlot;
    for (int d = 0; d < prefix.length(); ++d) {
      const unsigned b = prefix.bit(d);
      NodeIndex next = pool_[at].child[b];
      if (next == kNoChild) {
        next = pool_.allocate();
        pool_[next].prefix = prefix.truncated(d + 1);
        pool_[at].child[b] = next;
      }
      at = next;
    }
    Node& node = pool_[at];
    if (!node.marked) ++prefix_count_;
    node.marked = true;
    node.next_hop = next_hop;
  }

  // Removes a prefix if present; prunes now-useless unmarked vertices so the
  // "pruned trie" invariant holds. Returns true iff the prefix was present.
  // The walk down records the path, and the pruning climbs it: path[d] is
  // the vertex of depth d.
  bool erase(const PrefixT& prefix) {
    NodeIndex path[A::kBits + 1];
    path[0] = kRootSlot;
    const int len = prefix.length();
    for (int d = 0; d < len; ++d) {
      path[d + 1] = pool_[path[d]].child[prefix.bit(d)];
      if (path[d + 1] == kNoChild) return false;
    }
    Node& node = pool_[path[len]];
    if (!node.marked) return false;
    node.marked = false;
    node.next_hop = kNoNextHop;
    --prefix_count_;
    for (int d = len; d > 0; --d) {
      const Node& v = pool_[path[d]];
      if (v.marked || !v.isLeaf()) break;
      pool_[path[d - 1]].child[prefix.bit(d - 1)] = kNoChild;
      pool_.release(path[d]);
    }
    return true;
  }

  // -- queries --------------------------------------------------------------

  // The vertex for `prefix`, or nullptr if it does not exist in the (pruned)
  // trie. A missing vertex certifies that no table prefix extends `prefix`.
  const Node* findVertex(const PrefixT& prefix) const {
    const Node* node = root();
    for (int d = 0; d < prefix.length() && node != nullptr; ++d) {
      node = child(node, prefix.bit(d));
    }
    return node;
  }

  const Node* root() const { return &pool_[kRootSlot]; }

  // Child b of `node`, or nullptr when it has none.
  const Node* child(const Node* node, unsigned b) const {
    const NodeIndex c = node->child[b];
    return c == kNoChild ? nullptr : &pool_[c];
  }

  // The node storage, for the structural validator (check/trie_check.h).
  const Pool& pool() const { return pool_; }

  // Longest-prefix match by the classic bit-by-bit walk ("Regular" in §6).
  // Charges one trie-node access per vertex visited.
  std::optional<MatchT> lookup(const A& address,
                               mem::AccessCounter& acc) const {
    const Node* node = root();
    const Node* best = nullptr;
    int depth = 0;
    while (node != nullptr) {
      acc.add(mem::Region::kTrieNode);
      if (node->marked) best = node;
      if (depth == A::kBits) break;
      node = child(node, address.bit(depth));
      ++depth;
    }
    if (best == nullptr) return std::nullopt;
    return MatchT{best->prefix, best->next_hop};
  }

  // Continues a bit-by-bit walk *below* `start` (exclusive), following
  // `address` (which must match start->prefix). Returns the longest marked
  // match strictly below `start`, or nullopt if none — the caller then falls
  // back to the clue entry's FD. When `neighbor` is set, the walk stops as
  // soon as the vertex's Claim-1 boolean says no candidate can lie below
  // (Advance method, §4 "Adapting Patricia" applied to the plain trie).
  std::optional<MatchT> lookupBelow(const Node* start, const A& address,
                                    std::optional<NeighborIndex> neighbor,
                                    mem::AccessCounter& acc) const {
    CLUERT_DCHECK(start != nullptr) << "lookupBelow from a null vertex";
    const Node* best = nullptr;
    const Node* node = start;
    int depth = start->prefix.length();
    while (true) {
      if (neighbor && !continueBit(node, *neighbor)) break;
      if (depth == A::kBits) break;
      const Node* next = child(node, address.bit(depth));
      if (next == nullptr) break;
      node = next;
      ++depth;
      acc.add(mem::Region::kTrieNode);
      if (node->marked) best = node;
    }
    if (best == nullptr) return std::nullopt;
    return MatchT{best->prefix, best->next_hop};
  }

  // Longest marked ancestor-or-self of `prefix` — the "least ancestor of s
  // in the trie which is also a prefix" used for the FD fields (§3.1.1).
  // Pure control-plane query; charges no accesses.
  std::optional<MatchT> longestMarkedAtOrAbove(const PrefixT& prefix) const {
    const Node* node = root();
    const Node* best = node->marked ? node : nullptr;
    for (int d = 0; d < prefix.length() && node != nullptr; ++d) {
      node = child(node, prefix.bit(d));
      if (node != nullptr && node->marked) best = node;
    }
    return best ? std::optional<MatchT>(MatchT{best->prefix, best->next_hop})
                : std::nullopt;
  }

  // True iff `prefix` itself is marked.
  bool contains(const PrefixT& prefix) const {
    const Node* node = findVertex(prefix);
    return node != nullptr && node->marked;
  }

  NextHop nextHopOf(const PrefixT& prefix) const {
    const Node* node = findVertex(prefix);
    return node != nullptr && node->marked ? node->next_hop : kNoNextHop;
  }

  std::size_t prefixCount() const { return prefix_count_; }
  std::size_t nodeCount() const { return pool_.live(); }  // root included
  bool empty() const { return prefix_count_ == 0; }

  // Calls fn(prefix, next_hop) for every marked vertex, in preorder.
  void forEachPrefix(
      const std::function<void(const PrefixT&, NextHop)>& fn) const {
    forEachPrefixImpl(root(), fn);
  }

  // Calls fn(node) for every vertex in the subtree of `start` (inclusive),
  // preorder. fn returns false to prune the branch below the node.
  void visitSubtree(const Node* start,
                    const std::function<bool(const Node&)>& fn) const {
    if (start == nullptr) return;
    if (!fn(*start)) return;
    for (unsigned b = 0; b < 2; ++b) visitSubtree(child(start, b), fn);
  }

  // -- Claim-1 continue bits (§4) ------------------------------------------

  // Computes, for every vertex v of this trie, whether a search entered at v
  // with respect to neighbor trie t1 may still find a condition-C1 candidate
  // strictly below v: exists a marked descendant p of v such that no vertex q
  // with v < q <= p is marked in t1. Claim 1 for a clue s is exactly
  // "!continueBit(vertex(s))".
  void computeContinueBits(NeighborIndex neighbor, const BinaryTrie& t1) {
    CLUERT_CHECK(neighbor < kMaxAnnotatedNeighbors)
        << "neighbor index " << neighbor << " exceeds the continue-bit mask";
    computeContinueBitsImpl(pool_[kRootSlot], t1.root(), neighbor, t1);
  }

  static bool continueBit(const Node* node, NeighborIndex neighbor) {
    return (node->continue_bits >> neighbor) & 1u;
  }

  // The Claim-1 condition for a clue vertex (paper Claim 1): true iff no
  // prefix of this trie longer than `node`'s string can ever be the BMP,
  // given that the clue came from `neighbor`.
  static bool claim1Holds(const Node* node, NeighborIndex neighbor) {
    return !continueBit(node, neighbor);
  }

 private:
  void forEachPrefixImpl(
      const Node* node,
      const std::function<void(const PrefixT&, NextHop)>& fn) const {
    if (node == nullptr) return;
    if (node->marked) fn(node->prefix, node->next_hop);
    forEachPrefixImpl(child(node, 0), fn);
    forEachPrefixImpl(child(node, 1), fn);
  }

  // Bottom-up: continue(v) = OR over children c of
  //   !t1.contains(c.prefix) && (c.marked || continue(c)).
  // A child whose string is marked in t1 blocks its whole branch (any p
  // below it has q = that child), which is precisely Claim 1. The walk
  // descends t1 alongside: `mirror` is t1's vertex for node's string, or
  // nullptr where t1 has none, so t1.contains(c.prefix) is one look at the
  // mirror's child instead of a walk from t1's root.
  bool computeContinueBitsImpl(Node& node, const Node* mirror,
                               NeighborIndex neighbor, const BinaryTrie& t1) {
    bool cont = false;
    for (unsigned b = 0; b < 2; ++b) {
      if (node.child[b] == kNoChild) continue;
      Node& c = pool_[node.child[b]];
      const Node* c_mirror = mirror != nullptr ? t1.child(mirror, b) : nullptr;
      const bool below = computeContinueBitsImpl(c, c_mirror, neighbor, t1);
      const bool blocked = c_mirror != nullptr && c_mirror->marked;
      if (!blocked && (c.marked || below)) cont = true;
    }
    const std::uint64_t bit = std::uint64_t{1} << neighbor;
    if (cont) {
      node.continue_bits |= bit;
    } else {
      node.continue_bits &= ~bit;
    }
    return cont;
  }

  Pool pool_;
  std::size_t prefix_count_ = 0;
};

using BinaryTrie4 = BinaryTrie<ip::Ip4Addr>;
using BinaryTrie6 = BinaryTrie<ip::Ip6Addr>;

static_assert(sizeof(BinaryTrie4::Node) == 32,
              "an IPv4 vertex: prefix 8 B, two child indices, next hop, "
              "marked and the continue bits");
static_assert(sizeof(BinaryTrie6::Node) <= 48);

}  // namespace cluert::trie
