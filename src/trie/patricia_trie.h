// Patricia (path-compressed) trie — the production LPM structure of 1999
// routers ([22, 23] in the paper) and the structure the paper recommends for
// continuing a clue-restricted search (§4 "Adapting Patricia").
//
// Every node stores the full prefix string it represents, so verifying the
// bits skipped along a compressed edge is part of visiting the node (one
// memory access — the node *is* one record).
//
// Invariant: every node is marked, or is the root, or has two children
// (unmarked unary vertices are contracted away).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/types.h"
#include "ip/prefix.h"
#include "mem/access_counter.h"
#include "trie/binary_trie.h"
#include "common/check.h"

namespace cluert::trie {

template <typename A>
class PatriciaTrie {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = Match<A>;

  struct Node {
    PrefixT prefix;
    // Pool indices (binary_trie.h), keyed by bit at prefix.length().
    NodeIndex child[2] = {kNoChild, kNoChild};
    NextHop next_hop = kNoNextHop;
    bool marked = false;
    // Per-neighbor Claim-1 "a longer candidate may still exist below"
    // booleans (§4). Maintained by annotateContinueBits.
    std::uint64_t continue_bits = 0;

    bool isLeaf() const {
      return child[0] == kNoChild && child[1] == kNoChild;
    }
  };
  using Pool = mem::NodePool<Node>;

  PatriciaTrie() { pool_.allocate(); }  // the root, slot kRootSlot

  PatriciaTrie(const PatriciaTrie&) = delete;
  PatriciaTrie& operator=(const PatriciaTrie&) = delete;
  PatriciaTrie(PatriciaTrie&&) = default;
  PatriciaTrie& operator=(PatriciaTrie&&) = default;

  // Builds a Patricia trie holding the same prefix set as `source`.
  static PatriciaTrie fromBinaryTrie(const BinaryTrie<A>& source) {
    PatriciaTrie t;
    source.forEachPrefix(
        [&](const PrefixT& p, NextHop nh) { t.insert(p, nh); });
    return t;
  }

  // -- construction ---------------------------------------------------------

  // Inserts (or overwrites) a prefix. Standard compressed-trie insertion:
  // descend while the new prefix extends the current node, then either land
  // exactly, split a compressed edge, or attach a new leaf.
  void insert(const PrefixT& prefix, NextHop next_hop) {
    NodeIndex at = kRootSlot;
    while (true) {
      // Invariant: pool_[at].prefix is a (non-strict) prefix of `prefix`.
      Node& node = pool_[at];
      if (node.prefix.length() == prefix.length()) {
        mark(node, next_hop);
        return;
      }
      const unsigned b = prefix.bit(node.prefix.length());
      const NodeIndex next_at = node.child[b];
      if (next_at == kNoChild) {
        attachLeaf(at, b, prefix, next_hop);
        return;
      }
      const Node& next = pool_[next_at];
      if (prefix.isPrefixOf(next.prefix)) {
        if (prefix.length() == next.prefix.length()) {
          mark(pool_[next_at], next_hop);
          return;
        }
        // New prefix sits on the edge node -> next: split the edge.
        mark(pool_[splitEdge(at, b, prefix.length())], next_hop);
        return;
      }
      if (next.prefix.isStrictPrefixOf(prefix)) {
        at = next_at;  // keep descending
        continue;
      }
      // Divergence in the middle of the edge: split at the fork point and
      // hang the new prefix as a sibling leaf.
      const int fork = forkLength(prefix, next.prefix);
      attachLeaf(splitEdge(at, b, fork), prefix.bit(fork), prefix, next_hop);
      return;
    }
  }

  // Removes a prefix if present, restoring the compression invariant: an
  // unmarked leaf is detached, and an unmarked unary node is spliced out
  // (its parent adopts the one child). Returns true iff the prefix was
  // present. The walk down records the path, and the repair climbs it:
  // path[k] is the k-th node from the root, and every step down lengthens
  // the prefix, so a path holds at most A::kBits + 1 nodes.
  bool erase(const PrefixT& prefix) {
    NodeIndex path[A::kBits + 1];
    int k = 0;
    path[0] = kRootSlot;
    while (pool_[path[k]].prefix.length() < prefix.length()) {
      const Node& n = pool_[path[k]];
      if (!n.prefix.isPrefixOf(prefix)) return false;
      const NodeIndex next = n.child[prefix.bit(n.prefix.length())];
      if (next == kNoChild) return false;
      path[++k] = next;
    }
    Node& node = pool_[path[k]];
    if (node.prefix != prefix || !node.marked) return false;
    node.marked = false;
    node.next_hop = kNoNextHop;
    --prefix_count_;
    for (; k > 0 && !pool_[path[k]].marked; --k) {
      const Node& n = pool_[path[k]];
      if (n.child[0] != kNoChild && n.child[1] != kNoChild) break;  // a fork
      Node& parent = pool_[path[k - 1]];
      // A leaf's link becomes kNoChild; a unary node's, its one child.
      parent.child[n.prefix.bit(parent.prefix.length())] =
          n.child[0] != kNoChild ? n.child[0] : n.child[1];
      const bool was_leaf = n.isLeaf();
      pool_.release(path[k]);
      if (!was_leaf) break;  // a splice leaves the parent's arity as it was
    }
    return true;
  }

  // -- queries --------------------------------------------------------------

  const Node* root() const { return &pool_[kRootSlot]; }

  // Child b of `node`, or nullptr when it has none.
  const Node* child(const Node* node, unsigned b) const {
    const NodeIndex c = node->child[b];
    return c == kNoChild ? nullptr : &pool_[c];
  }

  // The node storage, for the structural validator (check/trie_check.h).
  const Pool& pool() const { return pool_; }

  // One walk in progress: the node it visits next (nullptr once it ended),
  // the best match so far and the clue length a match must exceed (-1 for a
  // full lookup). lookup() and lookupBelow() are loops over step(); a batch
  // of walks (lookup::PatriciaLookup::walkBatch) interleaves the same steps,
  // so it visits the same nodes. Trivial on purpose: a batch keeps an
  // uninitialised array of them.
  struct Walker {
    const Node* node;
    const Node* best;
    int above;
  };

  Walker startLookup() const { return Walker{root(), nullptr, -1}; }

  // The walk of lookupBelow(anchor, clue_length, ...); a null anchor is a
  // walk that has already ended.
  static Walker startBelow(const Node* anchor, int clue_length) {
    return Walker{anchor, nullptr, clue_length};
  }

  // Visits w.node — the one trie-node access the caller charges — and moves
  // w.node to the next node on `address`'s path, or to nullptr when the walk
  // ends: the skipped bits disagree, a full-length node, a missing child, or
  // (`neighbor` set) a node whose Claim-1 boolean stops the search.
  void step(Walker& w, const A& address,
            std::optional<NeighborIndex> neighbor) const {
    const Node* node = w.node;
    w.node = nullptr;
    if (!node->prefix.matches(address)) return;  // skipped bits disagree
    if (node->marked && node->prefix.length() > w.above) w.best = node;
    if (neighbor && !continueBit(node, *neighbor)) return;
    if (node->prefix.length() == A::kBits) return;
    w.node = child(node, address.bit(node->prefix.length()));
  }

  static std::optional<MatchT> result(const Walker& w) {
    if (w.best == nullptr) return std::nullopt;
    return MatchT{w.best->prefix, w.best->next_hop};
  }

  // Longest-prefix match; the classic Patricia walk. One access per node.
  std::optional<MatchT> lookup(const A& address,
                               mem::AccessCounter& acc) const {
    Walker w = startLookup();
    while (w.node != nullptr) {
      acc.add(mem::Region::kTrieNode);
      step(w, address, std::nullopt);
    }
    return result(w);
  }

  // The unique shallowest node whose prefix extends-or-equals `clue`
  // (nullptr if no table prefix extends the clue). Because of path
  // compression the clue string itself may live in the middle of an edge;
  // this node is then the lower endpoint of that edge. This is what a clue
  // entry's Ptr points at (§3.1.1).
  const Node* descendAnchor(const PrefixT& clue) const {
    const Node* node = root();
    while (true) {
      if (clue.isPrefixOf(node->prefix)) return node;
      if (!node->prefix.isStrictPrefixOf(clue)) return nullptr;
      const Node* next = child(node, clue.bit(node->prefix.length()));
      if (next == nullptr) return nullptr;
      node = next;
    }
  }

  // Continues a search below the clue: finds the longest marked prefix of
  // `address` longer than the clue's `clue_length` bits, starting at `anchor`
  // (= descendAnchor(clue), already fetched as part of the clue entry's Ptr
  // dereference — its visit is charged here). Returns nullopt if there is no
  // such match; the caller falls back to the clue entry's FD.
  //
  // When `neighbor` is set, the walk additionally stops at nodes whose
  // Claim-1 boolean for that neighbor is false (Advance method, §4).
  std::optional<MatchT> lookupBelow(const Node* anchor, int clue_length,
                                    const A& address,
                                    std::optional<NeighborIndex> neighbor,
                                    mem::AccessCounter& acc) const {
    CLUERT_DCHECK(anchor != nullptr) << "lookupBelow from a null anchor";
    Walker w = startBelow(anchor, clue_length);
    while (w.node != nullptr) {
      acc.add(mem::Region::kTrieNode);
      step(w, address, neighbor);
    }
    return result(w);
  }

  bool contains(const PrefixT& prefix) const {
    const Node* node = exactNode(prefix);
    return node != nullptr && node->marked;
  }

  std::size_t prefixCount() const { return prefix_count_; }

  std::size_t nodeCount() const { return pool_.live(); }  // root included

  void forEachNode(const std::function<void(const Node&)>& fn) const {
    visit(root(), fn);
  }

  // -- Claim-1 continue bits (§4 "Adapting Patricia") -----------------------

  // `judge(node_prefix)` must return true iff a C1 candidate w.r.t. the
  // neighbor may exist strictly below `node_prefix` — typically forwarded to
  // BinaryTrie::continueBit on the router's control-plane binary trie, which
  // is edge-aware (a neighbor prefix sitting in the middle of a compressed
  // Patricia edge still blocks the branch).
  void annotateContinueBits(
      NeighborIndex neighbor,
      const std::function<bool(const PrefixT&)>& judge) {
    CLUERT_CHECK(neighbor < kMaxAnnotatedNeighbors)
        << "neighbor index " << neighbor << " exceeds the continue-bit mask";
    const std::uint64_t bit = std::uint64_t{1} << neighbor;
    visitMutable(pool_[kRootSlot], [&](Node& n) {
      if (judge(n.prefix)) {
        n.continue_bits |= bit;
      } else {
        n.continue_bits &= ~bit;
      }
    });
  }

  static bool continueBit(const Node* node, NeighborIndex neighbor) {
    return (node->continue_bits >> neighbor) & 1u;
  }

 private:
  static int forkLength(const PrefixT& x, const PrefixT& y) {
    const int common = x.addr().commonPrefixLen(y.addr());
    return std::min({common, x.length(), y.length()});
  }

  void mark(Node& node, NextHop next_hop) {
    if (!node.marked) ++prefix_count_;
    node.marked = true;
    node.next_hop = next_hop;
  }

  void attachLeaf(NodeIndex parent, unsigned b, const PrefixT& prefix,
                  NextHop next_hop) {
    const NodeIndex leaf = pool_.allocate();
    pool_[leaf].prefix = prefix;
    mark(pool_[leaf], next_hop);
    pool_[parent].child[b] = leaf;
  }

  // Replaces the edge parent --b--> old child with parent -> mid -> old
  // child, where mid represents the old child's prefix truncated to
  // `mid_len`. Returns mid.
  NodeIndex splitEdge(NodeIndex parent, unsigned b, int mid_len) {
    const NodeIndex old_child = pool_[parent].child[b];
    const NodeIndex mid = pool_.allocate();
    const PrefixT& branch = pool_[old_child].prefix;
    pool_[mid].prefix = branch.truncated(mid_len);
    pool_[mid].child[branch.bit(mid_len)] = old_child;
    pool_[parent].child[b] = mid;
    return mid;
  }

  const Node* exactNode(const PrefixT& prefix) const {
    const Node* node = root();
    while (node != nullptr) {
      if (node->prefix.length() == prefix.length()) {
        return node->prefix == prefix ? node : nullptr;
      }
      if (node->prefix.length() > prefix.length() ||
          !node->prefix.isPrefixOf(prefix)) {
        return nullptr;
      }
      node = child(node, prefix.bit(node->prefix.length()));
    }
    return nullptr;
  }

  template <typename Fn>
  void visit(const Node* node, const Fn& fn) const {
    if (node == nullptr) return;
    fn(*node);
    visit(child(node, 0), fn);
    visit(child(node, 1), fn);
  }

  template <typename Fn>
  void visitMutable(Node& node, const Fn& fn) {
    fn(node);
    for (unsigned b = 0; b < 2; ++b) {
      if (node.child[b] != kNoChild) visitMutable(pool_[node.child[b]], fn);
    }
  }

  Pool pool_;
  std::size_t prefix_count_ = 0;
};

using PatriciaTrie4 = PatriciaTrie<ip::Ip4Addr>;
using PatriciaTrie6 = PatriciaTrie<ip::Ip6Addr>;

static_assert(sizeof(PatriciaTrie4::Node) == 32,
              "an IPv4 node: prefix 8 B, two child indices, next hop, marked "
              "and the continue bits");
static_assert(sizeof(PatriciaTrie6::Node) <= 48);

}  // namespace cluert::trie
