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
#include <memory>
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
    Node* parent = nullptr;
    std::unique_ptr<Node> child[2];  // keyed by bit at prefix.length()
    bool marked = false;
    NextHop next_hop = kNoNextHop;
    // Per-neighbor Claim-1 "a longer candidate may still exist below"
    // booleans (§4). Maintained by annotateContinueBits.
    std::uint64_t continue_bits = 0;

    bool isLeaf() const { return !child[0] && !child[1]; }
  };

  PatriciaTrie() : root_(std::make_unique<Node>()) {}

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
    Node* node = root_.get();
    while (true) {
      // Invariant: node->prefix is a (non-strict) prefix of `prefix`.
      if (node->prefix.length() == prefix.length()) {
        if (!node->marked) ++prefix_count_;
        node->marked = true;
        node->next_hop = next_hop;
        return;
      }
      const unsigned b = prefix.bit(node->prefix.length());
      Node* next = node->child[b].get();
      if (next == nullptr) {
        attachLeaf(node, b, prefix, next_hop);
        return;
      }
      if (prefix.isPrefixOf(next->prefix)) {
        if (prefix.length() == next->prefix.length()) {
          if (!next->marked) ++prefix_count_;
          next->marked = true;
          next->next_hop = next_hop;
          return;
        }
        // New prefix sits on the edge node -> next: split the edge.
        Node* mid = splitEdge(node, b, prefix.length(),
                              /*branch_prefix=*/next->prefix);
        if (!mid->marked) ++prefix_count_;
        mid->marked = true;
        mid->next_hop = next_hop;
        return;
      }
      if (next->prefix.isStrictPrefixOf(prefix)) {
        node = next;  // keep descending
        continue;
      }
      // Divergence in the middle of the edge: split at the fork point and
      // hang the new prefix as a sibling leaf.
      const int fork = forkLength(prefix, next->prefix);
      Node* mid = splitEdge(node, b, fork, /*branch_prefix=*/next->prefix);
      attachLeaf(mid, prefix.bit(fork), prefix, next_hop);
      return;
    }
  }

  // Removes a prefix if present, restoring the compression invariant
  // (detached leaves may leave an unmarked unary parent, which is spliced
  // out). Returns true iff the prefix was present.
  bool erase(const PrefixT& prefix) {
    Node* node = mutableExactNode(prefix);
    if (node == nullptr || !node->marked) return false;
    node->marked = false;
    node->next_hop = kNoNextHop;
    --prefix_count_;
    restoreInvariant(node);
    return true;
  }

  // -- queries --------------------------------------------------------------

  const Node* root() const { return root_.get(); }

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

  Walker startLookup() const { return Walker{root_.get(), nullptr, -1}; }

  // The walk of lookupBelow(anchor, clue_length, ...); a null anchor is a
  // walk that has already ended.
  static Walker startBelow(const Node* anchor, int clue_length) {
    return Walker{anchor, nullptr, clue_length};
  }

  // Visits w.node — the one trie-node access the caller charges — and moves
  // w.node to the next node on `address`'s path, or to nullptr when the walk
  // ends: the skipped bits disagree, a full-length node, a missing child, or
  // (`neighbor` set) a node whose Claim-1 boolean stops the search.
  static void step(Walker& w, const A& address,
                   std::optional<NeighborIndex> neighbor) {
    const Node* node = w.node;
    w.node = nullptr;
    if (!node->prefix.matches(address)) return;  // skipped bits disagree
    if (node->marked && node->prefix.length() > w.above) w.best = node;
    if (neighbor && !continueBit(node, *neighbor)) return;
    if (node->prefix.length() == A::kBits) return;
    w.node = node->child[address.bit(node->prefix.length())].get();
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
    const Node* node = root_.get();
    while (true) {
      if (clue.isPrefixOf(node->prefix)) return node;
      if (!node->prefix.isStrictPrefixOf(clue)) return nullptr;
      const Node* next = node->child[clue.bit(node->prefix.length())].get();
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

  std::size_t nodeCount() const {
    std::size_t n = 0;
    visit(root_.get(), [&](const Node&) { ++n; });
    return n;
  }

  void forEachNode(const std::function<void(const Node&)>& fn) const {
    visit(root_.get(), fn);
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
    visitMutable(root_.get(), [&](Node& n) {
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

  void attachLeaf(Node* parent, unsigned b, const PrefixT& prefix,
                  NextHop next_hop) {
    auto leaf = std::make_unique<Node>();
    leaf->prefix = prefix;
    leaf->parent = parent;
    leaf->marked = true;
    leaf->next_hop = next_hop;
    parent->child[b] = std::move(leaf);
    ++prefix_count_;
  }

  // Replaces the edge parent --b--> old_child with parent -> mid -> old_child
  // where mid represents branch_prefix truncated to `mid_len`.
  Node* splitEdge(Node* parent, unsigned b, int mid_len,
                  const PrefixT& branch_prefix) {
    std::unique_ptr<Node> old_child = std::move(parent->child[b]);
    auto mid = std::make_unique<Node>();
    mid->prefix = branch_prefix.truncated(mid_len);
    mid->parent = parent;
    old_child->parent = mid.get();
    const unsigned down = branch_prefix.bit(mid_len);
    mid->child[down] = std::move(old_child);
    Node* raw = mid.get();
    parent->child[b] = std::move(mid);
    return raw;
  }

  // Re-establishes "every node is marked, or the root, or has two children"
  // upward from a just-unmarked node.
  void restoreInvariant(Node* node) {
    while (node != nullptr && node != root_.get() && !node->marked) {
      Node* parent = node->parent;
      const unsigned slot = node->prefix.bit(parent->prefix.length());
      const int kids = (node->child[0] ? 1 : 0) + (node->child[1] ? 1 : 0);
      if (kids == 0) {
        parent->child[slot].reset();
        node = parent;  // the parent may have become unary
      } else if (kids == 1) {
        // Splice: the parent adopts the single grandchild directly.
        const unsigned b = node->child[0] ? 0 : 1;
        std::unique_ptr<Node> grandchild = std::move(node->child[b]);
        grandchild->parent = parent;
        parent->child[slot] = std::move(grandchild);
        return;
      } else {
        return;  // two children: a legitimate fork
      }
    }
  }

  Node* mutableExactNode(const PrefixT& prefix) {
    return const_cast<Node*>(exactNode(prefix));
  }

  const Node* exactNode(const PrefixT& prefix) const {
    const Node* node = root_.get();
    while (node != nullptr) {
      if (node->prefix.length() == prefix.length()) {
        return node->prefix == prefix ? node : nullptr;
      }
      if (node->prefix.length() > prefix.length() ||
          !node->prefix.isPrefixOf(prefix)) {
        return nullptr;
      }
      node = node->child[prefix.bit(node->prefix.length())].get();
    }
    return nullptr;
  }

  template <typename Fn>
  static void visit(const Node* node, const Fn& fn) {
    if (node == nullptr) return;
    fn(*node);
    visit(node->child[0].get(), fn);
    visit(node->child[1].get(), fn);
  }

  template <typename Fn>
  static void visitMutable(Node* node, const Fn& fn) {
    if (node == nullptr) return;
    fn(*node);
    visitMutable(node->child[0].get(), fn);
    visitMutable(node->child[1].get(), fn);
  }

  std::unique_ptr<Node> root_;
  std::size_t prefix_count_ = 0;
};

using PatriciaTrie4 = PatriciaTrie<ip::Ip4Addr>;
using PatriciaTrie6 = PatriciaTrie<ip::Ip6Addr>;

}  // namespace cluert::trie
