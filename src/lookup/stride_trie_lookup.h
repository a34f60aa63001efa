// Multibit (8-bit stride) trie with full leaf pushing — the paper's related
// work direction "(2) Go over the address in different jumps, rather than
// bit by bit [24]" (controlled prefix expansion). Included as an *extended*
// sixth method beyond the five the paper evaluates: one memory access per
// 8-bit level, so at most W/8 accesses per lookup (4 for IPv4).
//
// Full leaf pushing: every slot of every node carries the best matching
// prefix covering that slot's whole path, inherited downward — the deepest
// slot visited therefore knows the global BMP, which is also what makes
// clue continuations sound (start at the deepest node the clue determines
// and walk down; see continueLookup).
#pragma once

#include <array>
#include <memory>

#include "lookup/engine.h"

namespace cluert::lookup {

template <typename A>
class StrideTrieLookup final : public LookupEngine<A> {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  static constexpr int kStrideBits = 8;
  static constexpr int kFanout = 1 << kStrideBits;
  static constexpr int kLevels = A::kBits / kStrideBits;

  struct Node {
    struct Slot {
      MatchT match{};
      bool has_match = false;
      std::unique_ptr<Node> child;
    };
    std::array<Slot, kFanout> slots;
  };

  explicit StrideTrieLookup(const trie::BinaryTrie<A>& table) {
    root_ = std::make_unique<Node>();
    // Raw insertion: each prefix lands in the node level that holds its
    // length bracket; shorter first so longer prefixes override within a
    // slot.
    std::vector<MatchT> entries;
    entries.reserve(table.prefixCount());
    table.forEachPrefix([&](const PrefixT& p, NextHop nh) {
      entries.push_back(MatchT{p, nh});
    });
    std::sort(entries.begin(), entries.end(),
              [](const MatchT& x, const MatchT& y) {
                return x.prefix.length() < y.prefix.length();
              });
    for (const MatchT& e : entries) insert(e);
    // Leaf-push pass: propagate covering matches downward.
    push(root_.get(), std::nullopt);
  }

  Method method() const override { return Method::kStride; }

  std::optional<MatchT> lookup(const A& address,
                               mem::AccessCounter& acc) const override {
    return walk(root_.get(), 0, address, acc);
  }

  // The anchor is the deepest existing node fully determined by the clue,
  // and `n` its depth: the node at depth k is indexed by bits [0, 8k), so k
  // may reach clue.length()/8.
  Continuation makeContinuation(const PrefixT& clue,
                                std::span<const MatchT> /*candidates*/,
                                CandidateStore<A>* /*store*/) const override {
    const Node* node = root_.get();
    int depth = 0;
    while ((depth + 1) * kStrideBits <= clue.length()) {
      const Node* next =
          node->slots[sliceBits(clue.addr(), depth)].child.get();
      if (next == nullptr) break;
      node = next;
      ++depth;
    }
    return Continuation{node, static_cast<std::uint32_t>(depth)};
  }

  std::optional<MatchT> continueLookup(
      const Continuation& cont, int clue_length, const A& address,
      std::optional<NeighborIndex> /*neighbor*/,
      mem::AccessCounter& acc) const override {
    const Node* anchor = static_cast<const Node*>(cont.anchor);
    if (anchor == nullptr) return std::nullopt;
    // Thanks to full leaf pushing the walk from the anchor finds the global
    // BMP; it answers the continuation iff strictly longer than the clue.
    const auto best =
        walk(anchor, static_cast<int>(cont.n), address, acc);
    if (!best || best->prefix.length() <= clue_length) return std::nullopt;
    return best;
  }

  std::size_t nodeCount() const { return countNodes(root_.get()); }

 private:
  // The 8-bit slice of `a` that indexes level `depth`.
  static unsigned sliceBits(const A& a, int depth) {
    unsigned v = 0;
    const int base = depth * kStrideBits;
    for (int b = 0; b < kStrideBits; ++b) {
      v = (v << 1) | a.bit(base + b);
    }
    return v;
  }

  void insert(const MatchT& e) {
    const int len = e.prefix.length();
    // The node level whose length bracket (8d, 8(d+1)] holds `len`;
    // the default route lives in the root bracket.
    const int d = len == 0 ? 0 : (len - 1) / kStrideBits;
    Node* node = root_.get();
    for (int k = 0; k < d; ++k) {
      auto& slot = node->slots[sliceBits(e.prefix.addr(), k)];
      if (!slot.child) slot.child = std::make_unique<Node>();
      node = slot.child.get();
    }
    // Expand into the 2^(8(d+1) - len) slots the prefix covers.
    const int fixed = len - d * kStrideBits;  // leading known bits, 0..8
    const unsigned base = sliceBits(e.prefix.addr(), d) &
                          (fixed == 0 ? 0u : ~0u << (kStrideBits - fixed));
    const unsigned count = 1u << (kStrideBits - fixed);
    for (unsigned i = 0; i < count; ++i) {
      auto& slot = node->slots[base + i];
      if (!slot.has_match || slot.match.prefix.length() < len) {
        slot.match = e;
        slot.has_match = true;
      }
    }
  }

  void push(Node* node, std::optional<MatchT> inherited) {
    for (auto& slot : node->slots) {
      if (!slot.has_match && inherited) {
        slot.match = *inherited;
        slot.has_match = true;
      }
      if (slot.child) {
        push(slot.child.get(),
             slot.has_match ? std::optional<MatchT>(slot.match)
                            : std::nullopt);
      }
    }
  }

  std::optional<MatchT> walk(const Node* node, int depth, const A& address,
                             mem::AccessCounter& acc) const {
    std::optional<MatchT> best;
    while (node != nullptr) {
      acc.add(mem::Region::kTrieNode);
      const auto& slot = node->slots[sliceBits(address, depth)];
      if (slot.has_match) best = slot.match;
      node = slot.child.get();
      ++depth;
      if (depth >= kLevels) break;
    }
    return best;
  }

  std::size_t countNodes(const Node* node) const {
    if (node == nullptr) return 0;
    std::size_t n = 1;
    for (const auto& slot : node->slots) n += countNodes(slot.child.get());
    return n;
  }

  std::unique_ptr<Node> root_;
};

}  // namespace cluert::lookup
