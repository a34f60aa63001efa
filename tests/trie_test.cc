#include <gtest/gtest.h>

#include "test_util.h"
#include "trie/binary_trie.h"

namespace cluert::trie {
namespace {

using testutil::a4;
using testutil::p4;
using BT = BinaryTrie4;

BT makeTrie(std::initializer_list<std::pair<const char*, NextHop>> entries) {
  BT t;
  for (const auto& [text, nh] : entries) t.insert(p4(text), nh);
  return t;
}

TEST(BinaryTrie, EmptyLookupFindsNothing) {
  BT t;
  mem::AccessCounter acc;
  EXPECT_FALSE(t.lookup(a4("1.2.3.4"), acc).has_value());
  EXPECT_TRUE(t.empty());
}

TEST(BinaryTrie, LongestPrefixWins) {
  const BT t = makeTrie({{"10.0.0.0/8", 1}, {"10.1.0.0/16", 2},
                         {"10.1.2.0/24", 3}});
  mem::AccessCounter acc;
  EXPECT_EQ(t.lookup(a4("10.1.2.3"), acc)->next_hop, 3u);
  EXPECT_EQ(t.lookup(a4("10.1.9.9"), acc)->next_hop, 2u);
  EXPECT_EQ(t.lookup(a4("10.9.9.9"), acc)->next_hop, 1u);
  EXPECT_FALSE(t.lookup(a4("11.0.0.1"), acc).has_value());
}

TEST(BinaryTrie, DefaultRouteMatchesEverything) {
  const BT t = makeTrie({{"0.0.0.0/0", 9}, {"10.0.0.0/8", 1}});
  mem::AccessCounter acc;
  EXPECT_EQ(t.lookup(a4("200.1.1.1"), acc)->next_hop, 9u);
  EXPECT_EQ(t.lookup(a4("10.1.1.1"), acc)->next_hop, 1u);
}

TEST(BinaryTrie, InsertOverwritesNextHop) {
  BT t = makeTrie({{"10.0.0.0/8", 1}});
  t.insert(p4("10.0.0.0/8"), 7);
  EXPECT_EQ(t.prefixCount(), 1u);
  EXPECT_EQ(t.nextHopOf(p4("10.0.0.0/8")), 7u);
}

TEST(BinaryTrie, AccessCountEqualsVerticesVisited) {
  const BT t = makeTrie({{"10.1.2.0/24", 3}});
  mem::AccessCounter acc;
  t.lookup(a4("10.1.2.3"), acc);
  // Root + 24 vertices on the single path.
  EXPECT_EQ(acc.count(mem::Region::kTrieNode), 25u);
}

TEST(BinaryTrie, EraseRemovesAndPrunes) {
  BT t = makeTrie({{"10.0.0.0/8", 1}, {"10.1.0.0/16", 2}});
  const std::size_t nodes_before = t.nodeCount();
  EXPECT_TRUE(t.erase(p4("10.1.0.0/16")));
  EXPECT_FALSE(t.erase(p4("10.1.0.0/16")));  // already gone
  EXPECT_EQ(t.prefixCount(), 1u);
  EXPECT_LT(t.nodeCount(), nodes_before);  // path below /8 pruned
  EXPECT_EQ(t.findVertex(p4("10.1.0.0/16")), nullptr);
  mem::AccessCounter acc;
  EXPECT_EQ(t.lookup(a4("10.1.2.3"), acc)->next_hop, 1u);
}

TEST(BinaryTrie, EraseKeepsUnmarkedInternalVertexWithDescendants) {
  BT t = makeTrie(
      {{"10.0.0.0/8", 1}, {"10.0.0.0/16", 2}, {"10.1.0.0/16", 3}});
  EXPECT_TRUE(t.erase(p4("10.0.0.0/8")));
  // The /8 vertex still has marked descendants and must survive.
  EXPECT_NE(t.findVertex(p4("10.0.0.0/8")), nullptr);
  mem::AccessCounter acc;
  EXPECT_EQ(t.lookup(a4("10.1.0.1"), acc)->next_hop, 3u);
  EXPECT_FALSE(t.lookup(a4("10.2.0.1"), acc).has_value());
}

TEST(BinaryTrie, PrunedInvariantAllLeavesMarked) {
  Rng rng(7);
  const auto entries = testutil::randomTable4(rng, 300);
  BT t;
  for (const auto& e : entries) t.insert(e.prefix, e.next_hop);
  // Erase a third of them.
  for (std::size_t i = 0; i < entries.size(); i += 3) {
    t.erase(entries[i].prefix);
  }
  std::size_t leaves = 0;
  std::size_t unmarked_leaves = 0;
  t.visitSubtree(t.root(), [&](const BT::Node& n) {
    if (n.isLeaf()) {
      ++leaves;
      if (!n.marked && n.prefix.length() > 0) ++unmarked_leaves;
    }
    return true;
  });
  EXPECT_GT(leaves, 0u);
  EXPECT_EQ(unmarked_leaves, 0u);
}

TEST(BinaryTrie, FindVertexExistsExactlyForPrefixesOfMarked) {
  const BT t = makeTrie({{"10.1.0.0/16", 1}});
  EXPECT_NE(t.findVertex(p4("10.0.0.0/8")), nullptr);   // on the path
  EXPECT_NE(t.findVertex(p4("10.1.0.0/16")), nullptr);  // marked
  EXPECT_EQ(t.findVertex(p4("10.1.0.0/17")), nullptr);  // below all marks
  EXPECT_EQ(t.findVertex(p4("11.0.0.0/8")), nullptr);   // off path
}

TEST(BinaryTrie, LongestMarkedAtOrAbove) {
  const BT t = makeTrie({{"10.0.0.0/8", 1}, {"10.1.2.0/24", 3}});
  EXPECT_EQ(t.longestMarkedAtOrAbove(p4("10.1.2.0/24"))->next_hop, 3u);
  EXPECT_EQ(t.longestMarkedAtOrAbove(p4("10.1.2.0/26"))->next_hop, 3u);
  EXPECT_EQ(t.longestMarkedAtOrAbove(p4("10.1.0.0/16"))->next_hop, 1u);
  EXPECT_FALSE(t.longestMarkedAtOrAbove(p4("11.0.0.0/8")).has_value());
}

TEST(BinaryTrie, ForEachPrefixEnumeratesAll) {
  Rng rng(11);
  const auto entries = testutil::randomTable4(rng, 120);
  BT t;
  for (const auto& e : entries) t.insert(e.prefix, e.next_hop);
  std::size_t n = 0;
  t.forEachPrefix([&](const ip::Prefix4&, NextHop) { ++n; });
  EXPECT_EQ(n, t.prefixCount());
  EXPECT_EQ(n, entries.size());
}

TEST(BinaryTrie, LookupBelowFindsOnlyStrictlyLonger) {
  const BT t = makeTrie(
      {{"10.0.0.0/8", 1}, {"10.1.0.0/16", 2}, {"10.1.2.0/24", 3}});
  mem::AccessCounter acc;
  const auto* v = t.findVertex(p4("10.0.0.0/8"));
  ASSERT_NE(v, nullptr);
  const auto m = t.lookupBelow(v, a4("10.1.2.3"), std::nullopt, acc);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->next_hop, 3u);
  // No longer match below /24 for an address outside /16.
  const auto none = t.lookupBelow(t.findVertex(p4("10.1.2.0/24")),
                                  a4("10.1.2.3"), std::nullopt, acc);
  EXPECT_FALSE(none.has_value());
}

TEST(BinaryTrie, LookupBelowMatchesReferenceOnRandomTables) {
  Rng rng(23);
  const auto entries = testutil::randomTable4(rng, 400);
  BT t;
  for (const auto& e : entries) t.insert(e.prefix, e.next_hop);
  mem::AccessCounter acc;
  for (int i = 0; i < 500; ++i) {
    const auto dest = testutil::coveredAddress<ip::Ip4Addr>(
        entries, rng, testutil::randomAddr4);
    const auto full = t.lookup(dest, acc);
    if (!full) continue;
    // Continue from a truncation of the BMP: must rediscover the BMP.
    const int cut = static_cast<int>(
        rng.uniform(0, static_cast<std::uint64_t>(full->prefix.length())));
    const auto clue = full->prefix.truncated(cut);
    const auto* v = t.findVertex(clue);
    ASSERT_NE(v, nullptr);
    const auto below = t.lookupBelow(v, dest, std::nullopt, acc);
    if (full->prefix.length() > cut) {
      ASSERT_TRUE(below.has_value());
      EXPECT_EQ(below->prefix, full->prefix);
    } else {
      EXPECT_FALSE(below.has_value());
    }
  }
}

// ---------------------------------------------------------------------------
// Claim-1 continue bits
// ---------------------------------------------------------------------------

// Brute-force evaluation of "a C1 candidate exists strictly below v":
// exists marked p strictly below v in t2 with no vertex q, v < q <= p,
// marked in t1.
bool bruteContinue(const BT& t2, const BT& t1, const ip::Prefix4& v) {
  bool found = false;
  const auto* node = t2.findVertex(v);
  if (node == nullptr) return false;
  std::function<void(const BT::Node*, bool)> walk =
      [&](const BT::Node* n, bool blocked) {
        if (n == nullptr || blocked) return;
        if (n->prefix.length() > v.length()) {
          if (t1.contains(n->prefix)) return;  // blocks this whole branch
          if (n->marked) found = true;
        }
        walk(t2.child(n, 0), false);
        walk(t2.child(n, 1), false);
      };
  walk(node, false);
  return found;
}

TEST(BinaryTrie, ContinueBitsMatchBruteForce) {
  Rng rng(31);
  for (int round = 0; round < 5; ++round) {
    const auto base = testutil::randomTable4(rng, 150);
    const auto other = testutil::neighborOf(base, rng, 0.7, 30, 0.6);
    BT t2;
    for (const auto& e : base) t2.insert(e.prefix, e.next_hop);
    BT t1;
    for (const auto& e : other) t1.insert(e.prefix, e.next_hop);
    t2.computeContinueBits(3, t1);
    t2.visitSubtree(t2.root(), [&](const BT::Node& n) {
      EXPECT_EQ(BT::continueBit(&n, 3), bruteContinue(t2, t1, n.prefix))
          << "vertex " << n.prefix.toString();
      return true;
    });
  }
}

TEST(BinaryTrie, ContinueBitsPerNeighborAreIndependent) {
  const BT t1a = makeTrie({{"10.1.0.0/16", 1}});  // blocks the /16 branch
  const BT t1b = makeTrie({{"99.0.0.0/8", 1}});   // blocks nothing relevant
  BT t2 = makeTrie({{"10.0.0.0/8", 1}, {"10.1.0.0/16", 2},
                    {"10.1.2.0/24", 3}});
  t2.computeContinueBits(0, t1a);
  t2.computeContinueBits(1, t1b);
  const auto* v = t2.findVertex(p4("10.0.0.0/8"));
  ASSERT_NE(v, nullptr);
  // Neighbor 0 knows 10.1/16, which sits on every path to deeper prefixes.
  EXPECT_FALSE(BT::continueBit(v, 0));
  EXPECT_TRUE(BT::continueBit(v, 1));
}

TEST(BinaryTrie, AdvanceLookupBelowStopsEarlyButStaysCorrect) {
  const BT t1 = makeTrie({{"10.1.0.0/16", 1}});
  BT t2 = makeTrie({{"10.0.0.0/8", 1}, {"10.1.0.0/16", 2},
                    {"10.1.2.0/24", 3}});
  t2.computeContinueBits(0, t1);
  const auto* v = t2.findVertex(p4("10.0.0.0/8"));
  mem::AccessCounter pruned;
  mem::AccessCounter full;
  // Genuine-clue scenario: t1's BMP for this address is 10.0.0.0/8-level,
  // i.e. the address must not match 10.1/16 (else t1 would have said so).
  const auto dest = a4("10.200.1.1");
  const auto with_bits = t2.lookupBelow(v, dest, 0, pruned);
  const auto without = t2.lookupBelow(v, dest, std::nullopt, full);
  EXPECT_EQ(with_bits.has_value(), without.has_value());
  EXPECT_LE(pruned.total(), full.total());
  // The pruned walk stops at the /8 vertex: zero nodes visited below it.
  EXPECT_EQ(pruned.count(mem::Region::kTrieNode), 0u);
}

}  // namespace
}  // namespace cluert::trie
