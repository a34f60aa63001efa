#include <gtest/gtest.h>

#include "test_util.h"
#include "trie/patricia_trie.h"

namespace cluert::trie {
namespace {

using testutil::a4;
using testutil::p4;
using PT = PatriciaTrie4;
using BT = BinaryTrie4;

PT makePatricia(std::initializer_list<std::pair<const char*, NextHop>> es) {
  PT t;
  for (const auto& [text, nh] : es) t.insert(p4(text), nh);
  return t;
}

TEST(Patricia, EmptyLookup) {
  PT t;
  mem::AccessCounter acc;
  EXPECT_FALSE(t.lookup(a4("1.2.3.4"), acc).has_value());
}

TEST(Patricia, BasicLongestMatch) {
  const PT t = makePatricia({{"10.0.0.0/8", 1}, {"10.1.0.0/16", 2},
                             {"10.1.2.0/24", 3}});
  mem::AccessCounter acc;
  EXPECT_EQ(t.lookup(a4("10.1.2.3"), acc)->next_hop, 3u);
  EXPECT_EQ(t.lookup(a4("10.1.9.9"), acc)->next_hop, 2u);
  EXPECT_EQ(t.lookup(a4("10.9.9.9"), acc)->next_hop, 1u);
  EXPECT_FALSE(t.lookup(a4("11.0.0.1"), acc).has_value());
}

TEST(Patricia, SkippedBitsAreVerified) {
  // Single long prefix: the compressed edge skips 23 bits; an address that
  // agrees on the branching bit but not the skipped bits must not match.
  const PT t = makePatricia({{"10.1.2.0/24", 3}});
  mem::AccessCounter acc;
  EXPECT_TRUE(t.lookup(a4("10.1.2.200"), acc).has_value());
  EXPECT_FALSE(t.lookup(a4("10.77.2.200"), acc).has_value());
}

TEST(Patricia, StructuralInvariantMarkedOrBinary) {
  Rng rng(5);
  const auto entries = testutil::randomTable4(rng, 500);
  PT t;
  for (const auto& e : entries) t.insert(e.prefix, e.next_hop);
  std::size_t violations = 0;
  t.forEachNode([&](const PT::Node& n) {
    const int kids = (n.child[0] ? 1 : 0) + (n.child[1] ? 1 : 0);
    const bool is_root = n.prefix.length() == 0;
    if (!n.marked && !is_root && kids < 2) ++violations;
  });
  EXPECT_EQ(violations, 0u);
  EXPECT_EQ(t.prefixCount(), entries.size());
}

TEST(Patricia, NodeCountAtMostTwiceprefixes) {
  Rng rng(6);
  const auto entries = testutil::randomTable4(rng, 400);
  PT t;
  for (const auto& e : entries) t.insert(e.prefix, e.next_hop);
  // Path compression bounds internal nodes by the number of leaves.
  EXPECT_LE(t.nodeCount(), 2 * entries.size() + 1);
}

TEST(Patricia, EquivalentToBinaryTrieOnRandomTables) {
  Rng rng(9);
  for (int round = 0; round < 4; ++round) {
    const auto entries = testutil::randomTable4(rng, 300);
    BT bt;
    PT pt;
    for (const auto& e : entries) {
      bt.insert(e.prefix, e.next_hop);
      pt.insert(e.prefix, e.next_hop);
    }
    mem::AccessCounter acc;
    for (int i = 0; i < 400; ++i) {
      const auto dest = testutil::coveredAddress<ip::Ip4Addr>(
          entries, rng, testutil::randomAddr4);
      const auto expect = bt.lookup(dest, acc);
      const auto got = pt.lookup(dest, acc);
      ASSERT_EQ(expect.has_value(), got.has_value());
      if (expect) {
        EXPECT_EQ(expect->prefix, got->prefix);
        EXPECT_EQ(expect->next_hop, got->next_hop);
      }
    }
  }
}

TEST(Patricia, FromBinaryTrieCopiesEverything) {
  Rng rng(10);
  const auto entries = testutil::randomTable4(rng, 200);
  BT bt;
  for (const auto& e : entries) bt.insert(e.prefix, e.next_hop);
  const PT pt = PT::fromBinaryTrie(bt);
  EXPECT_EQ(pt.prefixCount(), bt.prefixCount());
  for (const auto& e : entries) {
    EXPECT_TRUE(pt.contains(e.prefix)) << e.prefix.toString();
  }
}

TEST(Patricia, UsesFewerAccessesThanBitByBit) {
  Rng rng(12);
  const auto entries = testutil::randomTable4(rng, 2000);
  BT bt;
  PT pt;
  for (const auto& e : entries) {
    bt.insert(e.prefix, e.next_hop);
    pt.insert(e.prefix, e.next_hop);
  }
  mem::AccessCounter bit_acc;
  mem::AccessCounter pat_acc;
  for (int i = 0; i < 300; ++i) {
    const auto dest = testutil::coveredAddress<ip::Ip4Addr>(
        entries, rng, testutil::randomAddr4);
    bt.lookup(dest, bit_acc);
    pt.lookup(dest, pat_acc);
  }
  EXPECT_LT(pat_acc.total(), bit_acc.total());
}

TEST(Patricia, DescendAnchorFindsSubtreeHead) {
  const PT t = makePatricia({{"10.1.2.0/24", 3}, {"10.1.3.0/24", 4}});
  // The clue 10.0.0.0/8 sits mid-edge; the anchor is the fork 10.1.2/23-ish
  // vertex (the shallowest node extending the clue).
  const auto* anchor = t.descendAnchor(p4("10.0.0.0/8"));
  ASSERT_NE(anchor, nullptr);
  EXPECT_TRUE(p4("10.0.0.0/8").isPrefixOf(anchor->prefix));
  // No prefix extends 11/8.
  EXPECT_EQ(t.descendAnchor(p4("11.0.0.0/8")), nullptr);
  // Exact node.
  const auto* exact = t.descendAnchor(p4("10.1.2.0/24"));
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->prefix, p4("10.1.2.0/24"));
}

TEST(Patricia, LookupBelowRequiresStrictExtension) {
  const PT t = makePatricia({{"10.0.0.0/8", 1}, {"10.1.0.0/16", 2}});
  mem::AccessCounter acc;
  const auto* anchor = t.descendAnchor(p4("10.0.0.0/8"));
  ASSERT_NE(anchor, nullptr);
  const auto hit =
      t.lookupBelow(anchor, 8, a4("10.1.5.5"), std::nullopt,
                    acc);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->next_hop, 2u);
  // Address outside /16: only the clue-level match exists, which does not
  // count as "strictly longer".
  const auto miss =
      t.lookupBelow(anchor, 8, a4("10.2.5.5"), std::nullopt,
                    acc);
  EXPECT_FALSE(miss.has_value());
}

TEST(Patricia, LookupBelowMidEdgeAnchorVerifiesSkippedBits) {
  const PT t = makePatricia({{"10.1.2.0/24", 3}});
  mem::AccessCounter acc;
  const auto* anchor = t.descendAnchor(p4("10.0.0.0/8"));
  ASSERT_NE(anchor, nullptr);
  // Destination matches the clue but not the skipped bits of the anchor.
  const auto miss = t.lookupBelow(anchor, 8, a4("10.7.7.7"),
                                  std::nullopt, acc);
  EXPECT_FALSE(miss.has_value());
  EXPECT_EQ(acc.total(), 1u);  // exactly the anchor visit
}

TEST(Patricia, AnnotatedContinueBitsPruneWalks) {
  BT t1;
  t1.insert(p4("10.1.0.0/16"), 1);
  BT control;  // receiver's control-plane binary trie
  PT data;
  for (const auto& [text, nh] :
       std::initializer_list<std::pair<const char*, NextHop>>{
           {"10.0.0.0/8", 1}, {"10.1.0.0/16", 2}, {"10.1.2.0/24", 3}}) {
    control.insert(p4(text), nh);
    data.insert(p4(text), nh);
  }
  control.computeContinueBits(2, t1);
  data.annotateContinueBits(2, control);
  const auto* anchor = data.descendAnchor(p4("10.0.0.0/8"));
  ASSERT_NE(anchor, nullptr);
  // All deeper t2 prefixes are behind t1's /16: claim 1 holds below the /8.
  EXPECT_FALSE(PT::continueBit(anchor, 2));
}

// annotateContinueBits descends the binary trie alongside the Patricia
// walk; every node must end with the bit of the vertex findVertex names
// for its prefix. Annotating index 1 a second time, against another
// neighbor, must overwrite every node's bit and leave index 0's alone.
template <typename A, typename Gen>
void expectAnnotationMatchesFindVertex(Gen gen, std::uint64_t seed) {
  Rng rng(seed);
  const auto entries = gen(rng, 400);
  BinaryTrie<A> control;
  PatriciaTrie<A> data;
  for (const auto& e : entries) {
    control.insert(e.prefix, e.next_hop);
    data.insert(e.prefix, e.next_hop);
  }
  std::vector<BinaryTrie<A>> neighbors(3);
  for (auto& n : neighbors) {
    for (const auto& e : testutil::neighborOf(entries, rng)) {
      n.insert(e.prefix, e.next_hop);
    }
  }
  const auto check = [&](NeighborIndex j) {
    std::size_t nodes = 0;
    std::size_t set = 0;
    data.forEachNode([&](const typename PatriciaTrie<A>::Node& n) {
      const auto* v = control.findVertex(n.prefix);
      ASSERT_NE(v, nullptr) << n.prefix.toString();
      EXPECT_EQ(PatriciaTrie<A>::continueBit(&n, j),
                BinaryTrie<A>::continueBit(v, j))
          << "neighbor " << j << " node " << n.prefix.toString();
      ++nodes;
      set += PatriciaTrie<A>::continueBit(&n, j) ? 1 : 0;
    });
    EXPECT_EQ(nodes, data.nodeCount());
    EXPECT_GT(set, 0u) << "neighbor " << j << ": no node may continue";
    EXPECT_LT(set, nodes) << "neighbor " << j << ": every node continues";
  };
  for (NeighborIndex j = 0; j < 2; ++j) {
    control.computeContinueBits(j, neighbors[j]);
    data.annotateContinueBits(j, control);
  }
  check(0);
  check(1);
  control.computeContinueBits(1, neighbors[2]);
  data.annotateContinueBits(1, control);
  check(0);
  check(1);
}

TEST(Patricia, AnnotatedContinueBitsMatchBinaryVertices) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expectAnnotationMatchesFindVertex<ip::Ip4Addr>(testutil::randomTable4,
                                                   seed);
    expectAnnotationMatchesFindVertex<ip::Ip6Addr>(testutil::randomTable6,
                                                   seed);
  }
}

TEST(Patricia, RandomizedLookupBelowAgainstBruteForce) {
  Rng rng(77);
  const auto entries = testutil::randomTable4(rng, 300);
  PT t;
  for (const auto& e : entries) t.insert(e.prefix, e.next_hop);
  mem::AccessCounter acc;
  for (int i = 0; i < 400; ++i) {
    const auto dest = testutil::coveredAddress<ip::Ip4Addr>(
        entries, rng, testutil::randomAddr4);
    const auto bmp = check::bruteForceBmp(entries, dest);
    if (!bmp) continue;
    const int cut = static_cast<int>(
        rng.uniform(0, static_cast<std::uint64_t>(bmp->prefix.length())));
    const auto clue = bmp->prefix.truncated(cut);
    const auto* anchor = t.descendAnchor(clue);
    if (anchor == nullptr) {
      // No table prefix extends the clue; so the BMP cannot either.
      EXPECT_LE(bmp->prefix.length(), cut);
      continue;
    }
    const auto below =
        t.lookupBelow(anchor, clue.length(), dest, std::nullopt, acc);
    if (bmp->prefix.length() > cut) {
      ASSERT_TRUE(below.has_value());
      EXPECT_EQ(below->prefix, bmp->prefix);
    } else {
      EXPECT_FALSE(below.has_value());
    }
  }
}

}  // namespace
}  // namespace cluert::trie
