// The extended multibit (8-bit stride, leaf-pushed) trie engine.
#include <gtest/gtest.h>

#include "lookup/factory.h"
#include "test_util.h"

namespace cluert::lookup {
namespace {

using testutil::a4;
using testutil::p4;
using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;

StrideTrieLookup<A> makeEngine(const std::vector<MatchT>& entries,
                               trie::BinaryTrie<A>& trie) {
  for (const auto& e : entries) trie.insert(e.prefix, e.next_hop);
  return StrideTrieLookup<A>(trie);
}

TEST(StrideTrie, BasicLongestMatch) {
  trie::BinaryTrie<A> t;
  const auto engine = makeEngine({{p4("10.0.0.0/8"), 1},
                                  {p4("10.1.0.0/16"), 2},
                                  {p4("10.1.2.0/24"), 3}},
                                 t);
  mem::AccessCounter acc;
  EXPECT_EQ(engine.lookup(a4("10.1.2.9"), acc)->next_hop, 3u);
  EXPECT_EQ(engine.lookup(a4("10.1.9.9"), acc)->next_hop, 2u);
  EXPECT_EQ(engine.lookup(a4("10.9.9.9"), acc)->next_hop, 1u);
  EXPECT_FALSE(engine.lookup(a4("11.0.0.1"), acc).has_value());
}

TEST(StrideTrie, NonOctetAlignedPrefixesExpandCorrectly) {
  trie::BinaryTrie<A> t;
  const auto engine = makeEngine({{p4("10.0.0.0/10"), 1},   // covers 10.0-63
                                  {p4("10.64.0.0/11"), 2},  // covers 10.64-95
                                  {p4("10.32.0.0/13"), 3}}, // inside the /10
                                 t);
  mem::AccessCounter acc;
  EXPECT_EQ(engine.lookup(a4("10.5.0.1"), acc)->next_hop, 1u);
  EXPECT_EQ(engine.lookup(a4("10.70.0.1"), acc)->next_hop, 2u);
  EXPECT_EQ(engine.lookup(a4("10.33.0.1"), acc)->next_hop, 3u);
  EXPECT_FALSE(engine.lookup(a4("10.130.0.1"), acc).has_value());
}

TEST(StrideTrie, AtMostFourAccessesPerIpv4Lookup) {
  Rng rng(808);
  const auto table = testutil::randomTable4(rng, 3000);
  trie::BinaryTrie<A> t;
  const auto engine = makeEngine(table, t);
  for (int i = 0; i < 300; ++i) {
    const auto dest =
        testutil::coveredAddress<A>(table, rng, testutil::randomAddr4);
    mem::AccessCounter acc;
    engine.lookup(dest, acc);
    EXPECT_LE(acc.total(), 4u);
    EXPECT_GE(acc.total(), 1u);
  }
}

TEST(StrideTrie, MatchesBruteForceOnRandomTables) {
  Rng rng(809);
  for (int round = 0; round < 3; ++round) {
    const auto table = testutil::randomTable4(rng, 500);
    trie::BinaryTrie<A> t;
    const auto engine = makeEngine(table, t);
    mem::AccessCounter acc;
    for (int i = 0; i < 500; ++i) {
      const auto dest =
          testutil::coveredAddress<A>(table, rng, testutil::randomAddr4);
      const auto expect = check::bruteForceBmp(table, dest);
      const auto got = engine.lookup(dest, acc);
      ASSERT_EQ(expect.has_value(), got.has_value()) << dest.toString();
      if (expect) {
        EXPECT_EQ(expect->prefix, got->prefix);
        EXPECT_EQ(expect->next_hop, got->next_hop);
      }
    }
  }
}

TEST(StrideTrie, DefaultRouteCoversAllSlots) {
  trie::BinaryTrie<A> t;
  const auto engine = makeEngine({{ip::Prefix4(), 9}, {p4("10.0.0.0/8"), 1}},
                                 t);
  mem::AccessCounter acc;
  EXPECT_EQ(engine.lookup(a4("200.1.2.3"), acc)->next_hop, 9u);
  EXPECT_EQ(engine.lookup(a4("10.1.2.3"), acc)->next_hop, 1u);
}

TEST(StrideTrie, HostRoutesLiveAtTheDeepestLevel) {
  trie::BinaryTrie<A> t;
  const auto engine =
      makeEngine({{p4("1.2.3.4/32"), 1}, {p4("1.2.3.0/24"), 2}}, t);
  mem::AccessCounter acc;
  EXPECT_EQ(engine.lookup(a4("1.2.3.4"), acc)->next_hop, 1u);
  EXPECT_EQ(engine.lookup(a4("1.2.3.5"), acc)->next_hop, 2u);
  EXPECT_EQ(acc.total(), 8u);  // two lookups x 4 levels
}

TEST(StrideTrie, ContinuationStartsDeepAndIsCheaper) {
  trie::BinaryTrie<A> t;
  const auto engine = makeEngine({{p4("10.0.0.0/8"), 1},
                                  {p4("10.1.0.0/16"), 2},
                                  {p4("10.1.2.0/24"), 3},
                                  {p4("10.1.2.128/25"), 4}},
                                 t);
  // Clue /24: anchor sits at level 3; one access answers.
  const auto cont = engine.makeContinuation(p4("10.1.2.0/24"), {}, nullptr);
  mem::AccessCounter acc;
  const auto m = engine.continueLookup(cont, 24, a4("10.1.2.200"),
                                       std::nullopt, acc);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->next_hop, 4u);
  EXPECT_EQ(acc.total(), 1u);
  // No longer match for an address outside the /25.
  mem::AccessCounter acc2;
  EXPECT_FALSE(engine
                   .continueLookup(cont, 24, a4("10.1.2.5"), std::nullopt,
                                   acc2)
                   .has_value());
}

TEST(StrideTrie, Ipv6LookupWorks) {
  Rng rng(810);
  const auto table = testutil::randomTable6(rng, 300);
  trie::BinaryTrie<ip::Ip6Addr> t;
  for (const auto& e : table) t.insert(e.prefix, e.next_hop);
  const StrideTrieLookup<ip::Ip6Addr> engine(t);
  mem::AccessCounter acc;
  for (int i = 0; i < 200; ++i) {
    const auto dest =
        testutil::coveredAddress<ip::Ip6Addr>(table, rng,
                                              testutil::randomAddr6);
    const auto expect = check::bruteForceBmp(table, dest);
    const auto got = engine.lookup(dest, acc);
    ASSERT_EQ(expect.has_value(), got.has_value());
    if (expect) EXPECT_EQ(expect->prefix, got->prefix);
  }
}

TEST(StrideTrie, SuiteExposesItAsExtendedMethod) {
  Rng rng(811);
  const auto table = testutil::randomTable4(rng, 200);
  LookupSuite<A> suite(table);
  const auto& engine = suite.engine(Method::kStride);
  EXPECT_EQ(engine.method(), Method::kStride);
  EXPECT_EQ(methodName(Method::kStride), "Stride8");
  mem::AccessCounter acc;
  for (int i = 0; i < 100; ++i) {
    const auto dest =
        testutil::coveredAddress<A>(table, rng, testutil::randomAddr4);
    const auto expect = check::bruteForceBmp(table, dest);
    const auto got = engine.lookup(dest, acc);
    ASSERT_EQ(expect.has_value(), got.has_value());
    if (expect) EXPECT_EQ(expect->prefix, got->prefix);
  }
}

}  // namespace
}  // namespace cluert::lookup
