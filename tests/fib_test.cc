#include <gtest/gtest.h>

#include "rib/fib.h"
#include "test_util.h"

namespace cluert::rib {
namespace {

using testutil::p4;
using Entry = Fib4::EntryT;

TEST(Fib, AddAndContains) {
  Fib4 fib;
  fib.add(p4("10.0.0.0/8"), 1);
  EXPECT_TRUE(fib.contains(p4("10.0.0.0/8")));
  EXPECT_FALSE(fib.contains(p4("11.0.0.0/8")));
  EXPECT_EQ(fib.size(), 1u);
}

TEST(Fib, AddReplacesNextHop) {
  Fib4 fib;
  fib.add(p4("10.0.0.0/8"), 1);
  fib.add(p4("10.0.0.0/8"), 5);
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib.entries()[0].next_hop, 5u);
}

TEST(Fib, ConstructorNormalizesDuplicatesLastWins) {
  Fib4 fib({Entry{p4("10.0.0.0/8"), 1}, Entry{p4("10.0.0.0/8"), 9},
            Entry{p4("9.0.0.0/8"), 2}});
  EXPECT_EQ(fib.size(), 2u);
  EXPECT_EQ(fib.entries()[1].prefix, p4("10.0.0.0/8"));
  EXPECT_EQ(fib.entries()[1].next_hop, 9u);
}

TEST(Fib, EntriesAreCanonicallyOrdered) {
  Fib4 fib({Entry{p4("10.0.0.0/16"), 1}, Entry{p4("9.0.0.0/8"), 2},
            Entry{p4("10.0.0.0/8"), 3}});
  ASSERT_EQ(fib.size(), 3u);
  EXPECT_EQ(fib.entries()[0].prefix, p4("9.0.0.0/8"));
  EXPECT_EQ(fib.entries()[1].prefix, p4("10.0.0.0/8"));
  EXPECT_EQ(fib.entries()[2].prefix, p4("10.0.0.0/16"));
}

TEST(Fib, BuildTrieRoundTrip) {
  Rng rng(21);
  const auto entries = testutil::randomTable4(rng, 200);
  Fib4 fib{std::vector<Entry>(entries)};
  const auto trie = fib.buildTrie();
  EXPECT_EQ(trie.prefixCount(), fib.size());
  for (const auto& e : fib.entries()) {
    EXPECT_EQ(trie.nextHopOf(e.prefix), e.next_hop);
  }
}

TEST(Fib, PrefixesListsAll) {
  Fib4 fib({Entry{p4("10.0.0.0/8"), 1}, Entry{p4("11.0.0.0/8"), 2}});
  const auto ps = fib.prefixes();
  EXPECT_EQ(ps.size(), 2u);
}

TEST(Fib, IntersectionSizeCountsSharedPrefixes) {
  Fib4 a({Entry{p4("10.0.0.0/8"), 1}, Entry{p4("11.0.0.0/8"), 1},
          Entry{p4("12.0.0.0/8"), 1}});
  Fib4 b({Entry{p4("11.0.0.0/8"), 7}, Entry{p4("12.0.0.0/8"), 7},
          Entry{p4("13.0.0.0/8"), 7}});
  // Next hops differ; only the prefix identity counts (Table 3 semantics).
  EXPECT_EQ(a.intersectionSize(b), 2u);
  EXPECT_EQ(b.intersectionSize(a), 2u);
  EXPECT_EQ(a.intersectionSize(a), 3u);
}

TEST(Fib, SerializeParseRoundTrip) {
  Rng rng(22);
  const auto entries = testutil::randomTable4(rng, 150);
  Fib4 fib{std::vector<Entry>(entries)};
  const auto text = fib.serialize();
  const auto parsed = Fib4::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), fib.size());
  for (std::size_t i = 0; i < fib.size(); ++i) {
    EXPECT_EQ(parsed->entries()[i].prefix, fib.entries()[i].prefix);
    EXPECT_EQ(parsed->entries()[i].next_hop, fib.entries()[i].next_hop);
  }
}

TEST(Fib, ParseRejectsGarbage) {
  EXPECT_FALSE(Fib4::parse("not a prefix 1\n").has_value());
  EXPECT_FALSE(Fib4::parse("10.0.0.0/8\n").has_value());       // no next hop
  EXPECT_FALSE(Fib4::parse("10.0.0.0/8 abc\n").has_value());   // bad next hop
  EXPECT_FALSE(Fib4::parse("10.0.0.0/8 \n").has_value());      // empty next hop
  EXPECT_FALSE(Fib4::parse("10.0.0.0/8 -1\n").has_value());    // a sign
  // kNoNextHop means "no route", and nothing past it may wrap.
  EXPECT_FALSE(Fib4::parse("10.0.0.0/8 4294967295\n").has_value());
  EXPECT_FALSE(Fib4::parse("10.0.0.0/8 4294967296\n").has_value());
  EXPECT_FALSE(Fib4::parse("10.0.0.0/8 4294967301\n").has_value());
  const auto top = Fib4::parse("10.0.0.0/8 4294967294\n");
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->entries()[0].next_hop, kNoNextHop - 1);
  EXPECT_TRUE(Fib4::parse("").has_value());                    // empty is ok
  EXPECT_TRUE(Fib4::parse("10.0.0.0/8 3\n\n").has_value());    // blank lines
}

}  // namespace
}  // namespace cluert::rib
