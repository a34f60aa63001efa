// Focused coverage of corners not exercised elsewhere: LogW continuation
// windows, IPv6 segment tables, Regular-method bitmap tables, CluePort
// statistics, and network failure paths.
#include <gtest/gtest.h>

#include "core/multi_neighbor.h"
#include "net/network.h"
#include "test_util.h"

namespace cluert {
namespace {

using testutil::a4;
using testutil::p4;
using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;

// ---------------------------------------------------------------------------
// LogW continuation windows
// ---------------------------------------------------------------------------

TEST(LogWWindows, EmptyCandidateWindowReturnsNothing) {
  Rng rng(1);
  const auto table = testutil::randomTable4(rng, 100);
  lookup::LookupSuite<A> suite(table);
  const auto& logw = suite.engine(lookup::Method::kLogW);
  // A clue at full length: no candidates possible.
  const auto cont = logw.makeContinuation(p4("1.2.3.4/32"), {}, nullptr);
  mem::AccessCounter acc;
  EXPECT_FALSE(logw.continueLookup(cont, 32, a4("1.2.3.4"), std::nullopt, acc)
                   .has_value());
  EXPECT_EQ(acc.total(), 0u);  // decided from the entry alone
}

TEST(LogWWindows, OneLengthWindowNeedsOneProbe) {
  lookup::LookupSuite<A> suite(
      {MatchT{p4("10.0.0.0/8"), 1}, MatchT{p4("10.1.0.0/16"), 2}});
  const auto& logw = suite.engine(lookup::Method::kLogW);
  const std::vector<MatchT> cands{MatchT{p4("10.1.0.0/16"), 2}};
  const auto cont = logw.makeContinuation(p4("10.0.0.0/8"), cands, nullptr);
  mem::AccessCounter acc;
  const auto hit = logw.continueLookup(cont, 8, a4("10.1.5.5"), std::nullopt,
                                       acc);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->next_hop, 2u);
  // The full-marker scheme keeps a level per *vertex depth*, so the (8, 16]
  // window holds 8 levels: a binary search of at most ceil(log2(9)) probes.
  EXPECT_GE(acc.count(mem::Region::kLengthHash), 1u);
  EXPECT_LE(acc.count(mem::Region::kLengthHash), 4u);
}

TEST(LogWWindows, DeepVertexWithShallowBmpFallsBack) {
  // A vertex exists deep on the path, but its best match is at the clue
  // level: the continuation must not invent a longer match.
  lookup::LookupSuite<A> suite({MatchT{p4("10.0.0.0/8"), 1},
                                MatchT{p4("10.1.2.0/24"), 2}});
  const auto& logw = suite.engine(lookup::Method::kLogW);
  const std::vector<MatchT> cands{MatchT{p4("10.1.2.0/24"), 2}};
  const auto cont = logw.makeContinuation(p4("10.0.0.0/8"), cands, nullptr);
  mem::AccessCounter acc;
  // 10.1.9.9 shares the /16 vertex with 10.1.2/24 but never reaches it.
  EXPECT_FALSE(logw.continueLookup(cont, 8, a4("10.1.9.9"), std::nullopt, acc)
                   .has_value());
}

// ---------------------------------------------------------------------------
// IPv6 segment tables
// ---------------------------------------------------------------------------

TEST(SegmentTable6, BuildAndLookupAtFullWidth) {
  using A6 = ip::Ip6Addr;
  std::vector<trie::Match<A6>> entries{
      {*ip::Prefix6::parse("2001:db8::/32"), 1},
      {*ip::Prefix6::parse("2001:db8:1::/48"), 2},
  };
  const auto t = lookup::SegmentTable<A6>::build(entries, A6{});
  mem::AccessCounter acc;
  const auto r = mem::Region::kIntervalNode;
  EXPECT_EQ(t.lookup(*A6::parse("2001:db8:1::42"), 2, r, acc)->next_hop, 2u);
  EXPECT_EQ(t.lookup(*A6::parse("2001:db8:2::42"), 2, r, acc)->next_hop, 1u);
  EXPECT_FALSE(t.lookup(*A6::parse("2001:db9::1"), 2, r, acc).has_value());
  // The very top of the space is uncovered.
  EXPECT_FALSE(t.lookup(ip::Ip6Addr(~0ULL, ~0ULL), 2, r, acc).has_value());
}

// ---------------------------------------------------------------------------
// Bitmap table with the Regular (binary-trie) method
// ---------------------------------------------------------------------------

TEST(BitmapClueTableRegular, WorksWithBinaryTrieWalks) {
  Rng rng(7);
  const auto receiver = testutil::randomTable4(rng, 150);
  const auto sender = testutil::neighborOf(receiver, rng, 0.8, 20, 0.5);
  trie::BinaryTrie<A> t1;
  for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
  lookup::LookupSuite<A> suite(receiver);
  core::BitmapClueTable<A>::Options opt;
  opt.method = lookup::Method::kRegular;
  opt.expected_clues = 2048;
  core::BitmapClueTable<A> table(suite, opt);
  std::vector<ip::Prefix4> clues;
  for (const auto& e : sender) clues.push_back(e.prefix);
  table.addNeighbor(0, t1, clues);
  mem::AccessCounter scratch;
  for (int i = 0; i < 300; ++i) {
    const auto dest = testutil::coveredAddress<A>(sender, rng,
                                                  testutil::randomAddr4);
    const auto bmp = t1.lookup(dest, scratch);
    if (!bmp) continue;
    mem::AccessCounter acc;
    const auto got = table.process(dest, bmp->prefix, 0, acc);
    const auto expect = check::bruteForceBmp(receiver, dest);
    ASSERT_EQ(expect.has_value(), got.has_value());
    if (expect) EXPECT_EQ(expect->prefix, got->prefix);
  }
}

// ---------------------------------------------------------------------------
// CluePort statistics
// ---------------------------------------------------------------------------

TEST(CluePortStats, AllCountersMoveAndReset) {
  trie::BinaryTrie<A> t1;
  t1.insert(p4("10.0.0.0/8"), 1);
  lookup::LookupSuite<A> suite(
      {MatchT{p4("10.0.0.0/8"), 2}, MatchT{p4("10.1.0.0/16"), 3}});
  typename core::CluePort<A>::Options opt;
  opt.method = lookup::Method::kPatricia;
  opt.mode = lookup::ClueMode::kAdvance;
  core::CluePort<A> port(suite, &t1, opt);
  mem::AccessCounter acc;
  port.process(a4("10.1.2.3"), core::ClueField::none(), acc);   // no clue
  port.process(a4("10.1.2.3"), core::ClueField::of(8), acc);    // miss+learn
  port.process(a4("10.1.2.3"), core::ClueField::of(8), acc);    // search hit
  port.process(a4("10.200.1.1"), core::ClueField::of(8), acc);  // fail -> FD
  const auto& s = port.stats();
  EXPECT_EQ(s.packets, 4u);
  EXPECT_EQ(s.no_clue, 1u);
  EXPECT_EQ(s.table_misses, 1u);
  EXPECT_EQ(s.table_hits, 2u);
  EXPECT_EQ(s.searched, 2u);
  EXPECT_EQ(s.search_failed, 1u);
  port.resetStats();
  EXPECT_EQ(port.stats().packets, 0u);
}

// ---------------------------------------------------------------------------
// Network failure paths
// ---------------------------------------------------------------------------

TEST(NetworkFailure, NoRouteStopsForwarding) {
  net::Network4 net;
  net::Router4::Config cfg;
  net.addRouter(0, rib::Fib4({{p4("10.0.0.0/8"), 1}}), cfg);
  net.addRouter(1, rib::Fib4(), cfg);  // empty FIB: black hole
  net.link(0, 1);
  const auto r = net.send(a4("10.1.2.3"), 0);
  EXPECT_FALSE(r.delivered);
  ASSERT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.trace[1].bmp_length, -1);  // no match at the black hole
}

TEST(NetworkFailure, NextHopOutsideTheNetworkStops) {
  net::Network4 net;
  net::Router4::Config cfg;
  net.addRouter(0, rib::Fib4({{p4("10.0.0.0/8"), 99}}), cfg);  // bogus hop
  const auto r = net.send(a4("10.1.2.3"), 0);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.trace.size(), 1u);
}

// ---------------------------------------------------------------------------
// Two more trie corners
// ---------------------------------------------------------------------------

TEST(TrieCorners, PatriciaOverwriteKeepsCount) {
  trie::PatriciaTrie4 t;
  t.insert(p4("10.0.0.0/8"), 1);
  t.insert(p4("10.0.0.0/8"), 2);
  EXPECT_EQ(t.prefixCount(), 1u);
  mem::AccessCounter acc;
  EXPECT_EQ(t.lookup(a4("10.1.1.1"), acc)->next_hop, 2u);
}

TEST(TrieCorners, BinaryTrieRootDefaultRouteEraseAndRelookup) {
  trie::BinaryTrie4 t;
  t.insert(ip::Prefix4(), 7);
  mem::AccessCounter acc;
  EXPECT_EQ(t.lookup(a4("1.2.3.4"), acc)->next_hop, 7u);
  EXPECT_TRUE(t.erase(ip::Prefix4()));
  EXPECT_FALSE(t.lookup(a4("1.2.3.4"), acc).has_value());
  EXPECT_TRUE(t.empty());
}

}  // namespace
}  // namespace cluert
