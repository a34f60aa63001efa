#include <gtest/gtest.h>

#include "lookup/segment_table.h"
#include "test_util.h"

namespace cluert::lookup {
namespace {

using testutil::a4;
using testutil::p4;
using ST = SegmentTable<ip::Ip4Addr>;
using MatchT = trie::Match<ip::Ip4Addr>;

std::vector<MatchT> entries(
    std::initializer_list<std::pair<const char*, NextHop>> es) {
  std::vector<MatchT> out;
  for (const auto& [text, nh] : es) out.push_back({p4(text), nh});
  return out;
}

TEST(SegmentTable, EmptyTableNeverMatches) {
  const ST t = ST::build({}, ip::Ip4Addr(0));
  mem::AccessCounter acc;
  EXPECT_FALSE(t.lookup(a4("1.2.3.4"), 2, mem::Region::kIntervalNode, acc)
                   .has_value());
}

TEST(SegmentTable, SinglePrefixBoundaries) {
  const ST t = ST::build(entries({{"10.0.0.0/8", 1}}), ip::Ip4Addr(0));
  mem::AccessCounter acc;
  const auto r = mem::Region::kIntervalNode;
  EXPECT_FALSE(t.lookup(a4("9.255.255.255"), 2, r, acc).has_value());
  EXPECT_EQ(t.lookup(a4("10.0.0.0"), 2, r, acc)->next_hop, 1u);
  EXPECT_EQ(t.lookup(a4("10.255.255.255"), 2, r, acc)->next_hop, 1u);
  EXPECT_FALSE(t.lookup(a4("11.0.0.0"), 2, r, acc).has_value());
}

TEST(SegmentTable, NestedPrefixesInnerWins) {
  const ST t = ST::build(
      entries({{"10.0.0.0/8", 1}, {"10.1.0.0/16", 2}, {"10.1.2.0/24", 3}}),
      ip::Ip4Addr(0));
  mem::AccessCounter acc;
  const auto r = mem::Region::kIntervalNode;
  EXPECT_EQ(t.lookup(a4("10.1.2.3"), 2, r, acc)->next_hop, 3u);
  EXPECT_EQ(t.lookup(a4("10.1.3.0"), 2, r, acc)->next_hop, 2u);
  EXPECT_EQ(t.lookup(a4("10.2.0.0"), 2, r, acc)->next_hop, 1u);
  // Just past the inner range: falls back to the enclosing prefix.
  EXPECT_EQ(t.lookup(a4("10.1.2.255"), 2, r, acc)->next_hop, 3u);
}

TEST(SegmentTable, DefaultRouteCoversEverything) {
  const ST t = ST::build(entries({{"0.0.0.0/0", 9}, {"10.0.0.0/8", 1}}),
                         ip::Ip4Addr(0));
  mem::AccessCounter acc;
  const auto r = mem::Region::kIntervalNode;
  EXPECT_EQ(t.lookup(a4("0.0.0.0"), 2, r, acc)->next_hop, 9u);
  EXPECT_EQ(t.lookup(a4("255.255.255.255"), 2, r, acc)->next_hop, 9u);
  EXPECT_EQ(t.lookup(a4("10.5.5.5"), 2, r, acc)->next_hop, 1u);
}

TEST(SegmentTable, PrefixEndingAtAddressSpaceTop) {
  const ST t =
      ST::build(entries({{"255.255.255.0/24", 4}}), ip::Ip4Addr(0));
  mem::AccessCounter acc;
  EXPECT_EQ(t.lookup(a4("255.255.255.255"), 2, mem::Region::kIntervalNode,
                     acc)
                ->next_hop,
            4u);
}

TEST(SegmentTable, DuplicatePrefixesCollapse) {
  auto es = entries({{"10.0.0.0/8", 1}, {"10.0.0.0/8", 7}});
  const ST t = ST::build(std::move(es), ip::Ip4Addr(0));
  mem::AccessCounter acc;
  const auto m =
      t.lookup(a4("10.1.1.1"), 2, mem::Region::kIntervalNode, acc);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->prefix, p4("10.0.0.0/8"));
}

TEST(SegmentTable, BinaryAccessCountIsLogarithmic) {
  Rng rng(3);
  const auto table = testutil::randomTable4(rng, 1000);
  const ST t = ST::build({table.begin(), table.end()}, ip::Ip4Addr(0));
  const std::size_t m = t.segmentCount();
  const double log2m = std::log2(static_cast<double>(m));
  for (int i = 0; i < 200; ++i) {
    mem::AccessCounter acc;
    t.lookup(testutil::randomAddr4(rng), 2, mem::Region::kIntervalNode, acc);
    EXPECT_LE(acc.total(), static_cast<std::uint64_t>(log2m) + 2);
    EXPECT_GE(acc.total(), 1u);
  }
}

TEST(SegmentTable, MultiwayNeedsFewerProbesThanBinary) {
  Rng rng(4);
  const auto table = testutil::randomTable4(rng, 3000);
  const ST t = ST::build({table.begin(), table.end()}, ip::Ip4Addr(0));
  mem::AccessCounter bin;
  mem::AccessCounter six;
  for (int i = 0; i < 300; ++i) {
    const auto dest = testutil::randomAddr4(rng);
    t.lookup(dest, 2, mem::Region::kIntervalNode, bin);
    t.lookup(dest, 6, mem::Region::kIntervalNode, six);
  }
  EXPECT_LT(six.total(), bin.total());
}

TEST(SegmentTable, FanoutsAgreeWithEachOtherAndBruteForce) {
  Rng rng(8);
  const auto table = testutil::randomTable4(rng, 500);
  const ST t = ST::build({table.begin(), table.end()}, ip::Ip4Addr(0));
  mem::AccessCounter acc;
  for (int i = 0; i < 500; ++i) {
    const auto dest = testutil::coveredAddress<ip::Ip4Addr>(
        table, rng, testutil::randomAddr4);
    const auto expect = check::bruteForceBmp(table, dest);
    for (unsigned fanout : {2u, 4u, 6u, 16u}) {
      const auto got = t.lookup(dest, fanout, mem::Region::kIntervalNode, acc);
      ASSERT_EQ(expect.has_value(), got.has_value()) << "fanout " << fanout;
      if (expect) EXPECT_EQ(expect->prefix, got->prefix);
    }
    const auto scanned = t.scan(dest);
    ASSERT_EQ(expect.has_value(), scanned.has_value());
    if (expect) EXPECT_EQ(expect->prefix, scanned->prefix);
  }
}

TEST(SegmentTable, FloorLimitsCoverage) {
  // Candidate-table use case: coverage starts at the clue's range start.
  const auto clue = p4("10.1.0.0/16");
  const ST t = ST::build(entries({{"10.1.2.0/24", 3}}), clue.rangeLow());
  mem::AccessCounter acc;
  const auto r = mem::Region::kCandidateSet;
  EXPECT_FALSE(t.lookup(a4("10.0.255.255"), 2, r, acc).has_value());
  EXPECT_FALSE(t.lookup(a4("10.1.0.1"), 2, r, acc).has_value());
  EXPECT_EQ(t.lookup(a4("10.1.2.9"), 2, r, acc)->next_hop, 3u);
}

}  // namespace
}  // namespace cluert::lookup
