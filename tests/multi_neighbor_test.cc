#include <gtest/gtest.h>

#include "core/multi_neighbor.h"
#include "test_util.h"

namespace cluert::core {
namespace {

using testutil::p4;
using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;
using lookup::ClueMode;
using lookup::LookupSuite;
using lookup::Method;

struct MultiFixture {
  std::vector<MatchT> receiver;
  std::vector<std::vector<MatchT>> senders;
  std::vector<trie::BinaryTrie<A>> sender_tries;
  std::unique_ptr<LookupSuite<A>> suite;

  explicit MultiFixture(Rng& rng, std::size_t n, std::size_t num_senders) {
    receiver = testutil::randomTable4(rng, n);
    for (std::size_t j = 0; j < num_senders; ++j) {
      senders.push_back(
          testutil::neighborOf(receiver, rng, 0.8, n / 10 + 3, 0.5));
      trie::BinaryTrie<A> t;
      for (const auto& e : senders.back()) t.insert(e.prefix, e.next_hop);
      sender_tries.push_back(std::move(t));
    }
    suite = std::make_unique<LookupSuite<A>>(receiver);
  }

  std::vector<ip::Prefix4> cluesOf(std::size_t j) const {
    std::vector<ip::Prefix4> out;
    for (const auto& e : senders[j]) out.push_back(e.prefix);
    return out;
  }
};

TEST(BitmapClueTable, PerNeighborFinalityBits) {
  // Sender 0 knows the /16 (blocks the /24); sender 1 does not.
  trie::BinaryTrie<A> t1a;
  t1a.insert(p4("10.0.0.0/8"), 1);
  t1a.insert(p4("10.1.0.0/16"), 1);
  trie::BinaryTrie<A> t1b;
  t1b.insert(p4("10.0.0.0/8"), 1);
  LookupSuite<A> suite(
      {MatchT{p4("10.0.0.0/8"), 2}, MatchT{p4("10.1.2.0/24"), 3}});
  BitmapClueTable<A>::Options opt;
  opt.method = Method::kPatricia;
  BitmapClueTable<A> table(suite, opt);
  const std::vector<ip::Prefix4> clues{p4("10.0.0.0/8")};
  table.addNeighbor(0, t1a, clues);
  table.addNeighbor(1, t1b, clues);

  mem::AccessCounter acc0;
  const auto from0 =
      table.process(testutil::a4("10.200.0.1"), p4("10.0.0.0/8"), 0, acc0);
  ASSERT_TRUE(from0.has_value());
  EXPECT_EQ(from0->next_hop, 2u);
  EXPECT_EQ(acc0.total(), 1u);  // FD final for neighbor 0: one probe

  mem::AccessCounter acc1;
  const auto from1 =
      table.process(testutil::a4("10.1.2.9"), p4("10.0.0.0/8"), 1, acc1);
  ASSERT_TRUE(from1.has_value());
  EXPECT_EQ(from1->next_hop, 3u);  // neighbor 1 must search and finds /24
  EXPECT_GT(acc1.total(), 1u);
}

TEST(BitmapClueTable, MatchesPerPortResults) {
  Rng rng(42);
  MultiFixture fx(rng, 200, 3);
  BitmapClueTable<A>::Options opt;
  opt.method = Method::kPatricia;
  opt.expected_clues = 4096;
  BitmapClueTable<A> table(*fx.suite, opt);
  for (std::size_t j = 0; j < fx.senders.size(); ++j) {
    const auto clues = fx.cluesOf(j);
    table.addNeighbor(static_cast<NeighborIndex>(j), fx.sender_tries[j],
                      clues);
  }
  mem::AccessCounter scratch;
  for (int i = 0; i < 500; ++i) {
    const std::size_t j = rng.index(fx.senders.size());
    const auto dest = testutil::coveredAddress<A>(fx.senders[j], rng,
                                                  testutil::randomAddr4);
    const auto bmp = fx.sender_tries[j].lookup(dest, scratch);
    if (!bmp) continue;
    mem::AccessCounter acc;
    const auto got = table.process(dest, bmp->prefix,
                                   static_cast<NeighborIndex>(j), acc);
    const auto expect = check::bruteForceBmp(fx.receiver, dest);
    ASSERT_EQ(expect.has_value(), got.has_value());
    if (expect) EXPECT_EQ(expect->prefix, got->prefix);
  }
}

TEST(SubTableClueTable, CommonTableCollectsUnanimousClues) {
  Rng rng(43);
  MultiFixture fx(rng, 150, 2);
  SubTableClueTable<A>::Options opt;
  opt.method = Method::kPatricia;
  opt.mode = ClueMode::kAdvance;
  opt.expected_clues = 2048;
  SubTableClueTable<A> table(*fx.suite, opt);
  table.addNeighbor(0, fx.sender_tries[0], fx.cluesOf(0));
  table.addNeighbor(1, fx.sender_tries[1], fx.cluesOf(1));
  // Most clues are final for every sender (the paper's 95%+), so the common
  // table should hold the bulk of them.
  EXPECT_GT(table.commonSize(),
            (table.specificSize(0) + table.specificSize(1)));
}

TEST(SubTableClueTable, MatchesReceiverBmp) {
  Rng rng(44);
  MultiFixture fx(rng, 200, 2);
  SubTableClueTable<A>::Options opt;
  opt.method = Method::kPatricia;
  opt.mode = ClueMode::kAdvance;
  opt.expected_clues = 2048;
  SubTableClueTable<A> table(*fx.suite, opt);
  table.addNeighbor(0, fx.sender_tries[0], fx.cluesOf(0));
  table.addNeighbor(1, fx.sender_tries[1], fx.cluesOf(1));
  mem::AccessCounter scratch;
  for (int i = 0; i < 500; ++i) {
    const std::size_t j = rng.index(fx.senders.size());
    const auto dest = testutil::coveredAddress<A>(fx.senders[j], rng,
                                                  testutil::randomAddr4);
    const auto bmp = fx.sender_tries[j].lookup(dest, scratch);
    if (!bmp) continue;
    mem::AccessCounter acc;
    const auto got = table.process(dest, bmp->prefix,
                                   static_cast<NeighborIndex>(j), acc);
    const auto expect = check::bruteForceBmp(fx.receiver, dest);
    ASSERT_EQ(expect.has_value(), got.has_value());
    if (expect) EXPECT_EQ(expect->prefix, got->prefix);
    EXPECT_GE(acc.total(), 1u);
  }
}

TEST(SubTableClueTable, UnknownClueFallsBackToFullLookup) {
  Rng rng(45);
  MultiFixture fx(rng, 100, 1);
  SubTableClueTable<A>::Options opt;
  opt.method = Method::kPatricia;
  SubTableClueTable<A> table(*fx.suite, opt);
  table.addNeighbor(0, fx.sender_tries[0], fx.cluesOf(0));
  // A clue never registered (not any sender's prefix).
  const auto dest = testutil::coveredAddress<A>(fx.receiver, rng,
                                                testutil::randomAddr4);
  mem::AccessCounter acc;
  const auto got = table.process(dest, ip::Prefix4(dest, 32), 0, acc);
  const auto expect = check::bruteForceBmp(fx.receiver, dest);
  ASSERT_EQ(expect.has_value(), got.has_value());
  if (expect) EXPECT_EQ(expect->prefix, got->prefix);
}

}  // namespace
}  // namespace cluert::core
