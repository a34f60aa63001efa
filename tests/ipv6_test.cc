// IPv6 (W = 128) instantiations of the core machinery — the paper argues the
// scheme "is expected to give similar performances in IPv6 while the Log W
// technique does not scale as good" (§6).
#include <gtest/gtest.h>

#include "core/distributed_lookup.h"
#include "test_util.h"

namespace cluert {
namespace {

using A6 = ip::Ip6Addr;
using MatchT = trie::Match<A6>;
using P6 = ip::Prefix6;

P6 p6(const char* text) {
  const auto p = P6::parse(text);
  if (!p) throw std::runtime_error("bad prefix");
  return *p;
}

TEST(Ipv6Trie, LongestMatch) {
  trie::BinaryTrie<A6> t;
  t.insert(p6("2001:db8::/32"), 1);
  t.insert(p6("2001:db8:1::/48"), 2);
  mem::AccessCounter acc;
  EXPECT_EQ(t.lookup(*A6::parse("2001:db8:1::42"), acc)->next_hop, 2u);
  EXPECT_EQ(t.lookup(*A6::parse("2001:db8:2::42"), acc)->next_hop, 1u);
  EXPECT_FALSE(t.lookup(*A6::parse("2001:db9::1"), acc).has_value());
}

TEST(Ipv6Engines, AllMethodsAgreeWithBruteForce) {
  Rng rng(70);
  const auto table = testutil::randomTable6(rng, 300);
  lookup::LookupSuite<A6> suite(table);
  mem::AccessCounter acc;
  for (int i = 0; i < 300; ++i) {
    const auto dest =
        testutil::coveredAddress<A6>(table, rng, testutil::randomAddr6);
    const auto expect = check::bruteForceBmp(table, dest);
    for (const auto m : lookup::kAllMethods) {
      const auto got = suite.engine(m).lookup(dest, acc);
      ASSERT_EQ(expect.has_value(), got.has_value())
          << lookup::methodName(m);
      if (expect) EXPECT_EQ(expect->prefix, got->prefix);
    }
  }
}

TEST(Ipv6Clue, SevenHeaderBitsSuffice) {
  EXPECT_EQ(core::clueHeaderBits(A6::kBits), 7);
}

TEST(Ipv6Clue, AdvanceFdPathIsOneAccess) {
  // The same near-one-access behaviour carries over to 128-bit addresses.
  const std::vector<MatchT> sender{{p6("2001:db8::/32"), 1}};
  const std::vector<MatchT> receiver{{p6("2001:db8::/32"), 2}};
  trie::BinaryTrie<A6> t1;
  for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
  lookup::LookupSuite<A6> suite(receiver);
  typename core::CluePort<A6>::Options opt;
  opt.method = lookup::Method::kPatricia;
  opt.mode = lookup::ClueMode::kAdvance;
  core::CluePort<A6> port(suite, &t1, opt);
  const std::vector<P6> clues{p6("2001:db8::/32")};
  port.precompute(clues);
  mem::AccessCounter acc;
  const auto r = port.process(*A6::parse("2001:db8::42"),
                              core::ClueField::of(32), acc);
  ASSERT_TRUE(r.match.has_value());
  EXPECT_EQ(r.match->next_hop, 2u);
  EXPECT_EQ(acc.total(), 1u);
}

TEST(Ipv6Scaling, RegularWalksGrowWithWidthButClueDoesNot) {
  // The paper's scaling argument: bit-by-bit walks cost O(W); the clue path
  // stays ~1 regardless of W.
  Rng rng(71);
  const auto sender = testutil::randomTable6(rng, 400);
  const auto receiver = testutil::neighborOf(sender, rng, 0.85, 30, 0.4);
  trie::BinaryTrie<A6> t1;
  for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
  lookup::LookupSuite<A6> suite(receiver);
  typename core::CluePort<A6>::Options opt;
  opt.method = lookup::Method::kRegular;
  opt.mode = lookup::ClueMode::kAdvance;
  core::CluePort<A6> port(suite, &t1, opt);

  mem::AccessCounter scratch;
  std::vector<std::pair<A6, core::ClueField>> flow;
  for (int i = 0; i < 200; ++i) {
    const auto dest =
        testutil::coveredAddress<A6>(sender, rng, testutil::randomAddr6);
    const auto bmp = t1.lookup(dest, scratch);
    if (!bmp) continue;
    flow.emplace_back(dest, core::ClueField::of(bmp->prefix.length()));
  }
  for (const auto& [dest, field] : flow) port.process(dest, field, scratch);

  mem::AccessCounter clue_acc, common_acc;
  for (const auto& [dest, field] : flow) {
    port.process(dest, field, clue_acc);
    suite.engine(lookup::Method::kRegular).lookup(dest, common_acc);
  }
  const double clue_avg = static_cast<double>(clue_acc.total()) /
                          static_cast<double>(flow.size());
  const double common_avg = static_cast<double>(common_acc.total()) /
                            static_cast<double>(flow.size());
  EXPECT_GT(common_avg, 20.0);  // O(W) walks: deep 128-bit paths
  EXPECT_LT(clue_avg, 3.0);     // near the 1-access floor
}

}  // namespace
}  // namespace cluert
