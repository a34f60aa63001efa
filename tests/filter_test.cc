// §7 packet classification with clues.
#include <gtest/gtest.h>

#include "filter/clue_classifier.h"
#include "filter/rule_gen.h"
#include "test_util.h"

namespace cluert::filter {
namespace {

using testutil::a4;
using testutil::p4;
using A = ip::Ip4Addr;

FilterRule4 rule(RuleId id, const char* src, const char* dst,
                 Action action = 0) {
  FilterRule4 r;
  r.id = id;
  r.priority = static_cast<int>(id);
  r.src = testutil::p4(src);
  r.dst = testutil::p4(dst);
  r.action = action;
  return r;
}

TEST(FilterRule, MatchesBothDimensions) {
  const auto r = rule(1, "10.0.0.0/8", "192.168.0.0/16");
  EXPECT_TRUE(r.matches(a4("10.1.1.1"), a4("192.168.5.5")));
  EXPECT_FALSE(r.matches(a4("11.1.1.1"), a4("192.168.5.5")));
  EXPECT_FALSE(r.matches(a4("10.1.1.1"), a4("192.169.5.5")));
}

TEST(FilterRule, WildcardSourceMatchesAnySource) {
  const auto r = rule(1, "0.0.0.0/0", "192.168.0.0/16");
  EXPECT_TRUE(r.matches(a4("99.99.99.99"), a4("192.168.0.1")));
}

TEST(FilterRule, IntersectionIsNestingInBothDimensions) {
  const auto a = rule(1, "10.0.0.0/8", "192.168.0.0/16");
  const auto b = rule(2, "10.1.0.0/16", "192.168.7.0/24");  // nested in a
  const auto c = rule(3, "11.0.0.0/8", "192.168.7.0/24");   // src disjoint
  const auto d = rule(4, "10.1.0.0/16", "10.0.0.0/8");      // dst disjoint
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(b.intersects(a));
  EXPECT_TRUE(a.intersects(a));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_FALSE(a.intersects(d));
}

TEST(LinearClassifier, HighestPriorityWins) {
  LinearClassifier<A> c({rule(1, "0.0.0.0/0", "10.0.0.0/8", 100),
                         rule(2, "0.0.0.0/0", "10.1.0.0/16", 200)});
  mem::AccessCounter acc;
  const auto r = c.classify(a4("1.1.1.1"), a4("10.1.2.3"), acc);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->id, 2u);  // priority 2 > 1
  const auto r2 = c.classify(a4("1.1.1.1"), a4("10.9.9.9"), acc);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->id, 1u);
  EXPECT_FALSE(c.classify(a4("1.1.1.1"), a4("11.0.0.1"), acc).has_value());
}

TEST(HierarchicalClassifier, AgreesWithLinearOnRandomRules) {
  Rng rng(31);
  const auto rules = generateRules(rng, 400);
  LinearClassifier<A> lin(rules);
  HierarchicalClassifier<A> hier(rules);
  mem::AccessCounter acc;
  for (int i = 0; i < 600; ++i) {
    const auto [src, dst] = randomHeader(rules, rng);
    const auto a = lin.classify(src, dst, acc);
    const auto b = hier.classify(src, dst, acc);
    ASSERT_EQ(a.has_value(), b.has_value())
        << src.toString() << " -> " << dst.toString();
    if (a) EXPECT_EQ(a->id, b->id);
  }
}

TEST(HierarchicalClassifier, UsesFewerAccessesThanLinear) {
  Rng rng(32);
  const auto rules = generateRules(rng, 2000);
  LinearClassifier<A> lin(rules);
  HierarchicalClassifier<A> hier(rules);
  mem::AccessCounter lin_acc, hier_acc;
  for (int i = 0; i < 200; ++i) {
    const auto [src, dst] = randomHeader(rules, rng);
    lin.classify(src, dst, lin_acc);
    hier.classify(src, dst, hier_acc);
  }
  EXPECT_LT(hier_acc.total(), lin_acc.total());
}

TEST(ClueClassifier, SharedHigherPriorityRulesAreDiscarded) {
  // F = rule 1. Rule 5 is shared and has higher priority: had the packet
  // matched it, R1 would have said so — it must not be a candidate.
  const auto f = rule(1, "0.0.0.0/0", "10.0.0.0/8");
  const auto shared_hi = rule(5, "0.0.0.0/0", "10.0.0.0/16");
  const auto local_hi = rule(7, "0.0.0.0/0", "10.0.0.0/24");  // R2-only
  const std::vector<FilterRule4> r1{f, shared_hi};
  const std::vector<FilterRule4> r2{f, shared_hi, local_hi};
  ClueClassifier<A> cc(r2, r1);
  EXPECT_EQ(cc.clueCount(), 2u);
  mem::AccessCounter acc;
  // Genuine clue "F": the packet did NOT match shared_hi at R1 (dst outside
  // 10.0/16), but may match R2's own /24? No — /24 nests in /16; to keep the
  // clue genuine pick dst in 10.0/8 outside 10.0/16.
  const auto r = cc.classify(f.id, a4("1.1.1.1"), a4("10.200.0.1"), acc);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->id, f.id);
  // One clue-table access + at most the R2-only candidate.
  EXPECT_LE(acc.total(), 2u);
}

TEST(ClueClassifier, FindsHigherPriorityLocalOnlyRule) {
  const auto f = rule(1, "0.0.0.0/0", "10.0.0.0/8");
  const auto local_hi = rule(9, "0.0.0.0/0", "10.0.0.0/16");  // R2-only
  ClueClassifier<A> cc({f, local_hi}, {f});
  mem::AccessCounter acc;
  const auto r = cc.classify(f.id, a4("1.1.1.1"), a4("10.0.55.1"), acc);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->id, local_hi.id);
}

TEST(ClueClassifier, UnknownClueFallsBackToFullClassification) {
  const auto f = rule(1, "0.0.0.0/0", "10.0.0.0/8");
  ClueClassifier<A> cc({f}, {f});
  mem::AccessCounter acc;
  const auto r = cc.classify(/*clue_id=*/999, a4("1.1.1.1"),
                             a4("10.0.0.1"), acc);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->id, f.id);
}

// The §7 transparency property: with a genuine clue, the clue-assisted
// classification returns exactly what R2's full classifier returns.
TEST(ClueClassifier, TransparencyOnRandomPolicies) {
  Rng rng(77);
  for (int round = 0; round < 3; ++round) {
    const auto r1_rules = generateRules(rng, 300);
    const auto r2_rules = deriveNeighborRules(
        r1_rules, rng, 0.8, 60, 0.5, /*first_fresh_id=*/10'000);
    LinearClassifier<A> r1(r1_rules);
    LinearClassifier<A> r2_full(r2_rules);
    ClueClassifier<A> r2(r2_rules, r1_rules);
    mem::AccessCounter scratch;
    std::size_t clued = 0;
    for (int i = 0; i < 600; ++i) {
      const auto [src, dst] = randomHeader(r1_rules, rng);
      const auto f = r1.classify(src, dst, scratch);
      mem::AccessCounter acc;
      const auto got = f ? r2.classify(f->id, src, dst, acc)
                         : r2.classifyNoClue(src, dst, acc);
      const auto expect = r2_full.classify(src, dst, scratch);
      ASSERT_EQ(expect.has_value(), got.has_value())
          << src.toString() << " -> " << dst.toString();
      if (expect) {
        ASSERT_EQ(expect->id, got->id)
            << src.toString() << " -> " << dst.toString() << " clue "
            << (f ? static_cast<int>(f->id) : -1);
      }
      if (f) ++clued;
    }
    EXPECT_GT(clued, 300u);
  }
}

TEST(ClueClassifier, RestrictedScanIsCheaperThanFull) {
  Rng rng(88);
  const auto r1_rules = generateRules(rng, 1500);
  const auto r2_rules =
      deriveNeighborRules(r1_rules, rng, 0.9, 100, 0.5, 10'000);
  LinearClassifier<A> r1(r1_rules);
  LinearClassifier<A> r2_full(r2_rules);
  ClueClassifier<A> r2(r2_rules, r1_rules);
  mem::AccessCounter scratch, clue_acc, full_acc;
  std::size_t n = 0;
  for (int i = 0; i < 300; ++i) {
    const auto [src, dst] = randomHeader(r1_rules, rng);
    const auto f = r1.classify(src, dst, scratch);
    if (!f) continue;
    r2.classify(f->id, src, dst, clue_acc);
    r2_full.classify(src, dst, full_acc);
    ++n;
  }
  ASSERT_GT(n, 100u);
  EXPECT_LT(clue_acc.total() * 5, full_acc.total());  // at least 5x cheaper
}

TEST(ClueClassifier, MostCluesNeedNoCandidates) {
  // The classification analogue of Claim 1's 95%+: when the neighbor's rule
  // set nearly contains the local one, most clue rules have no survivors.
  Rng rng(99);
  const auto shared = generateRules(rng, 800);
  const auto r2_rules = deriveNeighborRules(shared, rng, 1.0, 30, 0.6, 5000);
  ClueClassifier<A> cc(r2_rules, shared);
  EXPECT_GT(cc.emptyCandidateClues() * 2, cc.clueCount());
  EXPECT_LT(cc.meanCandidates(), 5.0);
}

}  // namespace
}  // namespace cluert::filter
