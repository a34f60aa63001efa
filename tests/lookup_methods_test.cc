#include <gtest/gtest.h>

#include <cmath>

#include "lookup/factory.h"
#include "test_util.h"

namespace cluert::lookup {
namespace {

using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;

class LookupMethodsTest : public ::testing::TestWithParam<Method> {};

INSTANTIATE_TEST_SUITE_P(AllMethods, LookupMethodsTest,
                         ::testing::ValuesIn(kExtendedMethods),
                         [](const auto& info) {
                           std::string name(methodName(info.param));
                           name.erase(std::remove(name.begin(), name.end(),
                                                  '-'),
                                      name.end());
                           return name;
                         });

TEST_P(LookupMethodsTest, MatchesBruteForceOnRandomTables) {
  Rng rng(101);
  for (int round = 0; round < 3; ++round) {
    const auto table = testutil::randomTable4(rng, 400);
    LookupSuite<A> suite(table);
    const auto& engine = suite.engine(GetParam());
    mem::AccessCounter acc;
    for (int i = 0; i < 500; ++i) {
      const auto dest = testutil::coveredAddress<A>(table, rng,
                                                    testutil::randomAddr4);
      const auto expect = check::bruteForceBmp(table, dest);
      const auto got = engine.lookup(dest, acc);
      ASSERT_EQ(expect.has_value(), got.has_value())
          << methodName(GetParam()) << " dest " << dest.toString();
      if (expect) {
        EXPECT_EQ(expect->prefix, got->prefix);
        EXPECT_EQ(expect->next_hop, got->next_hop);
      }
    }
  }
}

TEST_P(LookupMethodsTest, HandlesEmptyTable) {
  LookupSuite<A> suite(std::vector<MatchT>{});
  mem::AccessCounter acc;
  Rng rng(5);
  EXPECT_FALSE(
      suite.engine(GetParam()).lookup(testutil::randomAddr4(rng), acc));
}

TEST_P(LookupMethodsTest, HandlesDefaultRouteOnly) {
  LookupSuite<A> suite({MatchT{ip::Prefix4{}, 42}});
  mem::AccessCounter acc;
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    const auto m =
        suite.engine(GetParam()).lookup(testutil::randomAddr4(rng), acc);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->next_hop, 42u);
  }
}

TEST_P(LookupMethodsTest, HandlesHostRoutes) {
  const auto host = testutil::p4("1.2.3.4/32");
  LookupSuite<A> suite({MatchT{host, 1}, MatchT{testutil::p4("1.0.0.0/8"), 2}});
  mem::AccessCounter acc;
  EXPECT_EQ(suite.engine(GetParam()).lookup(testutil::a4("1.2.3.4"), acc)
                ->next_hop,
            1u);
  EXPECT_EQ(suite.engine(GetParam()).lookup(testutil::a4("1.2.3.5"), acc)
                ->next_hop,
            2u);
}

TEST_P(LookupMethodsTest, ContinuationFindsLongerMatches) {
  Rng rng(321);
  const auto table = testutil::randomTable4(rng, 300);
  LookupSuite<A> suite(table);
  const auto& engine = suite.engine(GetParam());
  const trie::BinaryTrie<A>& t2 = suite.binaryTrie();
  mem::AccessCounter acc;
  for (int i = 0; i < 300; ++i) {
    const auto dest =
        testutil::coveredAddress<A>(table, rng, testutil::randomAddr4);
    const auto bmp = check::bruteForceBmp(table, dest);
    if (!bmp) continue;
    const int cut = static_cast<int>(
        rng.uniform(0, static_cast<std::uint64_t>(bmp->prefix.length())));
    const auto clue = bmp->prefix.truncated(cut);
    // Simple-style candidate set: every table prefix strictly below the
    // clue vertex.
    std::vector<MatchT> cands;
    for (const auto& e : table) {
      if (clue.isStrictPrefixOf(e.prefix)) cands.push_back(e);
    }
    const auto cont = engine.makeContinuation(clue, cands);
    const auto got = engine.continueLookup(cont, dest, std::nullopt, acc);
    if (bmp->prefix.length() > cut) {
      ASSERT_TRUE(got.has_value()) << methodName(GetParam());
      EXPECT_EQ(got->prefix, bmp->prefix);
    } else {
      // No strictly longer match exists for this destination. A method may
      // still report nothing or must at least not report a wrong prefix.
      if (got) {
        EXPECT_EQ(check::bruteForceBmp(cands, dest)->prefix, got->prefix);
      }
    }
    // Sanity: the reference trie agrees the clue vertex exists.
    if (!cands.empty()) EXPECT_NE(t2.findVertex(clue), nullptr);
  }
}

TEST(LookupMethods, AccessOrderingMatchesThePaper) {
  // §6: Regular is the most expensive; Patricia cheaper; 6-way beats
  // Binary; LogW probes ~log2(W).
  Rng rng(55);
  const auto table = testutil::randomTable4(rng, 5000);
  LookupSuite<A> suite(table);
  mem::AccessCounter reg, pat, bin, six, logw;
  for (int i = 0; i < 500; ++i) {
    const auto dest =
        testutil::coveredAddress<A>(table, rng, testutil::randomAddr4);
    suite.engine(Method::kRegular).lookup(dest, reg);
    suite.engine(Method::kPatricia).lookup(dest, pat);
    suite.engine(Method::kBinary).lookup(dest, bin);
    suite.engine(Method::kMultiway).lookup(dest, six);
    suite.engine(Method::kLogW).lookup(dest, logw);
  }
  EXPECT_GT(reg.total(), pat.total());
  EXPECT_GT(bin.total(), six.total());
  EXPECT_GT(reg.total(), logw.total());
  // LogW averages at most ceil(log2(#distinct lengths)) + 1 per lookup.
  EXPECT_LE(logw.total(), 500u * 7u);
}

TEST(LookupMethods, LogWVertexCountMatchesTrie) {
  Rng rng(66);
  const auto table = testutil::randomTable4(rng, 300);
  LookupSuite<A> suite(table);
  const auto& logw =
      static_cast<const LogWLookup<A>&>(suite.engine(Method::kLogW));
  EXPECT_EQ(logw.vertexCount(), suite.binaryTrie().nodeCount());
  EXPECT_LE(logw.distinctLengths(), 32u);
}

TEST(LookupMethods, InlineCandidateScanCostsNothing) {
  Rng rng(77);
  const auto table = testutil::randomTable4(rng, 200);
  SuiteOptions opt;
  opt.inline_candidates = 4;
  LookupSuite<A> suite(table, opt);
  const auto& engine = suite.engine(Method::kBinary);
  // A clue with up to 4 candidates must be continued with zero accesses.
  const auto clue = testutil::p4("10.0.0.0/8");
  std::vector<MatchT> cands{MatchT{testutil::p4("10.1.0.0/16"), 1},
                            MatchT{testutil::p4("10.2.0.0/16"), 2}};
  const auto cont = engine.makeContinuation(clue, cands);
  mem::AccessCounter acc;
  const auto m = engine.continueLookup(cont, testutil::a4("10.1.5.5"),
                                       std::nullopt, acc);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->next_hop, 1u);
  EXPECT_EQ(acc.total(), 0u);
}

TEST(LookupMethods, MethodNamesAreStable) {
  EXPECT_EQ(methodName(Method::kRegular), "Regular");
  EXPECT_EQ(methodName(Method::kPatricia), "Patricia");
  EXPECT_EQ(methodName(Method::kBinary), "Binary");
  EXPECT_EQ(methodName(Method::kMultiway), "6-way");
  EXPECT_EQ(methodName(Method::kLogW), "LogW");
  EXPECT_EQ(clueModeName(ClueMode::kCommon), "Common");
  EXPECT_EQ(clueModeName(ClueMode::kSimple), "Simple");
  EXPECT_EQ(clueModeName(ClueMode::kAdvance), "Advance");
}

}  // namespace
}  // namespace cluert::lookup
