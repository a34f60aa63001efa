// Edge cases across the stack: default routes, host routes, full-length
// clues, empty and single-entry tables, clue==BMP==dest, and adversarial
// combinations of them under every method and mode.
#include <gtest/gtest.h>

#include "core/distributed_lookup.h"
#include "test_util.h"

namespace cluert {
namespace {

using testutil::a4;
using testutil::p4;
using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;
using core::ClueField;
using core::CluePort;
using lookup::ClueMode;
using lookup::LookupSuite;
using lookup::Method;

struct EdgePair {
  std::vector<MatchT> sender;
  std::vector<MatchT> receiver;
};

class EdgeCaseTest
    : public ::testing::TestWithParam<std::tuple<Method, ClueMode>> {
 protected:
  // Runs the transparency check over explicit destinations.
  void check(const EdgePair& pair, const std::vector<A>& dests) {
    const auto [method, mode] = GetParam();
    trie::BinaryTrie<A> t1;
    for (const auto& e : pair.sender) t1.insert(e.prefix, e.next_hop);
    LookupSuite<A> suite(pair.receiver);
    typename CluePort<A>::Options opt;
    opt.method = method;
    opt.mode = mode;
    CluePort<A> port(suite, &t1, opt);
    mem::AccessCounter scratch;
    for (const A& dest : dests) {
      const auto bmp = t1.lookup(dest, scratch);
      const auto field = bmp ? ClueField::of(bmp->prefix.length())
                             : ClueField::none();
      mem::AccessCounter acc;
      const auto r = port.process(dest, field, acc);
      const auto expect = check::bruteForceBmp(pair.receiver, dest);
      ASSERT_EQ(expect.has_value(), r.match.has_value())
          << dest.toString() << " method "
          << lookup::methodName(method);
      if (expect) {
        ASSERT_EQ(expect->prefix, r.match->prefix) << dest.toString();
      }
      EXPECT_GE(acc.total(), 1u);
    }
  }
};

INSTANTIATE_TEST_SUITE_P(
    Grid, EdgeCaseTest,
    ::testing::Combine(::testing::ValuesIn(lookup::kExtendedMethods),
                       ::testing::Values(ClueMode::kSimple,
                                         ClueMode::kAdvance)),
    [](const auto& info) {
      std::string m(lookup::methodName(std::get<0>(info.param)));
      if (m == "6-way") m = "Multiway";
      return m + std::string(lookup::clueModeName(std::get<1>(info.param)));
    });

TEST_P(EdgeCaseTest, DefaultRouteOnBothSides) {
  EdgePair pair;
  pair.sender = {MatchT{ip::Prefix4(), 1}, MatchT{p4("10.0.0.0/8"), 2}};
  pair.receiver = {MatchT{ip::Prefix4(), 3}, MatchT{p4("10.1.0.0/16"), 4}};
  check(pair, {a4("10.1.2.3"), a4("10.9.9.9"), a4("200.1.1.1"),
               a4("0.0.0.0"), a4("255.255.255.255")});
}

TEST_P(EdgeCaseTest, HostRoutesAndFullLengthClues) {
  EdgePair pair;
  pair.sender = {MatchT{p4("1.2.3.4/32"), 1}, MatchT{p4("1.0.0.0/8"), 2}};
  pair.receiver = {MatchT{p4("1.2.3.4/32"), 3}, MatchT{p4("1.2.3.0/24"), 4},
                   MatchT{p4("1.0.0.0/8"), 5}};
  check(pair, {a4("1.2.3.4"), a4("1.2.3.5"), a4("1.9.9.9")});
}

TEST_P(EdgeCaseTest, EmptyReceiverTable) {
  EdgePair pair;
  pair.sender = {MatchT{p4("10.0.0.0/8"), 1}};
  pair.receiver = {};
  check(pair, {a4("10.1.2.3"), a4("11.1.2.3")});
}

TEST_P(EdgeCaseTest, EmptySenderTableMeansNoClues) {
  EdgePair pair;
  pair.sender = {};
  pair.receiver = {MatchT{p4("10.0.0.0/8"), 1}};
  check(pair, {a4("10.1.2.3"), a4("11.1.2.3")});
}

TEST_P(EdgeCaseTest, SingleEntryTables) {
  EdgePair pair;
  pair.sender = {MatchT{p4("192.168.0.0/16"), 1}};
  pair.receiver = {MatchT{p4("192.168.0.0/16"), 2}};
  check(pair, {a4("192.168.1.1"), a4("192.169.1.1")});
}

TEST_P(EdgeCaseTest, DisjointTables) {
  EdgePair pair;
  pair.sender = {MatchT{p4("10.0.0.0/8"), 1}};
  pair.receiver = {MatchT{p4("20.0.0.0/8"), 2}};
  // The clue (10/8) has no vertex at the receiver: case 1 with no FD.
  check(pair, {a4("10.1.2.3"), a4("20.1.2.3"), a4("30.1.2.3")});
}

TEST_P(EdgeCaseTest, ReceiverOnlyCoarser) {
  // The receiver aggregates where the sender is specific: FD comes from a
  // strict ancestor of the clue (case 1 via the ancestor).
  EdgePair pair;
  pair.sender = {MatchT{p4("10.1.2.0/24"), 1}, MatchT{p4("10.1.0.0/16"), 2}};
  pair.receiver = {MatchT{p4("10.0.0.0/8"), 3}};
  check(pair, {a4("10.1.2.3"), a4("10.1.9.9"), a4("10.200.0.1")});
}

TEST_P(EdgeCaseTest, DeepChainOfNestedPrefixes) {
  // A maximal nesting chain exercises long case-3 continuations.
  EdgePair pair;
  for (int len = 8; len <= 30; len += 2) {
    pair.sender.push_back(MatchT{ip::Prefix4(a4("10.85.85.85"), len),
                                 static_cast<NextHop>(len)});
  }
  pair.receiver = pair.sender;  // identical tables
  for (int len = 9; len <= 31; len += 2) {  // receiver-only interleaved
    pair.receiver.push_back(MatchT{ip::Prefix4(a4("10.85.85.85"), len),
                                   static_cast<NextHop>(100 + len)});
  }
  check(pair, {a4("10.85.85.85"), a4("10.85.85.86"), a4("10.85.0.1"),
               a4("10.200.0.1")});
}

TEST_P(EdgeCaseTest, ClueForAddressWithNoReceiverMatchAtAll) {
  EdgePair pair;
  pair.sender = {MatchT{p4("10.0.0.0/8"), 1}, MatchT{p4("10.1.0.0/16"), 2}};
  pair.receiver = {MatchT{p4("10.1.0.0/16"), 3}};
  // 10.200.x matches only the sender's /8; the receiver has nothing for it.
  check(pair, {a4("10.200.0.1"), a4("10.1.0.1")});
}

TEST(ClueFieldEdge, LengthsRoundTripThroughTheHeader) {
  for (int len = 1; len <= 32; ++len) {
    const auto f = core::ClueField::of(len);
    EXPECT_TRUE(f.present);
    const auto p = core::cluePrefix(a4("255.255.255.255"), f);
    ASSERT_TRUE(p.has_value()) << len;
    EXPECT_EQ(p->length(), len);
  }
  EXPECT_FALSE(core::ClueField::of(0).present);
}

TEST(ClueFieldEdge, OverlongClueIsIgnored) {
  core::ClueField f;
  f.present = true;
  f.length = 64;  // corrupted header
  EXPECT_FALSE(core::cluePrefix(a4("1.2.3.4"), f).has_value());
}

}  // namespace
}  // namespace cluert
