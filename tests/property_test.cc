// Repository-wide randomized invariants (DESIGN.md "Key invariants"),
// swept over methods, clue modes and generated scenarios.
//
// Table shapes and packet streams come from the scenario generator
// (sim::generateScenario) so the properties run against the same
// distribution the differential harness sweeps, and every failure prints a
// scenario seed that reproduces it standalone (tools/sim_run gen <seed>).
// The number of seeds per (method, mode) cell is env-controlled:
//
//   CLUERT_PROPERTY_SEEDS=32 ctest -R Invariant   # deeper sweep
//
// defaulting to 3 so the default suite stays fast.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/distributed_lookup.h"
#include "sim/scenario.h"
#include "test_util.h"

namespace cluert {
namespace {

using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;
using core::ClueField;
using core::CluePort;
using lookup::ClueMode;
using lookup::LookupSuite;
using lookup::Method;

std::size_t seedCountFromEnv() {
  const char* env = std::getenv("CLUERT_PROPERTY_SEEDS");
  if (env == nullptr) return 3;
  const long n = std::strtol(env, nullptr, 10);
  return n > 0 ? static_cast<std::size_t>(n) : 3;
}

// Faults and churn are exercised by the differential harness (sim_test);
// these invariants assume genuine clues against static tables.
sim::GenOptions propertyGen(std::size_t packets) {
  sim::GenOptions g;
  g.packets = packets;
  g.faults = false;
  g.churn = false;
  return g;
}

struct PropertyCase {
  Method method;
  ClueMode mode;
};

std::vector<PropertyCase> makeCases() {
  std::vector<PropertyCase> cases;
  for (const Method m : lookup::kAllMethods) {
    for (const ClueMode mode : {ClueMode::kSimple, ClueMode::kAdvance}) {
      cases.push_back({m, mode});
    }
  }
  return cases;
}

class InvariantTest : public ::testing::TestWithParam<PropertyCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, InvariantTest, ::testing::ValuesIn(makeCases()),
    [](const auto& info) {
      std::string m(methodName(info.param.method));
      if (m == "6-way") m = "Multiway";
      return m + std::string(clueModeName(info.param.mode));
    });

// Invariant 2 (clue transparency) + invariant 5 (>=1 access) + Advance vs
// Simple result agreement, over generated scenarios with heavy nesting.
TEST_P(InvariantTest, ClueNeverChangesRoutingOnlyCost) {
  const auto param = GetParam();
  const std::size_t seeds = seedCountFromEnv();
  for (std::size_t k = 0; k < seeds; ++k) {
    const std::uint64_t seed = 1100 + k;
    SCOPED_TRACE(::testing::Message()
                 << "scenario seed " << seed << " (replay: tools/sim_run)");
    const auto s = sim::generateScenario<A>(seed, propertyGen(600));
    trie::BinaryTrie<A> t1;
    for (const auto& e : s.sender) t1.insert(e.prefix, e.next_hop);
    LookupSuite<A> suite(s.receiver);
    typename CluePort<A>::Options opt;
    opt.method = param.method;
    opt.mode = param.mode;
    CluePort<A> port(suite, &t1, opt);

    mem::AccessCounter scratch;
    std::size_t clued_packets = 0;
    for (const auto& pkt : s.packets) {
      const auto bmp1 = t1.lookup(pkt.dest, scratch);
      const auto field =
          bmp1 ? ClueField::of(bmp1->prefix.length()) : ClueField::none();
      if (bmp1) ++clued_packets;
      mem::AccessCounter acc;
      const auto r = port.process(pkt.dest, field, acc);
      const auto expect = check::bruteForceBmp(s.receiver, pkt.dest);
      ASSERT_EQ(expect.has_value(), r.match.has_value())
          << "dest " << pkt.dest.toString();
      if (expect) {
        ASSERT_EQ(expect->prefix, r.match->prefix)
            << "dest " << pkt.dest.toString() << " clue "
            << (bmp1 ? bmp1->prefix.toString() : "-");
      }
      EXPECT_GE(acc.total(), 1u);
    }
    EXPECT_GT(clued_packets, s.packets.size() / 4);
  }
}

// Invariant: a warm clue table makes the receiver cheaper than the common
// (clue-less) method — the whole point of the paper.
TEST_P(InvariantTest, WarmCluePortBeatsCommonLookup) {
  const auto param = GetParam();
  const std::size_t seeds = seedCountFromEnv();
  for (std::size_t k = 0; k < seeds; ++k) {
    const std::uint64_t seed = 2200 + k;
    SCOPED_TRACE(::testing::Message()
                 << "scenario seed " << seed << " (replay: tools/sim_run)");
    const auto s = sim::generateScenario<A>(seed, propertyGen(400));
    trie::BinaryTrie<A> t1;
    for (const auto& e : s.sender) t1.insert(e.prefix, e.next_hop);
    LookupSuite<A> suite(s.receiver);
    typename CluePort<A>::Options opt;
    opt.method = param.method;
    opt.mode = param.mode;
    CluePort<A> port(suite, &t1, opt);

    // Warm up, then measure the same flow.
    mem::AccessCounter scratch;
    std::vector<std::pair<A, ClueField>> flow;
    for (const auto& pkt : s.packets) {
      const auto bmp1 = t1.lookup(pkt.dest, scratch);
      if (!bmp1) continue;
      flow.emplace_back(pkt.dest, ClueField::of(bmp1->prefix.length()));
    }
    for (const auto& [dest, field] : flow) port.process(dest, field, scratch);

    mem::AccessCounter clue_acc;
    mem::AccessCounter common_acc;
    for (const auto& [dest, field] : flow) {
      port.process(dest, field, clue_acc);
      suite.engine(param.method).lookup(dest, common_acc);
    }
    EXPECT_LT(clue_acc.total(), common_acc.total())
        << methodName(param.method) << "/" << clueModeName(param.mode);
  }
}

// Invariant 4, per-mode: whenever the port answers from the FD without a
// search, brute force agrees no longer match existed.
TEST_P(InvariantTest, FdAnswersAreNeverWrong) {
  const auto param = GetParam();
  const std::size_t seeds = seedCountFromEnv();
  for (std::size_t k = 0; k < seeds; ++k) {
    const std::uint64_t seed = 3300 + k;
    SCOPED_TRACE(::testing::Message()
                 << "scenario seed " << seed << " (replay: tools/sim_run)");
    const auto s = sim::generateScenario<A>(seed, propertyGen(600));
    trie::BinaryTrie<A> t1;
    for (const auto& e : s.sender) t1.insert(e.prefix, e.next_hop);
    LookupSuite<A> suite(s.receiver);
    typename CluePort<A>::Options opt;
    opt.method = param.method;
    opt.mode = param.mode;
    CluePort<A> port(suite, &t1, opt);

    mem::AccessCounter scratch;
    std::size_t fd_answers = 0;
    for (const auto& pkt : s.packets) {
      const auto bmp1 = t1.lookup(pkt.dest, scratch);
      if (!bmp1) continue;
      mem::AccessCounter acc;
      const auto r =
          port.process(pkt.dest, ClueField::of(bmp1->prefix.length()), acc);
      if (!r.table_hit || !r.used_fd || r.searched) continue;
      ++fd_answers;
      const auto expect = check::bruteForceBmp(s.receiver, pkt.dest);
      ASSERT_EQ(expect.has_value(), r.match.has_value());
      if (expect) ASSERT_EQ(expect->prefix, r.match->prefix);
    }
    EXPECT_GT(fd_answers, 0u);
  }
}

// IPv6 instantiation of the transparency invariant (invariant 2 at W=128).
TEST(InvariantIpv6, ClueTransparencyHolds) {
  using A6 = ip::Ip6Addr;
  const std::size_t seeds = seedCountFromEnv();
  for (std::size_t k = 0; k < seeds; ++k) {
    const std::uint64_t seed = 4400 + k;
    SCOPED_TRACE(::testing::Message()
                 << "scenario seed " << seed << " (replay: tools/sim_run)");
    const auto s = sim::generateScenario<A6>(seed, propertyGen(150));
    trie::BinaryTrie<A6> t1;
    for (const auto& e : s.sender) t1.insert(e.prefix, e.next_hop);
    for (const Method m : lookup::kAllMethods) {
      for (const ClueMode mode : {ClueMode::kSimple, ClueMode::kAdvance}) {
        LookupSuite<A6> fresh(s.receiver);
        typename CluePort<A6>::Options opt;
        opt.method = m;
        opt.mode = mode;
        CluePort<A6> port(fresh, &t1, opt);
        mem::AccessCounter scratch;
        for (const auto& pkt : s.packets) {
          const auto bmp1 = t1.lookup(pkt.dest, scratch);
          const auto field =
              bmp1 ? ClueField::of(bmp1->prefix.length()) : ClueField::none();
          mem::AccessCounter acc;
          const auto r = port.process(pkt.dest, field, acc);
          const auto expect = check::bruteForceBmp(s.receiver, pkt.dest);
          ASSERT_EQ(expect.has_value(), r.match.has_value())
              << methodName(m) << "/" << clueModeName(mode) << " dest "
              << pkt.dest.toString();
          if (expect) ASSERT_EQ(expect->prefix, r.match->prefix);
        }
      }
    }
  }
}

}  // namespace
}  // namespace cluert
