// Shrinker tests (DESIGN.md §8 "Shrink algorithm"), including the
// self-test the harness demands: seed a deliberately broken engine through
// RunOptions::sabotage, let the differential runner catch it, shrink the
// scenario, and replay the minimized repro red (sabotaged) then green
// (healthy) through a corpus-file round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/sim.h"

namespace cluert {
namespace {

using A = ip::Ip4Addr;

// ---------------------------------------------------------------------------
// Mechanics on synthetic predicates (no engines involved)
// ---------------------------------------------------------------------------

TEST(Shrink, RemovesEverythingIrrelevantToThePredicate) {
  sim::GenOptions gen;
  gen.packets = 300;
  auto s = sim::generateScenario<A>(8, gen);
  ASSERT_GT(s.packets.size(), 100u);
  const A needle = s.packets[137].dest;

  // Fails iff some packet carries the needle destination: everything else
  // must shrink away.
  const sim::FailPredicate<A> fails = [&](const sim::Scenario<A>& c) {
    for (const auto& p : c.packets) {
      if (p.dest == needle) return true;
    }
    return false;
  };
  sim::ShrinkStats stats;
  const auto small = sim::shrinkScenario(s, fails, {}, &stats);
  EXPECT_TRUE(fails(small));
  EXPECT_EQ(small.packets.size(), 1u);
  EXPECT_EQ(small.packets[0].dest, needle);
  EXPECT_TRUE(small.churn.empty());
  EXPECT_TRUE(small.receiver.empty());
  EXPECT_TRUE(small.sender.empty());
  EXPECT_GT(stats.evals, 0u);
}

TEST(Shrink, PullsChurnPublishPointsToZero) {
  sim::GenOptions gen;
  gen.packets = 200;
  gen.max_churn_steps = 6;
  sim::Scenario<A> s;
  for (std::uint64_t seed = 21;; ++seed) {
    s = sim::generateScenario<A>(seed, gen);
    if (!s.churn.empty() && s.churn.back().after_packet > 50) break;
    ASSERT_LT(seed, 100u) << "no seed with late churn found";
  }
  const sim::FailPredicate<A> fails = [](const sim::Scenario<A>& c) {
    return !c.churn.empty();
  };
  const auto small = sim::shrinkScenario(s, fails);
  EXPECT_EQ(small.churn.size(), 1u);
  EXPECT_EQ(small.churn[0].after_packet, 0u);
  EXPECT_TRUE(small.packets.empty());
}

TEST(Shrink, ResultAlwaysSatisfiesThePredicate) {
  auto s = sim::generateScenario<A>(31);
  // A predicate with holes: fails only when the packet count is even.
  const sim::FailPredicate<A> fails = [](const sim::Scenario<A>& c) {
    return c.packets.size() % 2 == 0;
  };
  if (!fails(s)) s.packets.pop_back();
  ASSERT_TRUE(fails(s));
  const auto small = sim::shrinkScenario(s, fails);
  EXPECT_TRUE(fails(small));
}

TEST(Shrink, RespectsEvalBudget) {
  const auto s = sim::generateScenario<A>(44);
  sim::ShrinkOptions opt;
  opt.max_evals = 25;
  std::size_t calls = 0;
  const sim::FailPredicate<A> fails = [&](const sim::Scenario<A>&) {
    ++calls;
    return true;
  };
  sim::ShrinkStats stats;
  sim::shrinkScenario(s, fails, opt, &stats);
  EXPECT_LE(stats.evals, opt.max_evals + 1);
  EXPECT_LE(calls, opt.max_evals + 1);
}

// ---------------------------------------------------------------------------
// The self-test: a sabotaged engine is caught, shrunk small, and the repro
// replays red-then-green through the corpus format.
// ---------------------------------------------------------------------------

// Corrupts every FD the port resolved at build time: any packet answered by
// an FD now reports a skewed next hop the oracle will refuse.
void sabotageFds(core::CluePort<A>& port) {
  auto& hash = const_cast<core::HashClueTable<A>&>(port.hashTable());
  hash.forEachMutable([](core::ClueEntry<A>& e) {
    if (e.fd()) e.fd_hop = static_cast<NextHop>(e.fd_hop + 100);
  });
}

TEST(Shrink, SabotagedEngineIsCaughtShrunkAndReplayedRedThenGreen) {
  sim::GenOptions gen;
  gen.packets = 250;
  gen.faults = false;  // genuine clues: every packet is oracle-checked
  const auto scenario = sim::generateScenario<A>(55, gen);

  // One config is enough to catch an FD corruption, and keeps each of the
  // shrinker's predicate evaluations cheap.
  sim::RunOptions<A> opt;
  opt.methods = lookup::methodBit(lookup::Method::kPatricia);
  opt.advance = false;
  opt.indexed = false;
  opt.validate_publishes = false;  // fail on observed packets, not structure
  opt.sabotage = sabotageFds;

  const auto broken = sim::runScenario(scenario, opt);
  ASSERT_FALSE(broken.ok()) << "sabotage produced no mismatch";
  ASSERT_FALSE(broken.mismatches.empty());

  const sim::FailPredicate<A> fails = [&](const sim::Scenario<A>& c) {
    return !sim::runScenario(c, opt).ok();
  };
  sim::ShrinkStats stats;
  const auto small = sim::shrinkScenario(scenario, fails, {}, &stats);

  // Minimized: still failing, and small enough to read — one packet hitting
  // one corrupted entry needs one sender prefix and at most a handful of
  // receiver routes.
  EXPECT_TRUE(fails(small));
  EXPECT_LE(small.packets.size(), 4u);
  EXPECT_LE(small.sender.size(), 4u);
  EXPECT_LE(small.receiver.size(), 8u);
  EXPECT_TRUE(small.churn.empty());

  // Corpus round trip: the repro survives serialization, replays red
  // against the sabotaged engine and green against the healthy one.
  const std::string text = sim::serializeScenario(small);
  const std::string path =
      testing::TempDir() + "/shrunk-sabotage-repro.scn";
  ASSERT_TRUE(writeFile(path, text));
  const auto loaded_text = readFile(path);
  ASSERT_TRUE(loaded_text.has_value());
  EXPECT_EQ(sim::scenarioFamily(*loaded_text), "ipv4");
  const auto loaded = sim::parseScenario<A>(*loaded_text);
  ASSERT_TRUE(loaded.has_value());

  const auto red = sim::runScenario(*loaded, opt);
  EXPECT_FALSE(red.ok()) << "repro lost its bite across serialization";

  sim::RunOptions<A> healthy = opt;
  healthy.sabotage = nullptr;
  healthy.validate_publishes = true;
  const auto green = sim::runScenario(*loaded, healthy);
  EXPECT_TRUE(green.ok()) << green.summary();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cluert
