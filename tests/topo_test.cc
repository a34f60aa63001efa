// Tests for the multi-router topology harness (src/topo/): shape builders,
// the RIP-style control plane's convergence behavior, the per-hop
// differential oracle over full versioned data planes, the scenario
// grammar's parse/serialize fixpoint, and the ddmin shrinker.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/distributed_lookup.h"
#include "sim/corpus.h"
#include "sim/runner.h"
#include "topo/harness.h"
#include "topo/rip.h"
#include "topo/scenario.h"
#include "topo/topology.h"
#include "test_util.h"

namespace cluert::topo {
namespace {

Prefix4 p4(std::string_view text) {
  const auto p = Prefix4::parse(text);
  EXPECT_TRUE(p.has_value()) << text;
  return p.value_or(Prefix4());
}

Addr4 a4(std::string_view text) {
  const auto a = Addr4::parse(text);
  EXPECT_TRUE(a.has_value()) << text;
  return a.value_or(Addr4());
}

// Fast RIP options for tests: short timers, same structure.
RipOptions fastRip() {
  RipOptions o;
  o.update_interval = 4;
  o.timeout_ticks = 24;
  o.gc_ticks = 12;
  return o;
}

TEST(Topo, ShapesAreCanonicalAndConnected) {
  for (std::size_t i = 0; i < kShapeCount; ++i) {
    const Shape shape = static_cast<Shape>(i);
    for (const std::size_t n : {2u, 3u, 5u, 8u}) {
      const Topology t = buildTopology(shape, n, 7);
      EXPECT_EQ(t.nodes, n);
      EXPECT_TRUE(t.connected()) << shapeName(shape) << " n=" << n;
      for (std::size_t k = 0; k < t.links.size(); ++k) {
        EXPECT_LT(t.links[k].a, t.links[k].b);
        if (k > 0) {
          const Link& prev = t.links[k - 1];
          const Link& cur = t.links[k];
          EXPECT_TRUE(prev.a < cur.a || (prev.a == cur.a && prev.b < cur.b));
        }
      }
    }
  }
}

TEST(Topo, ShapeCounts) {
  EXPECT_EQ(buildTopology(Shape::kLine, 5, 0).links.size(), 4u);
  EXPECT_EQ(buildTopology(Shape::kRing, 5, 0).links.size(), 5u);
  EXPECT_EQ(buildTopology(Shape::kStar, 5, 0).links.size(), 4u);
  // 2-node ring degenerates to a line (no parallel edges).
  EXPECT_EQ(buildTopology(Shape::kRing, 2, 0).links.size(), 1u);
  // Fat-tree: core peering + 2x2 core-agg + 2 per leaf.
  EXPECT_EQ(buildTopology(Shape::kFatTree, 8, 0).links.size(), 1u + 4u + 8u);
  // Below 6 nodes the fat-tree degenerates to a star.
  EXPECT_EQ(buildTopology(Shape::kFatTree, 4, 0).links.size(), 3u);
}

TEST(Topo, RandomTopologyIsSeedDeterministic) {
  const Topology a = buildTopology(Shape::kRandom, 8, 42);
  const Topology b = buildTopology(Shape::kRandom, 8, 42);
  const Topology c = buildTopology(Shape::kRandom, 8, 43);
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].a, b.links[i].a);
    EXPECT_EQ(a.links[i].b, b.links[i].b);
  }
  EXPECT_TRUE(a.connected());
  EXPECT_TRUE(c.connected());
}

TEST(Topo, LinkFlipAndDistances) {
  Topology t = buildTopology(Shape::kRing, 4, 0);
  EXPECT_TRUE(t.linkUp(0, 1));
  EXPECT_TRUE(t.setLink(0, 1, false));
  EXPECT_FALSE(t.setLink(0, 1, false));  // no change
  EXPECT_FALSE(t.setLink(0, 2, false));  // not an edge
  EXPECT_FALSE(t.linkUp(0, 1));
  // Still connected the long way round; 0->1 now costs 3 hops.
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.distancesFrom(0)[1], 3);
  // Static neighbors unchanged, up-neighbors reflect the outage.
  EXPECT_EQ(t.neighbors(0).size(), 2u);
  EXPECT_EQ(t.upNeighbors(0).size(), 1u);
}

TEST(Topo, RipConvergesOnLine) {
  RipNetwork rip(buildTopology(Shape::kLine, 5, 0), fastRip());
  rip.originate(0, p4("10.1.0.0/16"));
  rip.originate(4, p4("10.5.0.0/16"));
  for (int t = 0; t < rip.options().convergenceBound(); ++t) rip.tick();
  ASSERT_TRUE(rip.converged());
  // Hop metrics on a line are just the distance.
  EXPECT_EQ(rip.expectedMetric(3, p4("10.1.0.0/16")).value_or(-1), 3);
  const rib::Fib<Addr4> fib = rip.fibOf(3);
  const auto m = check::bruteForceBmp(fib.entries(), a4("10.1.2.3"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->next_hop, 2u);  // toward router 0
}

TEST(Topo, RipReconvergesAfterFlap) {
  RipNetwork rip(buildTopology(Shape::kRing, 5, 0), fastRip());
  for (RouterId r = 0; r < 5; ++r) {
    rip.originate(r, Prefix4(Addr4((10u << 24) | ((r + 1u) << 16)), 16));
  }
  for (int t = 0; t < rip.options().convergenceBound(); ++t) rip.tick();
  ASSERT_TRUE(rip.converged());
  // Router 1 reaches 10.1/16 (originated at 0) directly.
  {
    const auto m =
        check::bruteForceBmp(rip.fibOf(1).entries(), a4("10.1.9.9"));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->next_hop, 0u);
  }
  rip.setLink(0, 1, false);
  EXPECT_FALSE(rip.converged());
  for (int t = 0; t < rip.options().convergenceBound(); ++t) rip.tick();
  ASSERT_TRUE(rip.converged());
  // Now the long way round: 1 -> 2 -> 3 -> 4 -> 0.
  {
    const auto m =
        check::bruteForceBmp(rip.fibOf(1).entries(), a4("10.1.9.9"));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->next_hop, 2u);
  }
  rip.setLink(0, 1, true);
  for (int t = 0; t < rip.options().convergenceBound(); ++t) rip.tick();
  EXPECT_TRUE(rip.converged());
}

TEST(Topo, RipWithdrawGarbageCollects) {
  RipNetwork rip(buildTopology(Shape::kLine, 3, 0), fastRip());
  rip.originate(0, p4("10.1.0.0/16"));
  for (int t = 0; t < rip.options().convergenceBound(); ++t) rip.tick();
  ASSERT_TRUE(rip.converged());
  EXPECT_EQ(rip.fibOf(2).size(), 1u);
  rip.withdraw(0, p4("10.1.0.0/16"));
  for (int t = 0; t < rip.options().convergenceBound(); ++t) rip.tick();
  EXPECT_TRUE(rip.converged());
  EXPECT_EQ(rip.fibOf(0).size(), 0u);
  EXPECT_EQ(rip.fibOf(2).size(), 0u);
}

TEST(Topo, RipPartitionCountsToInfinityWithinBound) {
  // Cutting a line strands routers 2..4 from the prefix at 0. Split
  // horizon with poisoned reverse must still kill the route within the
  // count-to-infinity bound, not oscillate forever.
  RipNetwork rip(buildTopology(Shape::kLine, 5, 0), fastRip());
  rip.originate(0, p4("10.1.0.0/16"));
  for (int t = 0; t < rip.options().convergenceBound(); ++t) rip.tick();
  ASSERT_TRUE(rip.converged());
  rip.setLink(1, 2, false);
  for (int t = 0; t < rip.options().convergenceBound(); ++t) rip.tick();
  EXPECT_TRUE(rip.converged());
  EXPECT_EQ(rip.fibOf(3).size(), 0u);  // unreachable: gone, not looping
  EXPECT_EQ(rip.fibOf(1).size(), 1u);  // still reachable on the near side
}

TEST(Topo, RipClueViewLagsAndPoisonKeepsPrefixes) {
  RipNetwork rip(buildTopology(Shape::kLine, 3, 0), fastRip());
  rip.originate(0, p4("10.1.0.0/16"));
  for (int t = 0; t < rip.options().convergenceBound(); ++t) rip.tick();
  ASSERT_TRUE(rip.converged());
  // Router 1's route to 10.1/16 points at 0, so split horizon poisons it
  // back toward 0 — yet 0's view of neighbor 1 must still contain the
  // prefix (1 genuinely holds it and will stamp it as a clue).
  EXPECT_TRUE(rip.clueViewOf(0, 1).contains(p4("10.1.0.0/16")));
  // Router 2's view of 1 contains it via the normal advertisement.
  EXPECT_TRUE(rip.clueViewOf(2, 1).contains(p4("10.1.0.0/16")));
  // After withdraw + convergence the views empty out again.
  rip.withdraw(0, p4("10.1.0.0/16"));
  for (int t = 0; t < rip.options().convergenceBound(); ++t) rip.tick();
  EXPECT_FALSE(rip.clueViewOf(2, 1).contains(p4("10.1.0.0/16")));
}

// Ticks until the routes converge and `r`'s clue view of `nbr` holds
// exactly nbr's prefixes (converged() checks routes, not views); false
// past the convergence bound.
bool settle(RipNetwork& rip, RouterId r, RouterId nbr) {
  for (int t = 0; t <= rip.options().convergenceBound(); ++t) {
    if (rip.converged() &&
        rip.clueViewOf(r, nbr).prefixes() == rip.fibOf(nbr).prefixes()) {
      return true;
    }
    rip.tick();
  }
  return false;
}

// §3.3.2: the receiver builds and updates its clue table from "the
// information they exchange in the routing algorithm". Router 4's suite
// follows fibOf(4), its clue table and Claim-1 view follow clueViewOf(4, 3),
// and a remote link failure reaches the port as two FibDeltas.
TEST(Topo, RipFibsDriveTheClueMachinery) {
  using MatchT = trie::Match<Addr4>;
  RipNetwork rip(buildTopology(Shape::kRing, 8, 0), fastRip());
  Rng rng(7);
  for (RouterId r = 0; r < 8; ++r) {
    for (int k = 0; k < 6; ++k) {
      rip.originate(r, Prefix4(Addr4(rng.u32()),
                               static_cast<int>(rng.uniform(12, 24))));
    }
  }
  ASSERT_TRUE(settle(rip, 4, 3));

  // Routers 3 (sender) and 4 (receiver) are adjacent.
  rib::Fib<Addr4> receiver_fib = rip.fibOf(4);
  rib::Fib<Addr4> view = rip.clueViewOf(4, 3);
  trie::BinaryTrie<Addr4> t1 = view.buildTrie();
  lookup::LookupSuite<Addr4> suite(std::vector<MatchT>(
      receiver_fib.entries().begin(), receiver_fib.entries().end()));
  core::CluePort<Addr4>::Options opt;
  opt.method = lookup::Method::kPatricia;
  opt.mode = lookup::ClueMode::kAdvance;
  core::CluePort<Addr4> port(suite, &t1, opt);
  port.precompute(view.prefixes());

  // Packets under the sender's prefixes (and some uniform noise), each
  // carrying the sender's BMP as its clue.
  const auto check = [&] {
    const rib::Fib<Addr4> sender_fib = rip.fibOf(3);
    const std::vector<MatchT> sender_entries(sender_fib.entries().begin(),
                                             sender_fib.entries().end());
    const trie::BinaryTrie<Addr4> sender_trie = sender_fib.buildTrie();
    mem::AccessCounter scratch;
    for (int i = 0; i < 200; ++i) {
      const Addr4 dest = testutil::coveredAddress<Addr4>(
          sender_entries, rng, testutil::randomAddr4);
      const auto bmp = sender_trie.lookup(dest, scratch);
      const auto field = bmp ? core::ClueField::of(bmp->prefix.length())
                             : core::ClueField::none();
      mem::AccessCounter acc;
      const auto r = port.process(dest, field, acc);
      const auto expect = check::bruteForceBmp(receiver_fib.entries(), dest);
      ASSERT_EQ(expect.has_value(), r.match.has_value());
      if (expect) ASSERT_EQ(expect->prefix, r.match->prefix);
    }
  };
  check();

  // A remote link fails; RIP reconverges; both sides' deltas follow.
  rip.setLink(6, 7, false);
  ASSERT_TRUE(settle(rip, 4, 3));
  const rib::Fib<Addr4> new_receiver = rip.fibOf(4);
  const auto local_delta = rib::diff(receiver_fib, new_receiver);
  EXPECT_FALSE(local_delta.empty());
  suite.applyRouteDelta(local_delta.removed, local_delta.upserts());
  port.refreshLocal(local_delta);
  const auto neighbor_delta = rib::diff(view, rip.clueViewOf(4, 3));
  rib::applyDelta(t1, neighbor_delta);
  port.refreshNeighbor(neighbor_delta);
  receiver_fib = new_receiver;
  check();
}

// A hand-built scenario covering originations, a flap, a withdraw, and
// steady packet flow on a 5-node topology.
TopoScenario smokeScenario(Shape shape, lookup::ClueMode mode) {
  TopoScenario s;
  s.seed = 11;
  s.shape = shape;
  s.nodes = 5;
  s.mode = mode;
  s.method = lookup::Method::kPatricia;
  s.ticks = 120;
  for (RouterId r = 0; r < 5; ++r) {
    s.originate.push_back(
        TopoOriginate{r, Prefix4(Addr4((10u << 24) | ((r + 1u) << 16)), 16)});
  }
  s.events.push_back(TopoEvent{30, TopoEventKind::kLinkDown, 0, 1, Prefix4()});
  s.events.push_back(TopoEvent{50, TopoEventKind::kLinkUp, 0, 1, Prefix4()});
  s.events.push_back(
      TopoEvent{70, TopoEventKind::kWithdraw, 2, 0, p4("10.3.0.0/16")});
  for (int t = 0; t < 120; t += 2) {
    for (RouterId src = 0; src < 5; ++src) {
      s.packets.push_back(TopoPacket{t, src, a4("10.1.7.7"), 2});
      s.packets.push_back(TopoPacket{t, src, a4("10.4.1.1"), 2});
    }
  }
  std::stable_sort(s.packets.begin(), s.packets.end(),
                   [](const TopoPacket& l, const TopoPacket& r) {
                     return l.tick < r.tick;
                   });
  return s;
}

TEST(Topo, HarnessLineZeroStrictMismatches) {
  HarnessOptions opt;
  opt.rip = fastRip();
  const HarnessStats stats =
      runTopoScenario(smokeScenario(Shape::kLine, lookup::ClueMode::kAdvance),
                      opt);
  EXPECT_TRUE(stats.ok()) << stats.summary() << "\n" << stats.first_mismatch;
  EXPECT_GT(stats.forwarded_hops, 0u);
  EXPECT_GT(stats.delivered, 0u);
  EXPECT_GT(stats.publishes, 0u);
  EXPECT_FALSE(stats.convergence_samples.empty());
  // Every recorded transient respected the count-to-infinity bound.
  for (const int c : stats.convergence_samples) {
    EXPECT_LE(c, opt.rip.convergenceBound());
  }
}

TEST(Topo, HarnessRingZeroStrictMismatchesBothModes) {
  for (const auto mode :
       {lookup::ClueMode::kSimple, lookup::ClueMode::kAdvance}) {
    HarnessOptions opt;
    opt.rip = fastRip();
    const HarnessStats stats =
        runTopoScenario(smokeScenario(Shape::kRing, mode), opt);
    EXPECT_TRUE(stats.ok())
        << lookup::clueModeName(mode) << ": " << stats.summary() << "\n"
        << stats.first_mismatch;
    EXPECT_GT(stats.delivered, 0u);
    EXPECT_GT(stats.case1_hits, 0u);
  }
}

TEST(Topo, HarnessClassifiesStaleCluesDuringConvergence) {
  // The flap in the smoke scenario forces reconvergence while packets
  // flow; the lagged clue views must produce classified stale clues and
  // zero unclassified (strict) misroutes.
  HarnessOptions opt;
  opt.rip = fastRip();
  const HarnessStats stats =
      runTopoScenario(smokeScenario(Shape::kRing, lookup::ClueMode::kAdvance),
                      opt);
  EXPECT_TRUE(stats.ok()) << stats.summary();
  EXPECT_GT(stats.stale_clue_hops, 0u) << stats.summary();
}

TEST(Topo, HarnessIsDeterministic) {
  HarnessOptions opt;
  opt.rip = fastRip();
  const TopoScenario s = smokeScenario(Shape::kRing, lookup::ClueMode::kAdvance);
  const HarnessStats a = runTopoScenario(s, opt);
  const HarnessStats b = runTopoScenario(s, opt);
  EXPECT_EQ(a.forwarded_hops, b.forwarded_hops);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.stale_clue_hops, b.stale_clue_hops);
  EXPECT_EQ(a.case1_hits, b.case1_hits);
  EXPECT_EQ(a.convergence_samples, b.convergence_samples);
}

TEST(Topo, HarnessAllShapesSmoke) {
  for (std::size_t i = 0; i < kShapeCount; ++i) {
    TopoScenario s = generateTopoScenario(100 + i);
    s.shape = static_cast<Shape>(i);
    if (s.shape == Shape::kFatTree && s.nodes < 6) s.nodes = 6;
    s.ticks = std::min(s.ticks, 60);
    HarnessOptions opt;
    opt.rip = fastRip();
    const HarnessStats stats = runTopoScenario(s, opt);
    EXPECT_TRUE(stats.ok()) << shapeName(s.shape) << ": " << stats.summary()
                            << "\n" << stats.first_mismatch;
  }
}

TEST(Topo, ScenarioSerializeParseRoundTrip) {
  const TopoScenario s = generateTopoScenario(77);
  const std::string text = serializeTopoScenario(s);
  EXPECT_EQ(sim::scenarioFamily(text), "topo4");
  const auto parsed = parseTopoScenario(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(serializeTopoScenario(*parsed), text);  // byte fixpoint
  EXPECT_EQ(parsed->nodes, s.nodes);
  EXPECT_EQ(parsed->events.size(), s.events.size());
  EXPECT_EQ(parsed->packets.size(), s.packets.size());
}

// The mode line reads as a daemon config's does (lookup::clueModeFromName)
// and is written back lower-case.
TEST(Topo, ScenarioModeReadsEitherCase) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const std::string text = serializeTopoScenario(generateTopoScenario(seed));
    std::string capitalised = text;
    const auto at = capitalised.find("\nmode ");
    ASSERT_NE(at, std::string::npos);
    capitalised[at + 6] = static_cast<char>(capitalised[at + 6] - 'a' + 'A');
    const auto parsed = parseTopoScenario(capitalised);
    ASSERT_TRUE(parsed.has_value()) << capitalised.substr(at, 16);
    EXPECT_EQ(serializeTopoScenario(*parsed), text);
  }
}

TEST(Topo, ScenarioParserRejectsMalformed) {
  EXPECT_FALSE(parseTopoScenario("").has_value());
  EXPECT_FALSE(parseTopoScenario("cluert-scenario v1 ipv4\n").has_value());
  EXPECT_FALSE(parseTopoScenario("cluert-topo v2 ipv4\nseed 0\n").has_value());
  const std::string good = serializeTopoScenario(generateTopoScenario(3));
  EXPECT_TRUE(parseTopoScenario(good).has_value());
  // Router id out of range.
  std::string bad = good;
  const auto pos = bad.find("originate");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_FALSE(parseTopoScenario(bad + "trailing garbage\n").has_value());
}

TEST(Topo, GeneratedScenariosReplayClean) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const TopoScenario s = generateTopoScenario(seed);
    HarnessOptions opt;
    opt.rip = fastRip();
    const HarnessStats stats = runTopoScenario(s, opt);
    EXPECT_TRUE(stats.ok()) << "seed " << seed << ": " << stats.summary()
                            << "\n" << stats.first_mismatch;
  }
}

TEST(Topo, ShrinkerReducesWhilePreservingPredicate) {
  // Shrink against a cheap structural predicate (scenario still carries a
  // link-down event and at least one packet) — exercises the ddmin passes
  // without a long harness run per eval.
  TopoScenario s = generateTopoScenario(5);
  const TopoFailPredicate fails = [](const TopoScenario& c) {
    bool has_down = false;
    for (const auto& e : c.events) {
      if (e.kind == TopoEventKind::kLinkDown) has_down = true;
    }
    return has_down && !c.packets.empty();
  };
  ASSERT_TRUE(fails(s));
  sim::ShrinkStats st;
  const TopoScenario small = shrinkTopoScenario(s, fails, {}, &st);
  EXPECT_TRUE(fails(small));
  EXPECT_LE(small.packets.size(), 1u);
  EXPECT_LE(small.events.size(), 1u);
  EXPECT_TRUE(small.originate.empty());
  EXPECT_GT(st.evals, 0u);
  // Shrunk output still parses and re-serializes canonically.
  const std::string text = serializeTopoScenario(small);
  const auto parsed = parseTopoScenario(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(serializeTopoScenario(*parsed), text);
}

TEST(Topo, ShrunkHarnessPredicateStaysFailing) {
  // End-to-end shrink against a real harness predicate: stale clues seen
  // during a convergence window under Advance. Uses a small scenario so the
  // eval budget stays cheap.
  TopoScenario s = smokeScenario(Shape::kRing, lookup::ClueMode::kAdvance);
  s.ticks = 80;
  HarnessOptions opt;
  opt.rip = fastRip();
  opt.validate_publishes = false;  // speed: predicate is about staleness
  const TopoFailPredicate fails = [&](const TopoScenario& c) {
    const HarnessStats st = runTopoScenario(c, opt);
    return st.ok() && st.stale_during_convergence > 0;
  };
  ASSERT_TRUE(fails(s));
  sim::ShrinkOptions sopt;
  sopt.max_rounds = 2;
  sopt.max_evals = 120;
  const TopoScenario small = shrinkTopoScenario(s, fails, sopt);
  EXPECT_TRUE(fails(small));
  EXPECT_LT(small.packets.size(), s.packets.size());
}

// The committed corpus repros: replaying them must reproduce the transient
// behavior they were shrunk to pin down (and stay strict-clean doing it).
TEST(Topo, CorpusStaleFlapAdvanceRepro) {
  const auto text =
      readFile(std::string(CLUERT_CORPUS_DIR) +
                    "/topo-stale-flap-advance.scn");
  ASSERT_TRUE(text.has_value());
  const auto s = parseTopoScenario(*text);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->mode, lookup::ClueMode::kAdvance);
  // Default harness options: the committed repro must reproduce under the
  // exact configuration `sim_run replay` and the CI gate use.
  const HarnessStats stats = runTopoScenario(*s);
  EXPECT_TRUE(stats.ok()) << stats.summary() << "\n" << stats.first_mismatch;
  EXPECT_GT(stats.stale_during_flap, 0u) << stats.summary();
}

TEST(Topo, CorpusWithdrawRaceRepro) {
  const auto text = readFile(std::string(CLUERT_CORPUS_DIR) +
                                  "/topo-withdraw-race.scn");
  ASSERT_TRUE(text.has_value());
  const auto s = parseTopoScenario(*text);
  ASSERT_TRUE(s.has_value());
  bool has_withdraw = false;
  for (const auto& e : s->events) {
    if (e.kind == TopoEventKind::kWithdraw) has_withdraw = true;
  }
  EXPECT_TRUE(has_withdraw);
  const HarnessStats stats = runTopoScenario(*s);
  EXPECT_TRUE(stats.ok()) << stats.summary() << "\n" << stats.first_mismatch;
  // The race window: packets stale-clued while the withdraw propagates.
  EXPECT_GT(stats.stale_during_withdraw, 0u) << stats.summary();
}

}  // namespace
}  // namespace cluert::topo
