// Tests for the deterministic scenario simulator (src/sim/): generator
// determinism, the fault safety matrix, the differential sweep itself, and
// a threaded churn run that feeds scenario-drawn deltas through the
// epoch-versioned pipeline (the TSan-gated half of DESIGN.md §8).
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "pipeline/pipeline.h"
#include "rib/route_updater.h"
#include "rib/versioned_tables.h"
#include "sim/sim.h"

namespace cluert {
namespace {

using A = ip::Ip4Addr;

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

TEST(SimGenerator, SameSeedSameScenario) {
  const auto a = sim::generateScenario<A>(1234);
  const auto b = sim::generateScenario<A>(1234);
  EXPECT_EQ(sim::serializeScenario(a), sim::serializeScenario(b));
}

TEST(SimGenerator, DifferentSeedsDiffer) {
  const auto a = sim::generateScenario<A>(1);
  const auto b = sim::generateScenario<A>(2);
  EXPECT_NE(sim::serializeScenario(a), sim::serializeScenario(b));
}

TEST(SimGenerator, RespectsOptions) {
  sim::GenOptions opt;
  opt.packets = 37;
  opt.faults = false;
  opt.churn = false;
  const auto s = sim::generateScenario<A>(5, opt);
  EXPECT_EQ(s.packets.size(), 37u);
  EXPECT_EQ(s.faultCount(), 0u);
  EXPECT_TRUE(s.churn.empty());
  EXPECT_GE(s.receiver.size(), sim::kMinTable);
  EXPECT_LE(s.receiver.size(), sim::kMaxTable);
}

TEST(SimGenerator, ChurnStepsAreSortedAndConsistent) {
  sim::GenOptions opt;
  opt.max_churn_steps = 12;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto s = sim::generateScenario<A>(seed, opt);
    // Sorted by publish point, and every delta applies cleanly to the
    // mirrored receiver/sender state (drawDelta's contract).
    rib::Fib<A> recv{std::vector<trie::Match<A>>(s.receiver)};
    rib::Fib<A> send{std::vector<trie::Match<A>>(s.sender)};
    std::size_t prev = 0;
    for (const auto& step : s.churn) {
      EXPECT_GE(step.after_packet, prev);
      prev = step.after_packet;
      rib::Fib<A>& target = step.neighbor ? send : recv;
      for (const auto& p : step.delta.removed) EXPECT_TRUE(target.contains(p));
      for (const auto& e : step.delta.added) {
        EXPECT_FALSE(target.contains(e.prefix));
      }
      rib::applyDelta(target, step.delta);
    }
  }
}

TEST(SimGenerator, Ipv6ScenariosGenerate) {
  const auto s = sim::generateScenario<ip::Ip6Addr>(77);
  EXPECT_FALSE(s.receiver.empty());
  EXPECT_FALSE(s.packets.empty());
  const auto text = sim::serializeScenario(s);
  EXPECT_EQ(sim::scenarioFamily(text), "ipv6");
  const auto back = sim::parseScenario<ip::Ip6Addr>(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(sim::serializeScenario(*back), text);
}

// ---------------------------------------------------------------------------
// Fault safety matrix (scenario.h's oracleStrict contract)
// ---------------------------------------------------------------------------

TEST(SimFaults, SafetyMatrix) {
  using lookup::ClueMode;
  using sim::Fault;
  // Simple is safe under every fault: any decoded clue is a prefix of the
  // destination, and Simple never trusts more than that.
  for (const Fault f : {Fault::kNone, Fault::kNoClue, Fault::kTruncated,
                        Fault::kJunk, Fault::kStale, Fault::kWrongIndex}) {
    EXPECT_TRUE(sim::oracleStrict(f, ClueMode::kSimple))
        << sim::faultName(f);
  }
  // Advance's Claim 1 assumes the clue is the sender's genuine current BMP;
  // faults voiding that contract are robustness-only.
  EXPECT_TRUE(sim::oracleStrict(Fault::kNone, ClueMode::kAdvance));
  EXPECT_TRUE(sim::oracleStrict(Fault::kNoClue, ClueMode::kAdvance));
  EXPECT_TRUE(sim::oracleStrict(Fault::kWrongIndex, ClueMode::kAdvance));
  EXPECT_FALSE(sim::oracleStrict(Fault::kTruncated, ClueMode::kAdvance));
  EXPECT_FALSE(sim::oracleStrict(Fault::kJunk, ClueMode::kAdvance));
  EXPECT_FALSE(sim::oracleStrict(Fault::kStale, ClueMode::kAdvance));
}

TEST(SimFaults, FaultNamesRoundTrip) {
  using sim::Fault;
  for (const Fault f : {Fault::kNone, Fault::kNoClue, Fault::kTruncated,
                        Fault::kJunk, Fault::kStale, Fault::kWrongIndex}) {
    const auto name = sim::faultName(f);
    const auto back = sim::faultFromName(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, f);
  }
  EXPECT_FALSE(sim::faultFromName("gibberish").has_value());
}

// ---------------------------------------------------------------------------
// Corpus format
// ---------------------------------------------------------------------------

TEST(SimCorpus, RejectsMalformedInput) {
  EXPECT_FALSE(sim::parseScenario<A>("").has_value());
  EXPECT_FALSE(sim::parseScenario<A>("not-a-scenario\n").has_value());
  // Wrong family for the parser instantiation.
  const auto s6 = sim::serializeScenario(sim::generateScenario<ip::Ip6Addr>(
      3, [] { sim::GenOptions o; o.packets = 4; return o; }()));
  EXPECT_FALSE(sim::parseScenario<A>(s6).has_value());
  // Truncated: counts promise more lines than the file holds.
  auto text = sim::serializeScenario(sim::generateScenario<A>(
      3, [] { sim::GenOptions o; o.packets = 4; return o; }()));
  text.resize(text.size() / 2);
  EXPECT_FALSE(sim::parseScenario<A>(text).has_value());
  // Unknown version must be rejected, not guessed at.
  EXPECT_FALSE(
      sim::parseScenario<A>("cluert-scenario v9 ipv4\nseed 1\n").has_value());
}

TEST(SimCorpus, CommentsAndBlankLinesAreIgnored) {
  sim::GenOptions opt;
  opt.packets = 6;
  const auto s = sim::generateScenario<A>(9, opt);
  std::string text = "# shrunk repro for bug X\n\n" + sim::serializeScenario(s);
  const auto back = sim::parseScenario<A>(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(sim::serializeScenario(*back), sim::serializeScenario(s));
}

// ---------------------------------------------------------------------------
// The differential sweep: every engine x mode x organisation against the
// brute-force oracle, faults and mid-stream version swaps included.
// ---------------------------------------------------------------------------

TEST(SimDifferential, SweepIsCleanAcrossSeeds) {
  std::uint64_t checked = 0;
  std::uint64_t faults = 0;
  std::uint64_t publishes = 0;
  for (std::uint64_t seed = 101; seed <= 106; ++seed) {
    const auto s = sim::generateScenario<A>(seed);
    const auto r = sim::runScenario(s, sim::RunOptions<A>{});
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.summary();
    for (const auto& m : r.mismatches) {
      ADD_FAILURE() << "seed " << seed << " pkt " << m.packet << " "
                    << sim::configName(m.config) << ": " << m.detail;
    }
    checked += r.strict_checked;
    faults += r.faults_injected;
    publishes += r.publishes;
    EXPECT_EQ(r.configs, 24u);  // 6 methods x 2 modes x 2 organisations
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(faults, 0u);
  EXPECT_GT(publishes, 0u);
}

TEST(SimDifferential, Ipv6SweepIsClean) {
  for (std::uint64_t seed = 201; seed <= 202; ++seed) {
    const auto s = sim::generateScenario<ip::Ip6Addr>(seed);
    const auto r = sim::runScenario(s, sim::RunOptions<ip::Ip6Addr>{});
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.summary();
    for (const auto& m : r.mismatches) {
      ADD_FAILURE() << "seed " << seed << " pkt " << m.packet << " "
                    << sim::configName(m.config) << ": " << m.detail;
    }
  }
}

TEST(SimDifferential, FaultHeavyStreamsStayClean) {
  sim::GenOptions gen;
  gen.fault_fraction = 0.9;
  gen.packets = 400;
  for (std::uint64_t seed = 301; seed <= 303; ++seed) {
    const auto s = sim::generateScenario<A>(seed, gen);
    EXPECT_GT(s.faultCount(), s.packets.size() / 2);
    const auto r = sim::runScenario(s, sim::RunOptions<A>{});
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.summary();
  }
}

// The runner's oracle row must equal a naive per-packet recomputation.
TEST(SimDifferential, OracleRowTracksLocalChurnOnly) {
  sim::GenOptions gen;
  gen.max_churn_steps = 8;
  const auto s = sim::generateScenario<A>(11, gen);
  const auto row = sim::detail::oracleRow(s);
  ASSERT_EQ(row.size(), s.packets.size());
  for (std::size_t i = 0; i < s.packets.size(); ++i) {
    rib::Fib<A> recv{std::vector<trie::Match<A>>(s.receiver)};
    for (const auto& step : s.churn) {
      if (step.after_packet <= i && !step.neighbor) {
        rib::applyDelta(recv, step.delta);
      }
    }
    const auto want =
        check::bruteForceBmp(recv.entries(), s.packets[i].dest);
    EXPECT_EQ(row[i].has_value(), want.has_value()) << "packet " << i;
    if (row[i] && want) {
      EXPECT_EQ(row[i]->prefix, want->prefix) << "packet " << i;
      EXPECT_EQ(row[i]->next_hop, want->next_hop) << "packet " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Threaded churn: scenario-drawn deltas through the epoch-versioned
// pipeline, 4 workers racing a dedicated updater (run under TSan by
// tools/run_sanitizers.sh thread).
// ---------------------------------------------------------------------------

TEST(SimChurn, ScenarioDeltasThroughPipelineMatchPinnedOracle) {
  sim::GenOptions gen;
  gen.packets = 256;
  gen.faults = true;
  gen.churn = false;  // churn comes from the live updater below
  const auto s = sim::generateScenario<A>(4242, gen);

  // Packet stream: scenario destinations with their fault-materialised
  // clues, computed against the initial sender table (stale by design once
  // the updater starts publishing — Simple must absorb that).
  trie::BinaryTrie<A> t1;
  for (const auto& e : s.sender) t1.insert(e.prefix, e.next_hop);
  mem::AccessCounter scratch;
  std::vector<pipeline::Pipeline4::Input> inputs;
  inputs.reserve(s.packets.size());
  for (const auto& p : s.packets) {
    inputs.push_back(
        {p.dest, sim::detail::makeField<A>(p, t1, t1, nullptr, scratch)});
  }

  std::unordered_map<std::uint64_t, std::vector<NextHop>> oracle;
  const auto oracleRowFor = [&](const rib::TableVersion<A>& v) {
    std::vector<NextHop> row(s.packets.size(), kNoNextHop);
    mem::AccessCounter acc;
    const auto& engine = v.suite->engine(v.method);
    for (std::size_t i = 0; i < s.packets.size(); ++i) {
      if (const auto m = engine.lookup(s.packets[i].dest, acc)) {
        row[i] = m->next_hop;
      }
    }
    return row;
  };

  rib::Fib<A> local{std::vector<trie::Match<A>>(s.receiver)};
  rib::Fib<A> neighbor{std::vector<trie::Match<A>>(s.sender)};
  rib::VersionedTables4::Options vopt;
  vopt.mode = lookup::ClueMode::kSimple;
  vopt.validate_retired = false;
  vopt.on_publish = [&](const rib::TableVersion<A>& v) {
    oracle.emplace(v.seq, oracleRowFor(v));
  };
  rib::VersionedTables4 vt(local, neighbor, vopt);
  oracle.emplace(1, oracleRowFor(vt.liveVersion()));

  pipeline::PipelineOptions popt;
  popt.workers = 4;
  popt.batch_size = 32;
  popt.mode = lookup::ClueMode::kSimple;
  popt.cache_entries = 64;
  popt.seed = 17;
  pipeline::Pipeline4 pipe(vt, popt);

  // Deltas drawn by the scenario generator's own drawDelta against mirrored
  // tables — the same distribution the single-threaded runner replays.
  Rng rng(Rng::splitMix64(s.seed) ^ 0xc0ffee);
  rib::Fib<A> cur_local = local;
  rib::Fib<A> cur_neighbor = neighbor;
  std::vector<trie::Match<A>> withdrawn_local, withdrawn_neighbor;

  std::vector<std::vector<NextHop>> outs;
  std::vector<std::vector<std::uint64_t>> vouts;
  {
    rib::RouteUpdater4 updater(vt);
    std::uint64_t enqueued = 0;
    while (updater.published() < 200) {
      if (enqueued < updater.published() + 32) {
        for (int b = 0; b < 4; ++b) {
          auto d = sim::detail::drawDelta(rng, cur_local, withdrawn_local, 4);
          if (d.empty()) continue;
          updater.enqueueLocal(std::move(d));
          ++enqueued;
        }
        auto d =
            sim::detail::drawDelta(rng, cur_neighbor, withdrawn_neighbor, 4);
        if (!d.empty()) {
          updater.enqueueNeighbor(std::move(d));
          ++enqueued;
        }
      }
      outs.emplace_back(inputs.size(), kNoNextHop);
      vouts.emplace_back(inputs.size(), 0);
      pipe.run(inputs, outs.back(), vouts.back());
    }
    updater.stop();
  }
  EXPECT_GE(vt.swaps(), 200u);

  for (std::size_t r = 0; r < outs.size(); ++r) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto it = oracle.find(vouts[r][i]);
      ASSERT_NE(it, oracle.end()) << "no oracle row for seq " << vouts[r][i];
      ASSERT_EQ(outs[r][i], it->second[i])
          << "run " << r << " packet " << i << " at version " << vouts[r][i];
    }
  }
}

}  // namespace
}  // namespace cluert
