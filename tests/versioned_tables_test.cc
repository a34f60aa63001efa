// Epoch-versioned table publication (rib::VersionedTables) and the updater
// thread (rib::RouteUpdater): lifecycle, incremental-vs-fresh-build
// equivalence, §3.4 inactive marking across versions and the compaction
// that bounds it, grace-period blocking, and retired-version validation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "check/validate.h"
#include "obs/export.h"
#include "rib/route_updater.h"
#include "rib/versioned_tables.h"
#include "test_util.h"

namespace cluert::rib {
namespace {

using testutil::a4;
using testutil::p4;
using A = ip::Ip4Addr;
using Entry = Fib4::EntryT;

Fib4 smallLocal() {
  return Fib4({Entry{p4("10.0.0.0/8"), 1}, Entry{p4("10.1.0.0/16"), 2},
               Entry{p4("20.0.0.0/8"), 3}, Entry{p4("30.0.0.0/8"), 4}});
}

Fib4 smallNeighbor() {
  return Fib4({Entry{p4("10.0.0.0/8"), 9}, Entry{p4("10.1.0.0/16"), 9},
               Entry{p4("20.0.0.0/8"), 9}, Entry{p4("30.0.0.0/8"), 9},
               Entry{p4("30.5.0.0/16"), 9}});
}

// Resolves `dest` through an unbound CluePort pinned to the live version —
// the exact data-plane path a pipeline worker takes.
NextHop resolveAt(VersionedTables4& vt, const A& dest,
                  const core::ClueField& clue,
                  lookup::ClueMode mode = lookup::ClueMode::kSimple) {
  typename core::CluePort<A>::Options opt;
  opt.method = lookup::Method::kPatricia;
  opt.mode = mode;
  core::CluePort<A> port(opt);
  auto guard = vt.pin(0);
  port.bindVersion(guard->seq, *guard->suite, guard->clues,
                   &guard->neighbor_trie);
  mem::AccessCounter acc;
  const auto r = port.process(dest, clue, acc);
  return r.match ? r.match->next_hop : kNoNextHop;
}

TEST(VersionedTables, InitialPublishServesLookups) {
  VersionedTables4::Options opt;
  VersionedTables4 vt(smallLocal(), smallNeighbor(), opt);
  EXPECT_EQ(vt.liveSeq(), 1u);
  EXPECT_EQ(vt.swaps(), 0u);

  EXPECT_EQ(resolveAt(vt, a4("10.1.2.3"), core::ClueField::of(16)), 2u);
  EXPECT_EQ(resolveAt(vt, a4("10.2.0.1"), core::ClueField::of(8)), 1u);
  EXPECT_EQ(resolveAt(vt, a4("30.5.1.1"), core::ClueField::of(16)), 4u);
  EXPECT_EQ(resolveAt(vt, a4("99.0.0.1"), core::ClueField::none()),
            kNoNextHop);
  // The initial version passes every invariant the retirement gate uses.
  const auto report = check::validate(vt.liveVersion());
  EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(VersionedTables, PublishLocalAppliesDeltaAndBumpsSeq) {
  VersionedTables4::Options opt;
  opt.validate_retired = true;
  VersionedTables4 vt(smallLocal(), smallNeighbor(), opt);

  FibDelta4 d;
  d.removed.push_back(p4("10.1.0.0/16"));
  d.added.push_back(Entry{p4("40.0.0.0/8"), 7});
  d.rerouted.push_back(Entry{p4("20.0.0.0/8"), 8});
  EXPECT_EQ(vt.publishLocal(d), 2u);
  EXPECT_EQ(vt.liveSeq(), 2u);
  EXPECT_EQ(vt.swaps(), 1u);

  // Withdrawn /16 now resolves to the covering /8 — even when the (stale)
  // clue still says /16.
  EXPECT_EQ(resolveAt(vt, a4("10.1.2.3"), core::ClueField::of(16)), 1u);
  EXPECT_EQ(resolveAt(vt, a4("40.1.2.3"), core::ClueField::none()), 7u);
  EXPECT_EQ(resolveAt(vt, a4("20.9.9.9"), core::ClueField::of(8)), 8u);

  // Empty delta: no swap, same sequence.
  EXPECT_EQ(vt.publishLocal(FibDelta4{}), 2u);
  EXPECT_EQ(vt.swaps(), 1u);

  const auto report = check::validate(vt.liveVersion());
  EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(VersionedTables, NeighborWithdrawGoesInactiveButRoutesCorrectly) {
  VersionedTables4::Options opt;
  opt.validate_retired = true;
  VersionedTables4 vt(smallLocal(), smallNeighbor(), opt);

  FibDelta4 d;
  d.removed.push_back(p4("30.5.0.0/16"));
  EXPECT_EQ(vt.publishNeighbor(d), 2u);

  // §3.4: the entry is marked inactive, not removed (probe chains intact)...
  bool found_inactive = false;
  vt.liveVersion().clues.forEach([&](const core::ClueEntry<A>& e) {
    if (e.clue == p4("30.5.0.0/16")) found_inactive = !e.active;
  });
  EXPECT_TRUE(found_inactive);
  // ...and a stale clue naming it still routes to the receiver's BMP via the
  // miss -> common-lookup path.
  EXPECT_EQ(resolveAt(vt, a4("30.5.1.1"), core::ClueField::of(16)), 4u);

  // Re-announce: the entry comes back active with a fresh analysis.
  FibDelta4 back;
  back.added.push_back(Entry{p4("30.5.0.0/16"), 9});
  EXPECT_EQ(vt.publishNeighbor(back), 3u);
  bool found_active = false;
  vt.liveVersion().clues.forEach([&](const core::ClueEntry<A>& e) {
    if (e.clue == p4("30.5.0.0/16")) found_active = e.active;
  });
  EXPECT_TRUE(found_active);
  EXPECT_EQ(resolveAt(vt, a4("30.5.1.1"), core::ClueField::of(16)), 4u);
}

TEST(VersionedTables, IncrementalChurnMatchesFreshBuild) {
  Rng rng(4242);
  const auto local_entries = testutil::randomTable4(rng, 120);
  const auto neighbor_entries =
      testutil::neighborOf(local_entries, rng, 0.8, 20, 0.5);
  Fib4 local{std::vector<Entry>(local_entries)};
  Fib4 neighbor{std::vector<Entry>(neighbor_entries)};

  VersionedTables4::Options opt;
  opt.mode = lookup::ClueMode::kSimple;
  opt.validate_retired = true;
  VersionedTables4 vt(local, neighbor, opt);

  // Drive 12 small deltas (withdraw / announce / reroute on both sides),
  // tracking the evolving tables on the test side with applyDelta.
  Fib4 cur_local = local;
  Fib4 cur_neighbor = neighbor;
  for (int round = 0; round < 12; ++round) {
    FibDelta4 d;
    const auto entries = cur_local.entries();
    d.removed.push_back(entries[rng.index(entries.size())].prefix);
    Entry fresh = entries[rng.index(entries.size())];
    fresh.next_hop = static_cast<NextHop>(rng.uniform(0, 30));
    if (fresh.prefix != d.removed[0]) d.rerouted.push_back(fresh);
    applyDelta(cur_local, d);
    vt.publishLocal(d);

    FibDelta4 nd;
    const auto nentries = cur_neighbor.entries();
    nd.removed.push_back(nentries[rng.index(nentries.size())].prefix);
    applyDelta(cur_neighbor, nd);
    vt.publishNeighbor(nd);
  }

  // A fresh build from the final tables must forward identically.
  VersionedTables4 fresh_vt(cur_local, cur_neighbor, opt);
  const auto final_local = cur_local.entries();
  const std::vector<Entry> final_entries{final_local.begin(),
                                         final_local.end()};
  trie::BinaryTrie<A> t1 = cur_neighbor.buildTrie();
  mem::AccessCounter scratch;
  for (int i = 0; i < 200; ++i) {
    const auto dest = testutil::coveredAddress<A>(final_entries, rng,
                                                  testutil::randomAddr4);
    const auto bmp = t1.lookup(dest, scratch);
    const auto clue = bmp ? core::ClueField::of(bmp->prefix.length())
                          : core::ClueField::none();
    const NextHop churned = resolveAt(vt, dest, clue);
    const NextHop rebuilt = resolveAt(fresh_vt, dest, clue);
    ASSERT_EQ(churned, rebuilt) << dest.toString();
    const auto expect = check::bruteForceBmp(final_entries, dest);
    ASSERT_EQ(churned, expect ? expect->next_hop : kNoNextHop)
        << dest.toString();
  }
  EXPECT_EQ(vt.fullRebuilds(), 0u);  // too few withdrawals to compact
  const auto report = check::validate(vt.liveVersion());
  EXPECT_TRUE(report.ok()) << report.toString();
}

// A delta that replaces over half the receiver table patches like any
// other: no compaction, a valid version, and the same clue table, entry for
// entry, as a fresh build over the final tables. For every method and mode.
TEST(VersionedTables, LargeLocalDeltaEqualsAFreshBuild) {
  for (const lookup::Method method : lookup::kExtendedMethods) {
    for (const lookup::ClueMode mode :
         {lookup::ClueMode::kSimple, lookup::ClueMode::kAdvance}) {
      SCOPED_TRACE(testing::Message() << lookup::methodName(method) << "/"
                                      << lookup::clueModeName(mode));
      Rng rng(90 + static_cast<std::uint64_t>(method));
      const auto local_entries = testutil::randomTable4(rng, 160);
      const auto neighbor_entries =
          testutil::neighborOf(local_entries, rng, 0.8, 20, 0.5);
      const Fib4 local{std::vector<Entry>(local_entries)};
      const Fib4 neighbor{std::vector<Entry>(neighbor_entries)};

      VersionedTables4::Options opt;
      opt.method = method;
      opt.mode = mode;
      opt.validate_retired = true;
      VersionedTables4 vt(local, neighbor, opt);

      // Withdraw three of every five routes, reroute one, and announce as
      // many fresh prefixes as were withdrawn.
      FibDelta4 d;
      for (std::size_t i = 0; i < local_entries.size(); ++i) {
        if (i % 5 < 3) {
          d.removed.push_back(local_entries[i].prefix);
        } else if (i % 5 == 3) {
          d.rerouted.push_back(Entry{local_entries[i].prefix, 33});
        }
      }
      std::set<ip::Prefix4> announced;
      for (const Entry& e : testutil::randomTable4(rng, 3 * d.removed.size())) {
        if (announced.size() == d.removed.size()) break;
        if (!local.contains(e.prefix) && announced.insert(e.prefix).second) {
          d.added.push_back(e);
        }
      }
      ASSERT_GT(2 * d.removed.size(), local.size());
      ASSERT_EQ(d.added.size(), d.removed.size());

      vt.publishLocal(d);
      EXPECT_EQ(vt.fullRebuilds(), 0u);
      const auto report = check::validate(vt.liveVersion());
      ASSERT_TRUE(report.ok()) << report.toString();

      Fib4 final_local = local;
      applyDelta(final_local, d);
      const VersionedTables4 fresh(final_local, neighbor, opt);
      testutil::expectSameClueTables(vt.liveVersion().clues,
                                     fresh.liveVersion().clues, method);
    }
  }
}

// Steady sender churn of fresh prefixes, each delta far below a quarter of
// either table: the §3.4-inactive entries it leaves would grow the clue
// table and its key index without bound, so a publish that leaves more of
// them than live entries compacts the table. A compaction rebuilds the
// hashed entries only: the self slots of the buffer that compacted are bit
// for bit what they were, and every version validates.
TEST(VersionedTables, SenderChurnCompactsTheClueTable) {
  constexpr int kRounds = 120;
  for (const lookup::Method method : lookup::kExtendedMethods) {
    for (const lookup::ClueMode mode :
         {lookup::ClueMode::kSimple, lookup::ClueMode::kAdvance}) {
      SCOPED_TRACE(testing::Message() << lookup::methodName(method) << "/"
                                      << lookup::clueModeName(mode));
      Rng rng(70 + static_cast<std::uint64_t>(method));
      const auto local_entries = testutil::randomTable4(rng, 60);
      const auto neighbor_entries =
          testutil::neighborOf(local_entries, rng, 0.8, 10, 0.5);
      const Fib4 local{std::vector<Entry>(local_entries)};
      Fib4 neighbor{std::vector<Entry>(neighbor_entries)};

      VersionedTables4::Options opt;
      opt.method = method;
      opt.mode = mode;
      opt.validate_retired = true;
      VersionedTables4 vt(local, neighbor, opt);

      std::uint64_t compactions = 0;
      std::uint32_t fresh = 0;
      std::vector<unsigned char> before(core::kSelfClueSlots *
                                        sizeof(core::ClueEntry<A>));
      for (int round = 0; round < kRounds; ++round) {
        // Two routes withdrawn, two never-seen /24s under 100.0.0.0/8
        // announced: 4 changes against tables of ~60 routes.
        FibDelta4 d;
        const auto entries = neighbor.entries();
        d.removed.push_back(entries[rng.index(entries.size())].prefix);
        const ip::Prefix4 other = entries[rng.index(entries.size())].prefix;
        if (other != d.removed[0]) d.removed.push_back(other);
        for (int k = 0; k < 2; ++k) {
          d.added.push_back(Entry{
              ip::Prefix4(ip::Ip4Addr((100u << 24) | (++fresh << 8)), 24),
              5});
        }
        ASSERT_LT(4 * d.size(), local.size());

        const TableVersion<A>& was_live = vt.liveVersion();
        std::memcpy(before.data(), &was_live.clues.selfSlotAt(0),
                    before.size());
        const std::uint64_t rebuilt = vt.fullRebuilds();
        vt.publishNeighbor(d);
        applyDelta(neighbor, d);

        const TableVersion<A>& live = vt.liveVersion();
        ASSERT_LE(live.clues.size(), 2 * live.neighbor.size() + 16);
        if (vt.fullRebuilds() == rebuilt) continue;
        ++compactions;
        ASSERT_EQ(live.clues.size(), live.neighbor.size());
        // `was_live` has caught up with the same publish, compaction
        // included.
        ASSERT_EQ(was_live.clues.size(), live.clues.size());
        ASSERT_EQ(std::memcmp(before.data(), &was_live.clues.selfSlotAt(0),
                              before.size()),
                  0)
            << "a compaction moved a self slot";
        const auto report = check::validate(live);
        ASSERT_TRUE(report.ok()) << report.toString();
      }
      EXPECT_GE(compactions, 2u);
      EXPECT_EQ(vt.fullRebuilds(), compactions);
      const auto report = check::validate(vt.liveVersion());
      EXPECT_TRUE(report.ok()) << report.toString();
    }
  }
}

TEST(VersionedTables, AdvanceModeSurvivesChurn) {
  Rng rng(777);
  const auto local_entries = testutil::randomTable4(rng, 80);
  const auto neighbor_entries =
      testutil::neighborOf(local_entries, rng, 0.85, 15, 0.5);
  Fib4 local{std::vector<Entry>(local_entries)};
  Fib4 neighbor{std::vector<Entry>(neighbor_entries)};

  VersionedTables4::Options opt;
  opt.mode = lookup::ClueMode::kAdvance;
  opt.validate_retired = true;
  VersionedTables4 vt(local, neighbor, opt);

  Fib4 cur_local = local;
  for (int round = 0; round < 6; ++round) {
    FibDelta4 d;
    const auto entries = cur_local.entries();
    d.removed.push_back(entries[rng.index(entries.size())].prefix);
    applyDelta(cur_local, d);
    vt.publishLocal(d);
  }

  // Advance with a *static* sender: genuine clues, quiescent comparison.
  const auto final_local = cur_local.entries();
  const std::vector<Entry> final_entries{final_local.begin(),
                                         final_local.end()};
  trie::BinaryTrie<A> t1 = neighbor.buildTrie();
  mem::AccessCounter scratch;
  for (int i = 0; i < 150; ++i) {
    const auto dest = testutil::coveredAddress<A>(final_entries, rng,
                                                  testutil::randomAddr4);
    const auto bmp = t1.lookup(dest, scratch);
    if (!bmp) continue;
    const NextHop got = resolveAt(vt, dest, core::ClueField::of(
                                                bmp->prefix.length()),
                                  lookup::ClueMode::kAdvance);
    const auto expect = check::bruteForceBmp(final_entries, dest);
    ASSERT_EQ(got, expect ? expect->next_hop : kNoNextHop) << dest.toString();
  }
  const auto report = check::validate(vt.liveVersion());
  EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(VersionedTables, GracePeriodWaitsForPinnedReader) {
  VersionedTables4::Options opt;
  VersionedTables4 vt(smallLocal(), smallNeighbor(), opt);

  auto guard = vt.pin(0);
  ASSERT_EQ(guard->seq, 1u);

  std::atomic<bool> published{false};
  std::thread updater([&] {
    FibDelta4 d;
    d.rerouted.push_back(Entry{p4("20.0.0.0/8"), 11});
    vt.publishLocal(d);
    published.store(true, std::memory_order_release);
  });

  // The swap itself is wait-free (liveSeq moves), but the publish cannot
  // *finish* — the retired buffer may still be read through our guard.
  while (vt.liveSeq() != 2u) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(published.load(std::memory_order_acquire));
  // The pinned version is still fully readable.
  mem::AccessCounter acc;
  const auto m = guard->suite->engine(guard->method).lookup(a4("20.1.1.1"),
                                                            acc);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->next_hop, 3u);  // the retired version's next hop

  guard = VersionedTables4::ReadGuard();  // unpin
  updater.join();
  EXPECT_TRUE(published.load(std::memory_order_acquire));
  EXPECT_EQ(resolveAt(vt, a4("20.1.1.1"), core::ClueField::of(8)), 11u);
}

TEST(VersionedTables, LateReaderNeverBlocksPublisher) {
  VersionedTables4::Options opt;
  VersionedTables4 vt(smallLocal(), smallNeighbor(), opt);
  // Pin-unpin cycles leave the epoch counter even; the publisher must not
  // wait on quiescent slots.
  for (int i = 0; i < 3; ++i) {
    auto g = vt.pin(2);
  }
  FibDelta4 d;
  d.rerouted.push_back(Entry{p4("30.0.0.0/8"), 12});
  EXPECT_EQ(vt.publishLocal(d), 2u);  // returns == grace completed
}

TEST(VersionedTables, ChurnObsCountersPublish) {
  obs::MetricRegistry registry;
  VersionedTables4::Options opt;
  opt.registry = &registry;
  opt.validate_retired = true;
  VersionedTables4 vt(smallLocal(), smallNeighbor(), opt);

  FibDelta4 d;
  d.rerouted.push_back(Entry{p4("20.0.0.0/8"), 6});
  vt.publishLocal(d);
  // The sender flaps a fresh /16 per publish, each withdrawing the last:
  // inactive entries pile up until they outnumber the live ones and a
  // publish compacts the clue table.
  std::uint64_t publishes = 1;
  for (std::uint32_t k = 1; vt.fullRebuilds() == 0 && k < 64; ++k) {
    FibDelta4 flap;
    flap.added.push_back(
        Entry{ip::Prefix4(ip::Ip4Addr((60u << 24) | (k << 16)), 16), 6});
    if (k > 1) {
      flap.removed.push_back(
          ip::Prefix4(ip::Ip4Addr((60u << 24) | ((k - 1) << 16)), 16));
    }
    vt.publishNeighbor(flap);
    ++publishes;
  }
  ASSERT_EQ(vt.fullRebuilds(), 1u);

  const std::string prom = obs::toPrometheus(registry.snapshot());
  const auto has = [&](const std::string& line) {
    EXPECT_NE(prom.find(line + "\n"), std::string::npos) << line << "\n"
                                                          << prom;
  };
  has("rib_version_swaps_total " + std::to_string(publishes));
  has("rib_version_live_seq " + std::to_string(publishes + 1));
  has("rib_version_full_rebuilds_total 1");
  has("rib_version_retired_validated_total " + std::to_string(publishes));
}

TEST(VersionedUpdater, DrainsQueueInOrderAndMeasuresLatency) {
  VersionedTables4::Options opt;
  VersionedTables4 vt(smallLocal(), smallNeighbor(), opt);
  {
    RouteUpdater4 updater(vt);
    for (int i = 0; i < 5; ++i) {
      FibDelta4 d;
      d.rerouted.push_back(
          Entry{p4("20.0.0.0/8"), static_cast<NextHop>(100 + i)});
      updater.enqueueLocal(d);
    }
    updater.enqueueLocal(FibDelta4{});  // empty: dropped, not published
    updater.stop();
    EXPECT_EQ(updater.published(), 5u);
    EXPECT_EQ(updater.latencyNs().count(), 5u);
    EXPECT_GT(updater.latencyNs().max(), 0.0);
  }
  EXPECT_EQ(vt.liveSeq(), 6u);  // seq 1 + 5 publishes, in order
  EXPECT_EQ(resolveAt(vt, a4("20.1.1.1"), core::ClueField::of(8)), 104u);
}

TEST(VersionedUpdater, StopIsIdempotentAndDrainsBacklog) {
  VersionedTables4::Options opt;
  VersionedTables4 vt(smallLocal(), smallNeighbor(), opt);
  RouteUpdater4 updater(vt);
  for (int i = 0; i < 50; ++i) {
    FibDelta4 d;
    d.rerouted.push_back(
        Entry{p4("30.0.0.0/8"), static_cast<NextHop>(i % 7)});
    updater.enqueueLocal(d);
  }
  updater.stop();
  updater.stop();
  EXPECT_EQ(updater.published(), 50u);
  EXPECT_EQ(vt.liveSeq(), 51u);
}

}  // namespace
}  // namespace cluert::rib
