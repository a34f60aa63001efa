// Route-update dynamics: incremental trie maintenance, suite refresh, clue
// table recomputation, the §3.4 inactive-entry marking, and the
// RouteUpdater's cross-queue publication ordering.
#include <gtest/gtest.h>

#include <thread>

#include "core/distributed_lookup.h"
#include "rib/route_updater.h"
#include "rib/versioned_tables.h"
#include "sim/scenario.h"
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

// ---------------------------------------------------------------------------
// Patricia erase
// ---------------------------------------------------------------------------

TEST(PatriciaErase, RemoveLeafAndSpliceUnaryParent) {
  trie::PatriciaTrie4 t;
  t.insert(p4("10.1.2.0/24"), 1);
  t.insert(p4("10.1.3.0/24"), 2);
  // Root -> fork(/23) -> two leaves. Erasing one leaf must splice the fork.
  EXPECT_TRUE(t.erase(p4("10.1.2.0/24")));
  EXPECT_EQ(t.prefixCount(), 1u);
  EXPECT_FALSE(t.contains(p4("10.1.2.0/24")));
  EXPECT_TRUE(t.contains(p4("10.1.3.0/24")));
  // Invariant: no unmarked unary nodes.
  t.forEachNode([](const trie::PatriciaTrie4::Node& n) {
    const int kids = (n.child[0] ? 1 : 0) + (n.child[1] ? 1 : 0);
    if (n.prefix.length() > 0) {
      EXPECT_TRUE(n.marked || kids == 2) << n.prefix.toString();
    }
  });
  mem::AccessCounter acc;
  EXPECT_FALSE(t.lookup(a4("10.1.2.9"), acc).has_value());
  EXPECT_EQ(t.lookup(a4("10.1.3.9"), acc)->next_hop, 2u);
}

TEST(PatriciaErase, UnmarkInternalNodeWithTwoChildrenKeepsFork) {
  trie::PatriciaTrie4 t;
  t.insert(p4("10.0.0.0/8"), 1);
  t.insert(p4("10.1.2.0/24"), 2);
  t.insert(p4("10.128.0.0/9"), 3);
  EXPECT_TRUE(t.erase(p4("10.0.0.0/8")));
  mem::AccessCounter acc;
  EXPECT_EQ(t.lookup(a4("10.1.2.5"), acc)->next_hop, 2u);
  EXPECT_EQ(t.lookup(a4("10.200.0.1"), acc)->next_hop, 3u);
  EXPECT_FALSE(t.lookup(a4("10.64.0.1"), acc).has_value());
}

TEST(PatriciaErase, EraseAbsentReturnsFalse) {
  trie::PatriciaTrie4 t;
  t.insert(p4("10.0.0.0/8"), 1);
  EXPECT_FALSE(t.erase(p4("11.0.0.0/8")));
  EXPECT_FALSE(t.erase(p4("10.0.0.0/9")));
  EXPECT_TRUE(t.erase(p4("10.0.0.0/8")));
  EXPECT_FALSE(t.erase(p4("10.0.0.0/8")));
  EXPECT_EQ(t.prefixCount(), 0u);
}

TEST(PatriciaErase, RandomChurnStaysEquivalentToBinaryTrie) {
  Rng rng(1212);
  const auto entries = testutil::randomTable4(rng, 300);
  trie::BinaryTrie4 bt;
  trie::PatriciaTrie4 pt;
  for (const auto& e : entries) {
    bt.insert(e.prefix, e.next_hop);
    pt.insert(e.prefix, e.next_hop);
  }
  // Erase half, reinsert a quarter, interleaved.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(bt.erase(entries[i].prefix), pt.erase(entries[i].prefix));
    }
    if (i % 4 == 0) {
      bt.insert(entries[i].prefix, 99);
      pt.insert(entries[i].prefix, 99);
    }
  }
  mem::AccessCounter acc;
  for (int i = 0; i < 500; ++i) {
    const auto dest = testutil::coveredAddress<A>(entries, rng,
                                                  testutil::randomAddr4);
    const auto b = bt.lookup(dest, acc);
    const auto p = pt.lookup(dest, acc);
    ASSERT_EQ(b.has_value(), p.has_value()) << dest.toString();
    if (b) {
      EXPECT_EQ(b->prefix, p->prefix);
      EXPECT_EQ(b->next_hop, p->next_hop);
    }
  }
}

// ---------------------------------------------------------------------------
// LookupSuite route updates
// ---------------------------------------------------------------------------

TEST(SuiteUpdate, AllEnginesSeeInsertedAndErasedRoutes) {
  Rng rng(77);
  auto entries = testutil::randomTable4(rng, 200);
  LookupSuite<A> suite(entries);
  // Insert a batch of routes, erase a batch, then check every engine against
  // brute force.
  std::vector<MatchT> current = entries;
  std::vector<MatchT> upserts;
  for (int i = 0; i < 10; ++i) {
    const auto fresh = ip::Prefix4(testutil::randomAddr4(rng), 20 + i);
    upserts.push_back(MatchT{fresh, static_cast<NextHop>(1000 + i)});
    bool replaced = false;
    for (auto& e : current) {
      if (e.prefix == fresh) {
        e.next_hop = 1000 + i;
        replaced = true;
      }
    }
    if (!replaced) current.push_back(upserts.back());
  }
  suite.applyRouteDelta({}, upserts);
  std::vector<ip::Prefix4> removals;
  for (int i = 0; i < 10; ++i) {
    const auto victim = current[static_cast<std::size_t>(i) * 7].prefix;
    removals.push_back(victim);
    current.erase(std::remove_if(current.begin(), current.end(),
                                 [&](const MatchT& e) {
                                   return e.prefix == victim;
                                 }),
                  current.end());
  }
  suite.applyRouteDelta(removals, {});
  mem::AccessCounter acc;
  for (int i = 0; i < 400; ++i) {
    const auto dest = testutil::coveredAddress<A>(current, rng,
                                                  testutil::randomAddr4);
    const auto expect = check::bruteForceBmp(current, dest);
    for (const auto m : lookup::kAllMethods) {
      const auto got = suite.engine(m).lookup(dest, acc);
      ASSERT_EQ(expect.has_value(), got.has_value())
          << lookup::methodName(m) << " " << dest.toString();
      if (expect) {
        EXPECT_EQ(expect->prefix, got->prefix);
        EXPECT_EQ(expect->next_hop, got->next_hop);
      }
    }
  }
}

TEST(SuiteUpdate, AnnotationsAreReplayedAfterUpdates) {
  trie::BinaryTrie4 t1;
  t1.insert(p4("10.1.0.0/16"), 1);
  LookupSuite<A> suite({MatchT{p4("10.0.0.0/8"), 1}});
  suite.annotateNeighbor(0, t1);
  // Adding a /24 under t1's /16 keeps Claim 1 intact at the /8 vertex (the
  // /16 still blocks the branch) — only if the annotation was replayed.
  const std::vector<MatchT> inside{MatchT{p4("10.1.2.0/24"), 2}};
  suite.applyRouteDelta({}, inside);
  const auto* v = suite.binaryTrie().findVertex(p4("10.0.0.0/8"));
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(trie::BinaryTrie4::continueBit(v, 0));
  // Adding a /24 outside the /16 re-opens the search.
  const std::vector<MatchT> outside{MatchT{p4("10.3.3.0/24"), 3}};
  suite.applyRouteDelta({}, outside);
  EXPECT_TRUE(trie::BinaryTrie4::continueBit(
      suite.binaryTrie().findVertex(p4("10.0.0.0/8")), 0));
}

// ---------------------------------------------------------------------------
// CluePort maintenance
// ---------------------------------------------------------------------------

rib::FibDelta4 withdraw(const ip::Prefix4& p) {
  rib::FibDelta4 d;
  d.removed.push_back(p);
  return d;
}

rib::FibDelta4 announce(const ip::Prefix4& p, NextHop next_hop) {
  rib::FibDelta4 d;
  d.added.push_back(MatchT{p, next_hop});
  return d;
}

struct UpdateFixture {
  std::vector<MatchT> sender;
  std::vector<MatchT> receiver;
  trie::BinaryTrie<A> t1;
  std::unique_ptr<LookupSuite<A>> suite;
  std::unique_ptr<CluePort<A>> port;

  explicit UpdateFixture(std::uint64_t seed, Method method = Method::kPatricia,
                         ClueMode mode = ClueMode::kAdvance) {
    Rng rng(seed);
    sender = testutil::randomTable4(rng, 150);
    receiver = testutil::neighborOf(sender, rng, 0.8, 25, 0.5);
    for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
    suite = std::make_unique<LookupSuite<A>>(receiver);
    typename CluePort<A>::Options opt;
    opt.method = method;
    opt.mode = mode;
    port = std::make_unique<CluePort<A>>(*suite, &t1, opt);
    std::vector<ip::Prefix4> clues;
    for (const auto& e : sender) clues.push_back(e.prefix);
    port->precompute(clues);
  }

  // The owner's side of each batched call: move the suite (or the sender
  // view), then refresh the port.
  void local(const rib::FibDelta4& d) {
    suite->applyRouteDelta(d.removed, d.upserts());
    port->refreshLocal(d);
  }
  void neighbor(const rib::FibDelta4& d) {
    rib::applyDelta(t1, d);
    port->refreshNeighbor(d);
  }

  void checkTransparency(Rng& rng, int samples) {
    mem::AccessCounter scratch;
    for (int i = 0; i < samples; ++i) {
      const auto dest = testutil::coveredAddress<A>(sender, rng,
                                                    testutil::randomAddr4);
      const auto bmp = t1.lookup(dest, scratch);
      const auto field = bmp ? ClueField::of(bmp->prefix.length())
                             : ClueField::none();
      mem::AccessCounter acc;
      const auto r = port->process(dest, field, acc);
      const auto expect = check::bruteForceBmp(receiver, dest);
      ASSERT_EQ(expect.has_value(), r.match.has_value())
          << dest.toString();
      if (expect) ASSERT_EQ(expect->prefix, r.match->prefix);
    }
  }
};

TEST(CluePortUpdate, LocalInsertIsReflectedAfterRefresh) {
  UpdateFixture fx(9001);
  Rng rng(1);
  // Insert a more-specific under an existing receiver route.
  const auto parent = fx.receiver[rng.index(fx.receiver.size())].prefix;
  if (parent.length() >= 30) GTEST_SKIP();
  ip::Ip4Addr addr = parent.addr();
  for (int b = parent.length(); b < parent.length() + 2; ++b) {
    addr = addr.withBit(b, 1);
  }
  const ip::Prefix4 fresh(addr, parent.length() + 2);
  fx.local(announce(fresh, 777));
  bool replaced = false;
  for (auto& e : fx.receiver) {
    if (e.prefix == fresh) {
      e.next_hop = 777;
      replaced = true;
    }
  }
  if (!replaced) fx.receiver.push_back(MatchT{fresh, 777});
  fx.checkTransparency(rng, 300);
}

TEST(CluePortUpdate, LocalEraseIsReflectedAfterRefresh) {
  UpdateFixture fx(9002);
  Rng rng(2);
  for (int round = 0; round < 8; ++round) {
    const std::size_t victim_i = rng.index(fx.receiver.size());
    fx.local(withdraw(fx.receiver[victim_i].prefix));
    fx.receiver.erase(fx.receiver.begin() +
                      static_cast<std::ptrdiff_t>(victim_i));
    fx.checkTransparency(rng, 100);
  }
}

TEST(CluePortUpdate, NeighborChangeIsReflectedAfterRefresh) {
  UpdateFixture fx(9003);
  Rng rng(3);
  // The sender withdraws some prefixes: Claim 1 may newly fail for clues it
  // used to protect — entries must be recomputed for correctness of the
  // *shape* (transparency holds regardless because the clue is genuine).
  for (int round = 0; round < 5; ++round) {
    const std::size_t victim_i = rng.index(fx.sender.size());
    fx.neighbor(withdraw(fx.sender[victim_i].prefix));
    fx.sender.erase(fx.sender.begin() +
                    static_cast<std::ptrdiff_t>(victim_i));
    fx.checkTransparency(rng, 100);
  }
}

TEST(CluePortUpdate, ChurnAcrossMethodsStaysTransparent) {
  for (const auto method :
       {Method::kRegular, Method::kBinary, Method::kLogW}) {
    UpdateFixture fx(9004, method);
    Rng rng(4);
    for (int round = 0; round < 4; ++round) {
      // Alternate inserts and erases on the receiver.
      if (round % 2 == 0 && !fx.receiver.empty()) {
        const std::size_t i = rng.index(fx.receiver.size());
        fx.local(withdraw(fx.receiver[i].prefix));
        fx.receiver.erase(fx.receiver.begin() +
                          static_cast<std::ptrdiff_t>(i));
      } else {
        const ip::Prefix4 fresh(testutil::randomAddr4(rng), 22);
        fx.local(announce(fresh, 555));
        bool replaced = false;
        for (auto& e : fx.receiver) {
          if (e.prefix == fresh) {
            e.next_hop = 555;
            replaced = true;
          }
        }
        if (!replaced) fx.receiver.push_back(MatchT{fresh, 555});
      }
      fx.checkTransparency(rng, 80);
    }
  }
}

TEST(CluePortUpdate, InactiveEntryBehavesAsMissThenRelearns) {
  UpdateFixture fx(9005);
  const auto clue = fx.sender.front().prefix;
  Rng rng(5);
  ip::Ip4Addr dest = clue.addr();
  for (int b = clue.length(); b < 32; ++b) {
    dest = dest.withBit(b, static_cast<unsigned>(rng.u32() & 1));
  }
  mem::AccessCounter scratch;
  const auto bmp = fx.t1.lookup(dest, scratch);
  if (!bmp || bmp->prefix != clue) GTEST_SKIP();  // extension captured it
  // §3.4: the sender withdraws the clue; its entry stays, marked inactive.
  fx.neighbor(withdraw(clue));
  const auto* entry = fx.port->hashTable().find(clue, scratch);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->active);
  // A packet still carrying the inactive clue takes the miss path (full
  // lookup, still correct) and relearns the entry.
  mem::AccessCounter acc;
  const auto r = fx.port->process(dest, ClueField::of(clue.length()), acc);
  EXPECT_FALSE(r.table_hit);
  const auto expect = check::bruteForceBmp(fx.receiver, dest);
  ASSERT_EQ(expect.has_value(), r.match.has_value());
  // Learned again: next packet hits.
  mem::AccessCounter acc2;
  const auto r2 = fx.port->process(dest, ClueField::of(clue.length()), acc2);
  EXPECT_TRUE(r2.table_hit);
}

TEST(CluePortUpdate, ReactivateRecomputesEntry) {
  UpdateFixture fx(9006);
  const MatchT clue = fx.sender.front();
  fx.neighbor(withdraw(clue.prefix));
  // Re-announcing installs a fresh, active entry (§3.3.2).
  fx.neighbor(announce(clue.prefix, clue.next_hop));
  mem::AccessCounter scratch;
  const auto* entry = fx.port->hashTable().find(clue.prefix, scratch);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->active);
  Rng rng(6);
  fx.checkTransparency(rng, 100);
}

// The one refresh rule, held to itself: a learn-off, precomputed CluePort
// fed batched deltas must end every step entry-for-entry equal, self slots
// included, to the live version of a VersionedTables fed the same deltas
// (too few sender withdrawals to compact it; retired versions validated).
// Both directions are compared, so a missed install or a leftover entry
// fails as surely as a stale field.
TEST(CluePortUpdate, FollowsDeltasEntryForEntryLikeVersionedTables) {
  constexpr int kDeltas = 30;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    for (const Method method : lookup::kExtendedMethods) {
      for (const ClueMode mode : {ClueMode::kSimple, ClueMode::kAdvance}) {
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << " " << lookup::methodName(method)
                     << "/" << lookup::clueModeName(mode));
        Rng rng(seed);
        const auto sender = testutil::randomTable4(rng, 150);
        const auto receiver = testutil::neighborOf(sender, rng, 0.8, 25, 0.5);
        rib::Fib4 local{std::vector<MatchT>(receiver)};
        rib::Fib4 neighbor{std::vector<MatchT>(sender)};

        rib::VersionedTables4::Options vopt;
        vopt.method = method;
        vopt.mode = mode;
        vopt.validate_retired = true;
        rib::VersionedTables4 tables(local, neighbor, vopt);

        LookupSuite<A> suite(receiver);
        trie::BinaryTrie<A> t1 = neighbor.buildTrie();
        typename CluePort<A>::Options popt;
        popt.method = method;
        popt.mode = mode;
        popt.learn = false;
        popt.expected_clues = sender.size() + 16;
        CluePort<A> port(suite, &t1, popt);
        port.precompute(neighbor.prefixes());
        testutil::expectSameClueTables(port.hashTable(),
                                       tables.liveVersion().clues, method);

        std::vector<MatchT> withdrawn_local;
        std::vector<MatchT> withdrawn_neighbor;
        for (int step = 0; step < kDeltas; ++step) {
          if (rng.chance(0.5)) {
            const auto d = sim::detail::drawDelta(rng, neighbor,
                                                  withdrawn_neighbor, 4);
            rib::applyDelta(t1, d);
            port.refreshNeighbor(d);
            tables.publishNeighbor(d);
          } else {
            const auto d =
                sim::detail::drawDelta(rng, local, withdrawn_local, 4);
            suite.applyRouteDelta(d.removed, d.upserts());
            port.refreshLocal(d);
            tables.publishLocal(d);
          }
          SCOPED_TRACE(testing::Message() << "after delta " << step);
          testutil::expectSameClueTables(port.hashTable(),
                                         tables.liveVersion().clues, method);
          if (HasFatalFailure() || HasNonfatalFailure()) return;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// RouteUpdater queue ordering
// ---------------------------------------------------------------------------

// Two producers race local and neighbor deltas into the same updater while
// every publish is observed from the on_publish hook. The queue is one FIFO,
// so each producer's deltas must land in its own enqueue order regardless of
// how the interleaving shook out — a marker prefix per queue steps its next
// hop by exactly one per delta, and any reorder (or lost/duplicated publish)
// shows up as a skip or a decrease in the observed sequence.
//
// The hook runs on the updater thread and the vector is only read after
// stop() joins it, so the test is TSan-clean by construction — which is the
// point: it rides in the sanitizer gate (run_sanitizers.sh filters on
// RouteUpdater.*) to catch publication racing the queue hand-off.
TEST(RouteUpdater, InterleavedQueuesPreservePerSourceOrder) {
  constexpr NextHop kLocalBase = 100;
  constexpr NextHop kNeighborBase = 500;
  constexpr int kUpdates = 64;
  const auto local_marker = p4("10.0.0.0/8");
  const auto neighbor_marker = p4("30.0.0.0/8");

  rib::Fib<A> local({MatchT{local_marker, kLocalBase},
                     MatchT{p4("20.0.0.0/8"), 1}});
  rib::Fib<A> neighbor({MatchT{neighbor_marker, kNeighborBase},
                        MatchT{p4("20.0.0.0/8"), 1}});

  struct Observed {
    NextHop local;
    NextHop neighbor;
  };
  std::vector<Observed> seen;  // updater thread only; read after stop()

  rib::VersionedTables4::Options opt;
  opt.mode = ClueMode::kAdvance;
  opt.validate_retired = true;
  opt.on_publish = [&](const rib::TableVersion<A>& v) {
    Observed o{0, 0};
    for (const auto& e : v.local.entries()) {
      if (e.prefix == local_marker) o.local = e.next_hop;
    }
    for (const auto& e : v.neighbor.entries()) {
      if (e.prefix == neighbor_marker) o.neighbor = e.next_hop;
    }
    seen.push_back(o);
  };
  rib::VersionedTables4 tables(local, neighbor, opt);
  rib::RouteUpdater<A> updater(tables);

  std::thread local_producer([&] {
    for (int i = 1; i <= kUpdates; ++i) {
      rib::FibDelta<A> d;
      d.rerouted.push_back(MatchT{local_marker, kLocalBase + i});
      updater.enqueueLocal(std::move(d));
    }
  });
  std::thread neighbor_producer([&] {
    for (int i = 1; i <= kUpdates; ++i) {
      rib::FibDelta<A> d;
      d.rerouted.push_back(MatchT{neighbor_marker, kNeighborBase + i});
      updater.enqueueNeighbor(std::move(d));
    }
  });
  local_producer.join();
  neighbor_producer.join();
  updater.flush();
  updater.stop();

  ASSERT_EQ(seen.size(), static_cast<std::size_t>(2 * kUpdates));
  EXPECT_EQ(updater.published(), static_cast<std::uint64_t>(2 * kUpdates));
  NextHop prev_local = kLocalBase;
  NextHop prev_neighbor = kNeighborBase;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    // Per-source order: each marker either holds (the other queue published)
    // or advances by exactly one (its next delta in enqueue order).
    EXPECT_TRUE(seen[i].local == prev_local ||
                seen[i].local == prev_local + 1)
        << "publish " << i << ": local marker jumped " << prev_local << " -> "
        << seen[i].local;
    EXPECT_TRUE(seen[i].neighbor == prev_neighbor ||
                seen[i].neighbor == prev_neighbor + 1)
        << "publish " << i << ": neighbor marker jumped " << prev_neighbor
        << " -> " << seen[i].neighbor;
    prev_local = seen[i].local;
    prev_neighbor = seen[i].neighbor;
  }
  EXPECT_EQ(prev_local, kLocalBase + kUpdates);
  EXPECT_EQ(prev_neighbor, kNeighborBase + kUpdates);
  EXPECT_EQ(tables.liveVersion().seq, 1u + 2 * kUpdates);
}

// flush() is the "is the new table live yet" barrier: after it returns,
// every delta enqueued before the call is visible in the live version even
// while the updater keeps running (stop() not yet called).
TEST(RouteUpdater, FlushPublishesEverythingEnqueuedBefore) {
  const auto marker = p4("10.0.0.0/8");
  rib::Fib<A> local({MatchT{marker, 0}});
  rib::Fib<A> neighbor({MatchT{p4("20.0.0.0/8"), 1}});
  rib::VersionedTables4::Options opt;
  opt.validate_retired = true;
  rib::VersionedTables4 tables(local, neighbor, opt);
  rib::RouteUpdater<A> updater(tables);

  for (int round = 1; round <= 8; ++round) {
    rib::FibDelta<A> d;
    d.rerouted.push_back(MatchT{marker, static_cast<NextHop>(round)});
    updater.enqueueLocal(std::move(d));
    updater.flush();
    NextHop live = 0;
    for (const auto& e : tables.liveVersion().local.entries()) {
      if (e.prefix == marker) live = e.next_hop;
    }
    EXPECT_EQ(live, static_cast<NextHop>(round)) << "round " << round;
    EXPECT_EQ(updater.published(), static_cast<std::uint64_t>(round));
  }
  updater.stop();
}

}  // namespace
}  // namespace cluert
