// FIB delta computation + application, and the §5.3b clue export filter.
#include <gtest/gtest.h>

#include "core/distributed_lookup.h"
#include "net/network.h"
#include "rib/fib_diff.h"
#include "test_util.h"

namespace cluert::rib {
namespace {

using testutil::a4;
using testutil::p4;
using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;
using Entry = Fib4::EntryT;

TEST(FibDiff, EmptyForIdenticalTables) {
  Fib4 fib({Entry{p4("10.0.0.0/8"), 1}});
  const auto d = diff(fib, fib);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.size(), 0u);
}

TEST(FibDiff, DetectsAddRemoveReroute) {
  Fib4 prev({Entry{p4("10.0.0.0/8"), 1}, Entry{p4("20.0.0.0/8"), 2},
             Entry{p4("30.0.0.0/8"), 3}});
  Fib4 next({Entry{p4("10.0.0.0/8"), 1},    // unchanged
             Entry{p4("20.0.0.0/8"), 9},    // rerouted
             Entry{p4("40.0.0.0/8"), 4}});  // added (30/8 removed)
  const auto d = diff(prev, next);
  ASSERT_EQ(d.added.size(), 1u);
  EXPECT_EQ(d.added[0].prefix, p4("40.0.0.0/8"));
  ASSERT_EQ(d.removed.size(), 1u);
  EXPECT_EQ(d.removed[0], p4("30.0.0.0/8"));
  ASSERT_EQ(d.rerouted.size(), 1u);
  EXPECT_EQ(d.rerouted[0].prefix, p4("20.0.0.0/8"));
  EXPECT_EQ(d.rerouted[0].next_hop, 9u);
  EXPECT_EQ(d.size(), 3u);
}

TEST(FibDiff, RoundTripReconstructsTheNewTable) {
  Rng rng(3003);
  const auto old_entries = testutil::randomTable4(rng, 200);
  auto new_entries = testutil::neighborOf(old_entries, rng, 0.7, 40, 0.4);
  Fib4 prev{std::vector<Entry>(old_entries)};
  Fib4 next{std::vector<Entry>(new_entries)};
  const auto d = diff(prev, next);
  // Applying the delta to `prev` gives exactly `next`.
  Fib4 rebuilt = prev;
  trie::BinaryTrie<A> trie = prev.buildTrie();
  for (const auto& p : d.removed) trie.erase(p);
  for (const auto& e : d.added) trie.insert(e.prefix, e.next_hop);
  for (const auto& e : d.rerouted) trie.insert(e.prefix, e.next_hop);
  EXPECT_EQ(trie.prefixCount(), next.size());
  for (const auto& e : next.entries()) {
    EXPECT_EQ(trie.nextHopOf(e.prefix), e.next_hop) << e.prefix.toString();
  }
}

TEST(FibDiff, ApplyDeltasKeepCluePortTransparent) {
  Rng rng(3004);
  auto sender_entries = testutil::randomTable4(rng, 150);
  auto receiver_entries = testutil::neighborOf(sender_entries, rng, 0.8, 20,
                                               0.5);
  trie::BinaryTrie<A> t1;
  for (const auto& e : sender_entries) t1.insert(e.prefix, e.next_hop);
  lookup::LookupSuite<A> suite(receiver_entries);
  typename core::CluePort<A>::Options opt;
  opt.method = lookup::Method::kPatricia;
  opt.mode = lookup::ClueMode::kAdvance;
  core::CluePort<A> port(suite, &t1, opt);
  Fib4 sender_fib{std::vector<Entry>(sender_entries)};
  port.precompute(sender_fib.prefixes());

  // Evolve both tables, apply the deltas through the batched calls.
  Fib4 receiver_fib{std::vector<Entry>(receiver_entries)};
  const auto new_receiver_entries =
      testutil::neighborOf(receiver_entries, rng, 0.85, 15, 0.5);
  Fib4 new_receiver{std::vector<Entry>(new_receiver_entries)};
  const auto local_delta = diff(receiver_fib, new_receiver);
  suite.applyRouteDelta(local_delta.removed, local_delta.upserts());
  port.refreshLocal(local_delta);

  const auto new_sender_entries =
      testutil::neighborOf(sender_entries, rng, 0.9, 10, 0.5);
  Fib4 new_sender{std::vector<Entry>(new_sender_entries)};
  const auto neighbor_delta = diff(sender_fib, new_sender);
  applyDelta(t1, neighbor_delta);
  port.refreshNeighbor(neighbor_delta);

  mem::AccessCounter scratch;
  for (int i = 0; i < 300; ++i) {
    const auto dest = testutil::coveredAddress<A>(new_sender_entries, rng,
                                                  testutil::randomAddr4);
    const auto bmp = t1.lookup(dest, scratch);
    const auto field = bmp ? core::ClueField::of(bmp->prefix.length())
                           : core::ClueField::none();
    mem::AccessCounter acc;
    const auto r = port.process(dest, field, acc);
    const auto expect = check::bruteForceBmp(new_receiver_entries, dest);
    ASSERT_EQ(expect.has_value(), r.match.has_value()) << dest.toString();
    if (expect) ASSERT_EQ(expect->prefix, r.match->prefix);
  }
}

TEST(FibDiff, OutputsAreSortedAndDeterministic) {
  Rng rng(3005);
  const auto old_entries = testutil::randomTable4(rng, 300);
  const auto new_entries = testutil::neighborOf(old_entries, rng, 0.6, 80,
                                                0.5);
  Fib4 prev{std::vector<Entry>(old_entries)};
  Fib4 next{std::vector<Entry>(new_entries)};
  const auto d = diff(prev, next);
  const auto sorted = [](const auto& v, auto&& key) {
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (!(key(v[i - 1]) < key(v[i]))) return false;
    }
    return true;
  };
  EXPECT_TRUE(sorted(d.added, [](const Entry& e) { return e.prefix; }));
  EXPECT_TRUE(sorted(d.rerouted, [](const Entry& e) { return e.prefix; }));
  EXPECT_TRUE(sorted(d.removed, [](const ip::Prefix4& p) { return p; }));
  // A pure function of the two tables: recomputing gives the same vectors.
  const auto d2 = diff(prev, next);
  EXPECT_EQ(d.added, d2.added);
  EXPECT_EQ(d.removed, d2.removed);
  EXPECT_EQ(d.rerouted, d2.rerouted);
}

TEST(FibDiff, DuplicatedPrefixesCollapseLastWins) {
  // add()-built tables can carry duplicates; the later entry must win and a
  // surviving prefix must never be misreported as added.
  Fib4 prev;
  prev.add(p4("10.0.0.0/8"), 1);
  prev.add(p4("10.0.0.0/8"), 7);  // duplicate, last wins
  prev.add(p4("20.0.0.0/8"), 2);
  Fib4 next;
  next.add(p4("10.0.0.0/8"), 7);  // same as prev's effective route
  next.add(p4("20.0.0.0/8"), 5);
  next.add(p4("20.0.0.0/8"), 2);  // duplicate resolving back to 2
  const auto d = diff(prev, next);
  EXPECT_TRUE(d.empty()) << "duplicate prefixes double-counted";
}

TEST(FibDiff, ApplyDeltaRoundTripsOnPlainFib) {
  Rng rng(3006);
  const auto old_entries = testutil::randomTable4(rng, 150);
  const auto new_entries = testutil::neighborOf(old_entries, rng, 0.7, 30,
                                                0.5);
  Fib4 prev{std::vector<Entry>(old_entries)};
  Fib4 next{std::vector<Entry>(new_entries)};
  Fib4 rebuilt = prev;
  applyDelta(rebuilt, diff(prev, next));
  EXPECT_EQ(rebuilt.size(), next.size());
  for (const auto& e : next.entries()) {
    EXPECT_TRUE(rebuilt.contains(e.prefix)) << e.prefix.toString();
  }
  // Empty-delta fast path: applying a no-op diff leaves the table alone.
  const auto nothing = diff(next, next);
  EXPECT_TRUE(nothing.empty());
  applyDelta(rebuilt, nothing);
  EXPECT_EQ(rebuilt.size(), next.size());
}

// ---------------------------------------------------------------------------
// §5.3b: the clue export filter
// ---------------------------------------------------------------------------

TEST(ClueExportFilter, RefrainedCluesGoOutAsNone) {
  // Sender hides its 10/8 routes; everything else is exported.
  rib::Fib4 fib({Entry{p4("10.0.0.0/8"), 0}, Entry{p4("20.0.0.0/8"), 0}});
  net::Router4::Config config;
  config.clue_export_filter = [](const ip::Prefix4& p) {
    return !p4("10.0.0.0/8").isPrefixOf(p);
  };
  net::Router4 router(0, fib, config);
  mem::AccessCounter acc;

  net::Packet4 hidden;
  hidden.dest = a4("10.1.1.1");
  router.forward(hidden, kNoRouter, acc);
  EXPECT_FALSE(hidden.clue.present);  // refrained

  net::Packet4 exported;
  exported.dest = a4("20.1.1.1");
  router.forward(exported, kNoRouter, acc);
  EXPECT_TRUE(exported.clue.present);
  EXPECT_EQ(exported.clue.length, 8);
}

TEST(ClueExportFilter, NetworkStaysCorrectWithPartialExport) {
  rib::InternetOptions iopt;
  iopt.cores = 3;
  iopt.mids_per_core = 2;
  iopt.edges_per_mid = 2;
  iopt.specifics_per_edge = 8;
  iopt.seed = 99;
  const rib::SyntheticInternet internet(iopt);
  auto filtered = net::buildNetwork(internet, [](RouterId) {
    net::Router4::Config c;
    c.method = lookup::Method::kPatricia;
    c.mode = lookup::ClueMode::kAdvance;
    // Export only clues at /12 or longer (hide the /8 aggregates).
    c.clue_export_filter = [](const ip::Prefix4& p) {
      return p.length() >= 12;
    };
    return c;
  });
  auto reference = net::buildNetwork(internet, [](RouterId) {
    net::Router4::Config c;
    c.clue_enabled = false;
    c.attach_clue = false;
    return c;
  });
  Rng rng(5);
  const auto edges = internet.edgeRouters();
  for (int i = 0; i < 50; ++i) {
    const RouterId src = edges[rng.index(edges.size())];
    const auto dest = internet.randomDestination(rng);
    const auto a = filtered.send(dest, src);
    const auto b = reference.send(dest, src);
    ASSERT_EQ(a.delivered, b.delivered);
    ASSERT_TRUE(a.delivered);
    EXPECT_EQ(a.trace.back().router, b.trace.back().router);
  }
}

}  // namespace
}  // namespace cluert::rib
