// The link-state routing substrate (§3.3.2's "routing algorithm") and its
// integration with the clue machinery under topology changes.
#include <gtest/gtest.h>

#include <set>

#include "core/distributed_lookup.h"
#include "net/network.h"
#include "proto/link_state.h"
#include "test_util.h"

namespace cluert::proto {
namespace {

using testutil::a4;
using testutil::p4;
using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;

TEST(LsaDatabase, NewerSequenceWins) {
  LsaDatabase db;
  Lsa l1{0, 1, {{1, 1}}, {}};
  Lsa l2{0, 2, {{1, 1}, {2, 1}}, {}};
  EXPECT_TRUE(db.install(l1));
  EXPECT_FALSE(db.install(l1));  // duplicate
  EXPECT_TRUE(db.install(l2));   // newer
  EXPECT_FALSE(db.install(l1));  // stale
  EXPECT_EQ(db.find(0)->links.size(), 2u);
}

TEST(LinkState, TwoRoutersLearnEachOthersPrefixes) {
  LinkStateSimulation sim;
  const auto r0 = sim.addRouter();
  const auto r1 = sim.addRouter();
  sim.link(r0, r1);
  sim.originate(r0, p4("10.0.0.0/8"));
  sim.originate(r1, p4("20.0.0.0/8"));
  sim.converge();

  const auto f0 = sim.fib(r0);
  const auto f1 = sim.fib(r1);
  mem::AccessCounter acc;
  EXPECT_EQ(f0.buildTrie().lookup(a4("20.1.1.1"), acc)->next_hop, r1);
  EXPECT_EQ(f1.buildTrie().lookup(a4("10.1.1.1"), acc)->next_hop, r0);
  // Self-originated prefixes resolve to self (the delivery convention).
  EXPECT_EQ(f0.buildTrie().lookup(a4("10.1.1.1"), acc)->next_hop, r0);
}

TEST(LinkState, MultiHopNextHopIsTheFirstHop) {
  // 0 - 1 - 2 - 3 (a line).
  LinkStateSimulation sim;
  for (int i = 0; i < 4; ++i) sim.addRouter();
  sim.link(0, 1);
  sim.link(1, 2);
  sim.link(2, 3);
  sim.originate(3, p4("30.0.0.0/8"));
  sim.converge();
  mem::AccessCounter acc;
  EXPECT_EQ(sim.fib(0).buildTrie().lookup(a4("30.1.1.1"), acc)->next_hop, 1u);
  EXPECT_EQ(sim.fib(1).buildTrie().lookup(a4("30.1.1.1"), acc)->next_hop, 2u);
  EXPECT_EQ(sim.fib(2).buildTrie().lookup(a4("30.1.1.1"), acc)->next_hop, 3u);
}

TEST(LinkState, CostsSteerTheShortestPath) {
  // Triangle with an expensive direct edge: 0-2 costs 10, 0-1-2 costs 2.
  LinkStateSimulation sim;
  for (int i = 0; i < 3; ++i) sim.addRouter();
  sim.link(0, 1, 1);
  sim.link(1, 2, 1);
  sim.link(0, 2, 10);
  sim.originate(2, p4("20.0.0.0/8"));
  sim.converge();
  mem::AccessCounter acc;
  EXPECT_EQ(sim.fib(0).buildTrie().lookup(a4("20.1.1.1"), acc)->next_hop, 1u);
}

TEST(LinkState, LinkFailureReroutes) {
  // Triangle, all unit costs; 0 reaches 2 directly, then the link dies.
  LinkStateSimulation sim;
  for (int i = 0; i < 3; ++i) sim.addRouter();
  sim.link(0, 1);
  sim.link(1, 2);
  sim.link(0, 2);
  sim.originate(2, p4("20.0.0.0/8"));
  sim.converge();
  mem::AccessCounter acc;
  EXPECT_EQ(sim.fib(0).buildTrie().lookup(a4("20.1.1.1"), acc)->next_hop, 2u);

  sim.failLink(0, 2);
  sim.converge();
  EXPECT_EQ(sim.fib(0).buildTrie().lookup(a4("20.1.1.1"), acc)->next_hop, 1u);

  sim.restoreLink(0, 2);
  sim.converge();
  EXPECT_EQ(sim.fib(0).buildTrie().lookup(a4("20.1.1.1"), acc)->next_hop, 2u);
}

TEST(LinkState, PartitionRemovesRoutes) {
  LinkStateSimulation sim;
  const auto r0 = sim.addRouter();
  const auto r1 = sim.addRouter();
  sim.link(r0, r1);
  sim.originate(r1, p4("20.0.0.0/8"));
  sim.converge();
  mem::AccessCounter acc;
  EXPECT_TRUE(sim.fib(r0).buildTrie().lookup(a4("20.1.1.1"), acc));
  sim.failLink(r0, r1);
  sim.converge();
  EXPECT_FALSE(sim.fib(r0).buildTrie().lookup(a4("20.1.1.1"), acc));
}

TEST(LinkState, FloodingReachesEveryNodeWithBoundedMessages) {
  LinkStateSimulation sim;
  constexpr int kN = 12;
  for (int i = 0; i < kN; ++i) sim.addRouter();
  // A ring with two chords.
  for (int i = 0; i < kN; ++i) {
    sim.link(static_cast<RouterId>(i),
             static_cast<RouterId>((i + 1) % kN));
  }
  sim.link(0, 6);
  sim.link(3, 9);
  sim.originate(0, p4("10.0.0.0/8"));
  sim.converge();
  for (RouterId r = 0; r < sim.routerCount(); ++r) {
    EXPECT_EQ(sim.node(r).database().size(), static_cast<std::size_t>(kN));
  }
  EXPECT_GT(sim.stats().messages, 0u);
}

TEST(LinkState, AgreesWithBruteForceShortestPaths) {
  // Random connected topology; every router's next hop must lie on *some*
  // shortest path, and hop-by-hop forwarding must reach the origin.
  Rng rng(42);
  LinkStateSimulation sim;
  constexpr int kN = 16;
  for (int i = 0; i < kN; ++i) sim.addRouter();
  // Spanning chain + random extra edges keeps it connected.
  std::set<std::pair<RouterId, RouterId>> edges;
  for (int i = 1; i < kN; ++i) {
    const auto a = static_cast<RouterId>(rng.uniform(0, i - 1));
    sim.link(a, static_cast<RouterId>(i));
    edges.insert({std::min<RouterId>(a, i), std::max<RouterId>(a, i)});
  }
  for (int i = 0; i < 10; ++i) {
    const auto a = static_cast<RouterId>(rng.index(kN));
    const auto b = static_cast<RouterId>(rng.index(kN));
    if (a == b) continue;
    const auto key = std::make_pair(std::min(a, b), std::max(a, b));
    if (edges.insert(key).second) sim.link(a, b);
  }
  for (int i = 0; i < kN; ++i) {
    sim.originate(static_cast<RouterId>(i),
                  ip::Prefix4(ip::Ip4Addr((32u + i) << 24), 8));
  }
  sim.converge();
  mem::AccessCounter acc;
  for (RouterId src = 0; src < sim.routerCount(); ++src) {
    for (int t = 0; t < kN; ++t) {
      const A probe((32u + static_cast<unsigned>(t)) << 24 | 0x010101u);
      RouterId at = src;
      int hops = 0;
      while (hops++ < kN + 2) {
        const auto m = sim.fib(at).buildTrie().lookup(probe, acc);
        ASSERT_TRUE(m.has_value());
        if (m->next_hop == at) break;
        at = m->next_hop;
      }
      EXPECT_EQ(at, static_cast<RouterId>(t)) << "src " << src;
      EXPECT_LE(hops, kN + 1);
    }
  }
}

TEST(LinkState, ProtocolFibsDriveTheClueMachinery) {
  // End-to-end §3.3.2: neighbor FIBs come from the protocol; a remote link
  // failure changes both; the suite and clue port are updated with the
  // delta and transparency is preserved.
  LinkStateSimulation sim;
  constexpr int kN = 8;
  for (int i = 0; i < kN; ++i) sim.addRouter();
  for (int i = 0; i + 1 < kN; ++i) {
    sim.link(static_cast<RouterId>(i), static_cast<RouterId>(i + 1));
  }
  sim.link(0, 7);  // a ring
  Rng rng(7);
  for (int i = 0; i < kN; ++i) {
    for (int k = 0; k < 6; ++k) {
      sim.originate(static_cast<RouterId>(i),
                    ip::Prefix4(ip::Ip4Addr(rng.u32()),
                                static_cast<int>(rng.uniform(12, 24))));
    }
  }
  sim.converge();

  // Routers 3 (sender) and 4 (receiver) are adjacent.
  auto sender_fib = sim.fib(3);
  auto receiver_fib = sim.fib(4);
  trie::BinaryTrie<A> t1 = sender_fib.buildTrie();
  lookup::LookupSuite<A> suite(std::vector<MatchT>(
      receiver_fib.entries().begin(), receiver_fib.entries().end()));
  typename core::CluePort<A>::Options opt;
  opt.method = lookup::Method::kPatricia;
  opt.mode = lookup::ClueMode::kAdvance;
  core::CluePort<A> port(suite, &t1, opt);
  port.precompute(sender_fib.prefixes());

  const auto check = [&](const rib::Fib4& recv) {
    mem::AccessCounter scratch;
    const std::vector<MatchT> recv_entries(recv.entries().begin(),
                                           recv.entries().end());
    for (int i = 0; i < 200; ++i) {
      const auto dest = testutil::coveredAddress<A>(
          std::vector<MatchT>(sender_fib.entries().begin(),
                              sender_fib.entries().end()),
          rng, testutil::randomAddr4);
      const auto bmp = t1.lookup(dest, scratch);
      const auto field = bmp ? core::ClueField::of(bmp->prefix.length())
                             : core::ClueField::none();
      mem::AccessCounter acc;
      const auto r = port.process(dest, field, acc);
      const auto expect = check::bruteForceBmp(recv_entries, dest);
      ASSERT_EQ(expect.has_value(), r.match.has_value());
      if (expect) ASSERT_EQ(expect->prefix, r.match->prefix);
    }
  };
  check(receiver_fib);

  // A remote link fails; the protocol reconverges; apply the FIB deltas.
  sim.failLink(6, 7);
  sim.converge();
  const auto new_sender = sim.fib(3);
  const auto new_receiver = sim.fib(4);
  // Receiver-side delta.
  const auto local_delta = rib::diff(receiver_fib, new_receiver);
  suite.applyRouteDelta(local_delta.removed, local_delta.upserts());
  port.refreshLocal(local_delta);
  // Sender-side delta (the neighbor view t1 is shared with the port).
  const auto neighbor_delta = rib::diff(sender_fib, new_sender);
  rib::applyDelta(t1, neighbor_delta);
  port.refreshNeighbor(neighbor_delta);
  sender_fib = new_sender;
  check(new_receiver);
}

TEST(LinkState, DeterministicFibs) {
  const auto build = [] {
    LinkStateSimulation sim;
    for (int i = 0; i < 5; ++i) sim.addRouter();
    sim.link(0, 1);
    sim.link(1, 2);
    sim.link(2, 3);
    sim.link(3, 4);
    sim.link(4, 0);
    sim.originate(2, *ip::Prefix4::parse("20.0.0.0/8"));
    sim.converge();
    return sim.fib(0).serialize();
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace cluert::proto
