#include <gtest/gtest.h>

#include "net/network.h"
#include "test_util.h"

namespace cluert::net {
namespace {

using lookup::ClueMode;
using lookup::Method;

rib::InternetOptions smallInternet() {
  rib::InternetOptions opt;
  opt.cores = 3;
  opt.mids_per_core = 2;
  opt.edges_per_mid = 2;
  opt.specifics_per_edge = 8;
  opt.seed = 11;
  return opt;
}

Router4::Config clueConfig(Method m = Method::kPatricia,
                           ClueMode mode = ClueMode::kAdvance) {
  Router4::Config c;
  c.clue_enabled = true;
  c.method = m;
  c.mode = mode;
  return c;
}

Router4::Config legacyConfig(bool relay = true) {
  Router4::Config c;
  c.clue_enabled = false;
  c.relay_clue = relay;
  return c;
}

TEST(Network, DeliversWithCluesEnabled) {
  const rib::SyntheticInternet internet(smallInternet());
  auto net = buildNetwork(internet, [](RouterId) { return clueConfig(); });
  Rng rng(1);
  const auto edges = internet.edgeRouters();
  for (int i = 0; i < 60; ++i) {
    const RouterId src = edges[rng.index(edges.size())];
    const auto dest = internet.randomDestination(rng);
    const auto r = net.send(dest, src);
    ASSERT_TRUE(r.delivered) << "dest " << dest.toString();
    EXPECT_EQ(r.trace.back().router, internet.originOf(dest));
  }
}

TEST(Network, SameRouteWithAndWithoutClues) {
  const rib::SyntheticInternet internet(smallInternet());
  auto with = buildNetwork(internet, [](RouterId) { return clueConfig(); });
  auto without = buildNetwork(internet, [](RouterId) {
    return legacyConfig();
  });
  Rng rng(2);
  const auto edges = internet.edgeRouters();
  for (int i = 0; i < 60; ++i) {
    const RouterId src = edges[rng.index(edges.size())];
    const auto dest = internet.randomDestination(rng);
    const auto a = with.send(dest, src);
    const auto b = without.send(dest, src);
    ASSERT_EQ(a.delivered, b.delivered);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t k = 0; k < a.trace.size(); ++k) {
      EXPECT_EQ(a.trace[k].router, b.trace[k].router);
      EXPECT_EQ(a.trace[k].bmp_length, b.trace[k].bmp_length);
    }
  }
}

TEST(Network, CluesReduceTotalAccessesOnWarmTables) {
  const rib::SyntheticInternet internet(smallInternet());
  auto with = buildNetwork(internet,
                           [](RouterId) { return clueConfig(Method::kRegular); });
  auto without = buildNetwork(internet, [](RouterId) {
    auto c = legacyConfig();
    c.method = Method::kRegular;
    return c;
  });
  Rng rng(3);
  const auto edges = internet.edgeRouters();
  // Warm the learned clue tables.
  std::vector<std::pair<ip::Ip4Addr, RouterId>> flows;
  for (int i = 0; i < 150; ++i) {
    const RouterId src = edges[rng.index(edges.size())];
    const auto dest = internet.randomDestination(rng);
    flows.emplace_back(dest, src);
    with.send(dest, src);
  }
  std::uint64_t clue_total = 0;
  std::uint64_t plain_total = 0;
  for (const auto& [dest, src] : flows) {
    clue_total += with.send(dest, src).total_accesses;
    plain_total += without.send(dest, src).total_accesses;
  }
  EXPECT_LT(clue_total, plain_total / 2);  // order-of-magnitude territory
}

TEST(Network, FirstHopHasNoClueButLaterHopsDo) {
  const rib::SyntheticInternet internet(smallInternet());
  auto net = buildNetwork(internet, [](RouterId) { return clueConfig(); });
  Rng rng(4);
  const auto edges = internet.edgeRouters();
  // warm
  const auto dest = internet.randomDestination(rng);
  const RouterId src = edges[0];
  net.send(dest, src);
  const auto r = net.send(dest, src);
  ASSERT_TRUE(r.delivered);
  ASSERT_GE(r.trace.size(), 2u);
  EXPECT_FALSE(r.trace.front().clue_used);  // injected without a clue
  for (std::size_t k = 1; k < r.trace.size(); ++k) {
    EXPECT_TRUE(r.trace[k].clue_used) << "hop " << k;
  }
}

TEST(Network, HeterogeneousMixStillDeliversAndBenefits) {
  // §5.3: "Even if only a few routers use the scheme, it already pays off" —
  // legacy routers relay the clue; downstream clue routers still gain.
  const rib::SyntheticInternet internet(smallInternet());
  auto mixed = buildNetwork(internet, [&](RouterId r) {
    // Cores are legacy (relay only); mids and edges run clues.
    return internet.tierOf(r) == rib::SyntheticInternet::Tier::kCore
               ? legacyConfig(/*relay=*/true)
               : clueConfig();
  });
  Rng rng(5);
  const auto edges = internet.edgeRouters();
  for (int i = 0; i < 60; ++i) {
    const RouterId src = edges[rng.index(edges.size())];
    const auto dest = internet.randomDestination(rng);
    const auto r = mixed.send(dest, src);
    ASSERT_TRUE(r.delivered);
  }
}

TEST(Network, StrippingRoutersDegradeButDoNotBreak) {
  const rib::SyntheticInternet internet(smallInternet());
  auto strip = buildNetwork(internet, [&](RouterId r) {
    return internet.tierOf(r) == rib::SyntheticInternet::Tier::kCore
               ? legacyConfig(/*relay=*/false)
               : clueConfig();
  });
  Rng rng(6);
  const auto edges = internet.edgeRouters();
  for (int i = 0; i < 40; ++i) {
    const RouterId src = edges[rng.index(edges.size())];
    const auto dest = internet.randomDestination(rng);
    ASSERT_TRUE(strip.send(dest, src).delivered);
  }
}

TEST(Network, TruncatedCluesWithSimpleModeStayCorrect) {
  const rib::SyntheticInternet internet(smallInternet());
  auto truncating = buildNetwork(internet, [](RouterId) {
    auto c = clueConfig(Method::kPatricia, ClueMode::kSimple);
    c.truncate_to = 12;  // §5.3b
    return c;
  });
  auto reference = buildNetwork(internet, [](RouterId) {
    return legacyConfig();
  });
  Rng rng(7);
  const auto edges = internet.edgeRouters();
  for (int i = 0; i < 60; ++i) {
    const RouterId src = edges[rng.index(edges.size())];
    const auto dest = internet.randomDestination(rng);
    const auto a = truncating.send(dest, src);
    const auto b = reference.send(dest, src);
    ASSERT_EQ(a.delivered, b.delivered);
    ASSERT_TRUE(a.delivered);
    EXPECT_EQ(a.trace.back().router, b.trace.back().router);
  }
}

// A port builds self slots (core::kSelfClueBits) only where a clue-less
// packet can arrive. Router 3 holds the routes and hears from a clue router
// (0), which stamps every packet it routes, a legacy router (1), which
// relays a host's packet clue-less, a clue router whose export filter
// withholds every clue (2), and a clue router with a default route (4),
// whose /0 matches no header can carry. Only the last three links' ports
// hold self slots, and there a clue-less packet reaches its BMP through one
// self-slot probe.
TEST(Network, SelfSlotsOnlyWhereClueLessPacketsArrive) {
  Rng rng(9);
  auto owned = testutil::randomTable4(rng, 300);
  for (auto& e : owned) e.next_hop = 3;
  const rib::Fib4 halves({{testutil::p4("0.0.0.0/1"), 3},
                          {testutil::p4("128.0.0.0/1"), 3}});
  auto filtering = clueConfig();
  filtering.clue_export_filter = [](const ip::Prefix4&) { return false; };
  Network4 net;
  net.addRouter(0, halves, clueConfig());
  net.addRouter(1, halves, legacyConfig());
  net.addRouter(2, halves, filtering);
  net.addRouter(3, rib::Fib4{std::vector<trie::Match<ip::Ip4Addr>>(owned)},
                clueConfig());
  net.addRouter(4, rib::Fib4({{ip::Prefix4(), 3}}), clueConfig());
  for (const RouterId r : {0u, 1u, 2u, 4u}) net.link(r, 3);

  auto& owner = net.router(3);
  EXPECT_FALSE(owner.portFor(0)->hashTable().hasSelfClues());
  for (const RouterId from : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "from router " << from);
    core::CluePort<ip::Ip4Addr>& port = *owner.portFor(from);
    ASSERT_TRUE(port.hashTable().hasSelfClues());
    for (int i = 0; i < 200; ++i) {
      const auto dest =
          testutil::coveredAddress(owned, rng, testutil::randomAddr4);
      const auto want = check::bruteForceBmp(owned, dest);
      const auto sent = net.send(dest, from);
      ASSERT_EQ(sent.trace.size(), 2u);
      ASSERT_EQ(sent.delivered, want.has_value()) << dest.toString();
      ASSERT_EQ(sent.trace.back().bmp_length,
                want ? want->prefix.length() : -1)
          << dest.toString();
      mem::AccessCounter acc;
      ASSERT_EQ(port.process(dest, core::ClueField::none(), acc).match, want)
          << dest.toString();
      ASSERT_EQ(acc.count(mem::Region::kClueTable), 1u);
    }
    EXPECT_EQ(port.stats().no_clue, 400u);
    EXPECT_EQ(port.stats().table_hits + port.stats().table_misses, 0u);
  }
  // The stamping router's packets all arrive with clues and route right.
  for (int i = 0; i < 50; ++i) {
    const auto dest =
        testutil::coveredAddress(owned, rng, testutil::randomAddr4);
    EXPECT_EQ(net.send(dest, 0).delivered,
              check::bruteForceBmp(owned, dest).has_value());
  }
  EXPECT_EQ(owner.portFor(0)->stats().no_clue, 0u);
  EXPECT_EQ(owner.portFor(0)->stats().packets, 50u);
}

TEST(Network, TtlExpiryTerminates) {
  const rib::SyntheticInternet internet(smallInternet());
  auto net = buildNetwork(internet, [](RouterId) { return clueConfig(); });
  Rng rng(8);
  const auto dest = internet.randomDestination(rng);
  const auto r = net.send(dest, internet.edgeRouters()[0], /*ttl=*/1);
  EXPECT_LE(r.trace.size(), 1u);
}

}  // namespace
}  // namespace cluert::net
