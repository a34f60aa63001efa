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
