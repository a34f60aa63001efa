// heterogeneous_network: §5.3 — the scheme coexists with routers that have
// never heard of clues. Legacy routers route normally and (at most) relay
// the clue option; clue-enabled routers downstream of them still benefit.
//
//   ./build/examples/heterogeneous_network
#include <cstdio>

#include "net/network.h"

using namespace cluert;

namespace {

net::Router4::Config clueRouter() {
  net::Router4::Config c;
  c.method = lookup::Method::kPatricia;
  c.mode = lookup::ClueMode::kAdvance;
  return c;
}

net::Router4::Config legacyRouter(bool relay) {
  net::Router4::Config c;
  c.clue_enabled = false;
  c.relay_clue = relay;
  c.method = lookup::Method::kPatricia;
  return c;
}

double avgAccessesPerHop(net::Network4& net,
                         const rib::SyntheticInternet& internet,
                         std::size_t flows) {
  Rng rng(17);
  const auto edges = internet.edgeRouters();
  std::vector<std::pair<ip::Ip4Addr, RouterId>> workload;
  for (std::size_t i = 0; i < flows; ++i) {
    workload.emplace_back(internet.randomDestination(rng),
                          edges[rng.index(edges.size())]);
  }
  for (const auto& [d, s] : workload) net.send(d, s);  // warm clue tables
  std::uint64_t acc = 0;
  std::size_t hops = 0;
  for (const auto& [d, s] : workload) {
    const auto r = net.send(d, s);
    acc += r.total_accesses;
    hops += r.trace.size();
  }
  return static_cast<double>(acc) / static_cast<double>(hops);
}

}  // namespace

int main() {
  rib::InternetOptions opt;
  opt.cores = 3;
  opt.mids_per_core = 3;
  opt.edges_per_mid = 3;
  opt.specifics_per_edge = 16;
  opt.seed = 44;
  const rib::SyntheticInternet internet(opt);

  std::printf("Heterogeneous deployment (Sec. 5.3), avg accesses per hop:\n\n");

  auto all_legacy = net::buildNetwork(
      internet, [](RouterId) { return legacyRouter(true); });
  std::printf("  %-48s %6.2f\n", "no router supports clues:",
              avgAccessesPerHop(all_legacy, internet, 600));

  auto mids_only = net::buildNetwork(internet, [&](RouterId r) {
    return internet.tierOf(r) == rib::SyntheticInternet::Tier::kMid
               ? clueRouter()
               : legacyRouter(true);
  });
  std::printf("  %-48s %6.2f\n", "only the regional (mid) routers upgraded:",
              avgAccessesPerHop(mids_only, internet, 600));

  auto cores_legacy = net::buildNetwork(internet, [&](RouterId r) {
    return internet.tierOf(r) == rib::SyntheticInternet::Tier::kCore
               ? legacyRouter(/*relay=*/true)
               : clueRouter();
  });
  std::printf("  %-48s %6.2f\n",
              "legacy cores relay clues, everyone else upgraded:",
              avgAccessesPerHop(cores_legacy, internet, 600));

  auto all_clued =
      net::buildNetwork(internet, [](RouterId) { return clueRouter(); });
  std::printf("  %-48s %6.2f\n", "full deployment:",
              avgAccessesPerHop(all_clued, internet, 600));

  std::printf(
      "\nNote how partial deployment already pays: a clue relayed across a\n"
      "legacy core is still a prefix of the destination when it reaches the\n"
      "next clue-enabled router (Sec. 5.3).\n");
  return 0;
}
