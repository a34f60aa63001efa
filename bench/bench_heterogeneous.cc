// Experiment E10 — §5.3: heterogeneous deployment. "Even if only a few
// routers use the scheme, it already pays off": we sweep the fraction of
// clue-enabled routers from 0 to 1 (legacy routers relay the clue) and
// report end-to-end memory accesses per delivered packet. Also measures the
// §5.3b truncated-clue and the clue-stripping variants.
#include "net/network.h"

#include "bench_util.h"

namespace {

using namespace cluert;

double measure(const rib::SyntheticInternet& internet,
               const net::Network4::ConfigFn& config_of, Rng& rng,
               std::size_t flows) {
  auto net = net::buildNetwork(internet, config_of);
  const auto edges = internet.edgeRouters();
  std::vector<std::pair<ip::Ip4Addr, RouterId>> workload;
  for (std::size_t i = 0; i < flows; ++i) {
    workload.emplace_back(internet.randomDestination(rng),
                          edges[rng.index(edges.size())]);
  }
  for (const auto& [dest, src] : workload) net.send(dest, src);  // warm
  std::uint64_t total = 0;
  std::size_t hops = 0;
  for (const auto& [dest, src] : workload) {
    const auto r = net.send(dest, src);
    total += r.total_accesses;
    hops += r.trace.size();
  }
  return static_cast<double>(total) / static_cast<double>(hops);
}

}  // namespace

int main() {
  rib::InternetOptions opt;
  opt.cores = 4;
  opt.mids_per_core = 3;
  opt.edges_per_mid = 3;
  opt.specifics_per_edge = 20;
  opt.seed = 555;
  const rib::SyntheticInternet internet(opt);

  std::printf("Sec. 5.3: heterogeneous deployment "
              "(avg accesses per router hop, Regular base method)\n\n");
  std::printf("%-44s %12s\n", "Deployment", "acc/hop");

  const auto clue_config = [] {
    net::Router4::Config c;
    c.method = lookup::Method::kRegular;
    c.mode = lookup::ClueMode::kAdvance;
    return c;
  }();
  const auto legacy_relay = [] {
    net::Router4::Config c;
    c.clue_enabled = false;
    c.relay_clue = true;
    c.method = lookup::Method::kRegular;
    return c;
  }();
  auto legacy_strip = legacy_relay;
  legacy_strip.relay_clue = false;

  for (const double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    Rng pick(99);
    Rng rng(1234);
    const double v = measure(
        internet,
        [&](RouterId) {
          return pick.chance(fraction) ? clue_config : legacy_relay;
        },
        rng, 1200);
    std::printf("%3.0f%% of routers clue-enabled%19s %12.2f\n",
                fraction * 100, "", v);
  }

  Rng rng(1234);
  std::printf("%-44s %12.2f\n", "cores legacy (relay), rest clue-enabled",
              measure(
                  internet,
                  [&](RouterId r) {
                    return internet.tierOf(r) ==
                                   rib::SyntheticInternet::Tier::kCore
                               ? legacy_relay
                               : clue_config;
                  },
                  rng, 1200));
  std::printf("%-44s %12.2f\n", "cores legacy (strip), rest clue-enabled",
              measure(
                  internet,
                  [&](RouterId r) {
                    return internet.tierOf(r) ==
                                   rib::SyntheticInternet::Tier::kCore
                               ? legacy_strip
                               : clue_config;
                  },
                  rng, 1200));
  auto truncating = clue_config;
  truncating.mode = lookup::ClueMode::kSimple;
  truncating.truncate_to = 12;
  std::printf("%-44s %12.2f\n",
              "all clue-enabled, clues truncated to /12 (5.3b)",
              measure(
                  internet, [&](RouterId) { return truncating; }, rng, 1200));
  std::printf(
      "\nShape check: cost falls monotonically as deployment grows; relaying\n"
      "legacy routers preserve most of the benefit, stripping ones lose the\n"
      "benefit downstream of them; truncated clues still help (Sec. 5.3).\n");
  return 0;
}
