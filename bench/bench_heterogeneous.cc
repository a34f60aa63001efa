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

// One row, measured twice over the same workload: clue routers that send a
// clue-less packet through the common lookup (the paper's model) and ones
// that probe its own /16 (core::kSelfClueBits).
void row(const char* label, const rib::SyntheticInternet& internet,
         const net::Network4::ConfigFn& config_of, Rng& rng) {
  const auto with = [&config_of](bool self_clue) {
    return [&config_of, self_clue](RouterId r) {
      auto c = config_of(r);
      c.self_clue = self_clue;
      return c;
    };
  };
  Rng paper_rng = rng;
  const double paper = measure(internet, with(false), paper_rng, 1200);
  const double self = measure(internet, with(true), rng, 1200);
  std::printf("%-48s %12.2f %12.2f\n", label, paper, self);
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
  std::printf("%-48s %12s %12s\n", "Deployment", "paper model",
              "self-clue");

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
    // Drawn once, in the order buildNetwork configures the routers, so both
    // columns run the same deployment.
    Rng pick(99);
    std::vector<bool> enabled(internet.routerCount());
    for (std::size_t r = 0; r < enabled.size(); ++r) {
      enabled[r] = pick.chance(fraction);
    }
    Rng rng(1234);
    char label[64];
    std::snprintf(label, sizeof label, "%3.0f%% of routers clue-enabled",
                  fraction * 100);
    row(label, internet,
        [&](RouterId r) { return enabled[r] ? clue_config : legacy_relay; },
        rng);
  }

  Rng rng(1234);
  const auto cores = [&](const net::Router4::Config& legacy) {
    return [&internet, &legacy, &clue_config](RouterId r) {
      return internet.tierOf(r) == rib::SyntheticInternet::Tier::kCore
                 ? legacy
                 : clue_config;
    };
  };
  row("cores legacy (relay), rest clue-enabled", internet, cores(legacy_relay),
      rng);
  row("cores legacy (strip), rest clue-enabled", internet, cores(legacy_strip),
      rng);
  auto truncating = clue_config;
  truncating.mode = lookup::ClueMode::kSimple;
  truncating.truncate_to = 12;
  row("all clue-enabled, clues truncated to /12 (5.3b)", internet,
      [&](RouterId) { return truncating; }, rng);
  std::printf(
      "\nShape check: cost falls monotonically as deployment grows in both\n"
      "columns; relaying legacy routers preserve most of the benefit, and\n"
      "truncated clues still help (Sec. 5.3). Under the paper's model\n"
      "stripping cores lose the benefit downstream of them; with self-clues\n"
      "the stripped packet's /16 serves the next clue router, so only the\n"
      "routers that receive no clue gain, and the 0%% and 100%% rows, whose\n"
      "ingress edge takes the common lookup, do not move.\n");
  return 0;
}
