// backbone_path: a packet crosses a synthetic internet and we watch the
// Figure 1 effect live — the best matching prefix lengthens hop by hop, and
// with clues the per-router work collapses to ~1 memory access everywhere
// except where the prefix actually lengthens.
//
//   ./build/examples/backbone_path
#include <cstdio>

#include "net/network.h"

using namespace cluert;

int main() {
  rib::InternetOptions opt;
  opt.cores = 4;
  opt.mids_per_core = 3;
  opt.edges_per_mid = 4;
  opt.specifics_per_edge = 24;
  opt.seed = 2026;
  const rib::SyntheticInternet internet(opt);

  auto clued = net::buildNetwork(internet, [](RouterId) {
    net::Router4::Config c;
    c.method = lookup::Method::kPatricia;
    c.mode = lookup::ClueMode::kAdvance;
    return c;
  });
  auto plain = net::buildNetwork(internet, [](RouterId) {
    net::Router4::Config c;
    c.clue_enabled = false;
    c.method = lookup::Method::kPatricia;
    return c;
  });

  Rng rng(3);
  const auto edges = internet.edgeRouters();
  const RouterId src = edges[0];
  const auto dest = internet.randomDestinationAt(edges[edges.size() - 1], rng);

  // First packet warms the learned clue tables along the path; the second
  // shows the steady state (the paper: even one-packet flows benefit — the
  // first packet already uses every entry learned from earlier traffic).
  clued.send(dest, src);
  const auto with_clues = clued.send(dest, src);
  const auto without = plain.send(dest, src);

  const auto tier_name = [&](RouterId r) {
    switch (internet.tierOf(r)) {
      case rib::SyntheticInternet::Tier::kCore:
        return "core";
      case rib::SyntheticInternet::Tier::kMid:
        return "mid ";
      default:
        return "edge";
    }
  };

  std::printf("Packet %s -> %s, %zu hops\n\n",
              std::to_string(src).c_str(), dest.toString().c_str(),
              with_clues.trace.size());
  std::printf("%4s %6s %8s %12s %14s %16s\n", "hop", "tier", "router",
              "BMP bits", "accesses", "accesses (no clue)");
  for (std::size_t k = 0; k < with_clues.trace.size(); ++k) {
    const auto& h = with_clues.trace[k];
    const auto& h0 = without.trace[k];
    std::printf("%4zu %6s %8u %12d %14llu %16llu\n", k, tier_name(h.router),
                h.router, h.bmp_length,
                static_cast<unsigned long long>(h.accesses),
                static_cast<unsigned long long>(h0.accesses));
  }
  std::printf("\nTotal accesses: %llu with clues vs %llu without (%.1fx)\n",
              static_cast<unsigned long long>(with_clues.total_accesses),
              static_cast<unsigned long long>(without.total_accesses),
              static_cast<double>(without.total_accesses) /
                  static_cast<double>(with_clues.total_accesses));
  std::printf("Delivered: %s (origin router %u)\n",
              with_clues.delivered ? "yes" : "no",
              internet.originOf(dest));
  return 0;
}
