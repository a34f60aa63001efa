// Property test (ISSUE 10 satellite): seeded control-plane churn on a
// 5-node ring always reconverges to shortest-path FIBs within the
// count-to-infinity bound. Control plane only — no data-plane stacks — so
// 50 seeds stay cheap. Seed count follows CLUERT_PROPERTY_SEEDS (the same
// knob property_test.cc uses), defaulting to the issue's 50.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/random.h"
#include "common/text.h"
#include "topo/rip.h"
#include "topo/topology.h"

namespace cluert::topo {
namespace {

std::size_t seedCountFromEnv() {
  const char* env = std::getenv("CLUERT_PROPERTY_SEEDS");
  const auto n = env != nullptr ? parseNumber<std::size_t>(env) : std::nullopt;
  return n && *n > 0 ? *n : 50;
}

// Ticks until converged, capped at `bound`; -1 when the cap is hit.
int ticksToConverge(RipNetwork& rip, int bound) {
  for (int t = 0; t < bound; ++t) {
    if (rip.converged()) return t;
    rip.tick();
  }
  return rip.converged() ? bound : -1;
}

TEST(TopoProperty, RingChurnConvergesWithinCountToInfinityBound) {
  const std::size_t seeds = seedCountFromEnv();
  RipOptions opt;
  opt.update_interval = 4;
  opt.timeout_ticks = 24;
  opt.gc_ticks = 12;
  const int bound = opt.convergenceBound();

  for (std::size_t k = 0; k < seeds; ++k) {
    const std::uint64_t seed = 9000 + k;
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Rng rng(Rng::splitMix64(seed));
    const Topology topo = buildTopology(Shape::kRing, 5, seed);
    RipNetwork rip(topo, opt);

    for (RouterId r = 0; r < 5; ++r) {
      rip.originate(r, Prefix4(Addr4((10u << 24) | ((r + 1u) << 16)), 16));
    }
    ASSERT_GE(ticksToConverge(rip, bound), 0) << "initial convergence";

    // Churn: single events with full reconvergence demanded after each —
    // the per-event bound is what the option documents. Keep at most one
    // link down at a time so the ring stays connected (a partitioned ring
    // is covered by the unit tests' unreachability cases).
    int down_link = -1;
    for (int step = 0; step < 8; ++step) {
      const int kind = static_cast<int>(rng.index(4));
      switch (kind) {
        case 0: {  // flap a link down
          if (down_link >= 0) break;
          down_link = static_cast<int>(rng.index(topo.links.size()));
          const Link& l = topo.links[static_cast<std::size_t>(down_link)];
          rip.setLink(l.a, l.b, false);
          break;
        }
        case 1: {  // restore the down link
          if (down_link < 0) break;
          const Link& l = topo.links[static_cast<std::size_t>(down_link)];
          rip.setLink(l.a, l.b, true);
          down_link = -1;
          break;
        }
        case 2: {  // advertise a fresh prefix
          const RouterId r = static_cast<RouterId>(rng.index(5));
          rip.originate(
              r, Prefix4(Addr4((10u << 24) | ((r + 1u) << 16) |
                               (static_cast<std::uint32_t>(step) << 8)),
                         24));
          break;
        }
        default: {  // withdraw the router's /16 block (re-advertised below)
          const RouterId r = static_cast<RouterId>(rng.index(5));
          const Prefix4 p(Addr4((10u << 24) | ((r + 1u) << 16)), 16);
          if (rng.chance(0.5)) {
            rip.withdraw(r, p);
          } else {
            rip.originate(r, p);
          }
          break;
        }
      }
      ASSERT_GE(ticksToConverge(rip, bound), 0)
          << "step " << step << " exceeded the count-to-infinity bound ("
          << bound << " ticks)";
    }
  }
}

}  // namespace
}  // namespace cluert::topo
