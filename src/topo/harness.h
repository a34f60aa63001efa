// The multi-router topology harness (DESIGN.md §12): replays one
// TopoScenario with a full versioned data plane per router — every (router,
// static-edge neighbor) port owns a rib::VersionedTables +
// pipeline::PinnedResolver stack, the RIP control plane's per-tick FIB and
// clue-view movements become FibDeltas published by
// VersionedTables::publishLocal/publishNeighbor on the harness's one thread,
// and packets hop router to router carrying the clue the previous hop
// stamped.
//
// The oracle runs per hop, inside the resolver's under_guard while the pin
// is held (the same rule the netio datapath follows — an unpinned check
// could race a swap):
//   * brute-force BMP over the pinned version's local table must agree with
//     the port's answer whenever the fault matrix says strict;
//   * the carried clue is classified against the pinned version's neighbor
//     view: absent -> kNoClue, matching BMP -> kNone, anything else ->
//     kStale (the view lags the sender by the control plane's message
//     delay, so convergence windows produce genuine stale clues);
//   * Advance-mode stale divergences are counted, never fatal —
//     misrouted-but-safe, exactly the §3.1.2 robustness contract — while
//     Simple mode is held strict under every clue.
// check/ validators run on every retired publish (validate_retired) and on
// every live version at the end of the run.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "check/report.h"
#include "topo/rip.h"
#include "topo/scenario.h"

namespace cluert::topo {

struct HarnessOptions {
  // Run the full check/ validation suite on every retired publish and on
  // each final live version. Expensive; tests keep it on, bench turns it
  // off for the big packet counts.
  bool validate_publishes = true;
};

struct HarnessStats {
  static constexpr std::size_t kMaxHopBuckets = 16;  // last bucket = 15+

  std::uint64_t injected = 0;
  std::uint64_t forwarded_hops = 0;  // successful hop transitions
  std::uint64_t delivered = 0;
  std::uint64_t no_route_drops = 0;
  std::uint64_t down_link_drops = 0;  // FIB pointed across a dead link
  std::uint64_t ttl_drops = 0;

  std::uint64_t strict_mismatches = 0;  // must be 0 for ok()
  std::uint64_t stale_clue_hops = 0;
  std::uint64_t stale_during_convergence = 0;
  // Window attribution: staleness inside a convergence window opened (or
  // extended) by a link event / a withdraw. A window can carry both flags.
  // These are what the corpus-hunt predicates key on — they tie a repro's
  // staleness to the transient kind it claims to pin down, so the shrinker
  // cannot reduce away the flap or the withdraw.
  std::uint64_t stale_during_flap = 0;
  std::uint64_t stale_during_withdraw = 0;
  std::uint64_t advance_stale_divergences = 0;  // misrouted-but-safe
  std::uint64_t case1_hits = 0;
  std::array<std::uint64_t, kMaxHopBuckets> lookups_by_hop{};
  std::array<std::uint64_t, kMaxHopBuckets> case1_by_hop{};

  std::uint64_t publishes = 0;
  std::uint64_t version_changes = 0;
  std::uint64_t rip_messages = 0;
  std::uint64_t link_flaps = 0;  // link-down events applied
  std::uint64_t unconverged_ticks = 0;
  std::vector<int> convergence_samples;  // ticks from event to converged

  check::Report check_report;
  std::string first_mismatch;  // human-readable detail of the first failure

  bool ok() const { return strict_mismatches == 0 && check_report.ok(); }
  // sorted[floor(q·(n−1))] over the n convergence_samples (q in [0,1]); 0
  // when no samples were recorded. Not nearest-rank: q = 0.99 over 10
  // samples gives the 9th, where nearest-rank gives the 10th.
  // BENCH_topo.json's convergence_p99_ticks is this value.
  int convergencePercentile(double q) const;
  std::string summary() const;
};

// Replays the scenario start to finish. Deterministic: same scenario, same
// stats (modulo latency counters the stats deliberately exclude).
HarnessStats runTopoScenario(const TopoScenario& s,
                             const HarnessOptions& opt = {});

}  // namespace cluert::topo
