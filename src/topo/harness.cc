#include "topo/harness.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "check/fib_check.h"
#include "common/check.h"
#include "core/clue.h"
#include "core/distributed_lookup.h"
#include "mem/access_counter.h"
#include "pipeline/pinned_resolver.h"
#include "rib/versioned_tables.h"
#include "sim/runner.h"

namespace cluert::topo {

namespace {

using Fib4 = rib::Fib<Addr4>;
using Match4 = trie::Match<Addr4>;

constexpr std::size_t kCacheEntries = 64;  // per-port §3.5 clue cache
constexpr int kPacketTtl = 64;

// One ingress port: router `owner`'s data plane for packets arriving from
// static neighbor `nbr`. Owns the full epoch-versioned stack; `mirror_*`
// are the control plane's view of what has been published so far, diffed
// against the RIP state each tick to produce the next deltas.
struct Stack {
  RouterId owner = 0;
  RouterId nbr = 0;
  Fib4 mirror_local;
  Fib4 mirror_view;
  std::unique_ptr<rib::VersionedTables4> tables;
  std::unique_ptr<pipeline::PinnedResolver<Addr4>> resolver;
};

// A table's prefixes in prefix order: a Fib keeps its entries in the order
// its deltas left them.
std::vector<Prefix4> sortedPrefixes(const Fib4& fib) {
  std::vector<Prefix4> out = fib.prefixes();
  std::sort(out.begin(), out.end(), PrefixLess{});
  return out;
}

std::string describeMatch(const std::optional<Match4>& m) {
  if (!m) return "(none)";
  return m->prefix.toString() + "->" + std::to_string(m->next_hop);
}

}  // namespace

int HarnessStats::convergencePercentile(double q) const {
  if (convergence_samples.empty()) return 0;
  std::vector<int> sorted = convergence_samples;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(pos)];
}

std::string HarnessStats::summary() const {
  std::ostringstream os;
  os << "injected=" << injected << " hops=" << forwarded_hops
     << " delivered=" << delivered << " no_route=" << no_route_drops
     << " down_link=" << down_link_drops << " ttl=" << ttl_drops
     << " strict_mismatches=" << strict_mismatches
     << " stale=" << stale_clue_hops
     << " stale_conv=" << stale_during_convergence
     << " stale_flap=" << stale_during_flap
     << " stale_withdraw=" << stale_during_withdraw
     << " safe_divergences=" << advance_stale_divergences
     << " case1=" << case1_hits << " publishes=" << publishes
     << " flaps=" << link_flaps << " rip_msgs=" << rip_messages
     << " conv_samples=" << convergence_samples.size()
     << " conv_p50=" << convergencePercentile(0.5)
     << " conv_p99=" << convergencePercentile(0.99)
     << " check=" << (check_report.ok() ? "ok" : "FAIL");
  return os.str();
}

HarnessStats runTopoScenario(const TopoScenario& s,
                             const HarnessOptions& opt) {
  CLUERT_CHECK(s.mode != lookup::ClueMode::kCommon)
      << "topology harness needs a clue mode";
  RipNetwork rip(s.topology(), opt.rip);
  // The one copy of the link state: setLink flips it, and the forward loop
  // reads it.
  const Topology& topo = rip.topology();
  HarnessStats stats;

  // One stack per (router, static-edge neighbor), neighbor ids ascending.
  // Static edges, not up edges: a flap must not create or destroy epoch
  // machinery mid-run.
  std::vector<std::vector<std::unique_ptr<Stack>>> stacks(topo.nodes);
  const auto stackOf = [&](RouterId owner, RouterId nbr) -> Stack* {
    for (auto& st : stacks[owner]) {
      if (st->nbr == nbr) return st.get();
    }
    return nullptr;
  };
  for (RouterId r = 0; r < topo.nodes; ++r) {
    for (const RouterId nbr : topo.neighbors(r)) {
      auto st = std::make_unique<Stack>();
      st->owner = r;
      st->nbr = nbr;
      rib::VersionedTables4::Options vopt;
      vopt.method = s.method;
      vopt.mode = s.mode;
      vopt.validate_retired = opt.validate_publishes;
      st->tables = std::make_unique<rib::VersionedTables4>(
          st->mirror_local, st->mirror_view, vopt);
      core::CluePort<Addr4>::Options popt;
      popt.method = s.method;
      popt.mode = s.mode;
      popt.cache_entries = kCacheEntries;
      st->resolver = std::make_unique<pipeline::PinnedResolver<Addr4>>(
          std::make_unique<core::CluePort<Addr4>>(popt), /*worker_id=*/0);
      st->resolver->bindVersions(st->tables.get());
      stacks[r].push_back(std::move(st));
    }
  }

  // Control plane -> data plane: diff this tick's RIP state against each
  // stack's mirrors and publish the deltas on this thread, so the tick's
  // packets resolve against fully published tables (the harness models
  // convergence lag in the *protocol*, not in publication). Every resolver
  // guard has dropped by now, so each publish's grace wait is empty.
  const auto publishTick = [&] {
    for (RouterId r = 0; r < topo.nodes; ++r) {
      if (stacks[r].empty()) continue;
      const Fib4 fib = rip.fibOf(r);
      const rib::FibDelta<Addr4> local_delta =
          rib::diff(stacks[r][0]->mirror_local, fib);
      for (auto& st : stacks[r]) {
        st->tables->publishLocal(local_delta);
        rib::applyDelta(st->mirror_local, local_delta);
        const Fib4 view = rip.clueViewOf(r, st->nbr);
        const rib::FibDelta<Addr4> view_delta =
            rib::diff(st->mirror_view, view);
        st->tables->publishNeighbor(view_delta);
        rib::applyDelta(st->mirror_view, view_delta);
      }
    }
  };

  // Whether every port on an up link has published a neighbor view holding
  // exactly its sender's FIB prefixes. converged() checks routes, and the
  // clue views lag them, so a window closes on both (bench_convergence's
  // rule).
  const auto viewsSettled = [&] {
    std::vector<std::optional<std::vector<Prefix4>>> fib_prefixes(topo.nodes);
    for (RouterId r = 0; r < topo.nodes; ++r) {
      for (const auto& st : stacks[r]) {
        if (!topo.linkUp(r, st->nbr)) continue;
        auto& want = fib_prefixes[st->nbr];
        if (!want) want = sortedPrefixes(rip.fibOf(st->nbr));
        if (sortedPrefixes(st->mirror_view) != *want) return false;
      }
    }
    return true;
  };

  // Convergence tracking: an event makes the network dirty; the first
  // post-tick observation of converged routes and settled views records
  // the transient's length. The window flags attribute in-window staleness
  // to the event kinds that opened it (see HarnessStats::stale_during_flap).
  bool dirty = false;
  bool window_has_link = false;
  bool window_has_withdraw = false;
  int last_event_tick = 0;

  mem::AccessCounter acc;

  const auto forward = [&](const TopoPacket& pkt) {
    RouterId at = pkt.src;
    RouterId from = kNoRouter;
    core::ClueField clue = core::ClueField::none();
    int ttl = kPacketTtl;
    int hop = 0;
    ++stats.injected;
    for (;;) {
      // Injected packets enter through the router's first port; transit
      // packets through the port facing the hop they arrived on.
      Stack* st = from == kNoRouter
                      ? (stacks[at].empty() ? nullptr : stacks[at][0].get())
                      : stackOf(at, from);
      if (st == nullptr) {
        ++stats.no_route_drops;  // isolated router: nothing to look in
        return;
      }
      const std::array<Addr4, 1> dests{pkt.dest};
      const std::array<core::ClueField, 1> clues{clue};
      std::array<core::CluePort<Addr4>::Result, 1> results;
      st->resolver->resolve(dests, clues, results, acc,
                            [&](const rib::TableVersion<Addr4>* v) {
        CLUERT_CHECK(v != nullptr) << "resolver must be versioned";
        // Classify the carried clue against this version's neighbor view
        // (what the control plane has told us the sender holds), by the same
        // brute force as the local side below.
        sim::Fault cls = sim::Fault::kNone;
        if (!clue.present) {
          cls = sim::Fault::kNoClue;
        } else {
          const auto view_bmp =
              check::bruteForceBmp(v->neighbor.entries(), pkt.dest);
          if (!view_bmp || view_bmp->prefix.length() != clue.length) {
            cls = sim::Fault::kStale;
            ++stats.stale_clue_hops;
            if (dirty) {
              ++stats.stale_during_convergence;
              if (window_has_link) ++stats.stale_during_flap;
              if (window_has_withdraw) ++stats.stale_during_withdraw;
            }
          }
        }
        const auto expected =
            check::bruteForceBmp(v->local.entries(), pkt.dest);
        const bool agree = expected == results[0].match;
        if (agree) return;
        if (sim::oracleStrict(cls, s.mode)) {
          ++stats.strict_mismatches;
          if (stats.first_mismatch.empty()) {
            std::ostringstream os;
            os << "router " << at << " port<-"
               << (from == kNoRouter ? std::string("inject")
                                     : std::to_string(from))
               << " tick " << rip.now() << " dest " << pkt.dest.toString()
               << " fault " << sim::faultName(cls) << ": expected "
               << describeMatch(expected) << " got "
               << describeMatch(results[0].match);
            stats.first_mismatch = os.str();
          }
        } else {
          ++stats.advance_stale_divergences;  // classified, safe
        }
      });
      const std::size_t bucket = std::min<std::size_t>(
          static_cast<std::size_t>(hop), HarnessStats::kMaxHopBuckets - 1);
      ++stats.lookups_by_hop[bucket];
      if (results[0].outcome == obs::Outcome::kCase1) {
        ++stats.case1_hits;
        ++stats.case1_by_hop[bucket];
      }
      if (!results[0].match) {
        ++stats.no_route_drops;
        return;
      }
      const RouterId nh = results[0].match->next_hop;
      if (nh == at) {
        ++stats.delivered;  // originated here
        return;
      }
      if (!topo.hasLink(at, nh)) {
        // A FIB can only ever point at a real adjacency; anything else is
        // corrupt state, not a transient.
        ++stats.strict_mismatches;
        if (stats.first_mismatch.empty()) {
          stats.first_mismatch = "router " + std::to_string(at) +
                                 " resolved non-adjacent next hop " +
                                 std::to_string(nh);
        }
        return;
      }
      if (!topo.linkUp(at, nh)) {
        // Unreachable while RIP kills every route across a link the moment
        // it goes down: no published FIB points across a dead link.
        ++stats.down_link_drops;
        return;
      }
      if (--ttl <= 0) {
        ++stats.ttl_drops;  // routing loop during a transient
        return;
      }
      // Re-stamp the clue with this router's matched BMP (§3.2: each hop
      // sends its own best match), then hand off.
      const int len = results[0].match->prefix.length();
      clue = len > 0 ? core::ClueField::of(len) : core::ClueField::none();
      from = at;
      at = nh;
      ++hop;
      ++stats.forwarded_hops;
    }
  };

  // Main loop. Event/packet cursors ride the sorted timelines.
  std::size_t ei = 0;
  std::size_t pi = 0;
  for (int t = 0; t < s.ticks; ++t) {
    if (t == 0) {
      for (const TopoOriginate& o : s.originate) rip.originate(o.router, o.prefix);
      if (!s.originate.empty()) {
        dirty = true;
        last_event_tick = 0;
      }
    }
    for (; ei < s.events.size() && s.events[ei].tick <= t; ++ei) {
      const TopoEvent& e = s.events[ei];
      switch (e.kind) {
        case TopoEventKind::kLinkDown:
          rip.setLink(e.a, e.b, false);
          ++stats.link_flaps;
          window_has_link = true;
          break;
        case TopoEventKind::kLinkUp:
          rip.setLink(e.a, e.b, true);
          window_has_link = true;
          break;
        case TopoEventKind::kAdvertise:
          rip.originate(e.a, e.prefix);
          break;
        case TopoEventKind::kWithdraw:
          rip.withdraw(e.a, e.prefix);
          window_has_withdraw = true;
          break;
      }
      dirty = true;
      last_event_tick = t;
    }
    rip.tick();
    publishTick();
    if (dirty) {
      if (rip.converged() && viewsSettled()) {
        stats.convergence_samples.push_back(rip.now() - last_event_tick);
        dirty = false;
        window_has_link = false;
        window_has_withdraw = false;
      } else {
        ++stats.unconverged_ticks;
      }
    }
    for (; pi < s.packets.size() && s.packets[pi].tick <= t; ++pi) {
      for (std::uint32_t k = 0; k < s.packets[pi].count; ++k) {
        forward(s.packets[pi]);
      }
    }
  }

  for (auto& node : stacks) {
    for (auto& st : node) {
      stats.publishes += st->tables->swaps();
      stats.version_changes += st->resolver->versionChanges();
      if (opt.validate_publishes) {
        stats.check_report.merge(rib::validateVersion(st->tables->liveVersion()));
      }
    }
  }
  stats.rip_messages = rip.messagesSent();
  return stats;
}

}  // namespace cluert::topo
