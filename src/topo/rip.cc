#include "topo/rip.h"

#include <algorithm>

#include "common/check.h"

namespace cluert::topo {

RipNetwork::RipNetwork(Topology topo, const RipOptions& opt)
    : topo_(std::move(topo)), opt_(opt) {
  CLUERT_CHECK(opt_.update_interval >= 1) << "update interval must be >= 1";
  routers_.resize(topo_.nodes);
}

void RipNetwork::killRoute(RipRoute& rt) {
  if (!rt.alive()) return;
  rt.metric = kInfinity;
  rt.expire_tick = -1;
  rt.gc_tick = tick_ + opt_.gc_ticks;
  rt.changed = true;
}

void RipNetwork::originate(RouterId r, const Prefix4& p) {
  CLUERT_CHECK(r < routers_.size()) << "originate: router out of range";
  Router& rtr = routers_[r];
  rtr.originated[p] = true;
  RipRoute& rt = rtr.routes[p];
  rt.prefix = p;
  rt.next_hop = r;
  rt.metric = 0;
  rt.expire_tick = -1;  // originated routes never time out
  rt.gc_tick = -1;
  rt.changed = true;
}

void RipNetwork::withdraw(RouterId r, const Prefix4& p) {
  CLUERT_CHECK(r < routers_.size()) << "withdraw: router out of range";
  Router& rtr = routers_[r];
  rtr.originated.erase(p);
  auto it = rtr.routes.find(p);
  if (it == rtr.routes.end()) return;
  killRoute(it->second);
}

void RipNetwork::setLink(RouterId a, RouterId b, bool up) {
  if (!topo_.setLink(a, b, up)) return;  // not an edge or no change
  if (up) {
    // Fresh adjacency: exchange full tables next tick so the new neighbor
    // does not wait out a periodic interval. Learned views refill from that
    // exchange; until then they keep whatever staleness the outage left.
    routers_[a].want_full[b] = true;
    routers_[b].want_full[a] = true;
    return;
  }
  // Link death is detected immediately (interface down, not timer expiry):
  // both endpoints kill every route pointing across the dead link. The
  // learned clue views deliberately stay as-is — the peer still holds those
  // prefixes and will stamp them as clues if the link comes back mid-drain.
  for (const auto& [self, peer] : {std::pair{a, b}, std::pair{b, a}}) {
    for (auto& [p, rt] : routers_[self].routes) {
      if (rt.next_hop == peer) killRoute(rt);
    }
  }
}

void RipNetwork::processUpdate(const RipMessage& m) {
  Router& rtr = routers_[m.to];
  auto& view = rtr.view[m.from];
  for (const WireRoute& w : m.routes) {
    // Clue-view maintenance first: a poisoned entry means the sender still
    // holds the route (split horizon hid the metric, not the prefix); only
    // a genuinely dead advertisement evicts it from the view.
    if (w.metric >= kInfinity && !w.poisoned) {
      view.erase(w.prefix);
    } else {
      view[w.prefix] = true;
    }
    // Bellman-Ford with receiver-side +1, clamped at infinity. Poisoned
    // entries are unreachable-via-this-neighbor for routing purposes.
    const int m2 = std::min(w.metric + 1, kInfinity);
    auto it = rtr.routes.find(w.prefix);
    if (it == rtr.routes.end()) {
      if (m2 >= kInfinity) continue;  // don't learn dead routes
      RipRoute& rt = rtr.routes[w.prefix];
      rt.prefix = w.prefix;
      rt.next_hop = m.from;
      rt.metric = m2;
      rt.expire_tick = tick_ + opt_.timeout_ticks;
      rt.gc_tick = -1;
      rt.changed = true;
      continue;
    }
    RipRoute& rt = it->second;
    if (rtr.originated.count(w.prefix)) continue;  // own routes win
    if (rt.next_hop == m.from) {
      // Update from the current next hop: always believed, refreshes the
      // timeout, and a metric change (including to infinity) propagates.
      if (m2 < kInfinity) {
        rt.expire_tick = tick_ + opt_.timeout_ticks;
        rt.gc_tick = -1;
      }
      if (rt.metric != m2) {
        rt.metric = m2;
        rt.changed = true;
        if (m2 >= kInfinity) {
          rt.expire_tick = -1;
          rt.gc_tick = tick_ + opt_.gc_ticks;
        }
      }
    } else if (m2 < rt.metric) {
      rt.next_hop = m.from;
      rt.metric = m2;
      rt.expire_tick = tick_ + opt_.timeout_ticks;
      rt.gc_tick = -1;
      rt.changed = true;
    }
  }
}

void RipNetwork::runTimers() {
  for (Router& rtr : routers_) {
    for (auto it = rtr.routes.begin(); it != rtr.routes.end();) {
      RipRoute& rt = it->second;
      if (rt.expire_tick >= 0 && tick_ >= rt.expire_tick) killRoute(rt);
      if (rt.gc_tick >= 0 && tick_ >= rt.gc_tick) {
        it = rtr.routes.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void RipNetwork::emitUpdates() {
  for (RouterId r = 0; r < routers_.size(); ++r) {
    Router& rtr = routers_[r];
    const bool periodic =
        static_cast<std::uint64_t>(tick_) % opt_.update_interval ==
        r % static_cast<RouterId>(opt_.update_interval);
    bool sent_any = false;
    for (const RouterId nbr : topo_.upNeighbors(r)) {
      const bool full = periodic || rtr.want_full.count(nbr);
      RipMessage msg;
      msg.from = r;
      msg.to = nbr;
      for (const auto& [p, rt] : rtr.routes) {
        if (!full && !rt.changed) continue;
        WireRoute w;
        w.prefix = p;
        w.metric = rt.metric;
        if (rt.next_hop == nbr) {
          // Poisoned reverse: advertise infinity back toward the next hop,
          // flagging live routes so the neighbor's clue view keeps them.
          w.poisoned = rt.alive();
          w.metric = kInfinity;
        }
        msg.routes.push_back(w);
      }
      if (msg.routes.empty()) continue;
      pending_.push_back(std::move(msg));
      ++messages_;
      sent_any = true;
    }
    rtr.want_full.clear();
    // Triggered/periodic routes were advertised to every live neighbor;
    // clear the flags only after the whole fan-out (not per neighbor).
    if (sent_any || periodic) {
      for (auto& [p, rt] : rtr.routes) rt.changed = false;
    }
  }
}

void RipNetwork::tick() {
  // Deliver last tick's messages (one-tick propagation delay). A message in
  // flight across a link that has since gone down is lost.
  std::vector<RipMessage> inbox;
  inbox.swap(pending_);
  for (const RipMessage& m : inbox) {
    if (!topo_.linkUp(m.from, m.to)) continue;
    processUpdate(m);
  }
  runTimers();
  emitUpdates();
  ++tick_;
}

rib::Fib<Addr4> RipNetwork::fibOf(RouterId r) const {
  CLUERT_CHECK(r < routers_.size()) << "fibOf: router out of range";
  std::vector<rib::Fib<Addr4>::EntryT> entries;
  for (const auto& [p, rt] : routers_[r].routes) {
    if (!rt.alive()) continue;
    entries.push_back(rib::Fib<Addr4>::EntryT{p, rt.next_hop});
  }
  return rib::Fib<Addr4>(std::move(entries));
}

rib::Fib<Addr4> RipNetwork::clueViewOf(RouterId r, RouterId nbr) const {
  CLUERT_CHECK(r < routers_.size()) << "clueViewOf: router out of range";
  std::vector<rib::Fib<Addr4>::EntryT> entries;
  const auto& views = routers_[r].view;
  auto it = views.find(nbr);
  if (it != views.end()) {
    for (const auto& [p, _] : it->second) {
      entries.push_back(rib::Fib<Addr4>::EntryT{p, nbr});
    }
  }
  return rib::Fib<Addr4>(std::move(entries));
}

std::optional<int> RipNetwork::expectedMetric(RouterId r,
                                              const Prefix4& p) const {
  const auto dist = topo_.distancesFrom(r);
  int best = Topology::kUnreachable;
  for (RouterId o = 0; o < routers_.size(); ++o) {
    if (!routers_[o].originated.count(p)) continue;
    best = std::min(best, dist[o]);
  }
  if (best >= std::min(Topology::kUnreachable, kInfinity)) {
    return std::nullopt;
  }
  return best;
}

bool RipNetwork::converged() const {
  for (RouterId r = 0; r < routers_.size(); ++r) {
    const auto dist = topo_.distancesFrom(r);
    // Every live route must be a shortest path to some current originator.
    for (const auto& [p, rt] : routers_[r].routes) {
      const auto want = expectedMetric(r, p);
      if (!rt.alive()) {
        // Dead routes awaiting GC are fine only if the prefix really is
        // gone/unreachable; otherwise we have not re-learned it yet.
        if (want.has_value()) return false;
        continue;
      }
      if (!want.has_value() || rt.metric != *want) return false;
      if (rt.next_hop == r) {
        if (!routers_[r].originated.count(p)) return false;
        continue;
      }
      // Next hop must be an up neighbor lying on a shortest path.
      if (!topo_.linkUp(r, rt.next_hop)) return false;
      const auto nh_dist = topo_.distancesFrom(rt.next_hop);
      bool on_shortest = false;
      for (RouterId o = 0; o < routers_.size(); ++o) {
        if (!routers_[o].originated.count(p)) continue;
        if (nh_dist[o] + 1 == *want) on_shortest = true;
      }
      if (!on_shortest) return false;
    }
    // No reachable prefix may be missing.
    for (RouterId o = 0; o < routers_.size(); ++o) {
      if (dist[o] == Topology::kUnreachable || dist[o] >= kInfinity) {
        continue;
      }
      for (const auto& [p, _] : routers_[o].originated) {
        auto it = routers_[r].routes.find(p);
        if (it == routers_[r].routes.end()) return false;
        if (!it->second.alive()) return false;
      }
    }
  }
  return true;
}

}  // namespace cluert::topo
