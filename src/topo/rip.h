// A RIP-style distance-vector control plane over a Topology (DESIGN.md §12,
// after the RFC 2453 subset in the ETHZ exemplar referenced by SNIPPETS.md):
// hop-count metric with a count-to-infinity bound, periodic full updates,
// triggered updates on change, split horizon with poisoned reverse, and the
// two-stage route death of timeout (metric -> infinity, route advertised
// dead) followed by garbage collection (route deleted).
//
// The whole machine is a deterministic discrete-tick simulation: messages
// sent at tick t are delivered at tick t+1 in send order, timers fire on
// tick boundaries, and every container iterates in a fixed order — the same
// scenario always produces the same FibDelta stream, which is what makes
// topology scenarios corpus-committable.
//
// Clue sub-protocol (the §3.3.2/§5.3 rider): each update entry carries a
// `poisoned` bit distinguishing "metric infinity because of split horizon —
// I still hold this route and will stamp it as a clue on traffic I send
// you" from "metric infinity because the route died". Receivers maintain a
// per-neighbor prefix view from exactly this bit; that view is the clue
// table universe the data plane builds per ingress neighbor, and its
// one-tick lag behind the sender's real table is the honest source of the
// kStale clues the fault matrix classifies during convergence windows.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "ip/prefix.h"
#include "rib/fib.h"
#include "topo/topology.h"

namespace cluert::topo {

using Addr4 = ip::Ip4Addr;
using Prefix4 = ip::Prefix<Addr4>;

// RIP's unreachable metric (RFC 2453): the count-to-infinity cap.
inline constexpr int kInfinity = 16;

struct RipOptions {
  int update_interval = 8;  // ticks between periodic full updates
  int timeout_ticks = 48;   // silence before a route is declared dead (6x)
  int gc_ticks = 32;        // dead-route advertisement window before delete

  // Ticks within which any single event (flap, withdraw, origination) must
  // reconverge the whole network: metric can climb by one per 2-tick
  // exchange round up to infinity, the dead route then lingers one gc
  // window, and timer-driven expiry plus periodic-update phase add slack.
  // Property tests assert convergence against exactly this bound.
  int convergenceBound() const {
    return 2 * kInfinity + timeout_ticks + gc_ticks + 2 * update_interval;
  }
};

struct RipRoute {
  Prefix4 prefix;
  RouterId next_hop = kNoRouter;  // neighbor id; own id when originated
  int metric = 0;
  int expire_tick = -1;  // tick at which the route times out; <0 never
  int gc_tick = -1;      // >=0: dead (metric==kInfinity), delete at this tick
  bool changed = false;  // pending triggered-update flag

  bool alive() const { return metric < kInfinity; }
};

// One entry of an update message. `poisoned` is the clue rider (see header
// comment): true only for split-horizon-poisoned entries of live routes.
struct WireRoute {
  Prefix4 prefix;
  int metric = 0;
  bool poisoned = false;
};

struct RipMessage {
  RouterId from = 0;
  RouterId to = 0;
  std::vector<WireRoute> routes;
};

class RipNetwork {
 public:
  RipNetwork(Topology topo, const RipOptions& opt);

  const Topology& topology() const { return topo_; }
  const RipOptions& options() const { return opt_; }
  int now() const { return tick_; }
  std::uint64_t messagesSent() const { return messages_; }

  // Control events, applied immediately (between ticks).
  void originate(RouterId r, const Prefix4& p);
  void withdraw(RouterId r, const Prefix4& p);
  void setLink(RouterId a, RouterId b, bool up);

  // One simulation tick: deliver last tick's messages, run timers, emit
  // periodic/triggered updates (delivered next tick).
  void tick();

  // The router's current forwarding table: every live route, next hop
  // encoded as the neighbor's RouterId (its own id for originated routes).
  rib::Fib<Addr4> fibOf(RouterId r) const;

  // The prefix universe router `r` believes ingress neighbor `nbr` can
  // stamp as clues — learned purely from `nbr`'s updates (poisoned entries
  // included, dead entries dropped). Next hops carry `nbr` and are unused.
  rib::Fib<Addr4> clueViewOf(RouterId r, RouterId nbr) const;

  // Shortest-path hop metric from `r` to the nearest originator of `p`
  // over up links; nullopt when unreachable or nobody originates it.
  std::optional<int> expectedMetric(RouterId r, const Prefix4& p) const;

  // True iff every router's live routes are exactly the BFS-shortest-path
  // answer: right metric, next hop on a shortest path, no routes to
  // withdrawn or unreachable prefixes, no missing routes.
  bool converged() const;

 private:
  struct Router {
    std::map<Prefix4, RipRoute> routes;
    std::map<Prefix4, bool> originated;
    // Per-ingress-neighbor clue view (see clueViewOf).
    std::map<RouterId, std::map<Prefix4, bool>> view;
    // Send a full (non-periodic) update to these neighbors next tick —
    // set when a link to them comes up.
    std::map<RouterId, bool> want_full;
  };

  void processUpdate(const RipMessage& m);
  void runTimers();
  void emitUpdates();
  void killRoute(RipRoute& rt);

  Topology topo_;
  RipOptions opt_;
  std::vector<Router> routers_;
  std::vector<RipMessage> pending_;  // sent this tick, delivered next tick
  int tick_ = 0;
  std::uint64_t messages_ = 0;
};

}  // namespace cluert::topo
