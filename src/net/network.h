// The simulated network: routers, links and end-to-end packet delivery with
// per-hop accounting. Builders wire a SyntheticInternet topology into
// routers with per-tier configurations (clue-enabled backbone, legacy edge,
// etc. — §5.3).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/router.h"
#include "rib/internet_gen.h"
#include "common/check.h"

namespace cluert::net {

template <typename A>
class Network {
 public:
  using RouterT = Router<A>;
  using ConfigFn =
      std::function<typename RouterT::Config(RouterId)>;

  // Adds a router; ids must be added densely starting from 0.
  RouterT& addRouter(RouterId id, rib::Fib<A> fib,
                     const typename RouterT::Config& config) {
    CLUERT_CHECK(id == routers_.size())
        << "router ids must be assigned densely in order; got " << id;
    routers_.push_back(
        std::make_unique<RouterT>(id, std::move(fib), config));
    tries_.push_back(routers_.back()->fib().buildTrie());
    return *routers_.back();
  }

  // Declares a bidirectional link; creates the clue ports on both ends
  // (each receiver gets the sender's prefix view, as the routing protocol
  // exchange would provide — §5.3). A neighbor that relays, truncates or
  // strips clues cannot certify them as its own BMP, so the receiving port
  // drops to Simple semantics (see Router::connectFrom).
  void link(RouterId a, RouterId b) {
    routers_[a]->connectFrom(b, &tries_[b], sendsGenuineClues(*routers_[b]));
    routers_[b]->connectFrom(a, &tries_[a], sendsGenuineClues(*routers_[a]));
  }

  static bool sendsGenuineClues(const RouterT& r) {
    const auto& c = r.config();
    return c.clue_enabled && c.truncate_to == 0;
  }

  RouterT& router(RouterId id) { return *routers_[id]; }
  const RouterT& router(RouterId id) const { return *routers_[id]; }
  std::size_t size() const { return routers_.size(); }

  struct SendResult {
    bool delivered = false;
    std::uint64_t total_accesses = 0;
    std::vector<HopRecord> trace;
  };

  // Injects a packet for `dest` at router `ingress` and forwards it hop by
  // hop until delivery, a routing failure, or TTL expiry. Each hop's memory
  // accesses are recorded in the trace.
  SendResult send(const A& dest, RouterId ingress, int ttl = 64) {
    Packet<A> packet;
    packet.dest = dest;
    packet.ttl = ttl;
    SendResult result;
    RouterId at = ingress;
    RouterId from = kNoRouter;
    while (packet.ttl-- > 0) {
      RouterT& r = *routers_[at];
      mem::AccessCounter acc;
      const auto d = r.forward(packet, from, acc);
      HopRecord hop;
      hop.router = at;
      hop.accesses = acc.total();
      hop.bmp_length = d.match ? d.match->prefix.length() : -1;
      hop.clue_used = d.clue_used;
      hop.delivered = d.delivered;
      result.trace.push_back(hop);
      result.total_accesses += hop.accesses;
      if (!d.match) break;  // no route
      if (d.delivered) {
        result.delivered = true;
        break;
      }
      from = at;
      at = static_cast<RouterId>(d.match->next_hop);
      if (at >= routers_.size()) break;  // next hop is not a router we model
    }
    packet.trace = result.trace;
    return result;
  }

 private:
  std::vector<std::unique_ptr<RouterT>> routers_;
  // Prefix views handed to neighbors. A deque keeps element addresses stable
  // across addRouter calls, so link() may be interleaved with addRouter.
  std::deque<trie::BinaryTrie<A>> tries_;
};

using Network4 = Network<ip::Ip4Addr>;

// Builds a Network over a SyntheticInternet topology. `config_of` decides
// each router's behaviour (clue participation, method, mode, truncation).
Network4 buildNetwork(const rib::SyntheticInternet& internet,
                      const Network4::ConfigFn& config_of);

}  // namespace cluert::net
