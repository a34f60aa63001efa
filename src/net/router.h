// A simulated router: a FIB, its lookup structures, and one clue port per
// incoming link. Routers can be configured clue-less (§5.3 heterogeneous
// networks): they then route by a plain lookup and either relay or strip the
// clue carried by the packet.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/distributed_lookup.h"
#include "net/packet.h"
#include "rib/fib.h"
#include "common/check.h"

namespace cluert::net {

template <typename A>
class Router {
 public:
  using MatchT = trie::Match<A>;
  using PrefixT = ip::Prefix<A>;

  struct Config {
    // Participates in distributed IP lookup: consults clue tables and
    // attaches/refreshes the clue on forwarded packets.
    bool clue_enabled = true;
    // A non-participating router may still relay an incoming clue unchanged
    // ("assuming that intermediate routers relay the clue", §5.3) — or strip
    // it, modelling legacy equipment that clears unknown options.
    bool relay_clue = true;
    // >0: truncate outgoing clues to at most this many bits (§5.3b). A
    // truncated clue is not the sender's BMP, so receivers can only apply
    // Simple semantics to it; pair with mode = kSimple.
    int truncate_to = 0;
    // §5.3b "a router may refrain from sending some clues": prefixes for
    // which this returns false are not exported as clues (the packet goes
    // out clueless — never with a stale clue, so the exported ones remain
    // genuine and Advance receivers stay sound). Null exports everything.
    std::function<bool(const ip::Prefix<A>&)> clue_export_filter;
    lookup::Method method = lookup::Method::kPatricia;
    lookup::ClueMode mode = lookup::ClueMode::kAdvance;
    // A clue router's ports probe a clue-less packet's own /16 (core::
    // kSelfClueBits); false keeps the paper's common lookup for it.
    bool self_clue = true;
  };

  Router(RouterId id, rib::Fib<A> fib, const Config& config)
      : id_(id),
        config_(config),
        fib_(std::move(fib)),
        suite_(std::vector<MatchT>(fib_.entries().begin(),
                                   fib_.entries().end())) {}

  RouterId id() const { return id_; }
  const rib::Fib<A>& fib() const { return fib_; }
  const Config& config() const { return config_; }
  lookup::LookupSuite<A>& suite() { return suite_; }
  const lookup::LookupSuite<A>& suite() const { return suite_; }

  // Registers an incoming link from `neighbor`, creating its clue port.
  // `neighbor_trie` is the sender's prefix view (required for Advance; may
  // be null for Simple). No-op for clue-less routers.
  //
  // `sender_clues_genuine` — whether every clue arriving on this link is the
  // *sender's own* BMP. False when the neighbor merely relays clues from
  // further upstream, truncates them (§5.3b) or doesn't attach any: such
  // clues are still prefixes of the destination, so Simple applies, but
  // Claim 1 (which reasons about the sender's table) does not — the port
  // falls back to Simple semantics, the conservative reading of §5.3.
  void connectFrom(RouterId neighbor, const trie::BinaryTrie<A>* neighbor_trie,
                   bool sender_clues_genuine = true) {
    if (!config_.clue_enabled) return;
    if (ports_.count(neighbor) != 0) return;
    typename core::CluePort<A>::Options opt;
    opt.method = config_.method;
    opt.mode = sender_clues_genuine ? config_.mode
                                    : lookup::ClueMode::kSimple;
    opt.neighbor_index = next_neighbor_index_++;
    CLUERT_CHECK(opt.neighbor_index < kMaxAnnotatedNeighbors)
        << "router has more clue neighbors than the continue-bit mask holds";
    opt.expected_clues = fib_.size() + 16;
    opt.self_clue = config_.self_clue;
    ports_.emplace(neighbor, std::make_unique<core::CluePort<A>>(
                                 suite_, neighbor_trie, opt));
  }

  struct Decision {
    std::optional<MatchT> match;
    bool delivered = false;  // matched a locally originated route
    bool clue_used = false;
  };

  // Processes `packet` arriving from `from` (kNoRouter: host injection).
  // Performs the lookup, charges accesses to `acc`, rewrites the packet's
  // clue per this router's policy and returns the forwarding decision.
  Decision forward(Packet<A>& packet, RouterId from,
                   mem::AccessCounter& acc) {
    Decision d;
    core::CluePort<A>* port = portFor(from);
    if (config_.clue_enabled && port != nullptr) {
      const auto result = port->process(packet.dest, packet.clue, acc);
      d.match = result.match;
      d.clue_used = result.table_hit;
    } else {
      // Clue-less (or no port for this link): plain lookup with this
      // router's configured method.
      d.match = suite_.engine(config_.method).lookup(packet.dest, acc);
    }
    d.delivered = d.match && d.match->next_hop == id_;

    // Outgoing clue policy (§5.3).
    if (config_.clue_enabled && d.match) {
      if (config_.clue_export_filter &&
          !config_.clue_export_filter(d.match->prefix)) {
        packet.clue = core::ClueField::none();  // refrain, never go stale
      } else {
        int len = d.match->prefix.length();
        if (config_.truncate_to > 0) len = std::min(len, config_.truncate_to);
        packet.clue = core::ClueField::of(len);
      }
    } else if (!config_.relay_clue) {
      packet.clue = core::ClueField::none();
    }
    return d;
  }

  core::CluePort<A>* portFor(RouterId neighbor) {
    const auto it = ports_.find(neighbor);
    return it == ports_.end() ? nullptr : it->second.get();
  }

 private:
  RouterId id_;
  Config config_;
  rib::Fib<A> fib_;
  lookup::LookupSuite<A> suite_;
  std::unordered_map<RouterId, std::unique_ptr<core::CluePort<A>>> ports_;
  NeighborIndex next_neighbor_index_ = 0;
};

using Router4 = Router<ip::Ip4Addr>;

}  // namespace cluert::net
