// FIB delta computation: what changed between two versions of a table.
// This is the unit of work a routing-protocol reconvergence hands to the
// route-update machinery. A clue table follows it through one rule
// (core::followDelta), whichever owns the table: a CluePort
// (refreshLocal/refreshNeighbor, after the owner applied the delta to its
// suite or sender view) or a rib::VersionedTables version (publishLocal /
// publishNeighbor, directly or from a rib::RouteUpdater thread).
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "rib/fib.h"

namespace cluert::rib {

template <typename A>
struct FibDelta {
  using EntryT = typename Fib<A>::EntryT;
  using PrefixT = typename Fib<A>::PrefixT;

  std::vector<EntryT> added;     // prefix new in `next`
  std::vector<PrefixT> removed;  // prefix gone from `prev`
  std::vector<EntryT> rerouted;  // same prefix, new next hop

  bool empty() const {
    return added.empty() && removed.empty() && rerouted.empty();
  }
  std::size_t size() const {
    return added.size() + removed.size() + rerouted.size();
  }
  // Added then rerouted entries: what a lookup structure upserts
  // (LookupSuite::applyRouteDelta's second argument).
  std::vector<EntryT> upserts() const {
    std::vector<EntryT> out;
    out.reserve(added.size() + rerouted.size());
    out.insert(out.end(), added.begin(), added.end());
    out.insert(out.end(), rerouted.begin(), rerouted.end());
    return out;
  }
};

using FibDelta4 = FibDelta<ip::Ip4Addr>;

template <typename A>
FibDelta<A> diff(const Fib<A>& prev, const Fib<A>& next) {
  using PrefixT = typename Fib<A>::PrefixT;
  FibDelta<A> d;
  // Last-wins collapse of both sides. entries() is deduplicated for tables
  // built through the normalizing paths, but add()-built tables reach here
  // too, and a duplicated prefix must not be double-counted (the old code
  // erased on first sight, so a second occurrence of a surviving prefix
  // would be misreported as `added`).
  std::unordered_map<PrefixT, NextHop> old_routes;
  old_routes.reserve(prev.size());
  for (const auto& e : prev.entries()) old_routes[e.prefix] = e.next_hop;
  std::unordered_map<PrefixT, NextHop> new_routes;
  new_routes.reserve(next.size());
  for (const auto& e : next.entries()) new_routes[e.prefix] = e.next_hop;

  for (const auto& [prefix, nh] : new_routes) {
    const auto it = old_routes.find(prefix);
    if (it == old_routes.end()) {
      d.added.push_back({prefix, nh});
    } else if (it->second != nh) {
      d.rerouted.push_back({prefix, nh});
    }
  }
  for (const auto& [prefix, nh] : old_routes) {
    if (new_routes.find(prefix) == new_routes.end()) {
      d.removed.push_back(prefix);
    }
  }

  // Prefix order (address, then length) on every output vector, so a delta
  // is a pure function of the two tables — churn replays and the
  // versioned-table builders must not depend on hash-map iteration order.
  std::ranges::sort(d.added, {}, &trie::Match<A>::prefix);
  std::ranges::sort(d.rerouted, {}, &trie::Match<A>::prefix);
  std::ranges::sort(d.removed);
  return d;
}

// Applies a delta to a plain table: prev + diff(prev, next) == next. Shared
// by the versioned-table builder (both left-right buffers replay the same
// deltas) and tests. Removals land before adds, so no transient state ever
// widens a prefix.
template <typename A>
void applyDelta(Fib<A>& fib, const FibDelta<A>& d) {
  for (const auto& p : d.removed) fib.remove(p);
  for (const auto& e : d.added) fib.add(e.prefix, e.next_hop);
  for (const auto& e : d.rerouted) fib.add(e.prefix, e.next_hop);
}

// The same delta applied to a sender's prefix view: the trie a CluePort or a
// TableVersion consults for Claim 1.
template <typename A>
void applyDelta(trie::BinaryTrie<A>& view, const FibDelta<A>& d) {
  for (const auto& p : d.removed) view.erase(p);
  for (const auto& e : d.added) view.insert(e.prefix, e.next_hop);
  for (const auto& e : d.rerouted) view.insert(e.prefix, e.next_hop);
}

}  // namespace cluert::rib
