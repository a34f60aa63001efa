// Structural validators for the flat FIB and its derived trie.
//
// Invariant catalogue (see DESIGN.md "Verification"):
//   duplicate-prefix   two FIB entries name the same prefix (add() and
//                      normalize() both guarantee last-writer-wins
//                      uniqueness)
//   no-route-next-hop  an entry routes to the kNoNextHop sentinel
//   fib-trie-missing   (validateConsistent) a FIB prefix is absent from the
//                      trie built for it
//   fib-trie-next-hop  (validateConsistent) trie and FIB disagree on an
//                      entry's next hop
//   fib-trie-extra     (validateConsistent) the trie holds a prefix the FIB
//                      does not
#pragma once

#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "check/report.h"
#include "rib/fib.h"
#include "trie/binary_trie.h"

namespace cluert::check {

// Brute-force longest-prefix match over a flat entry list — the oracle every
// lookup structure, clue mode and data-plane entry point is checked against
// (the sim runner, the topology harness and the netio datapath at their
// pinned versions; the tests directly). `A` is deduced from the address, so
// a vector or a Fib's entries() both convert to the span.
template <typename A>
std::optional<trie::Match<A>> bruteForceBmp(
    std::span<const trie::Match<std::type_identity_t<A>>> entries,
    const A& address) {
  const trie::Match<A>* best = nullptr;
  for (const auto& e : entries) {
    if (e.prefix.matches(address) &&
        (best == nullptr || e.prefix.length() > best->prefix.length())) {
      best = &e;
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

template <typename A>
Report validate(const rib::Fib<A>& fib) {
  Report report;
  std::unordered_set<ip::Prefix<A>> seen;
  seen.reserve(fib.size() * 2);
  for (const trie::Match<A>& e : fib.entries()) {
    if (!seen.insert(e.prefix).second) {
      report.add("Fib", "duplicate-prefix", e.prefix.toString());
    }
    if (e.next_hop == kNoNextHop) {
      report.add("Fib", "no-route-next-hop",
                 e.prefix.toString() + " routes to the no-route sentinel");
    }
  }
  return report;
}

// The forwarding trie a router derived from `fib` must encode exactly the
// FIB's entries.
template <typename A>
Report validateConsistent(const rib::Fib<A>& fib,
                          const trie::BinaryTrie<A>& trie) {
  Report report = validate(fib);
  std::unordered_map<ip::Prefix<A>, NextHop> routes;
  routes.reserve(fib.size() * 2);
  for (const trie::Match<A>& e : fib.entries()) {
    routes[e.prefix] = e.next_hop;
  }
  for (const auto& [prefix, next_hop] : routes) {
    if (!trie.contains(prefix)) {
      report.add("Fib", "fib-trie-missing", prefix.toString());
    } else if (trie.nextHopOf(prefix) != next_hop) {
      report.add("Fib", "fib-trie-next-hop",
                 prefix.toString() + " routes to " +
                     std::to_string(trie.nextHopOf(prefix)) + " in the trie, " +
                     std::to_string(next_hop) + " in the FIB");
    }
  }
  trie.forEachPrefix([&](const ip::Prefix<A>& p, NextHop) {
    if (routes.find(p) == routes.end()) {
      report.add("Fib", "fib-trie-extra", p.toString());
    }
  });
  return report;
}

}  // namespace cluert::check
