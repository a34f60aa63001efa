// Topology scenarios (DESIGN.md §12): the corpus-committable description of
// one multi-router run — which topology, which routers originate which
// prefixes, a timeline of control-plane events (link flaps, advertise /
// withdraw), and a timeline of packet injections. The harness
// (topo/harness.h) replays one deterministically; the shrinker reduces a
// failing one with the same ddmin machinery single-pair scenarios use.
//
// Canonical text format (shares the .scn corpus directory; the header word
// routes files to this parser via sim::scenarioFamily -> "topo4"):
//
//   cluert-topo v1 ipv4
//   seed <u64>
//   topology <shape> <nodes>
//   mode <simple|advance>  (read capitalised too: lookup::clueModeFromName)
//   method <name>
//   ticks <n>
//   originate <n>     then n lines "router prefix"
//   events <n>        then n lines "tick link-down|link-up a b"
//                     or           "tick advertise|withdraw router prefix"
//   packets <n>       then n lines "tick src dest count"
//
// serialize(parse(text)) is byte-identical for canonical files; the
// CorpusReplay fixpoint test holds topo files to that.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lookup/lookup_method.h"
#include "sim/shrink.h"
#include "topo/rip.h"
#include "topo/topology.h"

namespace cluert::topo {

enum class TopoEventKind : std::uint8_t {
  kLinkDown,
  kLinkUp,
  kAdvertise,
  kWithdraw,
};

std::string_view topoEventName(TopoEventKind k);
std::optional<TopoEventKind> topoEventFromName(std::string_view name);

struct TopoEvent {
  int tick = 0;
  TopoEventKind kind = TopoEventKind::kLinkDown;
  RouterId a = 0;      // link endpoint / acting router
  RouterId b = 0;      // link endpoint (link events only)
  Prefix4 prefix;      // advertise/withdraw only

  friend bool operator==(const TopoEvent&, const TopoEvent&) = default;
};

struct TopoPacket {
  int tick = 0;
  RouterId src = 0;
  Addr4 dest;
  std::uint32_t count = 1;  // identical injections this tick

  friend bool operator==(const TopoPacket&, const TopoPacket&) = default;
};

struct TopoOriginate {
  RouterId router = 0;
  Prefix4 prefix;

  friend bool operator==(const TopoOriginate&, const TopoOriginate&) = default;
};

struct TopoScenario {
  std::uint64_t seed = 0;
  Shape shape = Shape::kLine;
  std::size_t nodes = 2;
  lookup::ClueMode mode = lookup::ClueMode::kAdvance;
  lookup::Method method = lookup::Method::kPatricia;
  int ticks = 0;
  std::vector<TopoOriginate> originate;  // applied at tick 0
  std::vector<TopoEvent> events;         // sorted by tick
  std::vector<TopoPacket> packets;       // sorted by tick

  Topology topology() const { return buildTopology(shape, nodes, seed); }
};

std::string serializeTopoScenario(const TopoScenario& s);
std::optional<TopoScenario> parseTopoScenario(std::string_view text);

// Seeded generator: 3-8 routers, any shape (fat-tree only with enough
// nodes), per-router address blocks plus random sub-prefixes, link flaps
// and advertise/withdraw churn spread over the run, and packet bursts
// biased toward originated space so most lookups resolve.
TopoScenario generateTopoScenario(std::uint64_t seed);

using TopoFailPredicate = std::function<bool(const TopoScenario&)>;

// ddmin-shrinks `failing` (which must satisfy `fails`) via the generic
// sim::detail chunk/mutation passes: drop packets, events, originations;
// collapse burst counts to 1; pull ticks toward 0; truncate destination
// bits; trim the run length.
TopoScenario shrinkTopoScenario(TopoScenario failing,
                                const TopoFailPredicate& fails,
                                const sim::ShrinkOptions& opt = {},
                                sim::ShrinkStats* stats_out = nullptr);

}  // namespace cluert::topo
