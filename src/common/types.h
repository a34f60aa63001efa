// Small shared vocabulary types.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

#include "common/text.h"

namespace cluert {

// Identifier of a forwarding next hop (an outgoing port / neighbor router).
using NextHop = std::uint32_t;

// Sentinel: "no route".
inline constexpr NextHop kNoNextHop = std::numeric_limits<NextHop>::max();

// A next hop as route files and daemon configs write it: a NextHop
// parseNumber reads, short of kNoNextHop.
inline std::optional<NextHop> parseNextHop(std::string_view s) {
  const auto nh = parseNumber<NextHop>(s);
  if (nh == kNoNextHop) return std::nullopt;
  return nh;
}

// Identifier of a router in the simulated network.
using RouterId = std::uint32_t;

inline constexpr RouterId kNoRouter = std::numeric_limits<RouterId>::max();

// Index of a neighbor within a router's clue machinery. The per-vertex
// Claim-1 booleans of §4 ("one such Boolean bit at each vertex for each
// neighboring router") are stored as a 64-bit mask, bounding the number of
// annotated neighbors per trie.
using NeighborIndex = std::uint32_t;

inline constexpr NeighborIndex kMaxAnnotatedNeighbors = 64;

}  // namespace cluert
