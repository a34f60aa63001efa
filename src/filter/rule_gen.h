// Synthetic classifier-rule generation for the §7 experiments: firewall/QoS
// style rule sets with tunable overlap between neighboring routers.
//
// Priorities are globally unique and equal across routers for shared rules
// (a distributed policy), which is what makes the §7 discard argument — and
// a deterministic classification winner — well defined.
#pragma once

#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "filter/filter.h"

namespace cluert::filter {

// `count` distinct rules of 8 actions: 40% ignore the source (firewall
// rules often do), the rest take a /8-/24 source; destinations are /8-/28.
inline std::vector<FilterRule4> generateRules(Rng& rng, std::size_t count,
                                              RuleId first_id = 0) {
  std::vector<FilterRule4> out;
  out.reserve(count);
  std::unordered_set<std::uint64_t> seen;
  RuleId id = first_id;
  std::size_t attempts = 0;
  while (out.size() < count && ++attempts < count * 100 + 1000) {
    FilterRule4 r;
    r.id = id;
    r.priority = static_cast<int>(id);  // unique, shared across routers
    r.action = rng.u32() % 8;
    if (rng.chance(0.4)) {
      r.src = ip::Prefix4();  // 0.0.0.0/0
    } else {
      const int len = static_cast<int>(rng.uniform(8, 24));
      r.src = ip::Prefix4(ip::Ip4Addr(rng.u32()), len);
    }
    const int dlen = static_cast<int>(rng.uniform(8, 28));
    r.dst = ip::Prefix4(ip::Ip4Addr(rng.u32()), dlen);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(std::hash<ip::Prefix4>{}(r.src)) << 1) ^
        std::hash<ip::Prefix4>{}(r.dst);
    if (!seen.insert(key).second) continue;
    out.push_back(r);
    ++id;
  }
  return out;
}

// A neighbor's rule set: keeps `keep_fraction` of `base` (same ids and
// priorities — the shared policy) and adds `fresh` new local rules, some of
// which refine shared rules (narrower rectangles inside them — the
// classification analogue of the receiver-only more-specifics that make
// clues problematic).
inline std::vector<FilterRule4> deriveNeighborRules(
    const std::vector<FilterRule4>& base, Rng& rng, double keep_fraction,
    std::size_t fresh, double refine_fraction, RuleId first_fresh_id) {
  std::vector<FilterRule4> out;
  for (const FilterRule4& r : base) {
    if (rng.chance(keep_fraction)) out.push_back(r);
  }
  const std::size_t kept = out.size();
  RuleId id = first_fresh_id;
  for (std::size_t i = 0; i < fresh; ++i) {
    FilterRule4 r;
    r.id = id;
    r.priority = static_cast<int>(id);
    r.action = rng.u32() % 8;
    ++id;
    if (kept > 0 && rng.chance(refine_fraction)) {
      // Refine a kept rule: extend its dst (and possibly src) prefix.
      const FilterRule4& parent = out[rng.index(kept)];
      const int extra = static_cast<int>(rng.uniform(1, 4));
      const int dlen = std::min(parent.dst.length() + extra, 30);
      ip::Ip4Addr d = parent.dst.addr();
      for (int b = parent.dst.length(); b < dlen; ++b) {
        d = d.withBit(b, static_cast<unsigned>(rng.u32() & 1));
      }
      r.dst = ip::Prefix4(d, dlen);
      r.src = parent.src;
    } else {
      r.src = rng.chance(0.4)
                  ? ip::Prefix4()
                  : ip::Prefix4(ip::Ip4Addr(rng.u32()),
                                static_cast<int>(rng.uniform(8, 24)));
      r.dst = ip::Prefix4(ip::Ip4Addr(rng.u32()),
                          static_cast<int>(rng.uniform(8, 28)));
    }
    out.push_back(r);
  }
  return out;
}

// Draws a (src, dst) header biased so that the dst often falls inside some
// rule's rectangle (uniform headers rarely match small synthetic rule sets).
inline std::pair<ip::Ip4Addr, ip::Ip4Addr> randomHeader(
    const std::vector<FilterRule4>& rules, Rng& rng) {
  ip::Ip4Addr src(rng.u32());
  ip::Ip4Addr dst(rng.u32());
  if (!rules.empty() && !rng.chance(0.2)) {
    const FilterRule4& r = rules[rng.index(rules.size())];
    dst = r.dst.addr();
    for (int b = r.dst.length(); b < 32; ++b) {
      dst = dst.withBit(b, static_cast<unsigned>(rng.u32() & 1));
    }
    if (!r.src.isRoot()) {
      src = r.src.addr();
      for (int b = r.src.length(); b < 32; ++b) {
        src = src.withBit(b, static_cast<unsigned>(rng.u32() & 1));
      }
    }
  }
  return {src, dst};
}

}  // namespace cluert::filter
