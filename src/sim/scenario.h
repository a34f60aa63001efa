// Deterministic scenario engine (DESIGN.md §8): seed-reproducible random
// scenarios for the differential harness. A Scenario is a fully materialised
// value — sender table, receiver table, churn schedule, packet stream with
// per-packet fault injection — so it can be serialized to a corpus file,
// replayed bit-for-bit, and shrunk by deleting parts.
//
// The generator draws every shape from one seeded Rng: table sizes and
// nesting via rib::TableGen, churn as FibDelta sequences against a mirrored
// Fib (so every delta is consistent with the table state it applies to),
// and packets biased toward covered addresses with a weighted fault draw.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "ip/prefix.h"
#include "lookup/lookup_method.h"
#include "rib/fib.h"
#include "rib/fib_diff.h"
#include "rib/table_gen.h"
#include "trie/binary_trie.h"

namespace cluert::sim {

// Fault taxonomy (DESIGN.md §8 "Fault taxonomy"). Every fault mutates only
// the clue header the packet carries — the destination address is always
// genuine, so a brute-force BMP oracle over the receiver table stays
// well-defined for every packet.
enum class Fault : std::uint8_t {
  kNone = 0,    // genuine clue: the sender's current BMP length
  kNoClue,      // header option absent (§5.3 heterogeneous networks)
  kTruncated,   // length drawn in [1, true BMP length] — a partial clue
  kJunk,        // arbitrary 8-bit length; > W decodes as absent
  kStale,       // BMP length under the initial (pre-churn) sender table
  kWrongIndex,  // genuine length, random 16-bit index (§3.3.1 robustness)
};
inline constexpr std::size_t kFaultCount = 6;

std::string_view faultName(Fault f);

// Whether the brute-force oracle must agree exactly for a packet carrying
// this fault under the given clue mode. Simple mode is safe under *any* clue
// that is a prefix of the destination (every fault above reconstructs to
// one), so every fault is strict. Advance's Claim-1 pruning assumes the clue
// is the sender's genuine current BMP; faults that void that contract
// (truncated / junk / stale) are exercised for no-crash robustness but not
// held to the oracle. kWrongIndex stays strict everywhere: the stored-clue
// verification turns a bad index into a miss (§3.3.1).
bool oracleStrict(Fault f, lookup::ClueMode mode);

template <typename A>
struct SimPacket {
  A dest;
  Fault fault = Fault::kNone;
  // Deterministic randomness for the fault (junk length, truncation point,
  // wrong index), drawn at generation time so replay needs no Rng.
  std::uint32_t aux = 0;
};

// One churn step: a FibDelta against the receiver (local) or sender
// (neighbor) table, applied once `after_packet` packets of the stream have
// been processed — a mid-stream version swap.
template <typename A>
struct ChurnStep {
  bool neighbor = false;
  std::size_t after_packet = 0;
  rib::FibDelta<A> delta;
};

template <typename A>
struct Scenario {
  std::uint64_t seed = 0;
  std::vector<trie::Match<A>> sender;
  std::vector<trie::Match<A>> receiver;
  std::vector<ChurnStep<A>> churn;  // sorted by after_packet
  std::vector<SimPacket<A>> packets;

  std::size_t faultCount() const {
    std::size_t n = 0;
    for (const auto& p : packets) n += p.fault != Fault::kNone ? 1 : 0;
    return n;
  }
};

using Scenario4 = Scenario<ip::Ip4Addr>;
using Scenario6 = Scenario<ip::Ip6Addr>;

// The generator's fixed shape: receiver tables of [kMinTable, kMaxTable]
// prefixes, deltas of up to kMaxBurst withdraws and as many re-announces,
// and one churn step in four on the sender. Small enough that
// the full 24-config differential run of one scenario takes a few
// milliseconds.
inline constexpr std::size_t kMinTable = 48;
inline constexpr std::size_t kMaxTable = 400;
inline constexpr std::size_t kMaxBurst = 8;
inline constexpr double kNeighborChurnFraction = 0.25;

// Knobs for the generator. `max_churn_steps` is an inclusive upper bound for
// a weighted draw.
struct GenOptions {
  std::size_t packets = 600;
  // Churn: number of mid-stream deltas.
  std::size_t max_churn_steps = 6;
  // Fault injection: probability a packet carries any fault; the specific
  // fault is drawn from `fault_weights` (indexed by Fault, kNone excluded
  // from the draw — weight 0 entries are never drawn).
  double fault_fraction = 0.25;
  bool faults = true;
  bool churn = true;
};

namespace detail {

// Draws a consistent FibDelta by mutating `cur` (the generator's mirror):
// withdraws, re-announces from the withdrawn stack, reroutes — never the
// same prefix twice in one delta.
template <typename A>
rib::FibDelta<A> drawDelta(Rng& rng, rib::Fib<A>& cur,
                           std::vector<trie::Match<A>>& withdrawn,
                           std::size_t burst) {
  using EntryT = trie::Match<A>;
  rib::FibDelta<A> d;
  std::unordered_set<ip::Prefix<A>> touched;
  const std::size_t withdraws = 1 + rng.index(burst);
  for (std::size_t k = 0; k < withdraws && cur.size() > 16; ++k) {
    const auto entries = cur.entries();
    const EntryT e = entries[rng.index(entries.size())];
    if (!touched.insert(e.prefix).second) continue;
    withdrawn.push_back(e);
    d.removed.push_back(e.prefix);
    cur.remove(e.prefix);
  }
  const std::size_t announces = rng.index(burst + 1);
  for (std::size_t k = 0; k < announces && !withdrawn.empty(); ++k) {
    const EntryT e = withdrawn.back();
    withdrawn.pop_back();
    if (!touched.insert(e.prefix).second) continue;
    if (cur.contains(e.prefix)) continue;
    d.added.push_back(e);
    cur.add(e.prefix, e.next_hop);
  }
  const std::size_t reroutes = rng.index(3);
  for (std::size_t k = 0; k < reroutes && !cur.empty(); ++k) {
    const auto entries = cur.entries();
    EntryT e = entries[rng.index(entries.size())];
    if (!touched.insert(e.prefix).second) continue;
    e.next_hop = static_cast<NextHop>(rng.uniform(0, 30));
    d.rerouted.push_back(e);
    cur.add(e.prefix, e.next_hop);
  }
  // Prefix order, like rib::diff: a scenario must be a pure function of
  // its seed, and serialization round-trips must be byte-stable.
  std::ranges::sort(d.added, {}, &EntryT::prefix);
  std::ranges::sort(d.rerouted, {}, &EntryT::prefix);
  std::ranges::sort(d.removed);
  return d;
}

template <typename A>
A drawAddress(Rng& rng);

template <>
inline ip::Ip4Addr drawAddress<ip::Ip4Addr>(Rng& rng) {
  return ip::Ip4Addr(rng.u32());
}
template <>
inline ip::Ip6Addr drawAddress<ip::Ip6Addr>(Rng& rng) {
  return ip::Ip6Addr(rng.u64(), rng.u64());
}

template <typename A>
rib::LengthHistogram<A::kBits> defaultHistogram();

template <>
inline rib::LengthHistogram<32> defaultHistogram<ip::Ip4Addr>() {
  return rib::internetLengths1999();
}
template <>
inline rib::LengthHistogram<128> defaultHistogram<ip::Ip6Addr>() {
  return rib::internetLengths6();
}

// An address biased toward the table (uniform addresses mostly miss small
// tables): with probability 0.8 extend a random table prefix with random
// bits, else draw uniformly.
template <typename A>
A coveredAddress(const std::vector<trie::Match<A>>& entries, Rng& rng) {
  if (entries.empty() || rng.chance(0.2)) return drawAddress<A>(rng);
  const auto& p = entries[rng.index(entries.size())].prefix;
  A a = p.addr();
  for (int b = p.length(); b < A::kBits; ++b) {
    a = a.withBit(b, static_cast<unsigned>(rng.u32() & 1));
  }
  return a;
}

}  // namespace detail

// Generates the scenario for `seed`. Deterministic: same seed + options →
// identical scenario (tables, deltas, packets, faults, aux values).
template <typename A>
Scenario<A> generateScenario(std::uint64_t seed, const GenOptions& opt = {}) {
  Scenario<A> s;
  s.seed = seed;
  Rng rng(Rng::splitMix64(seed) ^ 0x5ce7a9105eedULL);

  // Table shapes: receiver size biased small (min of two uniform draws keeps
  // the sweep fast while still visiting large tables); the sender is derived
  // as a neighbor with drawn similarity — the similarity knobs are exactly
  // what controls how many problematic clues exist (§6 Table 2).
  const std::size_t span = kMaxTable - kMinTable;
  const std::size_t receiver_size =
      kMinTable + std::min(rng.index(span + 1), rng.index(span + 1));
  rib::GenOptions<A> gen;
  gen.size = receiver_size;
  gen.histogram = detail::defaultHistogram<A>();
  gen.subprefix_fraction = 0.2 + rng.real() * 0.3;
  const auto receiver_fib = rib::TableGen<A>::generate(rng, gen);
  s.receiver = {receiver_fib.entries().begin(), receiver_fib.entries().end()};

  rib::NeighborOptions<A> nopt;
  nopt.shared = static_cast<std::size_t>(
      static_cast<double>(s.receiver.size()) * (0.6 + rng.real() * 0.35));
  nopt.fresh = 1 + rng.index(std::max<std::size_t>(1, s.receiver.size() / 4));
  nopt.fresh_extension_fraction = 0.3 + rng.real() * 0.5;
  const auto sender_fib =
      rib::TableGen<A>::deriveNeighbor(receiver_fib, rng, nopt);
  s.sender = {sender_fib.entries().begin(), sender_fib.entries().end()};

  // Churn schedule: deltas drawn against mirrored tables so each is
  // consistent with the state it will apply to, positioned at increasing
  // stream offsets.
  if (opt.churn && opt.max_churn_steps > 0) {
    rib::Fib<A> cur_recv{std::vector<trie::Match<A>>(s.receiver)};
    rib::Fib<A> cur_send{std::vector<trie::Match<A>>(s.sender)};
    std::vector<trie::Match<A>> withdrawn_recv, withdrawn_send;
    const std::size_t steps = rng.index(opt.max_churn_steps + 1);
    // Positions and targets first, THEN the deltas in publish order: each
    // delta is drawn against the mirror state every earlier step left
    // behind, so it stays consistent with the table it will apply to.
    std::vector<std::pair<std::size_t, bool>> schedule;
    schedule.reserve(steps);
    for (std::size_t k = 0; k < steps; ++k) {
      schedule.emplace_back(
          opt.packets == 0 ? 0 : rng.index(opt.packets + 1),
          rng.chance(kNeighborChurnFraction));
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
    for (const auto& [after, neighbor] : schedule) {
      ChurnStep<A> step;
      step.neighbor = neighbor;
      step.after_packet = after;
      step.delta = neighbor ? detail::drawDelta(rng, cur_send, withdrawn_send,
                                                kMaxBurst)
                            : detail::drawDelta(rng, cur_recv, withdrawn_recv,
                                                kMaxBurst);
      if (!step.delta.empty()) s.churn.push_back(std::move(step));
    }
  }

  // Packet stream: destinations biased toward the sender's coverage (so
  // clues are usually present), faults drawn per packet.
  s.packets.reserve(opt.packets);
  for (std::size_t i = 0; i < opt.packets; ++i) {
    SimPacket<A> p;
    p.dest = detail::coveredAddress(rng.chance(0.5) ? s.sender : s.receiver,
                                    rng);
    if (opt.faults && rng.chance(opt.fault_fraction)) {
      static constexpr Fault kInjectable[] = {Fault::kNoClue, Fault::kTruncated,
                                              Fault::kJunk, Fault::kStale,
                                              Fault::kWrongIndex};
      p.fault = kInjectable[rng.index(std::size(kInjectable))];
    }
    p.aux = rng.u32();
    s.packets.push_back(p);
  }
  return s;
}

}  // namespace cluert::sim
