// The one trace model (DESIGN.md §6, §11): a PacketSpan records what one
// sampled packet did in one layer that owns a batch — the rx/decode/lookup/
// tx phase timestamps, the §3.1.2 case attribution and per-mem::Region
// access deltas of its lookup, and how the layer settled it. Two layers emit
// spans, both from the Results of their batch's one resolve:
//
//   * netio::Datapath — one span per traced packet per hop; the wire trace
//     context joins the hops of a packet across routers.
//   * pipeline::Worker — a one-hop span per sampled packet (no rx or tx of
//     its own: rx = decode = lookup start, tx 0).
//
// Each emitting thread samples with its own SpanSampler and hands spans to
// its own SpanCollector; the daemon's /trace endpoint and
// Pipeline::drainSpans() export them through obs::spansToJsonl, and
// tools/trace_merge.py joins JSONL streams on the 128-bit trace id into one
// chrome://tracing timeline.
//
// A SpanCollector must hand spans from a live datapath thread to the admin
// thread, so it is a small mutex-guarded ring. That is deliberate: spans
// exist only for sampled packets (1-in-N), so the lock is off the per-packet
// hot path entirely — the always-on O(ns) path is the flight recorder
// (obs/flight.h), not this.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "mem/access_counter.h"

namespace cluert::obs {

// How one lookup resolved, mapping §3.1.2's cases onto the data plane:
//   kCase1 — clue vertex absent from the receiver's trie; FD answers.
//   kCase2 — vertex present but no longer match possible; FD answers.
//   kCase3 — a continued search ran (whether or not it found a match).
// kNoClue / kMiss are the non-paper outcomes a deployment also sees: the
// packet carried no clue, or the clue was not in the table (learning path).
enum class Outcome : std::uint8_t { kNoClue, kMiss, kCase1, kCase2, kCase3 };

inline constexpr std::size_t kOutcomeCount = 5;

std::string_view outcomeName(Outcome o);

// How the emitting layer settled a traced packet.
enum class SpanVerdict : std::uint8_t {
  kForwarded = 0,  // re-encoded toward a peer (trace context hop+1)
  kDelivered,      // routed, no peer: this router is the last clue hop
  kNoRoute,
  kTtlExpired,
  kSendError,
};

std::string_view spanVerdictName(SpanVerdict v);

struct PacketSpan {
  // Identity: the trace context as seen at this hop (hop 0 = the layer that
  // sampled the packet). Pipeline spans are one-hop traces with an id of
  // their own.
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t origin_ns = 0;
  std::uint8_t hop = 0;

  std::uint16_t router_id = 0;
  std::uint32_t worker = 0;
  std::uint32_t dest = 0;       // IPv4 destination, host order; 0 for IPv6
  std::uint16_t src_id = 0;     // upstream router id off the wire

  // Phase timestamps, steadyNs(). rx is per receive (one recvmmsg), the
  // rest per batch: decode ends where the lookup window opens, and the
  // lookup pair brackets the batch's one resolve.
  std::uint64_t rx_ns = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t lookup_start_ns = 0;
  std::uint64_t lookup_end_ns = 0;
  std::uint64_t tx_ns = 0;      // 0 unless verdict == kForwarded

  // Lookup attribution, copied from the packet's CluePort::Result.
  std::int16_t clue_len = -1;   // -1: packet carried no clue
  Outcome outcome = Outcome::kNoClue;
  bool claim1_skip = false;     // case 2 by Claim-1 pruning, not a leaf
  bool search_failed = false;   // case-3 continuation fell back to FD
  mem::LookupAccesses accesses{};  // this packet's lookup, by region
  SpanVerdict verdict = SpanVerdict::kForwarded;

  std::uint32_t accessTotal() const { return mem::accessTotal(accesses); }
};

// The 1-in-N packet sampler of every span-emitting layer. Call sample()
// once per candidate packet; it fires on ticks phase, phase + every,
// phase + 2·every, … and never when every is 0. Deterministic, so tests
// assert exact sample sets. Owner-thread only.
class SpanSampler {
 public:
  SpanSampler(std::uint32_t every, std::uint64_t phase)
      : every_(every), next_(phase) {}

  // The phase of a pipeline shard: a draw in [0, every) from
  // Rng::forThread(seed, worker), so a run is reproducible and shards don't
  // sample in lockstep.
  static std::uint64_t shardPhase(std::uint32_t every, std::uint64_t seed,
                                  std::uint64_t worker);

  bool sample() {
    if (every_ == 0 || tick_++ != next_) return false;
    next_ += every_;
    ++samples_;
    return true;
  }

  // Samples fired so far; the sample just fired is ordinal samples() - 1.
  std::uint64_t samples() const { return samples_; }

 private:
  std::uint64_t every_;
  std::uint64_t next_;
  std::uint64_t tick_ = 0;
  std::uint64_t samples_ = 0;
};

// Bounded hand-off ring between one span-emitting thread and whoever drains
// it. Overwrites the oldest span when full (the newest evidence wins, like
// every other ring here); drain() empties it.
class SpanCollector {
 public:
  explicit SpanCollector(std::size_t capacity = 2048);

  void record(const PacketSpan& s);
  std::vector<PacketSpan> drain();

  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

 private:
  mutable sync::Mutex mu_;
  std::vector<PacketSpan> ring_ CLUERT_GUARDED_BY(mu_);
  std::size_t capacity_ CLUERT_GUARDED_BY(mu_);
  std::size_t head_ CLUERT_GUARDED_BY(mu_) = 0;  // oldest when full
  bool full_ CLUERT_GUARDED_BY(mu_) = false;
  std::uint64_t recorded_ CLUERT_GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ CLUERT_GUARDED_BY(mu_) = 0;
};

}  // namespace cluert::obs
