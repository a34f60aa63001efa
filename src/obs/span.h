// Per-hop span model for distributed tracing (DESIGN.md §11): one
// PacketSpan records everything a traced packet did at one router — the
// rx/decode/lookup/tx phase timestamps, the §3.1.2 case attribution and
// per-mem::Region access deltas of its lookup, and how the forwarding pass
// settled it. The daemon's /trace admin endpoint drains collectors to JSONL
// (obs::spansToJsonl); tools/trace_merge.py joins the per-router streams on
// the 128-bit trace id into one chrome://tracing timeline.
//
// Unlike obs::Tracer (single-owner ring drained post-quiesce), a
// SpanCollector must hand spans from a live datapath thread to the admin
// thread, so it is a small mutex-guarded ring. That is deliberate: spans
// exist only for sampled packets (1-in-N at the ingress), so the lock is
// off the per-packet hot path entirely — the always-on O(ns) path is the
// flight recorder (obs/flight.h), not this.
#pragma once

#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "mem/access_counter.h"
#include "obs/trace.h"

namespace cluert::obs {

// How the forwarding pass settled a traced packet at this hop.
enum class SpanVerdict : std::uint8_t {
  kForwarded = 0,  // re-encoded toward a peer (trace context hop+1)
  kDelivered,      // routed, no peer: this router is the last clue hop
  kNoRoute,
  kTtlExpired,
  kSendError,
};

std::string_view spanVerdictName(SpanVerdict v);

struct PacketSpan {
  // Identity: the wire trace context as seen at this hop (hop 0 = the
  // ingress daemon that sampled the packet).
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t origin_ns = 0;
  std::uint8_t hop = 0;

  std::uint16_t router_id = 0;
  std::uint32_t worker = 0;
  std::uint32_t dest = 0;       // IPv4 destination, host order
  std::uint16_t src_id = 0;     // upstream router id off the wire

  // Phase timestamps, steady clock. rx is per receive (one recvmmsg), the
  // rest per batch: decode ends where the lookup window opens, and the
  // lookup pair brackets the batch's one resolve (pin + processBatch).
  std::uint64_t rx_ns = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t lookup_start_ns = 0;
  std::uint64_t lookup_end_ns = 0;
  std::uint64_t tx_ns = 0;      // 0 unless verdict == kForwarded

  // Lookup attribution, same vocabulary as TraceEvent.
  std::int16_t clue_len = -1;
  Outcome outcome = Outcome::kNoClue;
  bool claim1_skip = false;
  bool search_failed = false;
  mem::LookupAccesses accesses{};  // this packet's lookup, by region
  SpanVerdict verdict = SpanVerdict::kForwarded;

  std::uint32_t accessTotal() const { return mem::accessTotal(accesses); }
};

// Bounded hand-off ring between one datapath shard and the admin thread.
// Overwrites the oldest span when full (the newest evidence wins, like
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
