// Per-lookup trace events and the ring-buffer tracer that collects them.
//
// A TraceEvent is one sampled lookup in the vocabulary of the paper: the
// clue length carried by the packet, the analysis level (Simple / Advance),
// the §3.1.2 case outcome (1 / 2 / 3, plus miss and no-clue), whether
// Claim 1 is what emptied the candidate set, the per-mem::Region access
// deltas, and the window of the resolve call that answered it. A Tracer
// belongs to one worker thread (same single-mutator discipline as
// mem::AccessCounter); the pipeline merges rings after join().
//
// CluePort emits events from the post-pass it runs over each resolve call's
// results, so tracing adds no code to the resolve loop itself. Cost control
// is 1-in-N sampling. The sample pattern is deterministic: every
// sample_every-th lookup fires, phase-shifted per worker by a draw from
// Rng::forThread(seed, worker), so a run is reproducible and the shards
// don't sample in lockstep.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/random.h"
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

struct TraceEvent {
  // The resolve call's window (steady clock, Tracer::nowNs()): every lookup
  // of one processBatch shares it.
  std::uint64_t start_ns = 0;
  std::uint32_t dur_ns = 0;
  std::uint32_t worker = 0;
  std::int16_t clue_len = -1;  // -1: packet carried no clue
  std::uint8_t mode = 0;       // lookup::ClueMode of the port
  Outcome outcome = Outcome::kNoClue;
  bool claim1_skip = false;    // case 2 by Claim-1 pruning, not a leaf
  bool search_failed = false;  // case-3 continuation fell back to FD
  mem::LookupAccesses accesses{};  // this lookup's accesses by region

  std::uint32_t accessTotal() const { return mem::accessTotal(accesses); }
};

// A worker-timeline span: one batch resolved by one pipeline shard. Spans
// are recorded whenever a tracer is attached (two clock reads per *batch*)
// and feed the chrome://tracing export.
struct SpanEvent {
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t worker = 0;
  std::uint32_t packets = 0;
};

struct TraceOptions {
  bool enabled = false;
  // 1-in-N lookup sampling. 1 traces every lookup.
  std::uint32_t sample_every = 64;
  // Ring capacities; the newest events win when a ring wraps.
  std::size_t event_capacity = 4096;
  std::size_t span_capacity = 4096;
};

class Tracer {
 public:
  // `seed` is the pipeline seed; the (seed, worker) pair fixes the sampling
  // phase, so runs are reproducible and workers are decorrelated.
  Tracer(const TraceOptions& options, std::uint64_t seed,
         std::uint32_t worker);

  bool enabled() const { return options_.enabled; }
  std::uint32_t worker() const { return worker_; }
  const TraceOptions& options() const { return options_; }

  // True on the sampled 1-in-N calls. Owner-thread only.
  bool shouldSample() {
    if (!options_.enabled) return false;
    if (++tick_ < next_) return false;
    next_ += options_.sample_every;
    return true;
  }

  // Owner-thread only; overwrites the oldest event when full.
  void record(const TraceEvent& e);
  void span(const SpanEvent& s);

  // Oldest-first copies. Call after the owning thread quiesced (the pipeline
  // calls these post-join).
  std::vector<TraceEvent> events() const;
  std::vector<SpanEvent> spans() const;

  std::uint64_t eventsDropped() const { return events_dropped_; }
  std::uint64_t spansDropped() const { return spans_dropped_; }

  // Monotonic nanoseconds (steady clock), the timebase of every event.
  static std::uint64_t nowNs();

 private:
  TraceOptions options_;
  std::uint32_t worker_;
  std::uint64_t tick_ = 0;
  std::uint64_t next_ = 0;  // next sampled tick (phase + k * sample_every)

  std::vector<TraceEvent> ring_;
  std::size_t ring_head_ = 0;  // next write position once the ring is full
  bool ring_full_ = false;
  std::uint64_t events_dropped_ = 0;

  std::vector<SpanEvent> span_ring_;
  std::size_t span_head_ = 0;
  bool span_full_ = false;
  std::uint64_t spans_dropped_ = 0;
};

}  // namespace cluert::obs
