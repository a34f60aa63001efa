// One pipeline worker shard: a run-to-completion forwarding loop.
//
// Each worker owns the complete per-thread state a shard needs — its own
// CluePort (§3.5 cache, stats, stage scratch; the suite and clue table it
// probes are shared and read-only), its own mem::AccessCounter (merged after
// join, never shared), and its own Rng stream split off the pipeline seed via
// Rng::forThread — so the data plane runs without a single lock or shared
// mutable word between shards. The only cross-thread traffic is the SPSC
// ring of PacketBatches in, and writes to disjoint `out[seq]` slots (each
// sequence number is routed to exactly one worker).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/distributed_lookup.h"
#include "mem/alloc_hook.h"
#include "obs/hooks.h"
#include "obs/span.h"
#include "pipeline/packet_batch.h"
#include "pipeline/pinned_resolver.h"
#include "pipeline/spsc_ring.h"
#include "rib/versioned_tables.h"

namespace cluert::pipeline {

inline constexpr std::chrono::microseconds kBackoffSleep{50};

// The wait step for a ring that is empty (a worker) or full (the feeder),
// escalating with the streak of failed attempts: spin a short burst
// jittered from the caller's own Rng stream (so threads don't hammer the
// ring's cache lines in lockstep), then yield, and once the streak is long,
// sleep kBackoffSleep. The sleep matters on a host with fewer cores than
// threads: a yield-looping thread still burns whole timeslices, whereas a
// sleeping one lets the other side fill or drain its rings in one long
// burst instead of a few batches per context switch.
inline void ringBackoff(Rng& rng, std::uint64_t streak) {
  if (streak < 4) {
    const std::uint64_t spins = 32 + rng.uniform(0, 32);
    for (std::uint64_t s = 0; s < spins; ++s) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    return;
  }
  if (streak < 16) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(kBackoffSleep);
}

template <typename A>
class Worker {
 public:
  using PortT = core::CluePort<A>;

  Worker(std::size_t id, std::uint64_t pipeline_seed,
         std::size_t ring_capacity_batches, std::unique_ptr<PortT> port)
      : id_(id),
        rng_(Rng::forThread(pipeline_seed, id)),
        ring_(ring_capacity_batches),
        resolver_(std::move(port), id) {}

  std::size_t id() const { return id_; }
  SpscRing<PacketBatch<A>>& ring() { return ring_; }
  PortT& port() { return resolver_.port(); }
  const PortT& port() const { return resolver_.port(); }
  const mem::AccessCounter& accesses() const { return acc_; }
  std::uint64_t packets() const { return packets_; }
  std::uint64_t batches() const { return batches_; }

  // Attaches this shard's observability (control-plane, strictly before
  // run()): its metric cells (shard = worker id) when `registry` is set,
  // and when `span_every` > 0 a SpanSampler firing on 1 in span_every
  // packets — phased by (seed, id) via Rng::forThread — with the collector
  // its spans go to. Either one attaches the port's LookupObs, so each
  // Result carries its lookup's accesses and the port's post-pass feeds the
  // metric cells. A shard given neither holds no sampler and no collector.
  void enableObs(obs::MetricRegistry* registry, std::uint32_t span_every,
                 std::uint64_t seed) {
    obs::LookupObs lo;
    lo.shard = id_;
    if (registry != nullptr) {
      wobs_ = obs::WorkerObs::bind(*registry, id_);
      lo = obs::LookupObs::bind(*registry, id_);
    }
    if (span_every != 0) {
      tracing_ = std::make_unique<Tracing>(
          span_every, obs::SpanSampler::shardPhase(span_every, seed, id_));
      lo.record_accesses = true;
    }
    port().attachObs(lo);
  }

  // Attaches the epoch-versioned table source (control-plane, before
  // run()). While attached, the worker pins one version per PacketBatch and
  // rebinds its port to that version's suite + clue table — a batch never
  // observes a half-applied delta, and the §3.5 cache invalidates itself on
  // the version change.
  void bindVersions(rib::VersionedTables<A>* versions) {
    resolver_.bindVersions(versions);
  }

  // Swaps observed by this shard: batches whose pinned version differed
  // from the previous batch's. Read after join.
  std::uint64_t versionChanges() const { return resolver_.versionChanges(); }

  // Zeroes the per-run counters so a reused shard reports this run only
  // (Pipeline::run calls it before spawning the thread). The resolver's
  // last-seen sequence is deliberately kept: a version swap that happened
  // *between* runs still counts as a change on the next run's first batch.
  void resetRunCounters() {
    acc_.reset();
    packets_ = 0;
    batches_ = 0;
    steady_allocs_ = 0;
    resolver_.resetVersionChanges();
    port().resetStats();
  }

  // Heap allocations this shard made after its warm-up batch (see run()).
  // Valid after join; 0 when the alloc hook is compiled out or the shard
  // processed at most one batch.
  std::uint64_t steadyAllocs() const { return steady_allocs_; }

  // The shard's sampled spans, oldest first (empty when it samples none).
  // Call after run() returned.
  std::vector<obs::PacketSpan> drainSpans() {
    return tracing_ != nullptr ? tracing_->spans.drain()
                               : std::vector<obs::PacketSpan>{};
  }

  // The worker thread body: pop batches until the ring is closed *and*
  // drained, resolve each through the batched CluePort path, and publish
  // every packet's next hop to out[seq]. `out` is sized to the full input
  // stream; distinct workers write distinct slots, and the pipeline's join()
  // makes the writes visible to the caller.
  // `version_out`, when non-empty, receives the sequence number of the
  // version each packet was resolved against (0 for unversioned runs) —
  // the churn oracle compares out[seq] against a quiescent lookup at
  // version_out[seq].
  void run(std::span<NextHop> out, std::span<std::uint64_t> version_out = {}) {
    std::uint64_t idle_streak = 0;
    // Zero-allocation steady state: the first batch is warm-up (lazy
    // per-thread init, first-touch faults), everything after it must not
    // allocate. Snapshot the thread-local alloc counter after that batch
    // and report the delta — Pipeline::run sums the shards' deltas into
    // PipelineStats::steady_allocs, which the ci throughput gate pins at 0.
    bool warmed = false;
    std::uint64_t alloc_base = 0;
    for (;;) {
      // Zero-copy consume: resolve the batch in place in the ring slot, then
      // hand the slot back. The producer cannot touch it before release().
      PacketBatch<A>* batch = ring_.front();
      if (batch == nullptr) {
        if (ring_.closed()) {
          batch = ring_.front();
          if (batch == nullptr) break;  // closed and drained: done
        } else {
          ringBackoff(rng_, ++idle_streak);
          continue;
        }
      }
      idle_streak = 0;
      resolveBatch(*batch, out, version_out);
      ring_.release();
      if (!warmed) {
        warmed = true;
        alloc_base = mem::threadAllocs();
      }
    }
    if (warmed) steady_allocs_ = mem::threadAllocs() - alloc_base;
  }

  // Resolves one batch and publishes its next hops — the body of the worker
  // loop, also called directly (on the feeder thread) by the pipeline's
  // serial-inline path when the pipeline degenerates to one worker. Reads
  // the batch's SoA spans in place: no per-packet gather copy.
  void resolveBatch(PacketBatch<A>& batch, std::span<NextHop> out,
                    std::span<std::uint64_t> version_out) {
    // A sampling shard reads the clock twice per *batch*: its spans share
    // the window of the batch's one resolve.
    const std::uint64_t start_ns = tracing_ != nullptr ? steadyNs() : 0;
    const std::size_t n = batch.size();
    const std::span<const std::uint32_t> seqs = batch.seqs();
    // Pin one version for the whole batch (PinnedResolver). The guard
    // spans the resolve and the out[] writes — its release is what lets
    // the updater's grace period complete.
    resolver_.resolve(
        batch.dests(), batch.clues(), {results_.data(), n}, acc_,
        [&](const rib::TableVersion<A>* version) {
          const std::uint64_t seq = version != nullptr ? version->seq : 0;
          for (std::size_t i = 0; i < n; ++i) {
            const auto& m = results_[i].match;
            out[seqs[i]] = m ? m->next_hop : kNoNextHop;
            if (!version_out.empty()) version_out[seqs[i]] = seq;
          }
        });
    packets_ += n;
    ++batches_;
    if (tracing_ != nullptr) recordSpans(batch, start_ns, steadyNs());
    if (wobs_.enabled()) {
      wobs_.packets->inc(n);
      wobs_.batches->inc();
    }
  }

 private:
  // A sampling shard's span state; allocated only when it samples.
  struct Tracing {
    Tracing(std::uint32_t every, std::uint64_t phase)
        : sampler(every, phase) {}
    obs::SpanSampler sampler;
    obs::SpanCollector spans;
  };

  // One span per sampled packet of the batch just resolved, from its
  // Result: a one-hop trace with no rx or tx of its own, so rx, decode and
  // lookup start are all the resolve's start. The trace id follows the
  // datapath's scheme with router id 0: shard << 32 | sample ordinal, and
  // the start time as the low word. Out of line, like CluePort's post-pass,
  // so the resolve path stays as tight as an unsampled shard's.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  void recordSpans(const PacketBatch<A>& batch, std::uint64_t start_ns,
                   std::uint64_t end_ns) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!tracing_->sampler.sample()) continue;
      const typename PortT::Result& r = results_[i];
      const core::ClueField& clue = batch.clue(i);
      obs::PacketSpan s;
      s.trace_hi = (std::uint64_t{static_cast<std::uint32_t>(id_)} << 32) |
                   ((tracing_->sampler.samples() - 1) & 0xffffffffULL);
      s.trace_lo = start_ns;
      s.origin_ns = start_ns;
      s.worker = static_cast<std::uint32_t>(id_);
      if constexpr (std::is_same_v<A, ip::Ip4Addr>) {
        s.dest = batch.dest(i).value();
      }
      s.rx_ns = start_ns;
      s.decode_ns = start_ns;
      s.lookup_start_ns = start_ns;
      s.lookup_end_ns = end_ns;
      s.clue_len = clue.present ? static_cast<std::int16_t>(clue.length)
                                : std::int16_t{-1};
      s.outcome = r.outcome;
      s.claim1_skip = r.claim1_skip;
      s.search_failed = r.search_failed;
      s.accesses = r.accesses;
      s.verdict = r.match ? obs::SpanVerdict::kDelivered
                          : obs::SpanVerdict::kNoRoute;
      tracing_->spans.record(s);
    }
  }

  std::size_t id_;
  Rng rng_;
  SpscRing<PacketBatch<A>> ring_;
  PinnedResolver<A> resolver_;
  mem::AccessCounter acc_;
  std::uint64_t packets_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t steady_allocs_ = 0;
  std::unique_ptr<Tracing> tracing_;
  obs::WorkerObs wobs_;
  // Per-batch resolve results; a member (not a stack array) so the shard's
  // hot scratch lives inside its arena placement, cache-line aligned.
  alignas(64) std::array<typename PortT::Result, kMaxBatch> results_;
};

}  // namespace cluert::pipeline
