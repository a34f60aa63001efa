// One pipeline worker shard: a run-to-completion forwarding loop.
//
// Each worker owns the complete per-thread state a shard needs — its own
// CluePort (clue table, learning, §3.5 cache), its own mem::AccessCounter
// (merged after join, never shared), and its own Rng stream split off the
// pipeline seed via Rng::forThread — so the data plane runs without a single
// lock or shared mutable word between shards. The only cross-thread traffic
// is the SPSC ring of PacketBatches in, and writes to disjoint `out[seq]`
// slots (each sequence number is routed to exactly one worker).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>

#include "common/random.h"
#include "core/distributed_lookup.h"
#include "mem/alloc_hook.h"
#include "obs/hooks.h"
#include "pipeline/packet_batch.h"
#include "pipeline/pinned_resolver.h"
#include "pipeline/spsc_ring.h"
#include "rib/versioned_tables.h"

namespace cluert::pipeline {

template <typename A>
class Worker {
 public:
  using PortT = core::CluePort<A>;

  Worker(std::size_t id, std::uint64_t pipeline_seed,
         std::size_t ring_capacity_batches, std::unique_ptr<PortT> port,
         std::uint32_t backoff_sleep_us = 50)
      : id_(id),
        rng_(Rng::forThread(pipeline_seed, id)),
        ring_(ring_capacity_batches),
        resolver_(std::move(port), id),
        backoff_sleep_us_(backoff_sleep_us) {}

  std::size_t id() const { return id_; }
  SpscRing<PacketBatch<A>>& ring() { return ring_; }
  PortT& port() { return resolver_.port(); }
  const PortT& port() const { return resolver_.port(); }
  const mem::AccessCounter& accesses() const { return acc_; }
  std::uint64_t packets() const { return packets_; }
  std::uint64_t batches() const { return batches_; }

  // Attaches this shard's observability: its metric cells (shard = worker
  // id) and, when `trace.enabled`, a Tracer whose sampling phase derives
  // from (seed, id) via Rng::forThread. Control-plane call, strictly before
  // run(). Either part may be absent: a null registry with tracing on still
  // produces trace events; a registry with tracing off still counts. Either
  // one attaches the port's LookupObs, so its batches end in the post-pass
  // (CluePort::processBatch) that feeds both.
  void enableObs(obs::MetricRegistry* registry, const obs::TraceOptions& trace,
                 std::uint64_t seed) {
    if (trace.enabled) {
      tracer_ = std::make_unique<obs::Tracer>(
          trace, seed, static_cast<std::uint32_t>(id_));
    }
    if (registry != nullptr) {
      wobs_ = obs::WorkerObs::bind(*registry, id_);
      port().attachObs(obs::LookupObs::bind(*registry, id_, tracer_.get()));
    } else if (tracer_ != nullptr) {
      obs::LookupObs lo;
      lo.shard = id_;
      lo.tracer = tracer_.get();
      port().attachObs(lo);
    }
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

  // Post-join access to the shard's trace rings (null when tracing is off).
  const obs::Tracer* tracer() const { return tracer_.get(); }

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
          idleBackoff(++idle_streak);
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
    // Batch spans cost two clock reads per *batch*; the port's sampled
    // per-lookup events share the resolve call's window.
    const bool spans = tracer_ != nullptr && tracer_->enabled();
    const std::uint64_t span_t0 = spans ? obs::Tracer::nowNs() : 0;
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
    if (spans) {
      const std::uint64_t dur = obs::Tracer::nowNs() - span_t0;
      tracer_->span({span_t0, dur, static_cast<std::uint32_t>(id_),
                     static_cast<std::uint32_t>(n)});
    }
    if (wobs_.enabled()) {
      wobs_.packets->inc(n);
      wobs_.batches->inc();
    }
  }

 private:
  // Empty-ring wait, escalating with the idle streak: spin a short,
  // per-worker-jittered burst (the jitter — drawn from this worker's own Rng
  // stream — decorrelates shards so they don't hammer the producer's cache
  // lines in lockstep), then yield, and once the ring has stayed empty for
  // many attempts, sleep. The sleep matters on a host with fewer cores than
  // threads: a yield-looping worker still burns whole timeslices, whereas a
  // sleeping one lets the feeder fill every ring in one long burst instead
  // of a few batches per context switch.
  void idleBackoff(std::uint64_t streak) {
    if (streak < 4) {
      const std::uint64_t spins = 32 + rng_.uniform(0, 32);
      for (std::uint64_t s = 0; s < spins; ++s) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
      return;
    }
    if (streak < 16 || backoff_sleep_us_ == 0) {
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_sleep_us_));
  }

  std::size_t id_;
  Rng rng_;
  SpscRing<PacketBatch<A>> ring_;
  PinnedResolver<A> resolver_;
  std::uint32_t backoff_sleep_us_ = 50;
  mem::AccessCounter acc_;
  std::uint64_t packets_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t steady_allocs_ = 0;
  std::unique_ptr<obs::Tracer> tracer_;  // owned here: single-writer ring
  obs::WorkerObs wobs_;
  // Per-batch resolve results; a member (not a stack array) so the shard's
  // hot scratch lives inside its arena placement, cache-line aligned.
  alignas(64) std::array<typename PortT::Result, kMaxBatch> results_;
};

}  // namespace cluert::pipeline
