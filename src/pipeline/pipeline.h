// The batched multi-worker forwarding pipeline.
//
// Topology: run() splits the input into `workers` contiguous slices,
// [N·w/W, N·(w+1)/W), and every shard resolves its own slice to completion:
// the calling thread is shard 0 and W−1 spawned threads are the rest. A
// shard gathers batch_size packets at a time from its slice into its own
// PacketBatch and publishes next hops into its own contiguous run of the
// caller's output array; shards share at most the line at a slice edge.
// `workers` counts every thread that resolves, the caller included.
//
// There is no flow affinity: packets of one flow may land on several shards.
// The shared clue table is read-only, so every core may hold a copy of its
// lines; only a §3.5 cache (per shard) would prefer flow-hashed dispatch,
// and DESIGN.md §4 measures what that was worth.
//
// Every shard owns its CluePort / AccessCounter / PacketBatch (see
// worker.h); the suite and clue table its port probes are shared and
// read-only while run() is in flight, so no shard writes a word another
// reads. run() merges the per-worker counters and port stats into one
// PipelineStats via AccessCounter::mergeFrom once the workers have joined.
// With the §3.5 cache off, per-packet accounting is deterministic, so the
// merged totals equal a single-threaded run over the same stream —
// pipeline_test asserts exactly that, and the equality is what lets all the
// paper's §6 access-count results carry over unchanged to the parallel data
// plane.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "mem/alloc_hook.h"
#include "pipeline/packet_batch.h"
#include "pipeline/spsc_ring.h"  // not on run()'s path; see spsc_ring.h
#include "pipeline/worker.h"
#include "common/check.h"

namespace cluert::pipeline {

struct PipelineOptions {
  // Resolving threads, the caller included: run() spawns workers − 1.
  std::size_t workers = 4;
  std::size_t batch_size = kDefaultBatch;  // clamped to [1, kMaxBatch]
  // Unread: no ring is left between threads. Kept because perfbench, which
  // replays the old feeder over SpscRings, still sets it.
  std::size_t ring_batches = 64;
  // Base seed of the shards' span-sampler phases (Rng::forThread).
  std::uint64_t seed = 1;
  // Clamp `workers` to std::thread::hardware_concurrency(). Oversubscribing
  // cores never helps a run-to-completion data plane (the threads just trade
  // timeslices; BENCH_throughput's 8w rows were *slower* than 4w on a 4-core
  // host) — so by default the pipeline refuses to silently degrade: it
  // clamps, warns on stderr, and reports both counts in PipelineStats.
  // Tests that deliberately oversubscribe to widen sanitizer interleavings
  // opt out.
  bool clamp_to_hardware = true;

  // CluePort configuration, replicated per shard. Every shard probes one
  // shared, read-only clue table, so no shard learns: `learn` must stay
  // false. `expected_clues` sizes the static pipeline's one table.
  lookup::Method method = lookup::Method::kPatricia;
  lookup::ClueMode mode = lookup::ClueMode::kAdvance;
  bool learn = false;
  std::size_t expected_clues = 1 << 10;
  std::size_t cache_entries = 0;

  // Observability (src/obs/). `registry` non-null: every shard binds its
  // per-worker metric cells (lookup_case_total, lookup_accesses, ...) and
  // run() publishes the merged region counters post-join. `trace.enabled`:
  // every shard samples 1 in `trace.sample_every` of its packets (0: none)
  // into obs::PacketSpans, built from its batches' Results and collected
  // for drainSpans(). Either one makes each shard's port record per-lookup
  // accesses in its Results. Both default off: an unobserved shard holds
  // no sampler and pays a few tests per batch.
  obs::MetricRegistry* registry = nullptr;
  struct Trace {
    bool enabled = false;
    std::uint32_t sample_every = 64;
  } trace;
};

// Aggregated view of one run(): the merged per-worker counters in the same
// vocabulary (AccessCounter / CluePort::Stats fields) the single-threaded
// experiments report, plus throughput and load-balance figures.
struct PipelineStats {
  std::size_t workers = 0;
  // Worker count the caller asked for, pre-clamp; equals `workers` unless
  // PipelineOptions::clamp_to_hardware trimmed an oversubscribed request.
  std::size_t requested_workers = 0;
  std::size_t batch_size = 0;

  std::uint64_t packets = 0;
  std::uint64_t batches = 0;
  double seconds = 0.0;
  double packetsPerSec() const { return seconds > 0 ? packets / seconds : 0; }

  // Sum over shards of every data-plane memory access (mergeFrom).
  mem::AccessCounter accesses;
  double accessesPerPacket() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(accesses.total()) /
                              static_cast<double>(packets);
  }

  // Merged CluePort::Stats (field-wise sums over shards).
  std::uint64_t table_hits = 0;
  std::uint64_t table_misses = 0;
  std::uint64_t no_clue = 0;
  std::uint64_t fd_direct = 0;
  std::uint64_t searched = 0;
  std::uint64_t search_failed = 0;

  // Per-shard packet counts (min/max/mean).
  Summary worker_packets;

  // max/mean of the per-shard packet counts: 1.0 is a perfectly balanced
  // run, 2.0 means the hottest shard carried twice its fair share. Slices
  // differ by at most one packet, so this reads 1.0 up to rounding whatever
  // the traffic.
  double shardImbalance() const {
    const double m = worker_packets.mean();
    return m > 0 ? worker_packets.max() / m : 0.0;
  }

  // Heap allocations inside the steady-state window (each shard's loop
  // after its warm-up batch). The hot path's contract is ZERO;
  // `alloc_hook_active` false means the counting hook was compiled out
  // (sanitizer build) and the zero is vacuous.
  std::uint64_t steady_allocs = 0;
  bool alloc_hook_active = false;

  // Sum over shards of batches whose pinned table version differed from the
  // shard's previous batch — how often the data plane actually observed a
  // swap. Zero for unversioned runs.
  std::uint64_t version_changes = 0;
};

// One-line human-readable rendering (pipeline.cc).
std::string formatStats(const PipelineStats& s);

template <typename A>
class Pipeline {
 public:
  using WorkerT = Worker<A>;
  using PortT = core::CluePort<A>;
  using PrefixT = ip::Prefix<A>;
  using Input = typename WorkerT::Input;

  // Builds the shards over one clue table that precompute() fills. Control-
  // plane work (the Advance neighbor annotation, port construction) runs
  // here, on the calling thread, strictly before any worker thread exists.
  // Each shard's unbound port is bound once to the suite and the shared
  // table. One pipeline serves one sender, so the annotation uses neighbor
  // index 0, the index the shards' ports walk with.
  Pipeline(lookup::LookupSuite<A>& suite,
           const trie::BinaryTrie<A>* neighbor_trie,
           const PipelineOptions& options)
      : options_(sanitized(options)),
        requested_workers_(options.workers == 0 ? 1 : options.workers),
        suite_(&suite),
        neighbor_trie_(neighbor_trie),
        clues_(options_.expected_clues) {
    if (options_.mode == lookup::ClueMode::kAdvance) {
      CLUERT_CHECK(neighbor_trie != nullptr)
          << "Advance requires the neighbor's prefix view (Claim 1)";
      suite.annotateNeighbor(0, *neighbor_trie);
    }
    for (std::size_t w = 0; w < options_.workers; ++w) {
      addWorker(w).port().bindVersion(0, suite, clues_, neighbor_trie);
    }
    announce();
  }

  // Epoch-versioned construction (the churn-safe data plane): every shard
  // gets an *unbound* port that borrows suite + clue table from the version
  // it pins per batch, so a control-plane RouteUpdater can publish while
  // run() is in flight. precompute() doesn't apply — versions arrive fully
  // built (a clue-table miss routes via the common lookup).
  Pipeline(rib::VersionedTables<A>& versions, const PipelineOptions& options)
      : options_(sanitized(options)),
        requested_workers_(options.workers == 0 ? 1 : options.workers),
        clues_(0) {
    CLUERT_CHECK(options_.workers <= rib::VersionedTables<A>::kMaxEpochWorkers)
        << options_.workers << " workers exceed the epoch-slot array";
    for (std::size_t w = 0; w < options_.workers; ++w) {
      addWorker(w).bindVersions(&versions);
    }
    announce();
  }

  const PipelineOptions& options() const { return options_; }
  WorkerT& worker(std::size_t w) { return *workers_[w]; }

  // Installs the clue universe into the shards' one table (§3.3.2
  // pre-processing). Control-plane: never while run() is in flight. A
  // candidate set an overwrite releases is never reclaimed: the shards'
  // §3.5 caches may still hold copies of the entry it belonged to.
  void precompute(std::span<const PrefixT> clues) {
    CLUERT_CHECK(suite_ != nullptr)
        << "precompute on a versioned pipeline; its versions arrive built";
    for (const PrefixT& c : clues) {
      clues_.insert(core::buildClueEntry(*suite_, neighbor_trie_,
                                         options_.method, options_.mode, c,
                                         &clues_.candidates()));
    }
  }

  // Drives the whole input stream through the pipeline; out[i] receives the
  // next hop chosen for in[i] (kNoNextHop: no route). Blocking: spawns
  // shards 1..W−1, resolves slice 0 on the calling thread, joins,
  // aggregates.
  PipelineStats run(std::span<const Input> in, std::span<NextHop> out) {
    return run(in, out, {});
  }

  // Versioned-run variant: `version_out`, when non-empty (sized like `out`),
  // receives the sequence number of the table version each packet was
  // resolved against — the churn oracle's ground truth for comparing out[i]
  // with a quiescent lookup at that version.
  PipelineStats run(std::span<const Input> in, std::span<NextHop> out,
                    std::span<std::uint64_t> version_out) {
    CLUERT_CHECK(in.size() == out.size())
        << in.size() << " inputs vs " << out.size() << " out slots";
    CLUERT_CHECK(version_out.empty() || version_out.size() == out.size())
        << version_out.size() << " version slots vs " << out.size() << " out";
    CLUERT_CHECK(in.size() <=
                 std::size_t{std::numeric_limits<std::uint32_t>::max()})
        << in.size() << " packets overflow the 32-bit batch seq";
    const auto t0 = std::chrono::steady_clock::now();
    // The pipeline is reusable: zero the per-run counters while every shard
    // is quiescent (joined last run, none started yet), so stats describe
    // THIS run.
    for (auto& w : workers_) w->resetRunCounters();
    const std::size_t n = workers_.size();
    const auto runShard = [this, in, out, version_out, n](std::size_t w) {
      const std::size_t first = in.size() * w / n;
      const std::size_t last = in.size() * (w + 1) / n;
      workers_[w]->run(in.subspan(first, last - first), first,
                       options_.batch_size, out, version_out);
    };
    // jthreads: should the caller's shard throw, unwinding joins the rest.
    std::vector<std::jthread> threads;
    threads.reserve(n - 1);
    for (std::size_t w = 1; w < n; ++w) threads.emplace_back(runShard, w);
    runShard(0);
    for (auto& t : threads) t.join();
    const auto t1 = std::chrono::steady_clock::now();
    PipelineStats s = aggregate(std::chrono::duration<double>(t1 - t0).count());
    // Region totals are merged per run (the workers' counters are quiescent
    // now); the per-packet families were already fed live by the shards.
    if (options_.registry != nullptr) {
      obs::publishAccessCounter(*options_.registry, s.accesses);
    }
    return s;
  }

  // Drains every shard's sampled spans (PipelineOptions::trace), sorted by
  // lookup start; each shard's spans keep their order. Call after run()
  // returned. Export with obs::spansToJsonl and render with
  // tools/trace_merge.py --require-hops 1.
  std::vector<obs::PacketSpan> drainSpans() {
    std::vector<obs::PacketSpan> out;
    for (auto& w : workers_) {
      const std::vector<obs::PacketSpan> spans = w->drainSpans();
      out.insert(out.end(), spans.begin(), spans.end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const obs::PacketSpan& a, const obs::PacketSpan& b) {
                       return a.lookup_start_ns < b.lookup_start_ns;
                     });
    return out;
  }

 private:
  // Builds shard `w` with an unbound port and attaches its observability.
  WorkerT& addWorker(std::size_t w) {
    typename PortT::Options popt;
    popt.method = options_.method;
    popt.mode = options_.mode;
    popt.learn = false;
    popt.cache_entries = options_.cache_entries;
    WorkerT& worker = *workers_.emplace_back(
        std::make_unique<WorkerT>(w, std::make_unique<PortT>(popt)));
    const std::uint32_t span_every =
        options_.trace.enabled ? options_.trace.sample_every : 0;
    if (options_.registry != nullptr || span_every != 0) {
      worker.enableObs(options_.registry, span_every, options_.seed);
    }
    return worker;
  }

  static PipelineOptions sanitized(PipelineOptions o) {
    CLUERT_CHECK(!o.learn)
        << "pipeline shards share one read-only clue table and cannot learn";
    if (o.workers == 0) o.workers = 1;
    if (o.batch_size == 0) o.batch_size = 1;
    if (o.batch_size > kMaxBatch) o.batch_size = kMaxBatch;
    if (o.clamp_to_hardware) {
      const auto hc =
          static_cast<std::size_t>(std::thread::hardware_concurrency());
      // hardware_concurrency() may legitimately return 0 ("unknown"); never
      // clamp on a host we cannot size.
      if (hc != 0 && o.workers > hc) o.workers = hc;
    }
    return o;
  }

  // Post-construction reporting: the clamp warning (a silently degraded
  // data plane is the bug this fixes) and the standing gauges.
  void announce() const {
    if (options_.workers < requested_workers_) {
      std::fprintf(stderr,
                   "cluert::pipeline: clamped %zu requested workers to %zu "
                   "(hardware_concurrency); oversubscribing cores only adds "
                   "context switches\n",
                   requested_workers_, options_.workers);
    }
    if (options_.registry == nullptr) return;
    options_.registry
        ->gauge("pipeline_workers", "Worker shards in the pipeline")
        .set(static_cast<double>(options_.workers));
    options_.registry
        ->gauge("pipeline_batch_size", "Packets per pipeline batch")
        .set(static_cast<double>(options_.batch_size));
    options_.registry
        ->gauge("pipeline_workers_clamped",
                "Requested-minus-actual workers after the hardware clamp")
        .set(static_cast<double>(requested_workers_ - options_.workers));
  }

  PipelineStats aggregate(double seconds) const {
    PipelineStats s;
    s.workers = workers_.size();
    s.requested_workers = requested_workers_;
    s.batch_size = options_.batch_size;
    s.seconds = seconds;
    s.alloc_hook_active = mem::allocHookActive();
    for (const auto& w : workers_) {
      s.packets += w->packets();
      s.batches += w->batches();
      s.accesses.mergeFrom(w->accesses());
      const auto& ps = w->port().stats();
      s.table_hits += ps.table_hits;
      s.table_misses += ps.table_misses;
      s.no_clue += ps.no_clue;
      s.fd_direct += ps.fd_direct;
      s.searched += ps.searched;
      s.search_failed += ps.search_failed;
      s.worker_packets.add(static_cast<double>(w->packets()));
      s.version_changes += w->versionChanges();
      s.steady_allocs += w->steadyAllocs();
    }
    return s;
  }

  PipelineOptions options_;
  std::size_t requested_workers_ = 0;
  // The static pipeline's suite, sender view and one clue table (null, null
  // and empty for a versioned pipeline). Declared before workers_ so the
  // table outlives the shards whose ports point at it.
  const lookup::LookupSuite<A>* suite_ = nullptr;
  const trie::BinaryTrie<A>* neighbor_trie_ = nullptr;
  core::HashClueTable<A> clues_;
  // Shard placement: Worker is alignas(64), so aligned new starts each
  // shard on its own cache line, and no two shards share one.
  std::vector<std::unique_ptr<WorkerT>> workers_;
};

using Pipeline4 = Pipeline<ip::Ip4Addr>;

}  // namespace cluert::pipeline
