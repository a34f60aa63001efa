// Forwarding under route churn (a systems benchmark beyond the paper's
// exhibits; it has no E number in EXPERIMENTS.md).
//
// The update-under-traffic counterpart of a static pipeline: a RouteUpdater
// thread publishes epoch-versioned table swaps (src/rib/versioned_tables.h)
// while the 4-worker pipeline forwards, measuring
//   (a) data-plane throughput under churn vs a no-churn baseline on the same
//       versioned machinery, each the median of the same number of pipeline
//       runs, with each phase's §3.5 cache hits and accesses per packet
//       (measured in Release on a 4-vCPU VM: churn at 83% of the baseline,
//       quartiles 76–88% over 6 runs; nothing checks the ratio), and
//   (b) control-plane update latency (enqueue -> published) percentiles.
//
// Fault-injection shape: bursty withdraw/re-announce on the receiver table
// plus sender-side churn, so in-flight clues straddle swaps stale — the
// exact case DESIGN.md §7 argues is safe under Simple analysis.
//
// --smoke (tools/ci.sh gate): small tables, few publishes, and a strict
// per-version oracle — every packet is checked against a quiescent lookup at
// the version its batch pinned, incrementally after each run so no history
// accumulates; any mismatch (or a run with zero observed swaps) exits
// nonzero. Artifacts: BENCH_churn.json + BENCH_churn.prom.
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench_util.h"
#include "common/mutex.h"
#include "common/text.h"
#include "obs/export.h"
#include "pipeline/pipeline.h"
#include "rib/route_updater.h"
#include "rib/table_gen.h"

namespace {

using namespace cluert;
using bench::A;
using Entry = rib::Fib4::EntryT;

struct Params {
  bool smoke = false;
  std::size_t table_size = 20'000;
  std::size_t pool = 4'096;
  std::size_t packets_per_run = 100'000;
  std::uint64_t target_publishes = 500;
  std::size_t workers = 4;
  std::size_t batch = 32;
};

// Mutates the generator's mirror of a table and returns a consistent delta:
// bursty withdraws, re-announces drawn from the withdrawn stack, reroutes —
// never the same prefix twice in one delta.
rib::FibDelta4 makeDelta(Rng& rng, rib::Fib4& cur,
                         std::vector<Entry>& withdrawn, std::size_t burst,
                         bool reroute) {
  rib::FibDelta4 d;
  std::unordered_set<ip::Prefix4> touched;
  for (std::size_t k = 0; k < burst && cur.size() > 64; ++k) {
    const auto entries = cur.entries();
    const Entry e = entries[rng.index(entries.size())];
    if (!touched.insert(e.prefix).second) continue;
    withdrawn.push_back(e);
    d.removed.push_back(e.prefix);
    cur.remove(e.prefix);
  }
  for (std::size_t k = 0; k < burst && !withdrawn.empty(); ++k) {
    const Entry e = withdrawn.back();
    withdrawn.pop_back();
    if (!touched.insert(e.prefix).second) continue;
    if (cur.contains(e.prefix)) continue;
    d.added.push_back(e);
    cur.add(e.prefix, e.next_hop);
  }
  if (reroute) {
    for (int k = 0; k < 4 && !cur.empty(); ++k) {
      const auto entries = cur.entries();
      Entry e = entries[rng.index(entries.size())];
      if (!touched.insert(e.prefix).second) continue;
      e.next_hop = static_cast<NextHop>(rng.uniform(0, 64));
      d.rerouted.push_back(e);
      cur.add(e.prefix, e.next_hop);
    }
  }
  return d;
}

struct Churn {
  Summary baseline_pps;  // per run
  Summary churn_pps;     // per run
  std::uint64_t publishes = 0;
  std::uint64_t swaps = 0;
  std::uint64_t full_rebuilds = 0;
  std::uint64_t version_changes = 0;
  Summary latency_ns;
  std::size_t oracle_checked = 0;
  std::size_t oracle_mismatches = 0;
  // Per phase: packets, data-plane accesses and §3.5 cache hits.
  struct Phase {
    std::uint64_t packets = 0;
    std::uint64_t accesses = 0;
    std::uint64_t cache_hits = 0;
  } churn, baseline;
};

// §3.5 cache hits over every shard of `pipe` since it was built.
std::uint64_t cacheHits(pipeline::Pipeline4& pipe) {
  std::uint64_t hits = 0;
  for (std::size_t w = 0; w < pipe.options().workers; ++w) {
    hits += pipe.worker(w).port().cache().stats().hits;
  }
  return hits;
}

int run(const Params& pp) {
  Rng rng(424242);
  rib::GenOptions<A> gopt;
  gopt.size = pp.table_size;
  gopt.histogram = rib::internetLengths1999();
  gopt.subprefix_fraction = 0.2;
  rib::Fib4 sender = rib::TableGen<A>::generate(rng, gopt);
  rib::NeighborOptions<A> nopt;
  nopt.shared = pp.table_size * 9 / 10;
  nopt.fresh = pp.table_size / 40;
  nopt.fresh_extension_fraction = 0.3;
  rib::Fib4 receiver = rib::TableGen<A>::deriveNeighbor(sender, rng, nopt);
  trie::BinaryTrie4 t1 = sender.buildTrie();
  const trie::BinaryTrie4 t2 = receiver.buildTrie();
  const std::vector<A> dests =
      bench::paperDestinations(sender, t1, t2, rng, pp.pool);
  if (dests.empty()) {
    std::fprintf(stderr, "no destinations with a sender BMP; aborting\n");
    return 1;
  }
  mem::AccessCounter scratch;
  std::vector<core::ClueField> clues;
  clues.reserve(dests.size());
  for (const auto& d : dests) {
    const auto bmp = t1.lookup(d, scratch);
    clues.push_back(bmp ? core::ClueField::of(bmp->prefix.length())
                        : core::ClueField::none());
  }
  std::vector<pipeline::Pipeline4::Input> inputs;
  std::vector<std::size_t> pool_idx;
  inputs.reserve(pp.packets_per_run);
  pool_idx.reserve(pp.packets_per_run);
  for (std::size_t i = 0; i < pp.packets_per_run; ++i) {
    const std::size_t j = i % dests.size();
    pool_idx.push_back(j);
    inputs.push_back({dests[j], clues[j]});
  }

  // The smoke oracle: on every publish (updater thread; the version is live
  // and immutable there), record the quiescent answer per pool destination.
  // The main thread verifies each run right after it completes, so the map
  // is shared across threads mid-churn — hence the mutex. Contention is one
  // lock per publish plus a few per run; invisible next to the lookups.
  sync::Mutex oracle_mu;
  std::unordered_map<std::uint64_t, std::vector<NextHop>> oracle;
  const auto record = [&](const rib::TableVersion<A>& v) {
    std::vector<NextHop> row(dests.size(), kNoNextHop);
    mem::AccessCounter acc;
    const auto& engine = v.suite->engine(v.method);
    for (std::size_t i = 0; i < dests.size(); ++i) {
      const auto m = engine.lookup(dests[i], acc);
      if (m) row[i] = m->next_hop;
    }
    sync::MutexLock lk(oracle_mu);
    oracle.emplace(v.seq, std::move(row));
  };
  // A worker can pin a version in the window between the live-pointer swap
  // and the end of its on_publish record — the row is guaranteed to land,
  // just possibly after the run returns. Spin until it does.
  const auto fetchRow = [&](std::uint64_t seq) -> std::vector<NextHop> {
    for (;;) {
      {
        sync::MutexLock lk(oracle_mu);
        const auto it = oracle.find(seq);
        if (it != oracle.end()) return it->second;
      }
      std::this_thread::yield();
    }
  };

  obs::MetricRegistry registry;
  rib::VersionedTables4::Options vopt;
  vopt.method = lookup::Method::kPatricia;
  // Both tables churn with packets in flight -> Simple is the sound mode
  // (Advance's Claim-1 pruning assumes the sender view the clue was built
  // against; see DESIGN.md §7).
  vopt.mode = lookup::ClueMode::kSimple;
  vopt.registry = &registry;
  if (pp.smoke) vopt.on_publish = record;
  rib::VersionedTables4 vt(receiver, sender, vopt);
  if (pp.smoke) record(vt.liveVersion());

  pipeline::PipelineOptions popt;
  popt.workers = pp.workers;
  popt.batch_size = pp.batch;
  popt.method = lookup::Method::kPatricia;
  popt.mode = lookup::ClueMode::kSimple;
  popt.cache_entries = 256;
  popt.registry = &registry;
  pipeline::Pipeline4 pipe(vt, popt);

  Churn out;
  // One pair of output buffers for the whole bench: every run (baseline and
  // churn alike) writes the same memory, so the phases differ only in what
  // the updater thread is doing — not in allocation behaviour.
  std::vector<NextHop> got(inputs.size(), kNoNextHop);
  std::vector<std::uint64_t> vgot(inputs.size(), 0);

  // Phase 1 — forwarding while the updater publishes bursty deltas.
  rib::Fib4 cur_local = receiver;
  rib::Fib4 cur_neighbor = sender;
  std::vector<Entry> wd_local, wd_neighbor;
  std::uint64_t churn_packets = 0;
  double churn_seconds = 0.0;
  {
    rib::RouteUpdater4 updater(vt);
    std::uint64_t enqueued = 0;
    while (updater.published() < pp.target_publishes) {
      // One delta per run — a withdraw/re-announce/reroute burst of ~20
      // routes, receiver-side three times out of four, sender-side (the
      // stale-clue injector) the fourth. At ~ms runs that is still hundreds
      // of bursty publishes per second, an order past real BGP churn;
      // cramming more per run would just measure control-plane CPU share on
      // a small host, not data-plane degradation. The backlog guard keeps
      // the queue a burst even when publishes outpace runs, so the latency
      // summary measures apply+grace, not queueing delay.
      if (enqueued < updater.published() + 48) {
        if (enqueued % 4 == 3) {
          auto d = makeDelta(rng, cur_neighbor, wd_neighbor, 8, false);
          if (!d.empty()) {
            updater.enqueueNeighbor(std::move(d));
            ++enqueued;
          }
        } else {
          auto d = makeDelta(rng, cur_local, wd_local, 8, true);
          if (!d.empty()) {
            updater.enqueueLocal(std::move(d));
            ++enqueued;
          }
        }
      }
      const auto stats = pipe.run(inputs, got, vgot);
      out.churn.accesses += stats.accesses.total();
      churn_packets += stats.packets;
      churn_seconds += stats.seconds;
      out.churn_pps.add(stats.packetsPerSec());
      out.version_changes += stats.version_changes;
      if (pp.smoke) {
        // Verify this run right away (the buffers are reused next run):
        // every packet against the quiescent oracle at its pinned version.
        std::unordered_map<std::uint64_t, std::vector<NextHop>> rows;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          const std::uint64_t seq = vgot[i];
          ++out.oracle_checked;
          if (seq == 0) {  // versioned runs always pin; 0 is itself a bug
            ++out.oracle_mismatches;
            continue;
          }
          auto it = rows.find(seq);
          if (it == rows.end()) it = rows.emplace(seq, fetchRow(seq)).first;
          if (got[i] != it->second[pool_idx[i]]) ++out.oracle_mismatches;
        }
      }
    }
    updater.stop();
    out.publishes = updater.published();
    out.latency_ns = updater.latencyNs();
  }
  out.swaps = vt.swaps();
  out.full_rebuilds = vt.fullRebuilds();
  out.churn.packets = churn_packets;
  out.churn.cache_hits = cacheHits(pipe);

  // Phase 2 — the no-churn baseline: as many runs as the churn phase made,
  // on the *same* versioned machinery with the updater stopped, so the
  // comparison isolates churn, not pin/bind overhead or sample size.
  while (out.baseline_pps.count() < out.churn_pps.count()) {
    const auto stats = pipe.run(inputs, got);
    out.baseline_pps.add(stats.packetsPerSec());
    out.baseline.packets += stats.packets;
    out.baseline.accesses += stats.accesses.total();
  }
  out.baseline.cache_hits = cacheHits(pipe) - out.churn.cache_hits;

  // Median per-run throughput of each phase: the churn phase's aggregate
  // mean also lands in the JSON, but a few scheduler-starved runs shouldn't
  // define the headline ratio.
  const double churn_pps = out.churn_pps.percentile(50);
  const double baseline_pps = out.baseline_pps.percentile(50);
  const double churn_pps_mean =
      churn_seconds > 0 ? static_cast<double>(churn_packets) / churn_seconds
                        : 0.0;
  const double ratio = baseline_pps > 0 ? churn_pps / baseline_pps : 0.0;
  const auto printPhase = [](const char* label, const Summary& pps) {
    std::printf("%s: %.2f Mpps [%.2f-%.2f] over %zu runs\n", label,
                pps.percentile(50) / 1e6, pps.percentile(25) / 1e6,
                pps.percentile(75) / 1e6, pps.count());
  };
  printPhase("under churn", out.churn_pps);
  printPhase("baseline (no churn)", out.baseline_pps);
  const auto perPacket = [](std::uint64_t n, const Churn::Phase& ph) {
    return ph.packets > 0 ? static_cast<double>(n) /
                                static_cast<double>(ph.packets)
                          : 0.0;
  };
  std::printf(
      "per packet, churn / baseline: %.4f / %.4f cache hits, %.4f / %.4f "
      "accesses\n",
      perPacket(out.churn.cache_hits, out.churn),
      perPacket(out.baseline.cache_hits, out.baseline),
      perPacket(out.churn.accesses, out.churn),
      perPacket(out.baseline.accesses, out.baseline));
  std::printf(
      "churn/baseline %.1f%% | %llu publishes, %llu swaps (%llu full "
      "rebuilds), %llu swaps seen by workers\n",
      ratio * 100.0, static_cast<unsigned long long>(out.publishes),
      static_cast<unsigned long long>(out.swaps),
      static_cast<unsigned long long>(out.full_rebuilds),
      static_cast<unsigned long long>(out.version_changes));
  std::printf(
      "update latency (enqueue->published): p50 %.0fus p90 %.0fus p99 %.0fus "
      "max %.0fus\n",
      out.latency_ns.percentile(50) / 1e3, out.latency_ns.percentile(90) / 1e3,
      out.latency_ns.percentile(99) / 1e3, out.latency_ns.max() / 1e3);

  if (pp.smoke) {
    std::printf("oracle: %zu packets checked, %zu mismatches\n",
                out.oracle_checked, out.oracle_mismatches);
  }

  std::ofstream json("BENCH_churn.json");
  bench::JsonWriter w(json);
  w.beginDocument("churn_update_pipeline");
  w.field("smoke", pp.smoke);
  w.field("table_size", receiver.size());
  w.field("destinations", dests.size());
  w.field("packets_per_run", inputs.size());
  w.field("workers", static_cast<std::uint64_t>(pp.workers));
  w.field("batch", static_cast<std::uint64_t>(pp.batch));
  w.field("mode", "simple");
  // Per-phase medians with their quartiles and run counts.
  const auto phase = [&](std::string_view name, const Summary& pps) {
    w.key(name);
    w.beginObject();
    w.field("runs", static_cast<std::uint64_t>(pps.count()));
    w.field("p25", pps.percentile(25));
    w.field("p50", pps.percentile(50));
    w.field("p75", pps.percentile(75));
    w.endObject();
  };
  w.field("baseline_pps", baseline_pps);
  w.field("churn_pps", churn_pps);
  phase("baseline_runs_pps", out.baseline_pps);
  phase("churn_runs_pps", out.churn_pps);
  w.field("churn_pps_mean", churn_pps_mean);
  w.field("churn_over_baseline", ratio);
  for (const auto& [name, ph] :
       {std::pair{"churn", &out.churn}, std::pair{"baseline", &out.baseline}}) {
    w.key(std::string(name) + "_per_packet");
    w.beginObject();
    w.field("cache_hits", perPacket(ph->cache_hits, *ph));
    w.field("accesses", perPacket(ph->accesses, *ph));
    w.endObject();
  }
  w.field("publishes", out.publishes);
  w.field("swaps", out.swaps);
  w.field("full_rebuilds", out.full_rebuilds);
  w.field("version_changes_observed", out.version_changes);
  w.key("update_latency_ns");
  w.beginObject();
  w.field("p50", out.latency_ns.percentile(50));
  w.field("p90", out.latency_ns.percentile(90));
  w.field("p99", out.latency_ns.percentile(99));
  w.field("max", out.latency_ns.max());
  w.field("mean", out.latency_ns.mean());
  w.endObject();
  w.field("oracle_checked", static_cast<std::uint64_t>(out.oracle_checked));
  w.field("oracle_mismatches",
          static_cast<std::uint64_t>(out.oracle_mismatches));
  w.endDocument();
  writeFile("BENCH_churn.prom", obs::toPrometheus(registry.snapshot()));
  std::printf("wrote BENCH_churn.json, BENCH_churn.prom\n");

  if (pp.smoke) {
    if (out.oracle_mismatches != 0) {
      std::fprintf(stderr, "FAIL: %zu oracle mismatches\n",
                   out.oracle_mismatches);
      return 1;
    }
    if (out.swaps < pp.target_publishes || out.version_changes == 0) {
      std::fprintf(stderr, "FAIL: churn did not exercise the swap path\n");
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Params pp;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) pp.smoke = true;
  }
  if (pp.smoke) {
    pp.table_size = 2'000;
    pp.pool = 512;
    // Long enough runs that one paced publish is a small fraction of each
    // even on a single-core host — the ratio then reflects the data plane.
    pp.packets_per_run = 32'768;
    pp.target_publishes = 120;
  }
  return run(pp);
}
