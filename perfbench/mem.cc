// mem_hot and mem_churn: the in-memory forwarding Pipeline, closed loop.
//
// Both drive one pre-generated chunk of packets through Pipeline::run back
// to back for the timed window (the feeder is back-pressured by the rings)
// and check every packet of every run against the brute-force BMP oracle.
// mem_hot: Advance mode, ~18.5k routes (fits in L2), every clue correct.
// mem_churn: Simple mode over VersionedTables with ~200k routes, a share of
// clue-less packets, and a RouteUpdater publishing paced deltas to both
// sides while the pipeline forwards; packets are checked at the version
// their batch pinned.
//
// The traced run (--trace 1) adds, after the untraced window: a window with
// the pipeline's registry and batch spans on (its pps against the untraced
// window is the tracing overhead), then single-thread replays of the calls
// a worker and the feeder make — CluePort::process / processBatch, the
// engine's common lookup, batch assembly into SpscRings, the ring handoff,
// VersionedTables::pin + CluePort::bindVersion — each timed from here.
#include <time.h>

#include <array>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_set>

#include "lookup/factory.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "rib/route_updater.h"
#include "rib/versioned_tables.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cluert;
using Pipe = pipeline::Pipeline4;
using Input = Pipe::Input;
using Port = core::CluePort<A>;
using Ring = pipeline::SpscRing<pipeline::PacketBatch<A>>;

constexpr std::size_t kChunk = std::size_t{1} << 20;  // packets per run()
constexpr std::size_t kBatch = 32;
constexpr std::size_t kRingBatches = 32;
constexpr int kHotSetups = 5;    // set-up repeats; setup_s is their median
constexpr int kChurnSetups = 3;
constexpr int kWarmupRuns = 2;   // unmeasured run() calls before the window
constexpr std::size_t kHotPool = 4'096;
constexpr std::size_t kChurnPool = 65'536;
constexpr double kChurnNoClue = 0.10;      // §5.3 share of clue-less packets
constexpr double kUpdatesPerSecond = 10;   // paced RouteUpdater enqueues

// The packet stream: chunk[i] is pool entry idx[i], drawn uniformly. The
// SoA copies (dests, clues) feed the single-thread replays.
struct Traffic {
  std::vector<A> pool;
  std::vector<Input> chunk;
  std::vector<std::uint32_t> idx;
  std::vector<A> dests;
  std::vector<core::ClueField> clues;

  Traffic(std::vector<A> p, const std::vector<core::ClueField>& pool_clues,
          Rng& rng)
      : pool(std::move(p)) {
    chunk.reserve(kChunk);
    idx.reserve(kChunk);
    dests.reserve(kChunk);
    clues.reserve(kChunk);
    for (std::size_t i = 0; i < kChunk; ++i) {
      const auto j = static_cast<std::uint32_t>(rng.index(pool.size()));
      idx.push_back(j);
      chunk.push_back({pool[j], pool_clues[j]});
      dests.push_back(pool[j]);
      clues.push_back(pool_clues[j]);
    }
  }
};

// Sums of the PipelineStats of the measured run() calls.
struct Totals {
  std::vector<double> run_pps;
  std::vector<double> imbalance;
  std::uint64_t packets = 0;
  double run_seconds = 0;
  double cpu_seconds = 0;
  mem::AccessCounter acc;
  std::uint64_t table_hits = 0, table_misses = 0, no_clue = 0, fd_direct = 0,
                searched = 0, search_failed = 0, steady_allocs = 0,
                version_changes = 0;

  void add(const pipeline::PipelineStats& s, double cpu) {
    run_pps.push_back(s.packetsPerSec());
    imbalance.push_back(s.shardImbalance());
    packets += s.packets;
    run_seconds += s.seconds;
    cpu_seconds += cpu;
    acc.mergeFrom(s.accesses);
    table_hits += s.table_hits;
    table_misses += s.table_misses;
    no_clue += s.no_clue;
    fd_direct += s.fd_direct;
    searched += s.searched;
    search_failed += s.search_failed;
    steady_allocs += s.steady_allocs;
    version_changes += s.version_changes;
  }

  // The 90th percentile of the per-run rates: what the pipeline reaches
  // when the host leaves it alone. Other tenants' load drags the median of
  // a run's rates down by up to half, and the upper tail barely moves
  // (best-of-N, as bench_throughput reports its sweep).
  double pps() const { return quantile(run_pps, 0.9); }
  double perPacket(double n) const {
    return ratio(n, static_cast<double>(packets));
  }
  double perPacket(mem::Region r) const {
    return perPacket(static_cast<double>(acc.count(r)));
  }
};

// Drives the chunk through `pipe` for `seconds` after kWarmupRuns
// unmeasured runs. `verify(got, versions)` returns the mismatch count of
// one run; versions stay zero unless `versioned`.
template <typename Verify>
Totals runWindow(Pipe& pipe, const Traffic& tr, double seconds, bool versioned,
                 Report& report, Verify&& verify) {
  std::vector<NextHop> got(kChunk, kNoNextHop);
  std::vector<std::uint64_t> versions(kChunk, 0);
  const std::span<std::uint64_t> vout =
      versioned ? std::span<std::uint64_t>(versions)
                : std::span<std::uint64_t>();
  Totals t;
  std::uint64_t end_ns = 0;
  for (int run = 0;; ++run) {
    if (run == kWarmupRuns) {
      end_ns = nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    }
    if (run >= kWarmupRuns && nowNs() >= end_ns) break;
    const double cpu0 = processCpuSeconds();
    const auto s = pipe.run(tr.chunk, got, vout);
    const double cpu = processCpuSeconds() - cpu0;
    report.attempt(kChunk);
    report.fail(verify(got, versions), "packets resolved to a wrong next hop");
    if (run >= kWarmupRuns) t.add(s, cpu);
  }
  return t;
}

std::uint64_t countMismatches(const std::vector<NextHop>& got,
                              const Traffic& tr,
                              const std::vector<NextHop>& expected) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    bad += got[i] != expected[tr.idx[i]] ? 1 : 0;
  }
  return bad;
}

// Median ns per packet of `pass()` (one sweep over `n` packets), at least
// three passes, more while `budget_s` lasts.
template <typename Fn>
double nsPerPacket(std::size_t n, double budget_s, Fn&& pass) {
  std::vector<double> per;
  const std::uint64_t end = nowNs() + static_cast<std::uint64_t>(budget_s * 1e9);
  do {
    const std::uint64_t t0 = nowNs();
    pass();
    per.push_back(static_cast<double>(nowNs() - t0) / static_cast<double>(n));
  } while (per.size() < 3 || (nowNs() < end && per.size() < 25));
  return median(per);
}

// The per-packet entry points a worker (or a user) can call, replayed on
// this thread over the chunk: the batched resolve, the sequential process()
// loop and the engine's common lookup. Results land in `out` for checking.
struct ResolveReplay {
  double resolve_ns = 0;
  double sequential_ns = 0;
  double common_ns = 0;
};

ResolveReplay replayResolve(Port& port, const lookup::LookupEngine<A>& engine,
                            const Traffic& tr, double budget_s, Report& report,
                            const std::vector<NextHop>& expected) {
  ResolveReplay r;
  std::vector<NextHop> out(kChunk, kNoNextHop);
  mem::AccessCounter acc;
  std::array<Port::Result, kBatch> res;
  const auto check = [&] {
    report.attempt(kChunk);
    report.fail(countMismatches(out, tr, expected),
                "replayed lookups resolved to a wrong next hop");
  };
  r.resolve_ns = nsPerPacket(kChunk, budget_s, [&] {
    for (std::size_t i = 0; i < kChunk; i += kBatch) {
      const std::size_t n = std::min(kBatch, kChunk - i);
      port.processBatch({tr.dests.data() + i, n}, {tr.clues.data() + i, n},
                        {res.data(), n}, acc);
      for (std::size_t k = 0; k < n; ++k) {
        out[i + k] = res[k].match ? res[k].match->next_hop : kNoNextHop;
      }
    }
  });
  check();
  r.sequential_ns = nsPerPacket(kChunk, budget_s, [&] {
    for (std::size_t i = 0; i < kChunk; ++i) {
      const auto m = port.process(tr.dests[i], tr.clues[i], acc).match;
      out[i] = m ? m->next_hop : kNoNextHop;
    }
  });
  check();
  r.common_ns = nsPerPacket(kChunk, budget_s, [&] {
    for (std::size_t i = 0; i < kChunk; ++i) {
      const auto m = engine.lookup(tr.dests[i], acc);
      out[i] = m ? m->next_hop : kNoNextHop;
    }
  });
  check();
  return r;
}

// The feeder's dispatch rule (Pipeline::flowShard): RSS-style flow hash
// mapped onto [0, n) with a multiply-shift.
std::size_t flowShard(const A& dest, std::size_t n) {
  const auto h = static_cast<std::uint64_t>(std::hash<A>{}(dest));
  return static_cast<std::size_t>(((h & 0xffffffffu) * n) >> 32);
}

// The feeder's batch assembly replayed on one thread: flow-hash each packet
// to its shard's ring, append to the claimed batch, publish when full. The
// same thread releases each published batch at once, so no slot ever
// crosses a core.
double replayAssembly(const Traffic& tr, std::size_t shards, double budget_s) {
  std::vector<std::unique_ptr<Ring>> rings;
  for (std::size_t s = 0; s < shards; ++s) {
    rings.push_back(std::make_unique<Ring>(kRingBatches));
  }
  std::vector<pipeline::PacketBatch<A>*> open(shards, nullptr);
  const auto ship = [&](std::size_t s) {
    rings[s]->publish();
    open[s] = nullptr;
    rings[s]->front();
    rings[s]->release();
  };
  return nsPerPacket(kChunk, budget_s, [&] {
    for (std::size_t i = 0; i < kChunk; ++i) {
      const std::size_t s = flowShard(tr.chunk[i].dest, shards);
      if (open[s] == nullptr) {
        open[s] = rings[s]->claim();
        open[s]->clear();
      }
      open[s]->push(tr.chunk[i].dest, tr.chunk[i].clue,
                    static_cast<std::uint32_t>(i));
      if (open[s]->size() == kBatch) ship(s);
    }
    for (std::size_t s = 0; s < shards; ++s) {
      if (open[s] != nullptr) ship(s);
    }
  });
}

// The same assembly with one consumer thread per ring that reads each
// batch's destinations and releases it: the feeder's wall ns per packet
// when batches really cross cores. Minus replayAssembly, that is the
// handoff. Threads: 1 + shards, within the load budget.
double replayHandoff(const Traffic& tr, std::size_t shards) {
  std::vector<double> per;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::unique_ptr<Ring>> rings;
    for (std::size_t s = 0; s < shards; ++s) {
      rings.push_back(std::make_unique<Ring>(kRingBatches));
    }
    std::atomic<std::uint64_t> touched{0};
    std::vector<std::thread> consumers;
    for (std::size_t s = 0; s < shards; ++s) {
      consumers.emplace_back([&ring = *rings[s], &touched] {
        std::uint64_t sum = 0;
        for (;;) {
          pipeline::PacketBatch<A>* b = ring.front();
          if (b == nullptr) {
            if (!ring.closed()) continue;
            b = ring.front();
            if (b == nullptr) break;
          }
          for (std::size_t k = 0; k < b->size(); ++k) sum += b->dest(k).value();
          ring.release();
        }
        touched.fetch_add(sum, std::memory_order_relaxed);
      });
    }
    std::vector<pipeline::PacketBatch<A>*> open(shards, nullptr);
    const std::uint64_t t0 = nowNs();
    for (std::size_t i = 0; i < kChunk; ++i) {
      const std::size_t s = flowShard(tr.chunk[i].dest, shards);
      if (open[s] == nullptr) {
        while ((open[s] = rings[s]->claim()) == nullptr) {
        }
        open[s]->clear();
      }
      open[s]->push(tr.chunk[i].dest, tr.chunk[i].clue,
                    static_cast<std::uint32_t>(i));
      if (open[s]->size() == kBatch) {
        rings[s]->publish();
        open[s] = nullptr;
      }
    }
    for (std::size_t s = 0; s < shards; ++s) {
      if (open[s] != nullptr) rings[s]->publish();
      rings[s]->close();
    }
    for (auto& c : consumers) c.join();
    per.push_back(static_cast<double>(nowNs() - t0) /
                  static_cast<double>(kChunk));
  }
  return median(per);
}

pipeline::PipelineOptions pipeOptions(std::size_t workers,
                                      lookup::ClueMode mode) {
  pipeline::PipelineOptions o;
  o.workers = workers;
  o.batch_size = kBatch;
  o.ring_batches = kRingBatches;
  o.method = lookup::Method::kPatricia;
  o.mode = mode;
  o.learn = false;
  return o;
}

// The traced pipeline: registry cells per worker plus 1-in-64 batch spans.
pipeline::PipelineOptions traced(pipeline::PipelineOptions o,
                                 obs::MetricRegistry& registry) {
  o.registry = &registry;
  o.trace.enabled = true;
  o.trace.sample_every = 64;
  return o;
}

// Pipeline counters of the untraced window, shared by both workloads.
void reportPipelineLayers(Report& report, const Totals& t,
                          std::size_t busy_threads) {
  report.layer("pipeline.ns_per_pkt", ratio(1e9, t.pps()), "ns");
  report.layer("pipeline.shard_imbalance", median(t.imbalance), "ratio");
  report.layer("pipeline.cpu_busy_ratio",
               ratio(t.cpu_seconds,
                     t.run_seconds * static_cast<double>(busy_threads)),
               "ratio");
  report.layer("pipeline.version_changes",
               static_cast<double>(t.version_changes), "count");
  const double hits = static_cast<double>(t.table_hits);
  report.layer("core.table_hit_ratio",
               ratio(hits, hits + static_cast<double>(t.table_misses)),
               "ratio");
  report.layer("core.fd_direct_ratio",
               t.perPacket(static_cast<double>(t.fd_direct)), "ratio");
  report.layer("core.searched_ratio",
               t.perPacket(static_cast<double>(t.searched)), "ratio");
  report.layer("core.search_failed_ratio",
               t.perPacket(static_cast<double>(t.search_failed)), "ratio");
  report.layer("core.no_clue_ratio",
               t.perPacket(static_cast<double>(t.no_clue)), "ratio");
  report.layer("core.clue_table_accesses_per_pkt",
               t.perPacket(mem::Region::kClueTable), "count");
  report.layer("lookup.trie_accesses_per_pkt",
               t.perPacket(mem::Region::kTrieNode), "count");
  report.layer("lookup.fib_accesses_per_pkt",
               t.perPacket(mem::Region::kFibEntry), "count");
  report.layer("mem.steady_allocs", static_cast<double>(t.steady_allocs),
               "count");
  report.layer("load.busy_threads", static_cast<double>(busy_threads),
               "count");
}

void reportEndToEnd(Report& report, const std::vector<double>& setups,
                    const Totals& t) {
  report.e2e("setup_s", median(setups), "s");
  report.e2e("pps", t.pps(), "1/s");
  report.e2e("accesses_per_packet",
             t.perPacket(static_cast<double>(t.acc.total())), "count");
}

// ---------------------------------------------------------------------------
// mem_hot
// ---------------------------------------------------------------------------

struct HotRig {
  rib::Fib4 sender;
  rib::Fib4 receiver;
  trie::BinaryTrie4 t1;
  std::unique_ptr<lookup::LookupSuite<A>> suite;
  std::unique_ptr<Pipe> pipe;
  std::vector<A> pool;
  std::vector<core::ClueField> clues;
  double gen_s = 0, suite_s = 0, precompute_s = 0;
};

// bench_throughput's pair: 20k sender routes, an 18.5k-route receiver.
std::unique_ptr<HotRig> buildHot(std::uint64_t seed, std::size_t workers) {
  auto rig = std::make_unique<HotRig>();
  std::uint64_t t = nowNs();
  Rng rng(seed);
  rib::GenOptions<A> g;
  g.size = 20'000;
  g.histogram = rib::internetLengths1999();
  g.subprefix_fraction = 0.2;
  rig->sender = rib::TableGen<A>::generate(rng, g);
  rib::NeighborOptions<A> n;
  n.shared = 18'000;
  n.fresh = 500;
  n.fresh_extension_fraction = 0.3;
  rig->receiver = rib::TableGen<A>::deriveNeighbor(rig->sender, rng, n);
  rig->t1 = rig->sender.buildTrie();
  rig->pool = sampleDestinations(rig->sender, rig->t1,
                                 rig->receiver.buildTrie(), rng, kHotPool);
  for (const A& d : rig->pool) rig->clues.push_back(senderClue(rig->t1, d));
  rig->gen_s = secondsSince(t);

  t = nowNs();
  lookup::SuiteOptions so;
  so.methods = lookup::methodBit(lookup::Method::kPatricia);
  const auto entries = rig->receiver.entries();
  rig->suite = std::make_unique<lookup::LookupSuite<A>>(
      std::vector<trie::Match<A>>(entries.begin(), entries.end()), so);
  rig->suite_s = secondsSince(t);

  t = nowNs();
  auto opt = pipeOptions(workers, lookup::ClueMode::kAdvance);
  opt.expected_clues = rig->sender.size() + 16;
  rig->pipe = std::make_unique<Pipe>(*rig->suite, &rig->t1, opt);
  rig->pipe->precompute(rig->sender.prefixes());
  rig->precompute_s = secondsSince(t);
  return rig;
}

}  // namespace

std::size_t memHotBusyThreads(std::size_t nproc) {
  return nproc;  // the feeder plus nproc-1 workers
}

void runMemHot(const Args& args, Report& report) {
  const std::size_t workers = args.nproc - 1;
  std::vector<double> setups;
  std::unique_ptr<HotRig> rig;
  for (int k = 0; k < kHotSetups; ++k) {
    rig.reset();
    rig = buildHot(args.seed, workers);
    setups.push_back(rig->gen_s + rig->suite_s + rig->precompute_s);
  }
  Rng rng(args.seed ^ 0x9e3779b97f4a7c15ull);
  const Traffic tr(rig->pool, rig->clues, rng);
  std::vector<NextHop> expected;
  {
    const BmpOracle oracle(rig->receiver);
    for (const A& d : tr.pool) expected.push_back(oracle.nextHop(d));
  }
  const auto verify = [&](const std::vector<NextHop>& got,
                          const std::vector<std::uint64_t>&) {
    return countMismatches(got, tr, expected);
  };

  const double window = args.trace ? args.seconds * 0.5 : args.seconds;
  const Totals t = runWindow(*rig->pipe, tr, window, false, report, verify);
  reportEndToEnd(report, setups, t);
  report.info("mem_hot", "routes=" + std::to_string(rig->receiver.size()) +
                             " pool=" + std::to_string(tr.pool.size()) +
                             " chunk=" + std::to_string(kChunk) +
                             " workers=" + std::to_string(workers) +
                             " runs=" + std::to_string(t.run_pps.size()));

  if (args.trace) {
    obs::MetricRegistry registry;
    auto opt = traced(pipeOptions(workers, lookup::ClueMode::kAdvance),
                      registry);
    opt.expected_clues = rig->sender.size() + 16;
    Pipe tpipe(*rig->suite, &rig->t1, opt);
    tpipe.precompute(rig->sender.prefixes());
    const Totals tt =
        runWindow(tpipe, tr, args.seconds * 0.25, false, report, verify);
    reportPipelineLayers(report, t, memHotBusyThreads(args.nproc));
    report.layer("ledger.trace_overhead_ratio", 1.0 - ratio(tt.pps(), t.pps()),
                 "ratio");

    const double budget = args.seconds * 0.04;
    auto popt = Port::Options{};
    popt.method = lookup::Method::kPatricia;
    popt.mode = lookup::ClueMode::kAdvance;
    popt.learn = false;
    popt.expected_clues = rig->sender.size() + 16;
    Port port(*rig->suite, &rig->t1, popt);
    port.precompute(rig->sender.prefixes());
    const ResolveReplay rr =
        replayResolve(port, rig->suite->engine(lookup::Method::kPatricia), tr,
                      budget, report, expected);
    const double assembly = replayAssembly(tr, workers, budget);
    const double handoff =
        std::max(0.0, replayHandoff(tr, workers) - assembly);
    report.layer("core.resolve_ns_per_pkt", rr.resolve_ns, "ns");
    report.layer("core.sequential_ns_per_pkt", rr.sequential_ns, "ns");
    report.layer("lookup.common_ns_per_lookup", rr.common_ns, "ns");
    report.layer("pipeline.batch_assembly_ns_per_pkt", assembly, "ns");
    report.layer("pipeline.handoff_ns_per_pkt", handoff, "ns");
    report.layer("core.precompute_s", rig->precompute_s, "s");
    report.layer("lookup.suite_build_s", rig->suite_s, "s");
    report.layer("rib.tablegen_s", rig->gen_s, "s");
    // CPU ns the process spent per packet, against the self time of the
    // layers every packet passes: assembly and handoff on the feeder, the
    // batched resolve on a worker. Idle spinning is what stays unattributed.
    const double cpu_ns = ratio(t.cpu_seconds * 1e9, static_cast<double>(t.packets));
    report.layer("ledger.unattributed_ratio",
                 1.0 - ratio(assembly + handoff + rr.resolve_ns, cpu_ns),
                 "ratio");
  }
  report.e2e("peak_rss_mb", peakRssMiB(), "MiB");
}

// ---------------------------------------------------------------------------
// mem_churn
// ---------------------------------------------------------------------------

namespace {

using Entry = rib::Fib4::EntryT;

struct ChurnRig {
  rib::Fib4 sender;
  rib::Fib4 receiver;
  std::vector<A> pool;
  std::vector<core::ClueField> clues;
  obs::MetricRegistry registry;
  std::unique_ptr<rib::VersionedTables4> tables;
  std::unique_ptr<Pipe> pipe;
  double gen_s = 0, build_s = 0, pipe_s = 0;
};

std::unique_ptr<ChurnRig> buildChurn(std::uint64_t seed, std::size_t workers) {
  auto rig = std::make_unique<ChurnRig>();
  std::uint64_t t = nowNs();
  Rng rng(seed);
  rib::GenOptions<A> g;
  g.size = 200'000;
  g.histogram = rib::internetLengths1999();
  g.subprefix_fraction = 0.2;
  rig->sender = rib::TableGen<A>::generate(rng, g);
  rib::NeighborOptions<A> n;
  n.shared = 180'000;
  n.fresh = 5'000;
  n.fresh_extension_fraction = 0.3;
  rig->receiver = rib::TableGen<A>::deriveNeighbor(rig->sender, rng, n);
  {
    const trie::BinaryTrie4 t1 = rig->sender.buildTrie();
    rig->pool = sampleDestinations(rig->sender, t1, rig->receiver.buildTrie(),
                                   rng, kChurnPool);
    for (const A& d : rig->pool) {
      rig->clues.push_back(rng.chance(kChurnNoClue) ? core::ClueField::none()
                                                    : senderClue(t1, d));
    }
  }
  rig->gen_s = secondsSince(t);

  t = nowNs();
  rib::VersionedTables4::Options vopt;
  vopt.method = lookup::Method::kPatricia;
  // Both sides churn with packets in flight: Simple is the sound mode
  // (DESIGN.md §7).
  vopt.mode = lookup::ClueMode::kSimple;
  vopt.registry = &rig->registry;
  rig->tables = std::make_unique<rib::VersionedTables4>(rig->receiver,
                                                        rig->sender, vopt);
  rig->build_s = secondsSince(t);

  t = nowNs();
  rig->pipe = std::make_unique<Pipe>(
      *rig->tables, pipeOptions(workers, lookup::ClueMode::kSimple));
  rig->pipe_s = secondsSince(t);
  return rig;
}

// A bursty delta against the mirror `cur`: withdraws, re-announces of
// routes withdrawn by earlier deltas (oldest first), optional reroutes —
// never one prefix twice.
rib::FibDelta4 makeDelta(Rng& rng, rib::Fib4& cur, std::deque<Entry>& withdrawn,
                         bool reroute) {
  constexpr std::size_t kBurst = 8;
  rib::FibDelta4 d;
  std::unordered_set<Prefix4> touched;
  for (std::size_t k = 0; k < kBurst && !withdrawn.empty(); ++k) {
    const Entry e = withdrawn.front();
    withdrawn.pop_front();
    touched.insert(e.prefix);
    d.added.push_back(e);
    cur.add(e.prefix, e.next_hop);
  }
  std::vector<Entry> fresh;
  for (std::size_t k = 0; k < kBurst; ++k) {
    const Entry e = cur.entries()[rng.index(cur.size())];
    if (!touched.insert(e.prefix).second) continue;
    fresh.push_back(e);
    d.removed.push_back(e.prefix);
    cur.remove(e.prefix);
  }
  for (int k = 0; reroute && k < 4; ++k) {
    Entry e = cur.entries()[rng.index(cur.size())];
    if (!touched.insert(e.prefix).second) continue;
    e.next_hop = static_cast<NextHop>(rng.uniform(0, 64));
    d.rerouted.push_back(e);
    cur.add(e.prefix, e.next_hop);
  }
  withdrawn.insert(withdrawn.end(), fresh.begin(), fresh.end());
  return d;
}

struct Update {
  bool local = false;
  rib::FibDelta4 delta;
};

// Expected next hop of every pool destination at each published version:
// version s is the initial receiver table plus the local deltas among the
// first s-1 updates (neighbor deltas move clues, never a Simple-mode
// answer). Moves forward only, as the data plane's versions do.
class VersionOracle {
 public:
  VersionOracle(const rib::Fib4& receiver, const std::vector<A>& pool,
                const std::vector<Update>& updates)
      : bmp_(receiver), pool_(pool), updates_(updates) {
    for (const A& d : pool) expected_.push_back(bmp_.nextHop(d));
    for (std::size_t i = 0; i < pool.size(); ++i) {
      by_addr_.emplace_back(pool[i].value(), static_cast<std::uint32_t>(i));
    }
    std::sort(by_addr_.begin(), by_addr_.end());
  }

  NextHop expected(std::uint32_t pool_index) const {
    return expected_[pool_index];
  }

  bool advanceTo(std::uint64_t seq) {
    if (seq < seq_ || seq > updates_.size() + 1) return false;
    for (; seq_ < seq; ++seq_) {
      const Update& u = updates_[seq_ - 1];
      if (!u.local) continue;
      bmp_.apply(u.delta);
      for (const auto& p : u.delta.removed) refresh(p);
      for (const auto& e : u.delta.added) refresh(e.prefix);
      for (const auto& e : u.delta.rerouted) refresh(e.prefix);
    }
    return true;
  }

 private:
  void refresh(const Prefix4& p) {
    const std::uint64_t lo = p.addr().value();
    const std::uint64_t hi = lo + ((std::uint64_t{1} << (32 - p.length())) - 1);
    auto it = std::lower_bound(by_addr_.begin(), by_addr_.end(),
                               std::make_pair(static_cast<std::uint32_t>(lo),
                                              std::uint32_t{0}));
    for (; it != by_addr_.end() && it->first <= hi; ++it) {
      expected_[it->second] = bmp_.nextHop(pool_[it->second]);
    }
  }

  BmpOracle bmp_;
  const std::vector<A>& pool_;
  const std::vector<Update>& updates_;
  std::vector<NextHop> expected_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_addr_;
  std::uint64_t seq_ = 1;
};

std::uint64_t verifyVersioned(VersionOracle& oracle, const Traffic& tr,
                              const std::vector<NextHop>& got,
                              const std::vector<std::uint64_t>& versions) {
  const auto [lo, hi] = std::minmax_element(versions.begin(), versions.end());
  std::uint64_t bad = 0;
  for (std::uint64_t s = *lo; s <= *hi; ++s) {
    const bool known = s != 0 && oracle.advanceTo(s);
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (versions[i] != s) continue;
      bad += !known || got[i] != oracle.expected(tr.idx[i]) ? 1 : 0;
    }
  }
  return bad;
}

// Estimated quantile (µs) of a log2-bucketed registry histogram in ns,
// interpolating linearly inside the bucket.
double histogramQuantileUs(const obs::MetricSnapshot& snap,
                           std::string_view name, double q) {
  const obs::MetricSample* s = snap.find(name);
  if (s == nullptr || s->hist.count == 0) return 0.0;
  const double target = q * static_cast<double>(s->hist.count);
  double cum = 0;
  for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
    const double c = static_cast<double>(s->hist.counts[b]);
    if (c == 0 || cum + c < target) {
      cum += c;
      continue;
    }
    const double lo =
        b == 0 ? 0.0 : static_cast<double>(obs::histogramBucketBound(b - 1));
    const double hi = b + 1 == obs::kHistogramBuckets
                          ? 2 * lo
                          : static_cast<double>(obs::histogramBucketBound(b));
    return (lo + (hi - lo) * ((target - cum) / c)) / 1e3;
  }
  return 0.0;
}

double histogramSumNs(const obs::MetricSnapshot& snap, std::string_view name) {
  const obs::MetricSample* s = snap.find(name);
  return s == nullptr ? 0.0 : static_cast<double>(s->hist.sum);
}

// The workers, plus one replay reader, must fit the epoch-slot array.
std::size_t churnWorkers(std::size_t nproc) {
  return std::min(nproc - 2, rib::VersionedTables4::kMaxEpochWorkers - 1);
}

}  // namespace

std::size_t memChurnBusyThreads(std::size_t nproc) {
  return churnWorkers(nproc) + 2;  // the feeder, the updater and the workers
}

void runMemChurn(const Args& args, Report& report) {
  const std::size_t workers = churnWorkers(args.nproc);
  std::vector<double> setups;
  std::unique_ptr<ChurnRig> rig;
  for (int k = 0; k < kChurnSetups; ++k) {
    rig.reset();
    rig = buildChurn(args.seed, workers);
    setups.push_back(rig->gen_s + rig->build_s + rig->pipe_s);
  }
  Rng rng(args.seed ^ 0x9e3779b97f4a7c15ull);
  const Traffic tr(rig->pool, rig->clues, rng);

  // Every delta of the run, generated before the clock starts: one in four
  // moves the sender side (stale clues in flight), the rest the receiver.
  const double window = args.trace ? args.seconds * 0.5 : args.seconds;
  const double paced_s = args.trace ? args.seconds * 0.75 : args.seconds;
  std::vector<Update> updates;
  {
    rib::Fib4 cur_local = rig->receiver;
    rib::Fib4 cur_neighbor = rig->sender;
    std::deque<Entry> wd_local, wd_neighbor;
    const auto n = static_cast<std::size_t>(
        std::ceil((paced_s + 2.0) * kUpdatesPerSecond));
    for (std::size_t i = 0; i < n; ++i) {
      const bool local = i % 4 != 3;
      updates.push_back({local, local ? makeDelta(rng, cur_local, wd_local, true)
                                      : makeDelta(rng, cur_neighbor,
                                                  wd_neighbor, false)});
    }
  }
  VersionOracle oracle(rig->receiver, tr.pool, updates);
  const auto verify = [&](const std::vector<NextHop>& got,
                          const std::vector<std::uint64_t>& versions) {
    return verifyVersioned(oracle, tr, got, versions);
  };

  // Open loop for updates: the pacer sleeps to each due time and enqueues,
  // whether or not earlier deltas have been published.
  rib::RouteUpdater4 updater(*rig->tables);
  std::atomic<bool> stop{false};
  std::vector<double> late_us;
  late_us.reserve(updates.size());
  std::thread pacer([&] {
    const std::uint64_t t0 = nowNs();
    const double interval_ns = 1e9 / kUpdatesPerSecond;
    for (std::size_t i = 0; i < updates.size(); ++i) {
      const std::uint64_t due =
          t0 + static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
      const timespec ts{static_cast<time_t>(due / 1'000'000'000),
                        static_cast<long>(due % 1'000'000'000)};
      while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
      }
      if (stop.load(std::memory_order_acquire)) return;
      late_us.push_back(static_cast<double>(nowNs() - due) / 1e3);
      // A copy: the oracle replays the same deltas.
      rib::FibDelta4 d = updates[i].delta;
      if (updates[i].local) {
        updater.enqueueLocal(std::move(d));
      } else {
        updater.enqueueNeighbor(std::move(d));
      }
    }
  });

  const auto snap0 = rig->registry.snapshot();
  const Totals t = runWindow(*rig->pipe, tr, window, true, report, verify);
  const auto snap1 = rig->registry.snapshot();
  obs::MetricRegistry pipe_registry;
  Totals tt;
  if (args.trace) {
    Pipe tpipe(*rig->tables,
               traced(pipeOptions(workers, lookup::ClueMode::kSimple),
                      pipe_registry));
    tt = runWindow(tpipe, tr, args.seconds * 0.25, true, report, verify);
  }
  stop.store(true, std::memory_order_release);
  pacer.join();
  updater.stop();
  const std::uint64_t published = updater.published();
  const Summary latency_ns = updater.latencyNs();

  reportEndToEnd(report, setups, t);
  report.layer("update_p50_us", latency_ns.percentile(50) / 1e3, "us");
  report.layer("update_p99_us", latency_ns.percentile(99) / 1e3, "us");
  report.layer("load.gen_late_p99_us", quantile(late_us, 0.99), "us");
  report.info("mem_churn",
              "routes=" + std::to_string(rig->receiver.size()) +
                  " pool=" + std::to_string(tr.pool.size()) +
                  " chunk=" + std::to_string(kChunk) +
                  " workers=" + std::to_string(workers) +
                  " runs=" + std::to_string(t.run_pps.size()) +
                  " published=" + std::to_string(published) +
                  " swaps=" + std::to_string(rig->tables->swaps()));

  if (args.trace) {
    reportPipelineLayers(report, t, memChurnBusyThreads(args.nproc));
    report.layer("ledger.trace_overhead_ratio", 1.0 - ratio(tt.pps(), t.pps()),
                 "ratio");
    const auto snap = rig->registry.snapshot();
    const double apply_p99 = histogramQuantileUs(snap, "rib_version_apply_ns", 0.99);
    const double grace_p99 = histogramQuantileUs(snap, "rib_version_grace_ns", 0.99);
    report.layer("rib.apply_us_p50",
                 histogramQuantileUs(snap, "rib_version_apply_ns", 0.5), "us");
    report.layer("rib.grace_us_p99", grace_p99, "us");
    // A publish applies the delta twice (the live buffer, then the retired
    // one's catch-up) around the grace wait; what is left of the update
    // latency waited in the updater's queue.
    report.layer("rib.queue_wait_us_p99",
                 std::max(0.0, latency_ns.percentile(99) / 1e3 -
                                   2 * apply_p99 - grace_p99),
                 "us");
    report.layer("rib.full_rebuild_ratio",
                 ratio(static_cast<double>(rig->tables->fullRebuilds()),
                       static_cast<double>(rig->tables->swaps())),
                 "ratio");
    report.layer("rib.tablegen_s", rig->gen_s, "s");
    report.layer("rib.build_s", rig->build_s, "s");

    // Replays at the final version, the updater stopped. The pin uses the
    // epoch slot after the pipeline's workers.
    const double budget = args.seconds * 0.03;
    Port::Options popt;
    popt.method = lookup::Method::kPatricia;
    popt.mode = lookup::ClueMode::kSimple;
    popt.learn = false;
    Port port(popt);
    constexpr std::size_t kPins = 1'000'000;
    std::vector<double> pin_ns;
    for (int rep = 0; rep < 5; ++rep) {
      const std::uint64_t t0 = nowNs();
      for (std::size_t i = 0; i < kPins; ++i) {
        const auto g = rig->tables->pin(workers);
        port.bindVersion(g->seq, *g->suite, g->clues, &g->neighbor_trie);
      }
      pin_ns.push_back(static_cast<double>(nowNs() - t0) / kPins);
    }
    report.layer("pipeline.pin_ns_per_batch", median(pin_ns), "ns");

    ResolveReplay rr;
    {
      const auto g = rig->tables->pin(workers);
      port.bindVersion(g->seq, *g->suite, g->clues, &g->neighbor_trie);
      std::vector<NextHop> expected;
      if (oracle.advanceTo(g->seq)) {
        for (std::uint32_t i = 0; i < tr.pool.size(); ++i) {
          expected.push_back(oracle.expected(i));
        }
      } else {
        report.fail(1, "final version behind the oracle");
        expected.assign(tr.pool.size(), kNoNextHop);
      }
      rr = replayResolve(port, g->suite->engine(lookup::Method::kPatricia), tr,
                         budget, report, expected);
    }
    const double assembly = replayAssembly(tr, workers, budget);
    const double handoff =
        std::max(0.0, replayHandoff(tr, workers) - assembly);
    report.layer("core.resolve_ns_per_pkt", rr.resolve_ns, "ns");
    report.layer("core.sequential_ns_per_pkt", rr.sequential_ns, "ns");
    report.layer("lookup.common_ns_per_lookup", rr.common_ns, "ns");
    report.layer("pipeline.batch_assembly_ns_per_pkt", assembly, "ns");
    report.layer("pipeline.handoff_ns_per_pkt", handoff, "ns");

    // The set-up split VersionedTables does inside its constructor, per
    // buffer: the lookup suite, then the clue table over the sender's
    // prefixes.
    {
      std::uint64_t t0 = nowNs();
      lookup::SuiteOptions so;
      so.methods = lookup::methodBit(lookup::Method::kPatricia);
      const auto entries = rig->receiver.entries();
      const lookup::LookupSuite<A> suite(
          std::vector<trie::Match<A>>(entries.begin(), entries.end()), so);
      report.layer("lookup.suite_build_s", secondsSince(t0), "s");
      t0 = nowNs();
      core::HashClueTable<A> clues(rig->sender.size() + 16);
      for (const Prefix4& c : rig->sender.prefixes()) {
        clues.insert(core::buildClueEntry<A>(suite, nullptr,
                                             lookup::Method::kPatricia,
                                             lookup::ClueMode::kSimple, c));
      }
      report.layer("core.precompute_s", secondsSince(t0), "s");
    }

    // CPU per packet against the layers' self time: feeder assembly and
    // handoff, the pin per batch and the resolve on a worker, and the
    // updater's two applies per publish (live buffer, then catch-up).
    const double apply_ns = histogramSumNs(snap1, "rib_version_apply_ns") -
                            histogramSumNs(snap0, "rib_version_apply_ns");
    const double pkts = static_cast<double>(t.packets);
    const double cpu_ns = ratio(t.cpu_seconds * 1e9, pkts);
    const double layers = assembly + handoff + rr.resolve_ns +
                          median(pin_ns) / kBatch + ratio(2 * apply_ns, pkts);
    report.layer("ledger.unattributed_ratio", 1.0 - ratio(layers, cpu_ns),
                 "ratio");
  }
  report.e2e("peak_rss_mb", peakRssMiB(), "MiB");
}

}  // namespace perfbench
