// Experiment E12 — wall-clock throughput.
//
// Part 1 (always): the pipeline sweep. Drives the same generated
// sender/receiver pair through the batched multi-worker pipeline for every
// combination of worker count {1,2,4,8} and batch size {1,8,32}, verifies
// each configuration forwards identically to the sequential baseline, and
// writes machine-readable results to BENCH_throughput.json so the perf
// trajectory is tracked across PRs.
//
// Part 2 (skipped with --sweep-only or CLUERT_SWEEP_ONLY=1): the original
// google-benchmark comparison of the 15 method combinations, confirming the
// paper's memory-access ordering also holds for modern-CPU wall time.
//
// --smoke runs neither part: it is the tools/ci.sh hot-path gate — a fixed
// deterministic sharded run whose accesses/packet, shard imbalance and
// steady-state allocation count are written to BENCH_throughput_smoke.prom
// for metrics_diff.py to gate against the committed baseline.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench_util.h"
#include "mem/alloc_hook.h"
#include "obs/export.h"
#include "pipeline/pipeline.h"

namespace {

using namespace cluert;
using bench::A;

struct Workbench {
  rib::Fib4 sender;
  rib::Fib4 receiver;
  trie::BinaryTrie4 t1;
  std::unique_ptr<lookup::LookupSuite<A>> suite;
  std::vector<A> dests;
  std::vector<core::ClueField> clues;

  Workbench() {
    Rng rng(12345);
    rib::GenOptions<A> gopt;
    gopt.size = 20'000;
    gopt.histogram = rib::internetLengths1999();
    gopt.subprefix_fraction = 0.2;
    sender = rib::TableGen<A>::generate(rng, gopt);
    rib::NeighborOptions<A> nopt;
    nopt.shared = 18'000;
    nopt.fresh = 500;
    nopt.fresh_extension_fraction = 0.3;
    receiver = rib::TableGen<A>::deriveNeighbor(sender, rng, nopt);
    for (const auto& e : sender.entries()) t1.insert(e.prefix, e.next_hop);
    suite = std::make_unique<lookup::LookupSuite<A>>(
        std::vector<trie::Match<A>>(receiver.entries().begin(),
                                    receiver.entries().end()));
    const auto t2 = receiver.buildTrie();
    dests = bench::paperDestinations(sender, t1, t2, rng, 4'096);
    mem::AccessCounter scratch;
    clues.reserve(dests.size());
    for (const auto& d : dests) {
      const auto bmp = t1.lookup(d, scratch);
      clues.push_back(bmp ? core::ClueField::of(bmp->prefix.length())
                          : core::ClueField::none());
    }
  }
};

Workbench& workbench() {
  static Workbench wb;
  return wb;
}

// ---------------------------------------------------------------------------
// Part 1: pipeline sweep -> BENCH_throughput.json
// ---------------------------------------------------------------------------

struct SweepRow {
  std::size_t workers = 0;
  std::size_t batch = 0;
  pipeline::PipelineStats stats;
  bool matches_baseline = false;
};

std::size_t sweepPackets() {
  if (const char* s = std::getenv("CLUERT_SWEEP_PACKETS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 500'000;
}

// Each configuration is timed `reps` times and the fastest run is reported.
// Best-of-N is the standard defence against scheduler noise — on a small
// (even single-core) box a worker thread can lose its timeslice mid-run and
// inflate one measurement by 10-100ms, which would otherwise drown the
// effect being measured.
std::size_t sweepReps() {
  if (const char* s = std::getenv("CLUERT_SWEEP_REPS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 3;
}

// "requested N workers but only H hardware threads" annotation for a sweep
// row. Under the default hardware clamp the pipeline already folded the run
// (stats.workers < requested); with the clamp off the row genuinely
// oversubscribed. Either way the row is not a clean point for this host's
// perf trajectory, and the annotation — in the console line and as an
// `oversubscribed` flag in the JSON — says so instead of letting the row
// masquerade as an N-core measurement.
std::string oversubNote(const pipeline::PipelineStats& s, std::size_t hc) {
  if (hc == 0 || s.requested_workers <= hc) return "";
  std::string note = "  [oversubscribed: requested " +
                     std::to_string(s.requested_workers) + "w > " +
                     std::to_string(hc) + " hw threads; ran " +
                     std::to_string(s.workers) + "w]";
  return note;
}

void runPipelineSweep() {
  Workbench& wb = workbench();
  const std::size_t packets = sweepPackets();
  const std::size_t reps = sweepReps();
  const std::size_t hc =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  const auto clue_universe = wb.sender.prefixes();

  // The input stream: the §6 destination sample cycled up to `packets` —
  // the same distribution the google-benchmark part measures.
  std::vector<pipeline::Pipeline4::Input> inputs;
  inputs.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    const std::size_t j = i % wb.dests.size();
    inputs.push_back({wb.dests[j], wb.clues[j]});
  }

  // Sequential reference (also the correctness oracle): one CluePort, one
  // thread, one packet at a time — no pipeline machinery at all.
  typename core::CluePort<A>::Options popt;
  popt.method = lookup::Method::kPatricia;
  popt.mode = lookup::ClueMode::kAdvance;
  popt.learn = false;
  popt.expected_clues = wb.sender.size() + 16;
  core::CluePort<A> ref_port(*wb.suite, &wb.t1, popt);
  ref_port.precompute(clue_universe);
  std::vector<NextHop> expect(inputs.size(), kNoNextHop);
  mem::AccessCounter ref_acc;
  double ref_seconds = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    ref_acc.reset();
    const auto ref_t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto r = ref_port.process(inputs[i].dest, inputs[i].clue, ref_acc);
      expect[i] = r.match ? r.match->next_hop : kNoNextHop;
    }
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - ref_t0)
                         .count();
    if (rep == 0 || s < ref_seconds) ref_seconds = s;
  }
  const double npkts = static_cast<double>(inputs.size());
  std::printf("sequential reference: %.2f Mpps (%.3f acc/pkt)\n",
              npkts / ref_seconds / 1e6,
              static_cast<double>(ref_acc.total()) / npkts);

  std::vector<SweepRow> rows;
  for (const std::size_t workers : {1, 2, 4, 8}) {
    for (const std::size_t batch : {1, 8, 32}) {
      pipeline::PipelineOptions opt;
      opt.workers = workers;
      opt.batch_size = batch;
      opt.method = lookup::Method::kPatricia;
      opt.mode = lookup::ClueMode::kAdvance;
      opt.learn = false;
      opt.expected_clues = wb.sender.size() + 16;
      SweepRow row;
      row.workers = workers;
      row.batch = batch;
      row.matches_baseline = true;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        // Fresh pipeline per rep: worker stats and counters start from zero,
        // so every rep measures the same work.
        pipeline::Pipeline4 pipe(*wb.suite, &wb.t1, opt);
        pipe.precompute(clue_universe);
        std::vector<NextHop> got(inputs.size(), kNoNextHop);
        const auto stats = pipe.run(inputs, got);
        row.matches_baseline = row.matches_baseline && got == expect;
        if (rep == 0 || stats.seconds < row.stats.seconds) row.stats = stats;
      }
      std::printf("%s%s%s\n", pipeline::formatStats(row.stats).c_str(),
                  oversubNote(row.stats, hc).c_str(),
                  row.matches_baseline ? "" : "  !! OUTPUT MISMATCH");
      rows.push_back(std::move(row));
    }
  }

  auto pps = [&](std::size_t workers, std::size_t batch) {
    for (const auto& r : rows) {
      if (r.workers == workers && r.batch == batch) {
        return r.stats.packetsPerSec();
      }
    }
    return 0.0;
  };
  const double speedup = pps(1, 1) > 0 ? pps(4, 32) / pps(1, 1) : 0.0;
  std::printf("speedup 4w/b32 vs 1w/b1: %.2fx\n", speedup);

  std::ofstream json("BENCH_throughput.json");
  bench::JsonWriter w(json);
  w.beginDocument("throughput_pipeline_sweep");
  w.field("table_size", wb.receiver.size());
  w.field("destinations", wb.dests.size());
  w.field("packets_per_config", inputs.size());
  w.field("reps_best_of", reps);
  w.field("method", "patricia");
  w.field("mode", "advance");
  w.field("hardware_concurrency", hc);
  w.field("alloc_hook_active", mem::allocHookActive());
  w.field("sequential_pps", npkts / ref_seconds);
  w.beginArray("configs");
  for (const auto& r : rows) {
    w.beginObject();
    w.field("workers", r.workers);  // requested; actual_workers is post-clamp
    w.field("actual_workers", r.stats.workers);
    w.field("oversubscribed", hc != 0 && r.stats.requested_workers > hc);
    w.field("batch", r.batch);
    w.field("packets", r.stats.packets);
    w.field("seconds", r.stats.seconds);
    w.field("pps", r.stats.packetsPerSec());
    w.field("accesses_per_packet", r.stats.accessesPerPacket());
    w.field("shard_imbalance", r.stats.shardImbalance());
    w.field("steady_allocs", r.stats.steady_allocs);
    w.field("matches_baseline", r.matches_baseline);
    w.endObject();
  }
  w.endArray();
  w.field("speedup_4w_b32_vs_1w_b1", speedup);
  w.endDocument();
  std::printf("wrote BENCH_throughput.json\n");

  // Observed re-runs (deliberately *outside* the timed sweep above, so the
  // perf trajectory in BENCH_throughput.json stays a measurement of the bare
  // data plane), both best-of-`reps` like the sweep rows:
  //   (a) sampling only — spans at 1-in-64 packets, no registry. Against the
  //       sweep's 4w/b32 row this isolates the span-sampling overhead.
  //   (b) full telemetry — registry + spans; this run emits the Prometheus
  //       snapshot and the span JSONL shipped as bench artifacts (render
  //       with tools/trace_merge.py --require-hops 1).
  {
    pipeline::PipelineOptions opt;
    opt.workers = 4;
    opt.batch_size = 32;
    opt.method = lookup::Method::kPatricia;
    opt.mode = lookup::ClueMode::kAdvance;
    opt.learn = false;
    opt.expected_clues = wb.sender.size() + 16;
    opt.trace.enabled = true;
    opt.trace.sample_every = 64;

    double sampled_pps = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      pipeline::Pipeline4 pipe(*wb.suite, &wb.t1, opt);
      pipe.precompute(clue_universe);
      std::vector<NextHop> got(inputs.size(), kNoNextHop);
      const auto stats = pipe.run(inputs, got);
      sampled_pps = std::max(sampled_pps, stats.packetsPerSec());
    }
    const double base_pps = pps(4, 32);
    std::printf("trace sampling 1-in-64 (4w/b32): %.2f Mpps (%+.1f%% vs "
                "unobserved)\n",
                sampled_pps / 1e6,
                base_pps > 0 ? (sampled_pps / base_pps - 1.0) * 100.0 : 0.0);

    double observed_pps = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      obs::MetricRegistry registry;
      opt.registry = &registry;
      pipeline::Pipeline4 pipe(*wb.suite, &wb.t1, opt);
      pipe.precompute(clue_universe);
      std::vector<NextHop> got(inputs.size(), kNoNextHop);
      const auto stats = pipe.run(inputs, got);
      observed_pps = std::max(observed_pps, stats.packetsPerSec());
      if (rep + 1 == reps) {
        obs::writeFile("BENCH_throughput_metrics.prom",
                       obs::toPrometheus(registry.snapshot()));
        obs::writeFile("BENCH_throughput_spans.jsonl",
                       obs::spansToJsonl(pipe.drainSpans(),
                                         "bench_throughput_4w_b32"));
      }
    }
    std::printf(
        "full telemetry (metrics + spans): %.2f Mpps -> "
        "BENCH_throughput_metrics.prom, BENCH_throughput_spans.jsonl\n",
        observed_pps / 1e6);
  }
}

// ---------------------------------------------------------------------------
// --smoke: the ci.sh hot-path gate
// ---------------------------------------------------------------------------
//
// A fixed, deterministic workload (100k packets over the §6 destination
// sample) through the sharded pipeline at 2 workers / batch 32: the calling
// thread resolves the first 50k packets and one spawned thread the rest.
// The hardware clamp is disabled so the shape — and therefore the
// accesses-per-packet and shard-imbalance series — is identical on every
// host, 1-core CI boxes included. Untraced and
// unobserved: the steady-state window must be allocation-free, and tracing
// deliberately allocates (Summary::add).
//
// Two checks fail the run directly (no baseline needed): the sharded output
// diverging from the sequential oracle, and any heap allocation inside the
// steady-state window while the counting hook is active. The emitted
// BENCH_throughput_smoke.prom additionally lets tools/ci.sh gate
// accesses/packet and shard imbalance against the committed
// bench/BENCH_throughput_smoke_baseline.prom via metrics_diff.py.
int runSmoke() {
  Workbench& wb = workbench();
  constexpr std::size_t kPackets = 100'000;
  const auto clue_universe = wb.sender.prefixes();
  std::vector<pipeline::Pipeline4::Input> inputs;
  inputs.reserve(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) {
    const std::size_t j = i % wb.dests.size();
    inputs.push_back({wb.dests[j], wb.clues[j]});
  }

  // Sequential oracle — untimed; the smoke gates determinism, not speed.
  typename core::CluePort<A>::Options popt;
  popt.method = lookup::Method::kPatricia;
  popt.mode = lookup::ClueMode::kAdvance;
  popt.learn = false;
  popt.expected_clues = wb.sender.size() + 16;
  core::CluePort<A> ref_port(*wb.suite, &wb.t1, popt);
  ref_port.precompute(clue_universe);
  std::vector<NextHop> expect(inputs.size(), kNoNextHop);
  mem::AccessCounter ref_acc;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto r = ref_port.process(inputs[i].dest, inputs[i].clue, ref_acc);
    expect[i] = r.match ? r.match->next_hop : kNoNextHop;
  }

  pipeline::PipelineOptions opt;
  opt.workers = 2;
  opt.batch_size = 32;
  opt.clamp_to_hardware = false;  // host-independent shape, see above
  opt.method = lookup::Method::kPatricia;
  opt.mode = lookup::ClueMode::kAdvance;
  opt.learn = false;
  opt.expected_clues = wb.sender.size() + 16;
  pipeline::Pipeline4 pipe(*wb.suite, &wb.t1, opt);
  pipe.precompute(clue_universe);

  // Two runs through one pipeline: the second also covers the counter reset
  // on reuse, and is the one the gate reads.
  std::vector<NextHop> got(inputs.size(), kNoNextHop);
  pipeline::PipelineStats stats;
  bool matches = true;
  for (int rep = 0; rep < 2; ++rep) {
    std::fill(got.begin(), got.end(), kNoNextHop);
    stats = pipe.run(inputs, got);
    matches = matches && got == expect;
  }

  {
    std::ofstream prom("BENCH_throughput_smoke.prom");
    prom << "# bench_throughput --smoke: fixed 2w/b32 sharded run, "
         << kPackets << " packets (clamp off, untraced)\n";
    prom << "throughput_smoke_packets " << stats.packets << "\n";
    prom << "throughput_smoke_accesses_per_packet "
         << stats.accessesPerPacket() << "\n";
    prom << "throughput_smoke_shard_imbalance " << stats.shardImbalance()
         << "\n";
    prom << "throughput_smoke_steady_allocs " << stats.steady_allocs << "\n";
    prom << "throughput_smoke_alloc_hook_active "
         << (stats.alloc_hook_active ? 1 : 0) << "\n";
    prom << "throughput_smoke_matches_baseline " << (matches ? 1 : 0) << "\n";
  }
  std::printf(
      "throughput smoke: %llu packets, %.4f acc/pkt, shard imbalance %.3f, "
      "steady allocs %llu (hook %s), matches_baseline=%d -> "
      "BENCH_throughput_smoke.prom\n",
      static_cast<unsigned long long>(stats.packets),
      stats.accessesPerPacket(), stats.shardImbalance(),
      static_cast<unsigned long long>(stats.steady_allocs),
      stats.alloc_hook_active ? "active" : "inactive", matches ? 1 : 0);
  if (!matches) {
    std::fprintf(stderr,
                 "bench_throughput: FAIL: sharded output diverged from the "
                 "sequential baseline\n");
    return 1;
  }
  if (stats.alloc_hook_active && stats.steady_allocs != 0) {
    std::fprintf(stderr,
                 "bench_throughput: FAIL: %llu heap allocations in the "
                 "steady-state window (contract is zero)\n",
                 static_cast<unsigned long long>(stats.steady_allocs));
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Part 2: google-benchmark method comparison (original E12)
// ---------------------------------------------------------------------------

void BM_Common(benchmark::State& state) {
  auto& wb = workbench();
  const auto method = static_cast<lookup::Method>(state.range(0));
  const auto& engine = wb.suite->engine(method);
  mem::AccessCounter acc;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.lookup(wb.dests[i], acc));
    i = (i + 1) % wb.dests.size();
  }
  state.SetLabel(std::string(lookup::methodName(method)));
}

void BM_Clued(benchmark::State& state) {
  auto& wb = workbench();
  const auto method = static_cast<lookup::Method>(state.range(0));
  const auto mode = state.range(1) == 0 ? lookup::ClueMode::kSimple
                                        : lookup::ClueMode::kAdvance;
  lookup::LookupSuite<A> suite(std::vector<trie::Match<A>>(
      wb.receiver.entries().begin(), wb.receiver.entries().end()));
  typename core::CluePort<A>::Options opt;
  opt.method = method;
  opt.mode = mode;
  opt.learn = false;
  opt.expected_clues = wb.sender.size() + 16;
  core::CluePort<A> port(suite, &wb.t1, opt);
  const auto clues = wb.sender.prefixes();
  port.precompute(clues);
  mem::AccessCounter acc;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(port.process(wb.dests[i], wb.clues[i], acc));
    i = (i + 1) % wb.dests.size();
  }
  state.SetLabel(std::string(lookup::methodName(method)) + "/" +
                 std::string(lookup::clueModeName(mode)));
}

}  // namespace

BENCHMARK(BM_Common)->DenseRange(0, 4)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_Clued)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}})
    ->Unit(benchmark::kNanosecond);

int main(int argc, char** argv) {
  bool sweep_only = std::getenv("CLUERT_SWEEP_ONLY") != nullptr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep-only") == 0) sweep_only = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) return runSmoke();
  runPipelineSweep();
  if (sweep_only) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
