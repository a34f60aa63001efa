// Experiment E12 — wall-clock throughput: a google-benchmark comparison of
// the 15 method combinations, confirming the paper's memory-access ordering
// also holds for modern-CPU wall time. Pipeline and wire throughput are
// perfbench's to time: `mem_hot` runs this table pair through the sharded
// pipeline, `wire_loopback` through one cluertd datapath.
//
// --smoke times nothing: it is the tools/ci.sh hot-path gate — a fixed
// deterministic sharded run whose accesses/packet, shard imbalance and
// steady-state allocation count are written to BENCH_throughput_smoke.prom
// for metrics_diff.py to gate against the committed baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_util.h"
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
// E12: google-benchmark method comparison
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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return runSmoke();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
