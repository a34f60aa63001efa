// Pipeline throughput: a two-router clue path driven through the batched
// multi-worker data plane (src/pipeline/).
//
// Router R1 forwards a stream of packets toward router R2, stamping each
// with the length of its best matching prefix as the clue. R2 resolves the
// stream twice: sequentially, one packet at a time through one CluePort,
// and through a Pipeline, where batches of 32 packets fan out over worker
// shards that probe one shared, precomputed clue table and keep their own
// access counters. The forwarding decisions are identical to the sequential
// path — only the execution model changes.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build --target pipeline_throughput
//   ./build/examples/pipeline_throughput
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/text.h"
#include "obs/export.h"
#include "pipeline/pipeline.h"
#include "rib/table_gen.h"

using namespace cluert;

int main() {
  using A = ip::Ip4Addr;

  // --- Two routers with paper-style neighboring tables, one link. --------
  Rng rng(1999);
  rib::GenOptions<A> gopt;
  gopt.size = 10'000;
  gopt.histogram = rib::internetLengths1999();
  const auto r1_fib = rib::TableGen<A>::generate(rng, gopt);
  rib::NeighborOptions<A> nopt;
  nopt.shared = 8'500;
  nopt.fresh = 400;
  const auto r2_fib = rib::TableGen<A>::deriveNeighbor(r1_fib, rng, nopt);
  // R2's view of R1's prefixes (Claim 1) and R2's own lookup suite.
  const trie::BinaryTrie<A> t1 = r1_fib.buildTrie();
  lookup::LookupSuite<A> suite(std::vector<trie::Match<A>>(
      r2_fib.entries().begin(), r2_fib.entries().end()));
  const auto clue_universe = r1_fib.prefixes();

  // --- A packet stream: random addresses under R1's prefixes, each with the
  // clue R1 attaches on the wire. --------------------------------------------
  const std::size_t kPackets = 200'000;
  std::vector<pipeline::Pipeline4::Input> inputs;
  inputs.reserve(kPackets);
  const auto& entries = r1_fib.entries();
  mem::AccessCounter scratch;
  for (std::size_t i = 0; i < kPackets; ++i) {
    const auto& p = entries[rng.index(entries.size())].prefix;
    A d = p.addr();
    for (int b = p.length(); b < 32; ++b) {
      d = d.withBit(b, static_cast<unsigned>(rng.u32() & 1));
    }
    const auto bmp = t1.lookup(d, scratch);
    inputs.push_back({d, bmp ? core::ClueField::of(bmp->prefix.length())
                             : core::ClueField::none()});
  }

  // --- R2's side: sequential baseline, then the pipeline. ----------------
  // Both precompute R1's clue universe (§3.3.2) under Patricia + Advance.
  bool failed = false;  // any mismatch below makes the exit status 1
  core::CluePort<A>::Options popt;
  popt.learn = false;
  popt.expected_clues = clue_universe.size() + 16;
  core::CluePort<A> port(suite, &t1, popt);
  port.precompute(clue_universe);
  std::vector<NextHop> sequential(inputs.size(), kNoNextHop);
  mem::AccessCounter seq_acc;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto r = port.process(inputs[i].dest, inputs[i].clue, seq_acc);
    sequential[i] = r.match ? r.match->next_hop : kNoNextHop;
  }
  const double seq_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("sequential: %8.2f Mpps  (%.3f accesses/pkt)\n",
              static_cast<double>(kPackets) / seq_s / 1e6,
              static_cast<double>(seq_acc.total()) /
                  static_cast<double>(kPackets));

  const auto pipeOptions = [&](std::size_t workers) {
    pipeline::PipelineOptions opt;
    opt.workers = workers;
    opt.batch_size = 32;
    opt.expected_clues = clue_universe.size() + 16;
    return opt;
  };
  for (const std::size_t workers : {1, 2, 4}) {
    pipeline::Pipeline4 pipe(suite, &t1, pipeOptions(workers));
    pipe.precompute(clue_universe);
    std::vector<NextHop> got(inputs.size(), kNoNextHop);
    const auto stats = pipe.run(inputs, got);
    std::printf("%s  %s\n", pipeline::formatStats(stats).c_str(),
                got == sequential ? "(matches sequential)"
                                  : "!! OUTPUT MISMATCH");
    if (got != sequential) failed = true;
  }

  // --- The same 4-worker run, fully observed (src/obs/). -----------------
  //
  // Every shard binds its per-worker metric cells into one registry and
  // samples 1 packet in 64 into a PacketSpan (case, Claim-1 skip, accesses,
  // its batch's lookup window); the run then dumps a Prometheus text
  // snapshot and the spans as JSONL. Render the spans with
  //   python3 tools/trace_merge.py pipeline_spans.jsonl --out trace.json
  // (each span is a one-hop trace, so --require-hops 1 counts them all
  // complete) and load trace.json at chrome://tracing or
  // https://ui.perfetto.dev — one thread row per worker shard.
  {
    pipeline::PipelineOptions opt = pipeOptions(4);
    obs::MetricRegistry registry;
    opt.registry = &registry;
    opt.trace.enabled = true;
    opt.trace.sample_every = 64;
    pipeline::Pipeline4 pipe(suite, &t1, opt);
    pipe.precompute(clue_universe);
    std::vector<NextHop> got(inputs.size(), kNoNextHop);
    const auto stats = pipe.run(inputs, got);

    const auto snap = registry.snapshot();
    // The §3.1.2 case split must account for every packet: the five
    // lookup_case_total series partition lookup_packets_total.
    std::uint64_t case_sum = 0;
    std::printf("observed 4w/b32: %8.2f Mpps  cases {",
                stats.packetsPerSec() / 1e6);
    for (int o = 0; o < static_cast<int>(obs::kOutcomeCount); ++o) {
      const std::string name(obs::outcomeName(static_cast<obs::Outcome>(o)));
      const auto* s = snap.find("lookup_case_total", {{"case", name}});
      const std::uint64_t v = s != nullptr ? s->counter_value : 0;
      case_sum += v;
      std::printf("%s%s=%llu", o == 0 ? "" : " ", name.c_str(),
                  static_cast<unsigned long long>(v));
    }
    const auto* packets = snap.find("lookup_packets_total");
    const std::uint64_t packet_count =
        packets != nullptr ? packets->counter_value : 0;
    const bool partitioned =
        case_sum == packet_count && packet_count == kPackets;
    std::printf("}  sum=%llu %s\n",
                static_cast<unsigned long long>(case_sum),
                partitioned ? "(= packet count)" : "!! CASE/PACKET MISMATCH");
    if (!partitioned) failed = true;

    // Each shard tallies lookup_accesses over a resolve call and adds the
    // tally to its cell at once: the histogram must count every packet once
    // and sum to the run's merged access total (mem_accesses_total over
    // regions), so a lost or doubled flush fails here.
    std::uint64_t merged_accesses = 0;
    for (const auto& s : snap.samples) {
      if (s.desc.name == "mem_accesses_total") {
        merged_accesses += s.counter_value;
      }
    }
    const auto* hist = snap.find("lookup_accesses");
    const obs::HistogramData h =
        hist != nullptr ? hist->hist : obs::HistogramData{};
    const bool tallied = h.count == packet_count && h.sum == merged_accesses;
    std::printf("observed lookup_accesses: count=%llu sum=%llu  "
                "mem_accesses_total=%llu %s\n",
                static_cast<unsigned long long>(h.count),
                static_cast<unsigned long long>(h.sum),
                static_cast<unsigned long long>(merged_accesses),
                tallied ? "(= packets, = accesses)"
                        : "!! HISTOGRAM/ACCESS MISMATCH");
    if (!tallied) failed = true;

    const auto spans = pipe.drainSpans();
    writeFile("pipeline_metrics.prom", obs::toPrometheus(snap));
    writeFile("pipeline_spans.jsonl",
              obs::spansToJsonl(spans, "pipeline_throughput"));
    std::printf("wrote pipeline_metrics.prom, pipeline_spans.jsonl (%zu "
                "spans)\n",
                spans.size());
  }
  return failed ? 1 : 0;
}
