// Pipeline throughput: a two-router clue path driven through the batched
// multi-worker data plane (src/pipeline/).
//
// Router R1 forwards a stream of packets toward router R2, attaching its
// clue to each (the Network's send path policy). Instead of processing the
// stream one packet at a time, R2 feeds it through a Pipeline: batches of 32
// packets fan out over worker shards, each shard owning its own clue table
// and access counters, with software prefetch interleaved across every batch
// before any packet is resolved. The forwarding decisions are identical to
// the sequential path — only the execution model changes.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build --target pipeline_throughput
//   ./build/examples/pipeline_throughput
#include <chrono>
#include <cstdio>
#include <vector>

#include "net/network.h"
#include "obs/export.h"
#include "rib/table_gen.h"

using namespace cluert;

int main() {
  using A = ip::Ip4Addr;

  // --- Two routers with paper-style neighboring tables, one link. --------
  Rng rng(1999);
  rib::GenOptions<A> gopt;
  gopt.size = 10'000;
  gopt.histogram = rib::internetLengths1999();
  auto r1_fib = rib::TableGen<A>::generate(rng, gopt);
  rib::NeighborOptions<A> nopt;
  nopt.shared = 8'500;
  nopt.fresh = 400;
  auto r2_fib = rib::TableGen<A>::deriveNeighbor(r1_fib, rng, nopt);

  net::Network4 netw;
  net::Router4::Config cfg;  // defaults: clues enabled, Advance mode
  netw.addRouter(0, std::move(r1_fib), cfg);
  netw.addRouter(1, std::move(r2_fib), cfg);
  netw.link(0, 1);

  // --- A packet stream: random addresses biased under R1's prefixes. -----
  const std::size_t kPackets = 200'000;
  std::vector<A> dests;
  dests.reserve(kPackets);
  const auto& entries = netw.router(0).fib().entries();
  for (std::size_t i = 0; i < kPackets; ++i) {
    const auto& p = entries[rng.index(entries.size())].prefix;
    A d = p.addr();
    for (int b = p.length(); b < 32; ++b) {
      d = d.withBit(b, static_cast<unsigned>(rng.u32() & 1));
    }
    dests.push_back(d);
  }

  // R1's side of the link: the same clue each packet would carry on the
  // wire (attach policy, export filter, truncation).
  const auto inputs = netw.clueStream(0, dests);

  // --- R2's side: sequential baseline, then the pipeline. ----------------
  bool failed = false;  // any mismatch below makes the exit status 1
  std::vector<NextHop> sequential(inputs.size(), kNoNextHop);
  mem::AccessCounter seq_acc;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    net::Packet4 packet;
    packet.dest = inputs[i].dest;
    packet.clue = inputs[i].clue;
    const auto d = netw.router(1).forward(packet, 0, seq_acc);
    sequential[i] = d.match ? d.match->next_hop : kNoNextHop;
  }
  const double seq_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("sequential: %8.2f Mpps  (%.3f accesses/pkt)\n",
              static_cast<double>(kPackets) / seq_s / 1e6,
              static_cast<double>(seq_acc.total()) /
                  static_cast<double>(kPackets));

  for (const std::size_t workers : {1, 2, 4}) {
    pipeline::PipelineOptions opt;
    opt.workers = workers;
    opt.batch_size = 32;
    auto pipe = netw.makePipeline(1, 0, opt);
    std::vector<NextHop> got(inputs.size(), kNoNextHop);
    const auto stats = pipe->run(inputs, got);
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
    pipeline::PipelineOptions opt;
    opt.workers = 4;
    opt.batch_size = 32;
    obs::MetricRegistry registry;
    opt.registry = &registry;
    opt.trace.enabled = true;
    opt.trace.sample_every = 64;
    auto pipe = netw.makePipeline(1, 0, opt);
    std::vector<NextHop> got(inputs.size(), kNoNextHop);
    const auto stats = pipe->run(inputs, got);

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

    const auto spans = pipe->drainSpans();
    obs::writeFile("pipeline_metrics.prom", obs::toPrometheus(snap));
    obs::writeFile("pipeline_spans.jsonl",
                   obs::spansToJsonl(spans, "pipeline_throughput"));
    std::printf("wrote pipeline_metrics.prom, pipeline_spans.jsonl (%zu "
                "spans)\n",
                spans.size());
  }
  return failed ? 1 : 0;
}
