// The wire datapath: single-daemon loopback throughput (a systems benchmark
// beyond the paper's exhibits; it has no E number in EXPERIMENTS.md).
//
// An in-process netio::Daemon forwards clue-tagged UDP datagrams from a
// sender loop to a sink socket over loopback — the full cluertd receive
// path (recvmmsg batch → wire decode → pinned versioned lookup → re-clue →
// sendmmsg), measured end to end. The payload rides a sequence number and a
// send timestamp, so the sink computes delivered pps and per-packet
// latency percentiles without touching the daemon.
//
// --smoke (tools/ci.sh context / acceptance bar): asserts the daemon
// sustains at least CLUERT_WIRE_MIN_PPS delivered packets per second
// (default 100k) with a sane delivery ratio (UDP on loopback still drops
// under overrun; forwarding rate is what is asserted, not losslessness).
//
// --trace-sample N turns on the DESIGN.md §11 span pipeline inside the
// daemon (1-in-N ingress sampling) and reports the in-router phase
// breakdown — decode, lookup, residence — from the drained spans, so the
// cost and the content of tracing are both visible from the artifact. The
// default (0, tracing off) is the perf-comparison configuration: its pps
// must stay within a few percent of the pre-trace datapath.
//
// Artifact: BENCH_wire.json (JsonWriter provenance header: schema version,
// git SHA, hostname, CPU count) including log2 latency histograms.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "netio/daemon.h"
#include "obs/span.h"
#include "rib/table_gen.h"

namespace {

using namespace cluert;
using bench::A;

struct Params {
  bool smoke = false;
  std::size_t table_size = 4'000;
  std::size_t pool = 4'096;        // distinct (dest, clue) wire packets
  std::size_t count = 400'000;     // datagrams injected
  std::uint64_t seed = 7;
  std::size_t workers = 1;         // acceptance bar is single-daemon, 1 shard
  std::uint32_t trace_sample = 0;  // 0 = tracing off (the perf baseline)
};

std::uint64_t minPps() {
  if (const char* s = std::getenv("CLUERT_WIRE_MIN_PPS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 100'000;
}

void putU64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint64_t getU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::string writeRoutes(const std::string& path, const rib::Fib4& fib) {
  std::ofstream out(path);
  out << fib.serialize();
  CLUERT_CHECK(out.good()) << "cannot write " << path;
  return path;
}

// Owns the mkdtemp scratch directory: removes the registered files and the
// directory itself on *every* exit path. The early error returns below used
// to leak /tmp/bench_wire.XXXXXX because cleanup only ran at the end of a
// fully successful run.
struct ScratchDir {
  std::string path;
  std::vector<std::string> files;
  std::string file(const char* name) {
    files.push_back(path + "/" + name);
    return files.back();
  }
  ~ScratchDir() {
    for (const auto& f : files) ::unlink(f.c_str());
    if (!path.empty()) ::rmdir(path.c_str());
  }
};

double percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t idx = std::min(
      v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

// Prometheus-style cumulative histogram over latencies in ns: a log2 ladder
// of `le` bounds in microseconds from 1us to ~32ms plus +Inf, written as an
// array of {le_us, count} objects. Sorts `ns` in place.
void writeHistUs(bench::JsonWriter& w, std::string_view key,
                 std::vector<std::uint64_t>& ns) {
  std::sort(ns.begin(), ns.end());
  w.beginArray(key);
  std::uint64_t bound_ns = 1'000;
  std::size_t i = 0;
  for (int b = 0; b < 16; ++b) {
    while (i < ns.size() && ns[i] <= bound_ns) ++i;
    char le[24];
    std::snprintf(le, sizeof le, "%g", static_cast<double>(bound_ns) / 1e3);
    w.beginObject();
    w.field("le_us", std::string_view(le));
    w.field("count", static_cast<std::uint64_t>(i));
    w.endObject();
    bound_ns *= 2;
  }
  w.beginObject();
  w.field("le_us", std::string_view("+Inf"));
  w.field("count", static_cast<std::uint64_t>(ns.size()));
  w.endObject();
  w.endArray();
}

// Per-phase durations recovered from the daemon's drained spans: what the
// router spent inside this hop, split the way the span model splits it.
struct HopPhases {
  std::vector<std::uint64_t> decode;     // rx -> batch decoded
  std::vector<std::uint64_t> lookup;     // the batch's pinned resolve
  std::vector<std::uint64_t> residence;  // rx -> tx (or lookup end)
  std::uint64_t dropped = 0;
};

HopPhases drainHopPhases(netio::Daemon& daemon) {
  HopPhases out;
  for (std::size_t i = 0; i < daemon.datapathCount(); ++i) {
    auto& d = daemon.datapath(i);
    out.dropped += d.spansDropped();
    for (const obs::PacketSpan& s : d.drainSpans()) {
      if (s.decode_ns >= s.rx_ns) out.decode.push_back(s.decode_ns - s.rx_ns);
      if (s.lookup_end_ns >= s.lookup_start_ns) {
        out.lookup.push_back(s.lookup_end_ns - s.lookup_start_ns);
      }
      const std::uint64_t end = s.tx_ns != 0 ? s.tx_ns : s.lookup_end_ns;
      if (end >= s.rx_ns) out.residence.push_back(end - s.rx_ns);
    }
  }
  return out;
}

int run(const Params& pp) {
  // Tables: this router's FIB plus the upstream table the clues come from.
  Rng rng(pp.seed);
  rib::GenOptions<A> gen;
  gen.size = pp.table_size;
  gen.histogram = rib::internetLengths1999();
  const auto mine = rib::TableGen<A>::generate(rng, gen);
  rib::NeighborOptions<A> nopt;
  nopt.shared = pp.table_size * 9 / 10;
  nopt.fresh = pp.table_size - nopt.shared;
  const auto theirs = rib::TableGen<A>::deriveNeighbor(mine, rng, nopt);
  CLUERT_CHECK(!mine.empty() && !theirs.empty()) << "table generation";

  char dir[] = "/tmp/bench_wire.XXXXXX";
  CLUERT_CHECK(::mkdtemp(dir) != nullptr) << "mkdtemp failed";
  ScratchDir tmp;
  tmp.path = dir;
  const std::string droutes = writeRoutes(tmp.file("r.routes"), mine);
  const std::string nroutes = writeRoutes(tmp.file("n.routes"), theirs);

  // Sink first: its kernel-assigned port becomes the daemon's default peer.
  // Socket setup is environmental (port exhaustion, rlimits): fail with a
  // clean error return, not an abort — the ScratchDir guard must run.
  constexpr std::uint32_t kLoopback = 0x7f000001;
  netio::Fd sink = netio::udpSocket({kLoopback, 0}, false, 8 << 20);
  if (!sink.valid()) {
    std::fprintf(stderr, "bench_wire: FAIL: sink bind failed\n");
    return 1;
  }
  const auto sink_addr = netio::localAddr(sink.get());
  if (!sink_addr.has_value()) {
    std::fprintf(stderr, "bench_wire: FAIL: sink local address lookup\n");
    return 1;
  }

  netio::Config cfg;
  cfg.name = "bench_wire";
  cfg.router_id = 1;
  cfg.listen = {kLoopback, 0};
  cfg.admin = {kLoopback, 0};
  cfg.routes = droutes;
  cfg.neighbor_routes = nroutes;
  cfg.default_peer = *sink_addr;
  cfg.mode = lookup::ClueMode::kSimple;
  cfg.method = lookup::Method::kPatricia;
  cfg.workers = pp.workers;
  cfg.rcvbuf = 8 << 20;
  cfg.trace_sample = pp.trace_sample;
  netio::Daemon daemon(cfg);
  daemon.start();

  // A pool of wire packets whose destinations resolve in the daemon's table
  // (so every one forwards to the sink) and whose clue is the sender's BMP.
  trie::BinaryTrie4 sender_trie;
  for (const auto& e : theirs.entries()) {
    sender_trie.insert(e.prefix, e.next_hop);
  }
  mem::AccessCounter scratch;
  const auto entries = mine.entries();
  constexpr std::size_t kPayload = 16;  // u64 seq, u64 send_ns
  const std::size_t dgram = netio::headerBytes<A>() + kPayload;
  std::vector<std::vector<std::uint8_t>> pool;
  pool.reserve(pp.pool);
  while (pool.size() < pp.pool) {
    const auto& p = entries[rng.index(entries.size())].prefix;
    A dest = p.addr();
    for (int b = p.length(); b < 32; ++b) {
      dest = dest.withBit(b, static_cast<unsigned>(rng.u32() & 1));
    }
    const auto bmp = sender_trie.lookup(dest, scratch);
    netio::WirePacket<A> w;
    w.dest = dest;
    w.clue = bmp ? core::ClueField::of(bmp->prefix.length())
                 : core::ClueField::none();
    w.src_id = 0;
    std::uint8_t payload[kPayload] = {};
    w.payload = {payload, kPayload};
    std::vector<std::uint8_t> buf(dgram);
    CLUERT_CHECK(netio::encode<A>(w, buf) == dgram) << "pool encode";
    pool.push_back(std::move(buf));
  }

  // Sink thread: drain, timestamp, count. Latencies in ns from the payload.
  std::atomic<bool> sender_done{false};
  std::atomic<std::uint64_t> received{0};
  std::vector<std::uint64_t> latencies;
  latencies.reserve(pp.count);
  std::uint64_t last_rx_ns = 0;
  std::uint64_t sink_decode_errors = 0;
  std::thread sink_thread([&] {
    std::vector<netio::DatagramBuf> bufs(64);
    std::uint64_t idle_since = steadyNs();
    for (;;) {
      const int n = netio::recvBatch(sink.get(), bufs.data(), 64);
      if (n <= 0) {
        const std::uint64_t now = steadyNs();
        if (sender_done.load(std::memory_order_acquire) &&
            (received.load(std::memory_order_relaxed) >= pp.count ||
             now - idle_since > 500'000'000ull)) {
          return;
        }
        std::this_thread::yield();
        continue;
      }
      const std::uint64_t now = steadyNs();
      idle_since = now;
      last_rx_ns = now;
      for (int i = 0; i < n; ++i) {
        const auto r = netio::decode<A>(
            std::span<const std::uint8_t>(bufs[i].data.data(), bufs[i].len));
        if (!r.ok() || r.packet.payload.size() != kPayload) {
          ++sink_decode_errors;
          continue;
        }
        const std::uint64_t sent_ns = getU64(r.packet.payload.data() + 8);
        if (now > sent_ns) latencies.push_back(now - sent_ns);
      }
      received.fetch_add(static_cast<std::uint64_t>(n),
                         std::memory_order_relaxed);
    }
  });

  // Sender: full-rate bursts of 64 with retry on backpressure. The daemon's
  // forwarding rate — not the sender's — is what the sink measures.
  netio::Fd tx = netio::udpSocket({kLoopback, 0});
  if (!tx.valid()) {
    std::fprintf(stderr, "bench_wire: FAIL: tx bind failed\n");
    sender_done.store(true, std::memory_order_release);
    sink_thread.join();
    daemon.stop();
    return 1;
  }
  constexpr std::size_t kBurst = 64;
  std::vector<std::vector<std::uint8_t>> burst(kBurst);
  std::vector<netio::OutDatagram> out(kBurst);
  const std::size_t payload_off = netio::headerBytes<A>();
  const std::uint64_t t0 = steadyNs();
  std::uint64_t seq = 0;
  while (seq < pp.count) {
    const std::size_t n = std::min(kBurst, pp.count - seq);
    for (std::size_t i = 0; i < n; ++i) {
      burst[i] = pool[(seq + i) % pool.size()];
      putU64(burst[i].data() + payload_off, seq + i);
      putU64(burst[i].data() + payload_off + 8, steadyNs());
      out[i] = {burst[i].data(), burst[i].size(), daemon.dataAddr()};
    }
    std::size_t done = 0;
    while (done < n) {
      const int acc = netio::sendBatch(tx.get(), out.data() + done,
                                       static_cast<int>(n - done));
      if (acc > 0) {
        done += static_cast<std::size_t>(acc);
      } else {
        std::this_thread::yield();
      }
    }
    seq += n;
  }
  sender_done.store(true, std::memory_order_release);
  sink_thread.join();

  const std::uint64_t got = received.load(std::memory_order_relaxed);
  const double elapsed_s =
      static_cast<double>((last_rx_ns ? last_rx_ns : steadyNs()) - t0) / 1e9;
  const double pps = elapsed_s > 0 ? static_cast<double>(got) / elapsed_s : 0;
  const double ratio =
      static_cast<double>(got) / static_cast<double>(pp.count);
  const double p50_us = percentile(latencies, 0.50) / 1e3;
  const double p99_us = percentile(latencies, 0.99) / 1e3;

  std::uint64_t rx = 0, fwd = 0, no_route = 0, send_errors = 0, decode_err = 0,
                spans_recorded = 0;
  for (std::size_t i = 0; i < daemon.datapathCount(); ++i) {
    auto& d = daemon.datapath(i);
    rx += d.rxPackets();
    fwd += d.txPackets();
    no_route += d.noRoute();
    send_errors += d.sendErrors();
    decode_err += d.decodeErrors();
    spans_recorded += d.spansRecorded();
  }
  HopPhases hop = drainHopPhases(daemon);
  daemon.stop();

  std::printf(
      "bench_wire: sent %zu, delivered %llu (%.1f%%), %.0f pps, "
      "latency p50 %.1fus p99 %.1fus (daemon rx %llu fwd %llu no_route %llu "
      "send_err %llu decode_err %llu)\n",
      pp.count, static_cast<unsigned long long>(got), 100.0 * ratio, pps,
      p50_us, p99_us, static_cast<unsigned long long>(rx),
      static_cast<unsigned long long>(fwd),
      static_cast<unsigned long long>(no_route),
      static_cast<unsigned long long>(send_errors),
      static_cast<unsigned long long>(decode_err));
  if (pp.trace_sample > 0) {
    std::printf(
        "bench_wire: traced 1-in-%u: %zu spans (%llu dropped), hop phases "
        "decode p99 %.1fus lookup p99 %.1fus residence p99 %.1fus\n",
        pp.trace_sample, hop.residence.size(),
        static_cast<unsigned long long>(hop.dropped),
        percentile(hop.decode, 0.99) / 1e3, percentile(hop.lookup, 0.99) / 1e3,
        percentile(hop.residence, 0.99) / 1e3);
  }

  {
    std::ofstream json("BENCH_wire.json");
    bench::JsonWriter w(json);
    w.beginDocument("wire");
    w.field("smoke", pp.smoke);
    w.field("workers", static_cast<std::uint64_t>(pp.workers));
    w.field("table_size", static_cast<std::uint64_t>(pp.table_size));
    w.field("sent", static_cast<std::uint64_t>(pp.count));
    w.field("delivered", got);
    w.field("delivery_ratio", ratio);
    w.field("pps", pps);
    w.field("latency_p50_us", p50_us);
    w.field("latency_p99_us", p99_us);
    w.field("daemon_rx", rx);
    w.field("daemon_forwarded", fwd);
    w.field("daemon_no_route", no_route);
    w.field("daemon_send_errors", send_errors);
    w.field("daemon_decode_errors", decode_err);
    w.field("sink_decode_errors", sink_decode_errors);
    writeHistUs(w, "latency_hist_us", latencies);
    w.field("trace_sample", static_cast<std::uint64_t>(pp.trace_sample));
    w.key("hop");
    w.beginObject();
    w.field("spans", static_cast<std::uint64_t>(hop.residence.size()));
    w.field("spans_recorded", spans_recorded);
    w.field("spans_dropped", hop.dropped);
    w.field("decode_p50_us", percentile(hop.decode, 0.50) / 1e3);
    w.field("decode_p99_us", percentile(hop.decode, 0.99) / 1e3);
    w.field("lookup_p50_us", percentile(hop.lookup, 0.50) / 1e3);
    w.field("lookup_p99_us", percentile(hop.lookup, 0.99) / 1e3);
    w.field("residence_p50_us", percentile(hop.residence, 0.50) / 1e3);
    w.field("residence_p99_us", percentile(hop.residence, 0.99) / 1e3);
    writeHistUs(w, "decode_hist_us", hop.decode);
    writeHistUs(w, "lookup_hist_us", hop.lookup);
    writeHistUs(w, "residence_hist_us", hop.residence);
    w.endObject();
    w.endDocument();
  }
  std::printf("wrote BENCH_wire.json\n");

  if (decode_err != 0 || sink_decode_errors != 0) {
    std::fprintf(stderr, "bench_wire: FAIL: decode errors on a clean wire\n");
    return 1;
  }
  if (pp.smoke) {
    const auto floor = minPps();
    if (pps < static_cast<double>(floor)) {
      std::fprintf(stderr,
                   "bench_wire: FAIL: %.0f pps below the %llu floor "
                   "(CLUERT_WIRE_MIN_PPS)\n",
                   pps, static_cast<unsigned long long>(floor));
      return 1;
    }
    if (ratio < 0.5) {
      std::fprintf(stderr,
                   "bench_wire: FAIL: delivery ratio %.2f (UDP overrun "
                   "beyond any plausible loopback loss)\n",
                   ratio);
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Params pp;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      pp.smoke = true;
      pp.count = 200'000;
    } else if (std::strcmp(argv[i], "--count") == 0 && i + 1 < argc) {
      pp.count = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      pp.workers = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--trace-sample") == 0 && i + 1 < argc) {
      pp.trace_sample = static_cast<std::uint32_t>(std::atol(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_wire [--smoke] [--count N] [--workers W] "
                   "[--trace-sample N]\n");
      return 2;
    }
  }
  return run(pp);
}
