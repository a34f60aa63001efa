// wire_loopback: one in-process netio::Daemon (1 datapath shard, Patricia,
// Advance) forwarding clue-tagged UDP datagrams from a generator socket to
// a sink socket over loopback. Datagrams are the smallest the format allows
// with a 16-byte payload: the sequence number and the due time.
//
// Phases, all from the one generator thread (the main thread):
//   reference  open loop, paced at kReferencePps; latency is timed from
//              each datagram's due time, and the generator's lateness is
//              recorded. A phase whose lateness p99 exceeds kLateBoundUs is
//              invalid and is repeated.
//   saturation closed loop with at most kInFlight datagrams outstanding:
//              the highest rate the daemon forwards with no loss (`pps`).
//   ladder     open loop over kLadder; the highest rung with zero loss and
//              p50 under kLatencyLimitUs is `capacity_pps`. Loss on the
//              first rung past the knee is the probe's answer, not a
//              failure.
// The sink thread checks every datagram: it decodes, its sequence number is
// unique, and its re-stamped clue equals the daemon's BMP length for the
// destination (brute-force oracle).
//
// The traced run (--trace 1) repeats reference and saturation on a daemon
// with 1-in-kTraceSample span sampling (the tracing overhead, and residence
// from the spans), then replays the datapath's per-batch calls on its own
// loopback sockets against an identical VersionedTables: recvBatch, decode,
// pin + bindVersion, processBatch, encode, sendBatch — each timed here.
#include <pthread.h>
#include <sched.h>
#include <sys/stat.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include "netio/daemon.h"
#include "netio/socket.h"
#include "netio/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cluert;
using Port = core::CluePort<A>;

constexpr std::uint32_t kLoopback = 0x7f000001;
constexpr std::size_t kRoutes = 4'000;
constexpr std::size_t kPool = 4'096;
constexpr std::size_t kPayload = 16;  // u64 sequence number, u64 due ns
constexpr int kSetups = 9;
constexpr std::uint16_t kRouterId = 1;
constexpr int kSocketBuf = 8 << 20;
constexpr double kReferencePps = 100'000;
constexpr std::size_t kInFlight = 256;
constexpr double kLateBoundUs = 2'000;
constexpr double kLatencyLimitUs = 1'000;
constexpr double kLadder[] = {50e3, 100e3, 150e3, 200e3, 250e3, 300e3};
constexpr std::uint32_t kTraceSample = 128;
constexpr std::size_t kBurst = pipeline::kMaxBatch;

void putU64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint64_t getU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Pins the calling thread to the k-th CPU the process may run on; threads
// it creates afterwards inherit the pin. The generator, the sink and the
// daemon each get a core of their own, so run-to-run placement does not
// move the figures.
void pinTo(std::size_t k) {
  // The process's set as it started: a pinned thread's own mask is one CPU.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof set, &set);
    return set;
  }();
  std::size_t seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (seen++ != k) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    return;
  }
}

// Thread placement: the k-th allowed CPU of each role.
constexpr std::size_t kGeneratorCpu = 0;
constexpr std::size_t kSinkCpu = 1;
constexpr std::size_t kDaemonCpu = 2;

// A scratch directory for the route files, inside the checkout's build
// directory; removed with its files on every exit path.
struct ScratchDir {
  std::string path;
  std::vector<std::string> files;

  ScratchDir() {
    ::mkdir(".bench_build", 0755);
    char tmpl[] = ".bench_build/wire-XXXXXX";
    CLUERT_CHECK(::mkdtemp(tmpl) != nullptr) << "mkdtemp: " << std::strerror(errno);
    path = tmpl;
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    for (const auto& f : files) ::unlink(f.c_str());
    ::rmdir(path.c_str());
  }
  std::string write(const char* name, const rib::Fib4& fib) {
    files.push_back(path + "/" + name);
    std::ofstream out(files.back());
    out << fib.serialize();
    CLUERT_CHECK(out.good()) << "cannot write " << files.back();
    return files.back();
  }
};

// The tables, the datagram pool and what the daemon must answer for it.
struct Traffic {
  rib::Fib4 mine;    // the daemon's table
  rib::Fib4 theirs;  // the upstream table the clues come from
  std::vector<std::vector<std::uint8_t>> pool;  // encoded, payload zeroed
  std::vector<int> expect_clue;  // daemon's BMP length per pool entry, 0 = none
};

Traffic makeTraffic(std::uint64_t seed) {
  Traffic t;
  Rng rng(seed);
  rib::GenOptions<A> gen;
  gen.size = kRoutes;
  gen.histogram = rib::internetLengths1999();
  t.mine = rib::TableGen<A>::generate(rng, gen);
  rib::NeighborOptions<A> nopt;
  nopt.shared = kRoutes * 9 / 10;
  nopt.fresh = kRoutes - nopt.shared;
  t.theirs = rib::TableGen<A>::deriveNeighbor(t.mine, rng, nopt);
  const trie::BinaryTrie4 sender = t.theirs.buildTrie();
  // Destinations inside the daemon's own prefixes, so every one routes.
  const auto entries = t.mine.entries();
  const std::uint8_t zeros[kPayload] = {};
  while (t.pool.size() < kPool) {
    const auto& p = entries[rng.index(entries.size())].prefix;
    A dest = p.addr();
    for (int b = p.length(); b < 32; ++b) {
      dest = dest.withBit(b, static_cast<unsigned>(rng.u32() & 1));
    }
    netio::WirePacket<A> w;
    w.dest = dest;
    w.clue = senderClue(sender, dest);
    w.payload = {zeros, kPayload};
    std::vector<std::uint8_t> buf(netio::headerBytes<A>() + kPayload);
    CLUERT_CHECK(netio::encode<A>(w, buf) == buf.size()) << "pool encode";
    t.pool.push_back(std::move(buf));
  }
  return t;
}

void computeExpectations(Traffic& t) {
  const BmpOracle oracle(t.mine);
  for (const auto& buf : t.pool) {
    const auto r = netio::decode<A>(buf);
    t.expect_clue.push_back(std::max(0, oracle.lookup(r.packet.dest).first));
  }
}

netio::Config daemonConfig(const std::string& routes,
                           const std::string& neighbor_routes,
                           const netio::SockAddr& sink,
                           std::uint32_t trace_sample) {
  netio::Config cfg;
  cfg.name = "perfbench";
  cfg.router_id = kRouterId;
  cfg.listen = {kLoopback, 0};
  cfg.admin = {kLoopback, 0};
  cfg.routes = routes;
  cfg.neighbor_routes = neighbor_routes;
  cfg.default_peer = sink;
  cfg.method = lookup::Method::kPatricia;
  cfg.mode = lookup::ClueMode::kAdvance;
  cfg.workers = 1;
  cfg.rcvbuf = kSocketBuf;
  cfg.trace_sample = trace_sample;
  return cfg;
}

// The sink thread: receives every forwarded datagram and checks it. lat[s]
// holds datagram s's latency in ns plus one (0: not received yet).
class Sink {
 public:
  // `fd` is bound before the daemons are configured with its address; the
  // thread starts here, once `traffic` is final.
  Sink(netio::Fd fd, std::size_t capacity, const Traffic& traffic)
      : lat_(capacity), traffic_(traffic), fd_(std::move(fd)) {
    thread_ = std::thread([this] { loop(); });
  }
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;
  ~Sink() { stop(); }

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  std::size_t capacity() const { return lat_.size(); }
  std::uint64_t received() const {
    return received_.load(std::memory_order_acquire);
  }
  // 0: not (yet) received.
  std::uint32_t latency(std::uint64_t seq) const {
    return lat_[seq].load(std::memory_order_relaxed);
  }
  void resetPolls() { polls_ = empty_polls_ = 0; }
  double emptyRatio() const {
    return ratio(static_cast<double>(empty_polls_.load()),
                 static_cast<double>(polls_.load()));
  }
  // Checked after stop().
  std::uint64_t undecodable() const { return undecodable_; }
  std::uint64_t wrongClue() const { return wrong_clue_; }
  std::uint64_t duplicates() const { return duplicates_; }

 private:
  void loop() {
    std::vector<netio::DatagramBuf> bufs(kBurst);
    while (!stop_.load(std::memory_order_acquire)) {
      const int n = netio::recvBatch(fd_.get(), bufs.data(),
                                     static_cast<int>(kBurst));
      polls_.fetch_add(1, std::memory_order_relaxed);
      if (n <= 0) {
        empty_polls_.fetch_add(1, std::memory_order_relaxed);
        cpuRelax();
        continue;
      }
      const std::uint64_t now = nowNs();
      std::uint64_t good = 0;
      for (int i = 0; i < n; ++i) {
        const auto r = netio::decode<A>(
            std::span<const std::uint8_t>(bufs[i].data.data(), bufs[i].len));
        if (!r.ok() || r.packet.payload.size() != kPayload) {
          ++undecodable_;
          continue;
        }
        const std::uint64_t seq = getU64(r.packet.payload.data());
        const std::uint64_t due = getU64(r.packet.payload.data() + 8);
        if (seq >= lat_.size()) {
          ++undecodable_;
          continue;
        }
        const int clue = r.packet.clue.present ? r.packet.clue.length : 0;
        if (clue != traffic_.expect_clue[seq % kPool] ||
            r.packet.src_id != kRouterId) {
          ++wrong_clue_;
        }
        const std::uint64_t ns = now > due ? now - due : 0;
        const auto v = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(ns, 0xfffffffeull) + 1);
        if (lat_[seq].exchange(v, std::memory_order_relaxed) != 0) {
          ++duplicates_;
        }
        ++good;
      }
      received_.fetch_add(good, std::memory_order_release);
    }
  }

  std::vector<std::atomic<std::uint32_t>> lat_;
  const Traffic& traffic_;
  netio::Fd fd_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> polls_{0}, empty_polls_{0};
  std::uint64_t undecodable_ = 0, wrong_clue_ = 0, duplicates_ = 0;
  std::thread thread_;  // last: it uses every member above
};

struct PhaseResult {
  std::uint64_t lo = 0, hi = 0;  // sequence numbers [lo, hi)
  std::vector<double> late_us;   // generator lateness per datagram (paced)
  double pps = 0;                // delivered per second (closed loop)
  std::uint64_t lost = 0;
  // Receive-queue overflows the kernel counted during the phase.
  std::uint64_t kernel_drops = 0;
  UdpSnmp snmp0;
  double p50_us = 0, p90_us = 0, p99_us = 0;
  double late_p99_us() const { return quantile(late_us, 0.99); }
};

// The generator: the main thread, one UDP socket, a global sequence.
class Generator {
 public:
  Generator(const Traffic& traffic, Sink& sink) : traffic_(traffic), sink_(sink) {
    fd_ = netio::udpSocket({kLoopback, 0}, false, 0);
    CLUERT_CHECK(fd_.valid()) << "generator bind";
    for (auto& b : burst_) b.resize(traffic.pool[0].size());
  }

  bool full(std::size_t more) const { return seq_ + more > sink_.capacity(); }

  // Open loop at `rate` for `seconds`: datagram i is due at t0 + i/rate and
  // is sent as soon as it is due, with every other due datagram (≤ kBurst).
  PhaseResult paced(const netio::SockAddr& to, double rate, double seconds) {
    PhaseResult r;
    r.lo = seq_;
    r.snmp0 = UdpSnmp::read();
    const auto n = static_cast<std::uint64_t>(rate * seconds);
    if (full(n)) return finish(r);
    r.late_us.reserve(n);
    const double interval = 1e9 / rate;
    const std::uint64_t t0 = nowNs() + 1'000'000;
    const auto due = [&](std::uint64_t i) {
      return t0 + static_cast<std::uint64_t>(static_cast<double>(i) * interval);
    };
    for (std::uint64_t i = 0; i < n;) {
      const std::uint64_t now = nowNs();
      if (due(i) > now) {
        cpuRelax();
        continue;
      }
      std::size_t k = 0;
      for (; k < kBurst && i + k < n && due(i + k) <= now; ++k) {
        fill(k, due(i + k), to);
        r.late_us.push_back(static_cast<double>(now - due(i + k)) / 1e3);
      }
      send(k);
      i += k;
    }
    return finish(r);
  }

  // Closed loop: keeps at most kInFlight datagrams between the generator
  // and the sink; the delivered rate over the whole window. The host's
  // loopback throughput moves between levels for seconds at a time; the
  // window's mean mixes them in proportion, where a median of short slices
  // would jump to whichever level held the majority.
  PhaseResult saturate(const netio::SockAddr& to, double seconds) {
    PhaseResult r;
    r.lo = seq_;
    r.snmp0 = UdpSnmp::read();
    const std::uint64_t base = seq_ - sink_.received();  // lost earlier
    const std::uint64_t rx0 = sink_.received();
    const std::uint64_t t0 = nowNs();
    const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t stalled_since = 0;
    std::uint64_t written_off = 0;  // presumed lost, so the window reopens
    std::uint64_t now = t0;
    while (!full(kBurst) && (now = nowNs()) < end) {
      const std::uint64_t in_flight =
          seq_ - sink_.received() - base - written_off;
      if (in_flight >= kInFlight) {
        if (stalled_since == 0) stalled_since = now;
        if (now - stalled_since > 50'000'000) written_off += in_flight;
        cpuRelax();
        continue;
      }
      stalled_since = 0;
      const std::size_t k = std::min(kBurst, kInFlight - in_flight);
      for (std::size_t j = 0; j < k; ++j) fill(j, now, to);
      send(k);
    }
    r.pps = static_cast<double>(sink_.received() - rx0) * 1e9 /
            static_cast<double>(nowNs() - t0);
    return finish(r, false);
  }

 private:
  void fill(std::size_t k, std::uint64_t due, const netio::SockAddr& to) {
    const std::uint64_t seq = seq_ + k;
    auto& b = burst_[k];
    std::memcpy(b.data(), traffic_.pool[seq % kPool].data(), b.size());
    putU64(b.data() + netio::headerBytes<A>(), seq);
    putU64(b.data() + netio::headerBytes<A>() + 8, due);
    out_[k] = {b.data(), b.size(), to};
  }

  void send(std::size_t k) {
    for (std::size_t done = 0; done < k;) {
      const int n = netio::sendBatch(fd_.get(), out_.data() + done,
                                     static_cast<int>(k - done));
      if (n > 0) done += static_cast<std::size_t>(n);
    }
    seq_ += k;
  }

  // Waits until the phase's datagrams arrived (or 200 ms passed without
  // one arriving), then counts loss and, for paced phases, latency
  // quantiles. Saturation keeps no per-datagram array, so peak memory does
  // not follow the rate reached.
  PhaseResult finish(PhaseResult& r, bool latency = true) {
    r.hi = seq_;
    std::uint64_t last = sink_.received();
    std::uint64_t quiet_since = nowNs();
    while (nowNs() - quiet_since < 200'000'000) {
      const std::uint64_t rx = sink_.received();
      if (rx != last) {
        last = rx;
        quiet_since = nowNs();
      }
      bool all = true;
      for (std::uint64_t s = r.hi; s > r.lo && all; --s) {
        all = sink_.latency(s - 1) != 0;
        if (r.hi - s > 64) break;  // the tail is representative
      }
      if (all) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<std::uint32_t> lat;
    if (latency) lat.reserve(r.hi - r.lo);
    for (std::uint64_t s = r.lo; s < r.hi; ++s) {
      const std::uint32_t v = sink_.latency(s);
      if (v == 0) {
        ++r.lost;
      } else if (latency) {
        lat.push_back(v - 1);
      }
    }
    std::sort(lat.begin(), lat.end());
    const auto at = [&](double q) {
      return lat.empty() ? 0.0
                         : static_cast<double>(lat[static_cast<std::size_t>(
                               q * static_cast<double>(lat.size() - 1))]) /
                               1e3;
    };
    r.p50_us = at(0.50);
    r.p90_us = at(0.90);
    r.p99_us = at(0.99);
    r.kernel_drops = (UdpSnmp::read() - r.snmp0).rcvbuf_errors;
    return std::move(r);
  }

  const Traffic& traffic_;
  Sink& sink_;
  netio::Fd fd_;
  std::uint64_t seq_ = 0;
  std::array<std::vector<std::uint8_t>, kBurst> burst_;
  std::array<netio::OutDatagram, kBurst> out_;
};

// One daemon set-up: route files written, Daemon built and started.
struct Rig {
  std::unique_ptr<netio::Daemon> daemon;
  double start_s = 0;
};

Rig startDaemon(const ScratchDir& dir, const netio::SockAddr& sink,
                std::uint32_t trace_sample) {
  pinTo(kDaemonCpu);  // the daemon's threads inherit it
  Rig rig;
  const std::uint64_t t = nowNs();
  rig.daemon = std::make_unique<netio::Daemon>(
      daemonConfig(dir.files[0], dir.files[1], sink, trace_sample));
  rig.daemon->start();
  rig.start_s = secondsSince(t);
  pinTo(kGeneratorCpu);
  return rig;
}

// Loss in a phase where none is expected fails the run.
// Loss the kernel counted as receive-queue overflow happened outside the
// program: a thread was off its core long enough for a socket queue to
// fill (the host steals whole milliseconds). The rest is the daemon's.
void account(const PhaseResult& r, Report& report) {
  report.attempt(r.hi - r.lo);
  report.fail(r.lost - std::min(r.lost, r.kernel_drops),
              "datagrams lost in the daemon");
}

// A paced phase, repeated (up to three tries) while the generator ran
// later than kLateBoundUs at p99 or a socket queue overflowed. A phase that
// stays so is marked invalid: its figures describe the host's stalls, not
// the daemon.
PhaseResult pacedValid(Generator& gen, const netio::SockAddr& to, double rate,
                       double seconds, Report& report, const char* name) {
  PhaseResult r;
  for (int attempt = 0; attempt < 3; ++attempt) {
    r = gen.paced(to, rate, seconds);
    if (r.late_p99_us() <= kLateBoundUs && r.kernel_drops == 0) return r;
    std::fprintf(stderr, "perfbench: %s: generator p99 lateness %.0f us "
                 "(bound %.0f us), %llu kernel queue drops; phase invalid, "
                 "repeating\n", name, r.late_p99_us(), kLateBoundUs,
                 static_cast<unsigned long long>(r.kernel_drops));
    account(r, report);
  }
  report.info(name, "invalid: the host stalled the generator or a queue");
  return r;
}

double accessesPerPacket(netio::Daemon& d) {
  const auto snap = d.registry().snapshot();
  const obs::MetricSample* s = snap.find("lookup_accesses");
  return s == nullptr ? 0.0
                      : ratio(static_cast<double>(s->hist.sum),
                              static_cast<double>(s->hist.count));
}

double rxBatchFill(netio::Daemon& d) {
  std::vector<double> n;
  for (const obs::FlightEvent& e : d.flight().ring(0).snapshot()) {
    if (e.kind == obs::FlightKind::kRxBatch) n.push_back(static_cast<double>(e.a));
  }
  double sum = 0;
  for (double v : n) sum += v;
  return ratio(sum, static_cast<double>(n.size()));
}

// Per-packet ns of the datapath's layer calls, replayed on this thread.
struct Replay {
  double rx = 0, decode = 0, pin_per_batch = 0, resolve = 0, encode = 0, tx = 0;
  double tx_short_ratio = 0;
  double build_s = 0;
  mem::AccessCounter acc;
  Port::Stats stats;
  std::uint64_t packets = 0;
  double perPacket() const {
    return rx + decode + resolve + encode + tx;
  }
};

Replay replayDatapath(const Traffic& traffic, std::size_t batch, double seconds,
                      Report& report) {
  Replay rp;
  std::uint64_t t = nowNs();
  rib::VersionedTables4::Options vopt;
  vopt.method = lookup::Method::kPatricia;
  vopt.mode = lookup::ClueMode::kAdvance;
  rib::VersionedTables4 tables(traffic.mine, traffic.theirs, vopt);
  rp.build_s = secondsSince(t);
  Port::Options popt;
  popt.method = lookup::Method::kPatricia;
  popt.mode = lookup::ClueMode::kAdvance;
  popt.learn = false;
  Port port(popt);

  netio::Fd gen = netio::udpSocket({kLoopback, 0}, false, 0);
  netio::Fd rx = netio::udpSocket({kLoopback, 0}, false, kSocketBuf);
  netio::Fd tx = netio::udpSocket({kLoopback, 0}, false, 0);
  netio::Fd sink = netio::udpSocket({kLoopback, 0}, false, kSocketBuf);
  CLUERT_CHECK(gen.valid() && rx.valid() && tx.valid() && sink.valid())
      << "replay sockets";
  const netio::SockAddr rx_addr = *netio::localAddr(rx.get());
  const netio::SockAddr sink_addr = *netio::localAddr(sink.get());

  std::vector<netio::DatagramBuf> bufs(kBurst), sunk(kBurst);
  std::array<netio::OutDatagram, kBurst> out;
  std::array<netio::WirePacket<A>, kBurst> pkts;
  std::array<A, kBurst> dests;
  std::array<core::ClueField, kBurst> clues;
  std::array<Port::Result, kBurst> results;
  std::array<std::array<std::uint8_t, netio::kMaxDatagram>, kBurst> txbuf;
  std::array<std::size_t, kBurst> pool_of;
  std::uint64_t ns[6] = {};
  std::uint64_t batches = 0, short_sends = 0, seq = 0;
  const std::uint64_t end = nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  while (nowNs() < end) {
    for (std::size_t k = 0; k < batch; ++k, ++seq) {
      pool_of[k] = seq % kPool;
      out[k] = {traffic.pool[pool_of[k]].data(), traffic.pool[pool_of[k]].size(),
                rx_addr};
    }
    for (std::size_t done = 0; done < batch;) {
      const int n = netio::sendBatch(gen.get(), out.data() + done,
                                     static_cast<int>(batch - done));
      if (n > 0) done += static_cast<std::size_t>(n);
    }
    const std::uint64_t t0 = nowNs();
    std::size_t n = 0;
    while (n < batch) {
      const int got = netio::recvBatch(rx.get(), bufs.data() + n,
                                       static_cast<int>(batch - n));
      if (got > 0) n += static_cast<std::size_t>(got);
    }
    const std::uint64_t t1 = nowNs();
    for (std::size_t k = 0; k < n; ++k) {
      const auto r = netio::decode<A>({bufs[k].data.data(), bufs[k].len});
      pkts[k] = r.packet;
      dests[k] = r.packet.dest;
      clues[k] = r.packet.clue;
    }
    const std::uint64_t t2 = nowNs();
    std::uint64_t t3 = 0, t4 = 0;
    {
      const auto g = tables.pin(0);
      port.bindVersion(g->seq, *g->suite, g->clues, &g->neighbor_trie);
      t3 = nowNs();
      port.processBatch({dests.data(), n}, {clues.data(), n},
                        {results.data(), n}, rp.acc);
      t4 = nowNs();
    }
    for (std::size_t k = 0; k < n; ++k) {
      netio::WirePacket<A> fwd;
      const auto& m = results[k].match;
      fwd.dest = pkts[k].dest;
      fwd.clue = m && m->prefix.length() > 0
                     ? core::ClueField::of(m->prefix.length())
                     : core::ClueField::none();
      fwd.ttl = static_cast<std::uint8_t>(pkts[k].ttl - 1);
      fwd.src_id = kRouterId;
      fwd.payload = pkts[k].payload;
      out[k] = {txbuf[k].data(), netio::encode<A>(fwd, txbuf[k]), sink_addr};
    }
    const std::uint64_t t5 = nowNs();
    const int sent = netio::sendBatch(tx.get(), out.data(), static_cast<int>(n));
    const std::uint64_t t6 = nowNs();
    short_sends += sent < static_cast<int>(n) ? 1 : 0;
    ns[0] += t1 - t0;
    ns[1] += t2 - t1;
    ns[2] += t3 - t2;
    ns[3] += t4 - t3;
    ns[4] += t5 - t4;
    ns[5] += t6 - t5;
    ++batches;
    rp.packets += n;
    // Drain and check the re-stamped clues (untimed).
    std::size_t k = 0;
    std::uint64_t bad = 0;
    for (int idle = 0; k < n && idle < 1'000'000;) {
      const int got = netio::recvBatch(sink.get(), sunk.data(),
                                       static_cast<int>(n - k));
      if (got <= 0) {
        ++idle;
        continue;
      }
      for (int j = 0; j < got; ++j, ++k) {
        const auto r = netio::decode<A>({sunk[j].data.data(), sunk[j].len});
        const int clue = r.ok() && r.packet.clue.present ? r.packet.clue.length : 0;
        bad += !r.ok() || clue != traffic.expect_clue[pool_of[k]] ? 1 : 0;
      }
    }
    report.attempt(n);
    report.fail(bad + (n - k), "replayed datagrams lost or re-stamped wrong");
  }
  const double pkts_d = static_cast<double>(rp.packets);
  rp.rx = ratio(static_cast<double>(ns[0]), pkts_d);
  rp.decode = ratio(static_cast<double>(ns[1]), pkts_d);
  rp.pin_per_batch = ratio(static_cast<double>(ns[2]), static_cast<double>(batches));
  rp.resolve = ratio(static_cast<double>(ns[3]), pkts_d);
  rp.encode = ratio(static_cast<double>(ns[4]), pkts_d);
  rp.tx = ratio(static_cast<double>(ns[5]), pkts_d);
  rp.tx_short_ratio =
      ratio(static_cast<double>(short_sends), static_cast<double>(batches));
  rp.stats = port.stats();
  return rp;
}

}  // namespace

std::size_t wireBusyThreads(std::size_t) {
  return 3;  // generator, sink, the daemon's one datapath shard
}

void runWire(const Args& args, Report& report) {
  const double s = args.seconds;
  std::vector<double> setups, starts;
  double gen_s = 0;
  Traffic traffic;
  ScratchDir dir;
  netio::Fd sink_fd = netio::udpSocket({kLoopback, 0}, false, kSocketBuf);
  CLUERT_CHECK(sink_fd.valid()) << "sink bind";
  const netio::SockAddr sink_addr = *netio::localAddr(sink_fd.get());
  Rig rig;
  for (int k = 0; k < kSetups; ++k) {
    rig.daemon.reset();
    std::uint64_t t = nowNs();
    traffic = makeTraffic(args.seed);
    dir.files.clear();
    dir.write("mine.routes", traffic.mine);
    dir.write("theirs.routes", traffic.theirs);
    gen_s = secondsSince(t);
    rig = startDaemon(dir, sink_addr, 0);
    setups.push_back(gen_s + rig.start_s);
    starts.push_back(rig.start_s);
  }
  computeExpectations(traffic);
  // Sized for the most datagrams the phases send at up to ~600k pps.
  pinTo(kSinkCpu);
  Sink sink(std::move(sink_fd), static_cast<std::size_t>(s * 600'000) + 1'000'000,
            traffic);
  pinTo(kGeneratorCpu);
  const netio::SockAddr to = rig.daemon->dataAddr();
  Generator gen(traffic, sink);
  const UdpSnmp snmp0 = UdpSnmp::read();

  // Shares of the run: saturation gets the most, because the host's
  // loopback throughput drifts over seconds and only a long window
  // averages that out.
  const double ref_s = s * (args.trace ? 0.1 : 0.15);
  const double sat_s = s * (args.trace ? 0.25 : 0.6);
  const double ladder_s = s * (args.trace ? 0.1 : 0.15);
  account(gen.paced(to, kReferencePps, 0.5), report);  // warm-up
  sink.resetPolls();
  const PhaseResult ref =
      pacedValid(gen, to, kReferencePps, ref_s, report, "reference_phase");
  const double empty_ratio = sink.emptyRatio();
  account(ref, report);
  const PhaseResult sat = gen.saturate(to, sat_s);
  account(sat, report);
  const double fill = rxBatchFill(*rig.daemon);

  // The ladder: verified like every phase, but loss past the knee is the
  // probe's answer.
  double capacity = 0;
  const double rung_s = ladder_s / std::size(kLadder);
  for (const double rate : kLadder) {
    const PhaseResult r = gen.paced(to, rate, rung_s);
    report.attempt(r.hi - r.lo);
    std::printf("ladder %.0f pps: lost %llu, p50 %.1f us, p99 %.1f us, "
                "generator late p99 %.1f us\n",
                rate, static_cast<unsigned long long>(r.lost), r.p50_us,
                r.p99_us, r.late_p99_us());
    if (r.lost != 0 || r.p50_us > kLatencyLimitUs ||
        r.late_p99_us() > kLateBoundUs) {
      break;
    }
    capacity = rate;
  }
  std::uint64_t decode_errors = 0, send_errors = 0;
  for (std::size_t i = 0; i < rig.daemon->datapathCount(); ++i) {
    decode_errors += rig.daemon->datapath(i).decodeErrors();
    send_errors += rig.daemon->datapath(i).sendErrors();
  }
  const double accesses = accessesPerPacket(*rig.daemon);
  rig.daemon->stop();

  report.e2e("setup_s", median(setups), "s");
  report.e2e("pps", sat.pps, "1/s");
  report.e2e("accesses_per_packet", accesses, "count");
  report.layer("capacity_pps", capacity, "1/s");
  report.layer("latency_p50_us", ref.p50_us, "us");
  report.layer("latency_p90_us", ref.p90_us, "us");
  report.layer("latency_p99_us", ref.p99_us, "us");
  report.layer("load.gen_late_p99_us", ref.late_p99_us(), "us");
  report.layer("load.busy_threads", static_cast<double>(wireBusyThreads(args.nproc)),
               "count");
  report.layer("netio.rx_batch_fill", fill / kBurst, "ratio");
  report.layer("netio.rx_empty_ratio", empty_ratio, "ratio");
  report.layer("netio.daemon_decode_errors", static_cast<double>(decode_errors),
               "count");
  report.layer("netio.daemon_send_errors", static_cast<double>(send_errors),
               "count");
  report.layer("netio.daemon_start_s", median(starts), "s");
  report.layer("rib.tablegen_s", gen_s, "s");
  report.info("wire_loopback",
              "routes=" + std::to_string(traffic.mine.size()) +
                  " reference_pps=" + std::to_string(kReferencePps) +
                  " reference_sent=" + std::to_string(ref.hi - ref.lo) +
                  " saturation_sent=" + std::to_string(sat.hi - sat.lo) +
                  " in_flight=" + std::to_string(kInFlight));

  if (args.trace) {
    Rig traced = startDaemon(dir, sink_addr, kTraceSample);
    const netio::SockAddr tto = traced.daemon->dataAddr();
    account(gen.paced(tto, kReferencePps, 0.3), report);  // warm-up
    traced.daemon->datapath(0).drainSpans();
    const PhaseResult tref = pacedValid(gen, tto, kReferencePps, s * 0.1, report,
                                         "traced_reference_phase");
    account(tref, report);
    std::vector<std::uint64_t> residence;
    for (const obs::PacketSpan& sp : traced.daemon->datapath(0).drainSpans()) {
      if (sp.tx_ns >= sp.rx_ns && sp.tx_ns != 0) residence.push_back(sp.tx_ns - sp.rx_ns);
    }
    const PhaseResult tsat = gen.saturate(tto, s * 0.15);
    account(tsat, report);
    traced.daemon->stop();
    const double residence_us = quantile(residence, 0.5) / 1e3;
    report.layer("netio.residence_p50_us", residence_us, "us");
    report.layer("netio.queue_wait_p50_us", tref.p50_us - residence_us, "us");
    report.layer("ledger.trace_overhead_ratio",
                 1.0 - ratio(tsat.pps, sat.pps),
                 "ratio");

    // The replay batches as full as the daemon's receive batches were at
    // saturation, so per-batch costs spread over the same packet count.
    const auto batch = static_cast<std::size_t>(
        std::clamp(std::lround(fill), 1l, static_cast<long>(kBurst)));
    const Replay rp = replayDatapath(traffic, batch, s * 0.08, report);
    const double n = static_cast<double>(rp.packets);
    report.layer("netio.rx_ns_per_pkt", rp.rx, "ns");
    report.layer("netio.decode_ns_per_pkt", rp.decode, "ns");
    report.layer("netio.encode_ns_per_pkt", rp.encode, "ns");
    report.layer("netio.tx_ns_per_pkt", rp.tx, "ns");
    report.layer("netio.tx_short_ratio", rp.tx_short_ratio, "ratio");
    report.layer("pipeline.pin_ns_per_batch", rp.pin_per_batch, "ns");
    report.layer("core.resolve_ns_per_pkt", rp.resolve, "ns");
    report.layer("core.table_hit_ratio",
                 ratio(static_cast<double>(rp.stats.table_hits),
                       static_cast<double>(rp.stats.table_hits +
                                           rp.stats.table_misses)),
                 "ratio");
    report.layer("core.fd_direct_ratio",
                 ratio(static_cast<double>(rp.stats.fd_direct), n), "ratio");
    report.layer("core.searched_ratio",
                 ratio(static_cast<double>(rp.stats.searched), n), "ratio");
    report.layer("core.search_failed_ratio",
                 ratio(static_cast<double>(rp.stats.search_failed), n), "ratio");
    report.layer("core.no_clue_ratio",
                 ratio(static_cast<double>(rp.stats.no_clue), n), "ratio");
    report.layer("core.clue_table_accesses_per_pkt",
                 ratio(static_cast<double>(rp.acc.count(mem::Region::kClueTable)), n),
                 "count");
    report.layer("lookup.trie_accesses_per_pkt",
                 ratio(static_cast<double>(rp.acc.count(mem::Region::kTrieNode)), n),
                 "count");
    report.layer("lookup.fib_accesses_per_pkt",
                 ratio(static_cast<double>(rp.acc.count(mem::Region::kFibEntry)), n),
                 "count");
    report.layer("rib.build_s", rp.build_s, "s");
    // The datapath thread's ns per packet at saturation against the self
    // time of its layer calls; epoll and loop overhead stay unattributed.
    const double layers =
        rp.perPacket() + ratio(rp.pin_per_batch, static_cast<double>(batch));
    report.layer("ledger.unattributed_ratio",
                 1.0 - ratio(layers, ratio(1e9, sat.pps)), "ratio");
  }

  sink.stop();
  report.fail(sink.undecodable(), "datagrams failed to decode at the sink");
  report.fail(sink.wrongClue(), "datagrams re-stamped with a wrong clue");
  report.fail(sink.duplicates(), "datagrams delivered twice");
  const UdpSnmp snmp = UdpSnmp::read() - snmp0;
  report.layer("netio.kernel_rcvbuf_drops", static_cast<double>(snmp.rcvbuf_errors),
               "count");
  report.layer("netio.kernel_sndbuf_drops", static_cast<double>(snmp.sndbuf_errors),
               "count");
  report.layer("netio.kernel_in_errors", static_cast<double>(snmp.in_errors),
               "count");
  report.e2e("peak_rss_mb", peakRssMiB(), "MiB");
}

}  // namespace perfbench
