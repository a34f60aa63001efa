// wire_play — the traffic side of the cluertd topology harness
// (tools/topo_run.sh). Four subcommands, all IPv4:
//
//   gen --out DIR --hops N [--size S] [--seed X] [--shared F]
//       Generates a chain of neighbor-derived tables: DIR/inj.routes (the
//       injector's table, i.e. hop 1's neighbor) and DIR/hop1..hopN.routes,
//       each derived from its predecessor with `shared` fraction of common
//       prefixes — the similarity knob the clue mechanism lives off.
//
//   gen --out DIR --ring N [--size S] [--seed X]
//       Ring variant: one shared prefix universe (per-node /16 blocks plus
//       random sub-prefixes), written N times as DIR/ring0..ring{N-1}.routes
//       with next hops pointing the ring-shortest direction toward each
//       block's owner (the owner's own blocks carry next hop = its id, which
//       topo_run.sh maps to the collector via peer.<id>). DIR/inj.routes is
//       node 0's table, so the injector's clue stamps stay genuine.
//
//   inject --to IP:PORT --tables f0,f1,...,fN --count N [--seed X]
//          [--pps R] [--src-id K] [--ttl T]
//       Draws destinations that have a BMP in EVERY listed table (so the
//       full line delivers them), stamps each packet with the clue the
//       injector's table (f0) yields — its own BMP length, per §2 — and a
//       16-byte payload of {seq, send_ns}, then sends paced UDP.
//
//   collect --listen IP:PORT --expect N [--timeout-ms M] [--out FILE]
//       Binds the end-of-line sink, receives until N packets or timeout,
//       decodes each, and writes a summary line. Exit 0 iff all N arrived
//       and decoded.
//
//   get IP:PORT PATH
//       Minimal HTTP GET against a cluertd admin endpoint; body to stdout.
//       (Keeps the harness dependency-free — no curl in the container.)
//
// A flag value that is not a number of the flag's type (a sign, a stray
// byte, a --ttl past 255) is a usage error: exit 2 before any work.
#define _GNU_SOURCE 1

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/text.h"
#include "mem/access_counter.h"
#include "netio/socket.h"
#include "netio/wire.h"
#include "rib/fib.h"
#include "rib/internet_gen.h"
#include "rib/table_gen.h"
#include "trie/binary_trie.h"

namespace {

using cluert::readFile;
using cluert::Rng;
using cluert::steadyNs;
using cluert::writeFile;
using cluert::ip::Ip4Addr;
using A = Ip4Addr;

int usage() {
  std::fprintf(stderr,
               "usage: wire_play gen|inject|collect|get [options]\n");
  return 2;
}

struct Args {
  std::vector<std::string> positional;
  std::string get(const std::string& key, const std::string& def = "") const {
    for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
      if (raw[i] == key) return raw[i + 1];
    }
    return def;
  }
  // The value of `key` as a T, `def` when the flag is absent; a value that
  // is not a T ends the run with the usage text.
  template <typename T>
  T number(const std::string& key, T def) const {
    const std::string v = get(key);
    if (v.empty()) return def;
    const auto n = cluert::parseNumber<T>(v);
    if (!n) {
      std::fprintf(stderr, "bad value for %s: %s\n", key.c_str(), v.c_str());
      std::exit(usage());
    }
    return *n;
  }
  std::vector<std::string> raw;
};

std::vector<std::string> splitComma(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    out.push_back(s.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// gen --ring: the shared universe + per-node ring-shortest next hops.
int cmdGenRing(const std::string& dir, std::size_t nodes, std::size_t size,
               std::uint64_t seed) {
  using MatchT = cluert::trie::Match<A>;
  Rng rng(seed);
  // Universe: for each owner k, the block 10.(k+1).0.0/16 plus sub-prefixes
  // inside it. Every node shares this prefix set — only next hops differ —
  // so a clue stamped by any ring neighbor is genuine at every receiver.
  struct Owned {
    cluert::ip::Prefix4 prefix;
    std::size_t owner;
  };
  std::vector<Owned> universe;
  const std::size_t per_node = std::max<std::size_t>(size / nodes, 1);
  for (std::size_t k = 0; k < nodes; ++k) {
    const Ip4Addr block(
        (10u << 24) | (static_cast<std::uint32_t>(k + 1) << 16));
    universe.push_back(Owned{cluert::ip::Prefix4(block, 16), k});
    for (std::size_t i = 1; i < per_node; ++i) {
      const int len = static_cast<int>(rng.uniform(18, 26));
      Ip4Addr addr = block;
      for (int b = 16; b < len; ++b) {
        addr = addr.withBit(b, static_cast<unsigned>(rng.u32() & 1));
      }
      universe.push_back(Owned{cluert::ip::Prefix4(addr, len), k});
    }
  }
  for (std::size_t j = 0; j < nodes; ++j) {
    std::vector<MatchT> entries;
    entries.reserve(universe.size());
    for (const Owned& o : universe) {
      std::size_t nh = j;
      if (o.owner != j) {
        const std::size_t cw = (o.owner + nodes - j) % nodes;   // via j+1
        const std::size_t ccw = (j + nodes - o.owner) % nodes;  // via j-1
        nh = cw <= ccw ? (j + 1) % nodes : (j + nodes - 1) % nodes;
      }
      entries.push_back(MatchT{o.prefix, static_cast<cluert::NextHop>(nh)});
    }
    const cluert::rib::Fib<A> fib(std::move(entries));
    const std::string path = dir + "/ring" + std::to_string(j) + ".routes";
    if (!writeFile(path, fib.serialize())) {
      std::fprintf(stderr, "gen: cannot write %s\n", path.c_str());
      return 1;
    }
    if (j == 0 && !writeFile(dir + "/inj.routes", fib.serialize())) {
      std::fprintf(stderr, "gen: cannot write %s/inj.routes\n", dir.c_str());
      return 1;
    }
  }
  std::printf("gen: ring of %zu tables, %zu routes each, under %s\n", nodes,
              universe.size(), dir.c_str());
  return 0;
}

int cmdGen(const Args& args) {
  const std::string dir = args.get("--out");
  if (dir.empty()) {
    std::fprintf(stderr, "gen: --out DIR required\n");
    return 2;
  }
  const auto hops = args.number<std::size_t>("--hops", 3);
  const auto size = args.number<std::size_t>("--size", 4000);
  const auto seed = args.number<std::uint64_t>("--seed", 1);
  const double shared = args.number("--shared", 0.9);
  const auto ring = args.number<std::size_t>("--ring", 0);
  if (shared > 1.0) {
    std::fprintf(stderr, "gen: --shared is a fraction of --size\n");
    return usage();
  }
  if (ring > 0) {
    if (ring < 3) {
      std::fprintf(stderr, "gen: --ring needs at least 3 nodes\n");
      return 2;
    }
    return cmdGenRing(dir, ring, size, seed);
  }

  Rng rng(seed);
  cluert::rib::GenOptions<A> gopt;
  gopt.size = size;
  gopt.histogram = cluert::rib::internetLengths1999();
  cluert::rib::Fib<A> table = cluert::rib::TableGen<A>::generate(rng, gopt);
  if (!writeFile(dir + "/inj.routes", table.serialize())) {
    std::fprintf(stderr, "gen: cannot write %s/inj.routes\n", dir.c_str());
    return 1;
  }
  for (std::size_t h = 1; h <= hops; ++h) {
    cluert::rib::NeighborOptions<A> nopt;
    nopt.shared = static_cast<std::size_t>(static_cast<double>(size) * shared);
    nopt.fresh = size - nopt.shared;
    table = cluert::rib::TableGen<A>::deriveNeighbor(table, rng, nopt);
    const std::string path = dir + "/hop" + std::to_string(h) + ".routes";
    if (!writeFile(path, table.serialize())) {
      std::fprintf(stderr, "gen: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::printf("gen: %zu tables of %zu routes under %s\n", hops + 1, size,
              dir.c_str());
  return 0;
}

int cmdInject(const Args& args) {
  const auto to = cluert::netio::SockAddr::parse(args.get("--to"));
  if (!to) {
    std::fprintf(stderr, "inject: --to IP:PORT required\n");
    return 2;
  }
  const auto table_paths = splitComma(args.get("--tables"));
  if (table_paths.empty() || table_paths.front().empty()) {
    std::fprintf(stderr, "inject: --tables f0,f1,... required\n");
    return 2;
  }
  const auto count = args.number<std::uint64_t>("--count", 1000);
  const auto seed = args.number<std::uint64_t>("--seed", 1);
  const auto pps = args.number<std::uint64_t>("--pps", 20000);
  const auto src_id = args.number<std::uint16_t>("--src-id", 0);
  const auto ttl =
      args.number<std::uint8_t>("--ttl", cluert::netio::kDefaultTtl);

  std::vector<cluert::trie::BinaryTrie<A>> tries;
  std::vector<cluert::ip::Prefix4> inj_prefixes;  // the injector's, f0's
  for (const auto& path : table_paths) {
    const auto text = readFile(path);
    const auto fib =
        text ? cluert::rib::Fib<A>::parse(*text) : std::nullopt;
    if (!fib) {
      std::fprintf(stderr, "inject: cannot load %s\n", path.c_str());
      return 1;
    }
    if (tries.empty()) inj_prefixes = fib->prefixes();
    tries.push_back(fib->buildTrie());
  }

  // Destination pool: addresses inside injector-table prefixes that also
  // resolve in every downstream table — the line can deliver them end to
  // end. Drawn once, then cycled.
  cluert::mem::AccessCounter acc;
  Rng rng(seed);
  struct Draw {
    A dest;
    cluert::core::ClueField clue;
  };
  std::vector<Draw> pool;
  const std::size_t pool_target = std::min<std::uint64_t>(count, 4096);
  std::uint64_t attempts = 0;
  while (pool.size() < pool_target && attempts < pool_target * 200ULL) {
    ++attempts;
    const auto& p = inj_prefixes[rng.index(inj_prefixes.size())];
    const std::uint32_t mask =
        p.length() == 0 ? 0u
                        : ~std::uint32_t{0} << (32 - p.length());
    const A dest(
        (p.addr().value() & mask) |
        (static_cast<std::uint32_t>(rng.uniform(0, ~std::uint32_t{0})) &
         ~mask));
    bool everywhere = true;
    for (std::size_t t = 1; t < tries.size(); ++t) {
      if (!tries[t].lookup(dest, acc)) {
        everywhere = false;
        break;
      }
    }
    if (!everywhere) continue;
    const auto inj_match = tries.front().lookup(dest, acc);
    Draw d;
    d.dest = dest;
    d.clue = inj_match && inj_match->prefix.length() > 0
                 ? cluert::core::ClueField::of(inj_match->prefix.length())
                 : cluert::core::ClueField::none();
    pool.push_back(d);
  }
  if (pool.empty()) {
    std::fprintf(stderr, "inject: no destination resolves in every table\n");
    return 1;
  }

  cluert::netio::SockAddr any;  // 0.0.0.0:0
  cluert::netio::Fd sock = cluert::netio::udpSocket(any);
  if (!sock.valid()) {
    std::fprintf(stderr, "inject: cannot create socket\n");
    return 1;
  }

  // Paced send: bursts of up to 64, sleeping to hold ~pps. Short sendBatch
  // counts (kernel backpressure) retry the remainder after a pause —
  // injection must be lossless at the source or the collector's expect
  // count means nothing.
  const std::uint64_t burst = 64;
  const std::uint64_t ns_per_burst =
      pps == 0 ? 0 : burst * 1000000000ULL / pps;
  std::array<std::uint8_t, 64 * cluert::netio::kMaxDatagram> bufs;
  std::uint64_t sent = 0;
  std::uint64_t next_burst_ns = steadyNs();
  while (sent < count) {
    const std::uint64_t n = std::min(burst, count - sent);
    std::array<cluert::netio::OutDatagram, 64> out;
    for (std::uint64_t i = 0; i < n; ++i) {
      const Draw& d = pool[(sent + i) % pool.size()];
      std::uint8_t payload[16];
      const std::uint64_t seq = sent + i;
      const std::uint64_t t = steadyNs();
      std::memcpy(payload, &seq, 8);
      std::memcpy(payload + 8, &t, 8);
      cluert::netio::WirePacket<A> pkt;
      pkt.dest = d.dest;
      pkt.clue = d.clue;
      pkt.ttl = ttl;
      pkt.src_id = src_id;
      pkt.payload = {payload, sizeof(payload)};
      std::uint8_t* buf = bufs.data() + i * cluert::netio::kMaxDatagram;
      const std::size_t len =
          cluert::netio::encode(pkt, {buf, cluert::netio::kMaxDatagram});
      out[i] = cluert::netio::OutDatagram{buf, len, *to};
    }
    std::uint64_t done = 0;
    while (done < n) {
      const int s = cluert::netio::sendBatch(
          sock.get(), out.data() + done, static_cast<int>(n - done));
      if (s <= 0) {
        ::usleep(200);
        continue;
      }
      done += static_cast<std::uint64_t>(s);
    }
    sent += n;
    if (ns_per_burst > 0) {
      next_burst_ns += ns_per_burst;
      const std::uint64_t now = steadyNs();
      if (next_burst_ns > now) {
        ::usleep(static_cast<unsigned>((next_burst_ns - now) / 1000));
      } else {
        next_burst_ns = now;
      }
    }
  }
  std::printf("inject: sent %llu packets to %s (pool %zu)\n",
              static_cast<unsigned long long>(sent),
              to->toString().c_str(), pool.size());
  return 0;
}

int cmdCollect(const Args& args) {
  const auto listen = cluert::netio::SockAddr::parse(args.get("--listen"));
  if (!listen) {
    std::fprintf(stderr, "collect: --listen IP:PORT required\n");
    return 2;
  }
  const auto expect = args.number<std::uint64_t>("--expect", 0);
  const auto timeout_ms = args.number<std::uint64_t>("--timeout-ms", 30000);
  const std::string out_path = args.get("--out");

  cluert::netio::Fd sock = cluert::netio::udpSocket(*listen);
  if (!sock.valid()) {
    std::fprintf(stderr, "collect: cannot bind %s\n",
                 listen->toString().c_str());
    return 1;
  }
  std::vector<cluert::netio::DatagramBuf> bufs(64);
  std::uint64_t received = 0, decode_errors = 0, clue_present = 0;
  std::uint64_t latency_ns_sum = 0, latency_samples = 0;
  const std::uint64_t deadline = steadyNs() + timeout_ms * 1000000ULL;
  while (received + decode_errors < expect && steadyNs() < deadline) {
    const int n = cluert::netio::recvBatch(sock.get(), bufs.data(), 64);
    if (n < 0) break;
    if (n == 0) {
      ::usleep(1000);
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const auto r = cluert::netio::decode<A>(
          {bufs[i].data.data(), bufs[i].len});
      if (!r.ok()) {
        ++decode_errors;
        continue;
      }
      ++received;
      if (r.packet.clue.present) ++clue_present;
      if (r.packet.payload.size() == 16) {
        std::uint64_t send_ns = 0;
        std::memcpy(&send_ns, r.packet.payload.data() + 8, 8);
        const std::uint64_t now = steadyNs();
        if (now > send_ns) {
          latency_ns_sum += now - send_ns;
          ++latency_samples;
        }
      }
    }
  }
  std::ostringstream summary;
  summary << "received=" << received << " expect=" << expect
          << " decode_errors=" << decode_errors
          << " clue_present=" << clue_present << " mean_latency_ns="
          << (latency_samples > 0 ? latency_ns_sum / latency_samples : 0)
          << "\n";
  std::fputs(summary.str().c_str(), stdout);
  if (!out_path.empty()) writeFile(out_path, summary.str());
  return received >= expect && decode_errors == 0 ? 0 : 1;
}

int cmdGet(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "get: usage: wire_play get IP:PORT PATH\n");
    return 2;
  }
  const auto addr = cluert::netio::SockAddr::parse(args.positional[0]);
  if (!addr) {
    std::fprintf(stderr, "get: bad address\n");
    return 2;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 1;
  cluert::netio::Fd sock(fd);
  const sockaddr_in sin = addr->toSockaddrIn();
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&sin), sizeof(sin)) !=
      0) {
    std::fprintf(stderr, "get: cannot connect %s\n",
                 addr->toString().c_str());
    return 1;
  }
  const std::string req =
      "GET " + args.positional[1] + " HTTP/1.0\r\n\r\n";
  if (::write(fd, req.data(), req.size()) !=
      static_cast<ssize_t>(req.size())) {
    return 1;
  }
  std::string resp;
  char buf[4096];
  ssize_t r;
  while ((r = ::read(fd, buf, sizeof(buf))) > 0) {
    resp.append(buf, static_cast<std::size_t>(r));
  }
  const std::size_t body = resp.find("\r\n\r\n");
  if (body == std::string::npos) return 1;
  const bool ok = resp.compare(0, 12, "HTTP/1.0 200") == 0;
  std::fwrite(resp.data() + body + 4, 1, resp.size() - body - 4, stdout);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Args args;
  for (int i = 2; i < argc; ++i) {
    args.raw.emplace_back(argv[i]);
    if (argv[i][0] != '-') {
      // Skip values of --key value pairs: only tokens not preceded by a
      // --key are positional.
      if (i == 2 || argv[i - 1][0] != '-') args.positional.emplace_back(argv[i]);
    }
  }
  if (cmd == "gen") return cmdGen(args);
  if (cmd == "inject") return cmdInject(args);
  if (cmd == "collect") return cmdCollect(args);
  if (cmd == "get") return cmdGet(args);
  std::fprintf(stderr, "unknown subcommand: %s\n", cmd.c_str());
  return usage();
}
