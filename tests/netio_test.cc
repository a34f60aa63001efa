// Tests for the wire daemon (src/netio/): the versioned wire codec's
// round-trip and reject-or-fixpoint behavior, the epoll event loop, config
// parsing, RouteUpdater::flush, and whole in-process Daemon topologies —
// single-daemon echo, a two-daemon forwarding chain checked against the
// sequential trie oracle, admin-plane golden output, config reload, and
// graceful SIGTERM drain with counter conservation — plus the batched I/O
// underneath: GSO runs in sendBatch (caps, kernel refusals) and the
// datapath's GRO receive.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "netio/config.h"
#include "netio/daemon.h"
#include "netio/event_loop.h"
#include "netio/socket.h"
#include "netio/wire.h"
#include "rib/route_updater.h"
#include "test_util.h"

namespace cluert {
namespace {

using A = ip::Ip4Addr;
using netio::DecodeError;
using netio::SockAddr;
using netio::WirePacket;
using testutil::a4;
using testutil::p4;

constexpr std::uint32_t kLoopback = 0x7f000001;  // 127.0.0.1

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(WireTest, RoundTrip4) {
  WirePacket<A> p;
  p.dest = a4("10.1.2.3");
  p.clue = core::ClueField::indexed(24, 77);
  p.ttl = 9;
  p.src_id = 42;
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  p.payload = {payload, sizeof(payload)};

  std::uint8_t buf[netio::kMaxDatagram];
  const std::size_t len = netio::encode(p, buf);
  ASSERT_EQ(len, netio::headerBytes<A>() + sizeof(payload));

  const auto r = netio::decode<A>({buf, len});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.packet.dest, p.dest);
  ASSERT_TRUE(r.packet.clue.present);
  EXPECT_EQ(r.packet.clue.length, 24);
  ASSERT_TRUE(r.packet.clue.index.has_value());
  EXPECT_EQ(*r.packet.clue.index, 77);
  EXPECT_EQ(r.packet.ttl, 9);
  EXPECT_EQ(r.packet.src_id, 42);
  ASSERT_EQ(r.packet.payload.size(), sizeof(payload));
  EXPECT_EQ(std::memcmp(r.packet.payload.data(), payload, sizeof(payload)), 0);
}

TEST(WireTest, RoundTrip6) {
  WirePacket<ip::Ip6Addr> p;
  p.dest = ip::Ip6Addr(0x20010db800000000ULL, 0x1234);
  p.clue = core::ClueField::of(48);
  p.ttl = 3;

  std::uint8_t buf[netio::kMaxDatagram];
  const std::size_t len = netio::encode(p, buf);
  ASSERT_EQ(len, netio::headerBytes<ip::Ip6Addr>());

  const auto r = netio::decode<ip::Ip6Addr>({buf, len});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.packet.dest, p.dest);
  ASSERT_TRUE(r.packet.clue.present);
  EXPECT_EQ(r.packet.clue.length, 48);
  EXPECT_TRUE(r.packet.payload.empty());
  // Family cross-check: the same bytes must not decode as IPv4.
  EXPECT_EQ(netio::decode<A>({buf, len}).error, DecodeError::kFamilyMismatch);
}

TEST(WireTest, RejectsMalformed) {
  WirePacket<A> p;
  p.dest = a4("10.0.0.1");
  std::uint8_t buf[netio::kMaxDatagram];
  const std::size_t len = netio::encode(p, buf);
  ASSERT_GT(len, 0u);

  EXPECT_EQ(netio::decode<A>({buf, 5}).error, DecodeError::kTooShort);

  std::uint8_t bad[netio::kMaxDatagram];
  std::memcpy(bad, buf, len);
  bad[0] ^= 0xff;
  EXPECT_EQ(netio::decode<A>({bad, len}).error, DecodeError::kBadMagic);

  std::memcpy(bad, buf, len);
  bad[4] = 99;
  EXPECT_EQ(netio::decode<A>({bad, len}).error, DecodeError::kBadVersion);

  // Truncated and padded datagrams both violate exact-size framing.
  EXPECT_EQ(netio::decode<A>({buf, len - 1}).error, DecodeError::kBadLength);
  std::memcpy(bad, buf, len);
  EXPECT_EQ(netio::decode<A>({bad, len + 1}).error, DecodeError::kBadLength);

  // payload_len pointing past the datagram.
  std::memcpy(bad, buf, len);
  bad[12] = 0xff;
  bad[13] = 0x01;
  EXPECT_EQ(netio::decode<A>({bad, len}).error, DecodeError::kBadLength);
}

TEST(WireTest, JunkClueLengthDecodesAsAbsentAndReachesFixpoint) {
  // Hand-craft a header whose clue length exceeds W=32: decode must fall
  // back to "no clue" (the sim fault matrix's junk-clue behavior), and the
  // re-encoded canonical form must decode identically (fixpoint).
  WirePacket<A> p;
  p.dest = a4("10.0.0.1");
  p.clue = core::ClueField::of(8);
  std::uint8_t buf[netio::kMaxDatagram];
  const std::size_t len = netio::encode(p, buf);
  ASSERT_GT(len, 0u);
  buf[7] = 40;  // encoded length-1 = 40 → length 41 > 32

  const auto r = netio::decode<A>({buf, len});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.packet.clue.present);

  std::uint8_t canon[netio::kMaxDatagram];
  const std::size_t clen = netio::encode(r.packet, canon);
  ASSERT_GT(clen, 0u);
  const auto r2 = netio::decode<A>({canon, clen});
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.packet.clue.present);
  EXPECT_EQ(r2.packet.dest, r.packet.dest);
  EXPECT_EQ(r2.packet.ttl, r.packet.ttl);
}

TEST(WireTest, OutOfRangeClueEncodesAsAbsent) {
  WirePacket<A> p;
  p.dest = a4("10.0.0.1");
  p.clue.present = true;
  p.clue.length = 0;  // a zero-length "clue" carries no information
  std::uint8_t buf[netio::kMaxDatagram];
  ASSERT_GT(netio::encode(p, buf), 0u);
  const auto r = netio::decode<A>({buf, netio::headerBytes<A>()});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.packet.clue.present);
}

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

TEST(EventLoopTest, PostRunsTasksOnLoopThreadAndStops) {
  netio::EventLoop loop;
  int counter = 0;
  std::thread t([&] { loop.run(); });
  for (int i = 0; i < 10; ++i) {
    loop.post([&counter] { ++counter; });
  }
  loop.post([&] { loop.stop(); });
  t.join();
  EXPECT_EQ(counter, 10);
}

// ---------------------------------------------------------------------------
// SockAddr / Config
// ---------------------------------------------------------------------------

TEST(SockAddrTest, ParseAndFormat) {
  const auto a = SockAddr::parse("127.0.0.1:8080");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->ip, kLoopback);
  EXPECT_EQ(a->port, 8080);
  EXPECT_EQ(a->toString(), "127.0.0.1:8080");

  EXPECT_FALSE(SockAddr::parse("127.0.0.1").has_value());
  EXPECT_FALSE(SockAddr::parse("hostname:80").has_value());
  EXPECT_FALSE(SockAddr::parse("1.2.3.4:77777").has_value());
  EXPECT_FALSE(SockAddr::parse(":80").has_value());
}

TEST(ConfigTest, ParsesFullConfig) {
  std::string err;
  const auto c = netio::parseConfig(
      "# a comment\n"
      "name = hopB\n"
      "router_id = 2\n"
      "listen = 127.0.0.1:9002\n"
      "admin = 127.0.0.1:9102\n"
      "routes = B.routes\n"
      "neighbor_routes = A.routes\n"
      "peer.default = 127.0.0.1:9003\n"
      "peer.5 = 127.0.0.1:9005  # pinned next hop\n"
      "method = Binary\n"
      "mode = advance\n"
      "workers = 2\n"
      "oracle = 1\n"
      "drain_ms = 250\n",
      &err);
  ASSERT_TRUE(c.has_value()) << err;
  EXPECT_EQ(c->name, "hopB");
  EXPECT_EQ(c->router_id, 2);
  EXPECT_EQ(c->listen.port, 9002);
  EXPECT_EQ(c->method, lookup::Method::kBinary);
  EXPECT_EQ(c->mode, lookup::ClueMode::kAdvance);
  EXPECT_EQ(c->workers, 2u);
  EXPECT_TRUE(c->oracle);
  EXPECT_EQ(c->drain_ms, 250u);
  ASSERT_EQ(c->peers.size(), 1u);
  ASSERT_EQ(c->peers.count(5), 1u);
  EXPECT_EQ(c->peers.at(5).port, 9005);
  ASSERT_TRUE(c->default_peer.has_value());
  EXPECT_EQ(c->default_peer->port, 9003);
}

TEST(ConfigTest, RejectsBadConfigs) {
  std::string err;
  EXPECT_FALSE(netio::parseConfig("listen = 1.2.3.4:1\n", &err));  // no routes
  EXPECT_FALSE(netio::parseConfig("routes = r\nmode = advance\n", &err))
      << "advance without neighbor_routes must be rejected";
  EXPECT_FALSE(netio::parseConfig("routes = r\nbogus_key = 1\n", &err));
  EXPECT_FALSE(netio::parseConfig("routes = r\nlisten = nope\n", &err));
  EXPECT_FALSE(netio::parseConfig("routes\n", &err));
  // The name lands unescaped in JSON bodies: [A-Za-z0-9._-]+ only.
  EXPECT_FALSE(netio::parseConfig("routes = r\nname = hop\"B\n", &err));
  EXPECT_NE(err.find("name"), std::string::npos) << err;
  EXPECT_FALSE(netio::parseConfig("routes = r\nname = a\\b\n", &err));
  EXPECT_FALSE(netio::parseConfig("routes = r\nname = hop B\n", &err));
  EXPECT_TRUE(netio::parseConfig("routes = r\nname = hop-B_2.x\n", &err))
      << err;
}

// ---------------------------------------------------------------------------
// RouteUpdater::flush
// ---------------------------------------------------------------------------

TEST(RouteUpdaterTest, FlushWaitsForEnqueuedPublishes) {
  Rng rng(11);
  const auto entries = testutil::randomTable4(rng, 300);
  rib::Fib<A> fib{std::vector<trie::Match<A>>(entries)};
  typename rib::VersionedTables<A>::Options opts;
  opts.validate_retired = false;
  rib::VersionedTables<A> tables(fib, fib, opts);
  rib::RouteUpdater<A> updater(tables);

  const std::uint64_t seq0 = tables.liveSeq();
  for (int i = 0; i < 4; ++i) {
    rib::Fib<A> next = fib;
    next.add(p4("203.0.113.0/24"), static_cast<NextHop>(i + 1));
    rib::FibDelta<A> d = rib::diff(fib, next);
    updater.enqueueLocal(std::move(d));
    fib = std::move(next);
  }
  updater.flush();
  // After flush every enqueued delta is live — no sleeping, no polling.
  // (Delta 1 adds the prefix; 2..4 each reroute it: four distinct publishes.)
  EXPECT_EQ(tables.liveSeq(), seq0 + 4);
  updater.stop();
}

// ---------------------------------------------------------------------------
// Daemon integration (in-process topologies on loopback)
// ---------------------------------------------------------------------------

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "netio_test_" + name;
}

void writeFileOrDie(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << path;
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

// Receives datagrams on `sock` until `expect` arrive or ~timeout_ms passes.
std::vector<netio::DatagramBuf> recvAll(int sock, std::size_t expect,
                                        int timeout_ms = 10000) {
  std::vector<netio::DatagramBuf> got;
  std::vector<netio::DatagramBuf> bufs(64);
  for (int waited_us = 0;
       got.size() < expect && waited_us < timeout_ms * 1000;) {
    const int n = netio::recvBatch(sock, bufs.data(), 64);
    if (n <= 0) {
      ::usleep(1000);
      waited_us += 1000;
      continue;
    }
    for (int i = 0; i < n; ++i) got.push_back(bufs[i]);
  }
  return got;
}

// Minimal HTTP GET against the daemon's admin plane; returns the body.
std::string adminGet(const SockAddr& addr, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  netio::Fd sock(fd);
  const sockaddr_in sin = addr.toSockaddrIn();
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&sin), sizeof(sin)) !=
      0) {
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::write(fd, req.data(), req.size()) !=
      static_cast<ssize_t>(req.size())) {
    return "";
  }
  std::string resp;
  char buf[4096];
  ssize_t r;
  while ((r = ::read(fd, buf, sizeof(buf))) > 0) {
    resp.append(buf, static_cast<std::size_t>(r));
  }
  const std::size_t body = resp.find("\r\n\r\n");
  return body == std::string::npos ? "" : resp.substr(body + 4);
}

netio::Fd testSink(SockAddr* addr_out) {
  // Large rcvbuf: the tests send whole bursts before the first read, and
  // kernel skb truesize accounting overflows the default buffer after only
  // a few hundred small datagrams.
  netio::Fd sock =
      netio::udpSocket(SockAddr{kLoopback, 0}, /*reuseport=*/false,
                       /*rcvbuf=*/4 << 20);
  EXPECT_TRUE(sock.valid());
  const auto addr = netio::localAddr(sock.get());
  EXPECT_TRUE(addr.has_value());
  *addr_out = *addr;
  return sock;
}

netio::Config baseConfig(const std::string& routes_path) {
  netio::Config c;
  c.listen = SockAddr{kLoopback, 0};
  c.admin = SockAddr{kLoopback, 0};
  c.routes = routes_path;
  c.oracle = true;
  c.drain_ms = 1000;
  return c;
}

TEST(DaemonTest, SingleDaemonEchoForwardsWithOwnClue) {
  const std::string routes = tempPath("echo.routes");
  writeFileOrDie(routes,
                 "10.0.0.0/8 1\n"
                 "10.1.0.0/16 2\n"
                 "0.0.0.0/0 9\n");
  SockAddr sink_addr;
  netio::Fd sink = testSink(&sink_addr);

  netio::Config c = baseConfig(routes);
  c.name = "echo";
  c.router_id = 7;
  c.default_peer = sink_addr;
  netio::Daemon daemon(c);
  daemon.start();

  // One clue-tagged packet: dest under 10.1/16, sender clue /8.
  WirePacket<A> p;
  p.dest = a4("10.1.2.3");
  p.clue = core::ClueField::of(8);
  p.ttl = 5;
  p.src_id = 3;
  const std::uint8_t payload[] = {0xaa, 0xbb};
  p.payload = {payload, sizeof(payload)};
  std::uint8_t buf[netio::kMaxDatagram];
  const std::size_t len = netio::encode(p, buf);
  netio::Fd tx = netio::udpSocket(SockAddr{kLoopback, 0});
  const netio::OutDatagram out{buf, len, daemon.dataAddr()};
  ASSERT_EQ(netio::sendBatch(tx.get(), &out, 1), 1);

  const auto got = recvAll(sink.get(), 1);
  ASSERT_EQ(got.size(), 1u);
  const auto r = netio::decode<A>({got[0].data.data(), got[0].len});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.packet.dest, p.dest);
  // The forwarded clue is THIS router's BMP for the dest: 10.1.0.0/16.
  ASSERT_TRUE(r.packet.clue.present);
  EXPECT_EQ(r.packet.clue.length, 16);
  EXPECT_EQ(r.packet.ttl, 4);      // decremented
  EXPECT_EQ(r.packet.src_id, 7);   // restamped with the router's own id
  ASSERT_EQ(r.packet.payload.size(), sizeof(payload));
  EXPECT_EQ(std::memcmp(r.packet.payload.data(), payload, sizeof(payload)),
            0);

  daemon.stop();
  EXPECT_EQ(daemon.datapath(0).oracleMismatches(), 0u);
}

TEST(DaemonTest, TwoDaemonChainMatchesSequentialOracle) {
  Rng rng(23);
  const auto entries_a = testutil::randomTable4(rng, 600);
  const auto entries_b = testutil::neighborOf(entries_a, rng, 0.85, 60);
  const auto entries_inj = testutil::neighborOf(entries_a, rng, 0.9, 30);
  const std::string routes_a = tempPath("chain_a.routes");
  const std::string routes_b = tempPath("chain_b.routes");
  const std::string routes_inj = tempPath("chain_inj.routes");
  rib::Fib<A> fib_a{std::vector<trie::Match<A>>(entries_a)};
  rib::Fib<A> fib_b{std::vector<trie::Match<A>>(entries_b)};
  rib::Fib<A> fib_inj{std::vector<trie::Match<A>>(entries_inj)};
  writeFileOrDie(routes_a, fib_a.serialize());
  writeFileOrDie(routes_b, fib_b.serialize());
  writeFileOrDie(routes_inj, fib_inj.serialize());

  SockAddr sink_addr;
  netio::Fd sink = testSink(&sink_addr);

  // B first (A needs its data address), sink behind B.
  netio::Config cb = baseConfig(routes_b);
  cb.name = "B";
  cb.router_id = 2;
  cb.neighbor_routes = routes_a;
  cb.mode = lookup::ClueMode::kAdvance;
  cb.default_peer = sink_addr;
  netio::Daemon b(cb);
  b.start();

  netio::Config ca = baseConfig(routes_a);
  ca.name = "A";
  ca.router_id = 1;
  ca.neighbor_routes = routes_inj;
  ca.mode = lookup::ClueMode::kAdvance;
  ca.default_peer = b.dataAddr();
  netio::Daemon a(ca);
  a.start();

  // Inject addresses covered by the injector table, clue = injector BMP.
  const auto trie_inj = fib_inj.buildTrie();
  const auto trie_a = fib_a.buildTrie();
  const auto trie_b = fib_b.buildTrie();
  mem::AccessCounter acc;
  const std::size_t kPackets = 400;
  netio::Fd tx = netio::udpSocket(SockAddr{kLoopback, 0});
  std::set<std::uint32_t> expected_delivered;
  std::size_t sent = 0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    const A dest = testutil::coveredAddress<A>(
        entries_inj, rng, [](Rng& r) { return testutil::randomAddr4(r); });
    const auto m_inj = trie_inj.lookup(dest, acc);
    WirePacket<A> p;
    p.dest = dest;
    p.clue = m_inj && m_inj->prefix.length() > 0
                 ? core::ClueField::of(m_inj->prefix.length())
                 : core::ClueField::none();
    p.ttl = 8;
    p.src_id = 0;
    std::uint8_t buf[netio::kMaxDatagram];
    const std::size_t len = netio::encode(p, buf);
    const netio::OutDatagram out{buf, len, a.dataAddr()};
    if (netio::sendBatch(tx.get(), &out, 1) != 1) continue;
    ++sent;
    // Sequential oracle: delivered to the sink iff both hops have a BMP.
    if (trie_a.lookup(dest, acc) && trie_b.lookup(dest, acc)) {
      expected_delivered.insert(dest.value());
    }
    if (i % 64 == 63) ::usleep(2000);  // pace: both daemons share one core
  }
  ASSERT_EQ(sent, kPackets);
  ASSERT_FALSE(expected_delivered.empty());

  // Collect what the chain delivers. Correctness is one-sided plus a floor:
  // every arrival must be oracle-approved (never deliver what the
  // sequential lookup rejects) and must carry B's BMP as its clue; and at
  // least 95% of the oracle-approved set must arrive (UDP on a shared core
  // may legitimately shed a stray datagram — that is loss, not a routing
  // bug; routing bugs are caught by the subset check and the per-hop
  // differential oracle below).
  const auto got = recvAll(sink.get(), expected_delivered.size(), 5000);
  std::set<std::uint32_t> delivered;
  for (const auto& d : got) {
    const auto r = netio::decode<A>({d.data.data(), d.len});
    ASSERT_TRUE(r.ok());
    delivered.insert(r.packet.dest.value());
    EXPECT_EQ(r.packet.src_id, 2);
    EXPECT_TRUE(expected_delivered.count(r.packet.dest.value()) > 0)
        << "delivered a packet the sequential oracle drops: "
        << r.packet.dest.value();
    const auto m_b = trie_b.lookup(r.packet.dest, acc);
    ASSERT_TRUE(m_b.has_value());
    if (m_b->prefix.length() > 0) {
      ASSERT_TRUE(r.packet.clue.present);
      EXPECT_EQ(r.packet.clue.length, m_b->prefix.length());
    } else {
      EXPECT_FALSE(r.packet.clue.present);
    }
  }
  EXPECT_GE(delivered.size() * 100, expected_delivered.size() * 95);

  a.stop();
  b.stop();
  EXPECT_EQ(a.datapath(0).oracleMismatches(), 0u);
  EXPECT_EQ(b.datapath(0).oracleMismatches(), 0u);
  // Counter conservation on A: every cleanly decoded packet ends in exactly
  // one bucket.
  const auto& dp = a.datapath(0);
  EXPECT_EQ(dp.rxPackets(),
            dp.txPackets() + dp.delivered() + dp.noRoute() +
                dp.ttlExpired() + dp.sendErrors());
}

// Sum of the /metrics sample lines of counter `name` whose label set
// contains `label` (every line of the family when `label` is empty).
std::uint64_t promSum(const std::string& prom, const std::string& name,
                      const std::string& label = "") {
  std::uint64_t sum = 0;
  std::istringstream lines(prom);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t end = line.find_first_of("{ ");
    if (line.compare(0, end, name) != 0 || end != name.size()) continue;
    const std::size_t space = line.rfind(' ');
    if (!label.empty() &&
        line.substr(0, space).find(label) == std::string::npos) {
      continue;
    }
    sum += std::stoull(line.substr(space + 1));
  }
  return sum;
}

// The unsigned number after "key": in a /status body.
std::uint64_t statusField(const std::string& status, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = status.find(tag);
  EXPECT_NE(at, std::string::npos) << key;
  return at == std::string::npos ? 0
                                 : std::stoull(status.substr(at + tag.size()));
}

// A /status per-peer field: peers_rx's {"src":n,...} as src → n, peers_tx's
// [n,...] as slot → n.
std::map<std::uint64_t, std::uint64_t> statusPeers(const std::string& status,
                                                   const std::string& key) {
  std::map<std::uint64_t, std::uint64_t> out;
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = status.find(tag);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return out;
  const std::size_t begin = at + tag.size();
  const bool keyed = status[begin] == '{';
  std::string body = status.substr(
      begin + 1, status.find(keyed ? '}' : ']', begin) - begin - 1);
  for (char& c : body) {
    if (c == '"' || c == ':' || c == ',') c = ' ';
  }
  std::istringstream in(body);
  for (std::uint64_t slot = 0, a = 0; in >> a; ++slot) {
    std::uint64_t v = 0;
    if (keyed && in >> v) {
      out[a] = v;
    } else {
      out[slot] = a;
    }
  }
  return out;
}

TEST(DaemonTest, AdminEndpointsServeMetricsAndStatus) {
  const std::string routes = tempPath("admin.routes");
  writeFileOrDie(routes, "10.0.0.0/8 1\n11.0.0.0/8 2\n");
  SockAddr sink_addr;
  netio::Fd sink = testSink(&sink_addr);
  netio::Config c = baseConfig(routes);
  c.name = "admin-test";
  c.workers = 2;
  c.peers[2] = sink_addr;  // next hop 1 has no peer: "delivered"
  netio::Daemon daemon(c);
  daemon.start();

  // Eight sender sockets (SO_REUSEPORT spreads them over both shards), each
  // sending one delivered, one forwarded and one unroutable packet; the
  // first adds a TTL-expired packet and a datagram the codec rejects.
  std::uint8_t bufs[5][netio::kMaxDatagram] = {};
  const auto encodeTo = [&](std::size_t slot, const char* dest,
                            std::uint16_t src_id, std::uint8_t ttl) {
    WirePacket<A> p;
    p.dest = a4(dest);
    p.clue = core::ClueField::of(8);
    p.src_id = src_id;
    p.ttl = ttl;
    return netio::encode(p, bufs[slot]);
  };
  std::vector<netio::Fd> senders;
  for (int k = 0; k < 8; ++k) {
    senders.push_back(netio::udpSocket(SockAddr{kLoopback, 0}));
    std::vector<netio::OutDatagram> out = {
        {bufs[0], encodeTo(0, "10.9.9.9", 3, 5), daemon.dataAddr()},
        {bufs[1], encodeTo(1, "11.1.1.1", 20, 5), daemon.dataAddr()},
        {bufs[2], encodeTo(2, "12.0.0.1", 3, 5), daemon.dataAddr()},
    };
    if (k == 0) {
      out.push_back({bufs[3], encodeTo(3, "11.2.2.2", 5, 1),
                     daemon.dataAddr()});
      bufs[4][0] = 0xde;
      out.push_back({bufs[4], 3, daemon.dataAddr()});
    }
    const int n = static_cast<int>(out.size());
    ASSERT_EQ(netio::sendBatch(senders.back().get(), out.data(), n), n);
  }
  const auto settled = [&] {
    std::uint64_t rx = 0, rejected = 0, settled_rx = 0;
    for (std::size_t w = 0; w < daemon.datapathCount(); ++w) {
      const auto& dp = daemon.datapath(w);
      rx += dp.rxPackets();
      rejected += dp.decodeErrors();
      settled_rx += dp.txPackets() + dp.delivered() + dp.noRoute() +
                    dp.ttlExpired() + dp.sendErrors();
    }
    return rx == 25 && rejected == 1 && settled_rx == rx;
  };
  for (int i = 0; i < 5000 && !settled(); ++i) ::usleep(1000);
  ASSERT_TRUE(settled());
  EXPECT_EQ(recvAll(sink.get(), 8).size(), 8u);

  const std::string health = adminGet(daemon.adminAddr(), "/healthz");
  EXPECT_EQ(health, "ok\n");

  // Golden structural check of the Prometheus exposition: HELP/TYPE blocks
  // and the live series this traffic must have produced.
  const std::string prom = adminGet(daemon.adminAddr(), "/metrics");
  EXPECT_NE(prom.find("# TYPE netio_rx_packets_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE lookup_case_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("netio_peer_tx_packets_total{peer=\"2\"} 8"),
            std::string::npos);
  EXPECT_NE(prom.find("netio_peer_rx_packets_total{src=\"other\"} 8"),
            std::string::npos);
  EXPECT_NE(prom.find("rib_version_live_seq"), std::string::npos);
  EXPECT_EQ(promSum(prom, "netio_rx_packets_total"), 25u);
  EXPECT_EQ(promSum(prom, "netio_delivered_total"), 8u);
  EXPECT_EQ(promSum(prom, "netio_tx_packets_total"), 8u);
  EXPECT_EQ(promSum(prom, "netio_no_route_total"), 8u);
  EXPECT_EQ(promSum(prom, "netio_ttl_expired_total"), 1u);
  EXPECT_EQ(promSum(prom, "netio_decode_errors_total"), 1u);

  // /status is the registry: every counter equals its /metrics series
  // summed over the shards, the per-peer maps included.
  const std::string status = adminGet(daemon.adminAddr(), "/status");
  EXPECT_NE(status.find("\"name\":\"admin-test\""), std::string::npos);
  EXPECT_NE(status.find("\"live_seq\":1"), std::string::npos);
  EXPECT_NE(status.find("\"oracle_mismatches\":0,"), std::string::npos);
  EXPECT_NE(status.find("\"rx_packets\":25,"), std::string::npos);
  EXPECT_NE(status.find("\"draining\":false"), std::string::npos);
  const std::pair<const char*, const char*> counters[] = {
      {"rx_packets", "netio_rx_packets_total"},
      {"tx_packets", "netio_tx_packets_total"},
      {"delivered", "netio_delivered_total"},
      {"decode_errors", "netio_decode_errors_total"},
      {"no_route", "netio_no_route_total"},
      {"ttl_expired", "netio_ttl_expired_total"},
      {"send_errors", "netio_send_errors_total"},
      {"oracle_mismatches", "netio_oracle_mismatch_total"},
  };
  for (const auto& [key, series] : counters) {
    EXPECT_EQ(statusField(status, key), promSum(prom, series)) << key;
  }
  const auto peers_rx = statusPeers(status, "peers_rx");
  const std::map<std::uint64_t, std::uint64_t> want_rx = {
      {3, 16}, {5, 1}, {netio::Datapath::kMaxSrcLabel, 8}};
  EXPECT_EQ(peers_rx, want_rx);
  for (std::uint16_t src = 0; src <= netio::Datapath::kMaxSrcLabel; ++src) {
    const std::string label =
        "src=\"" + netio::Datapath::srcLabel(src) + "\"";
    const auto it = peers_rx.find(src);
    EXPECT_EQ(it == peers_rx.end() ? 0u : it->second,
              promSum(prom, "netio_peer_rx_packets_total", label))
        << label;
  }
  const auto peers_tx = statusPeers(status, "peers_tx");
  ASSERT_EQ(peers_tx.size(), 1u);
  EXPECT_EQ(peers_tx.at(0),
            promSum(prom, "netio_peer_tx_packets_total", "peer=\"2\""));
  EXPECT_EQ(peers_tx.at(0), 8u);

  EXPECT_EQ(adminGet(daemon.adminAddr(), "/nope"), "not found\n");
  daemon.stop();
}

TEST(DaemonTest, ReloadPublishesNewRoutesToLiveLookups) {
  const std::string routes = tempPath("reload.routes");
  writeFileOrDie(routes, "10.0.0.0/8 1\n");
  SockAddr sink_addr;
  netio::Fd sink = testSink(&sink_addr);
  netio::Config c = baseConfig(routes);
  c.default_peer = sink_addr;
  netio::Daemon daemon(c);
  daemon.start();
  ASSERT_EQ(daemon.liveSeq(), 1u);

  // 192.168/16 is unroutable before the reload...
  WirePacket<A> p;
  p.dest = a4("192.168.1.1");
  std::uint8_t buf[netio::kMaxDatagram];
  std::size_t len = netio::encode(p, buf);
  netio::Fd tx = netio::udpSocket(SockAddr{kLoopback, 0});
  netio::OutDatagram out{buf, len, daemon.dataAddr()};
  ASSERT_EQ(netio::sendBatch(tx.get(), &out, 1), 1);
  for (int i = 0; i < 5000 && daemon.datapath(0).noRoute() == 0; ++i) {
    ::usleep(1000);
  }
  EXPECT_EQ(daemon.datapath(0).noRoute(), 1u);

  // ...and forwarded after it. reload() returns only once the new version
  // is live (RouteUpdater::flush), so no sleep between reload and send.
  writeFileOrDie(routes, "10.0.0.0/8 1\n192.168.0.0/16 4\n");
  const std::uint64_t seq = daemon.reload();
  EXPECT_GT(seq, 1u);
  EXPECT_EQ(daemon.liveSeq(), seq);
  ASSERT_EQ(netio::sendBatch(tx.get(), &out, 1), 1);
  const auto got = recvAll(sink.get(), 1);
  ASSERT_EQ(got.size(), 1u);
  const auto r = netio::decode<A>({got[0].data.data(), got[0].len});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.packet.dest, p.dest);
  ASSERT_TRUE(r.packet.clue.present);
  EXPECT_EQ(r.packet.clue.length, 16);

  // The admin /reload endpoint reports the same state.
  const std::string body = adminGet(daemon.adminAddr(), "/reload");
  EXPECT_NE(body.find("\"reloaded\":true"), std::string::npos);
  daemon.stop();
}

TEST(DaemonTest, SigtermMidStreamDrainsAcceptedPacketsAndExitsClean) {
  const std::string routes = tempPath("sigterm.routes");
  writeFileOrDie(routes, "10.0.0.0/8 1\n0.0.0.0/0 9\n");
  netio::Config c = baseConfig(routes);
  c.router_id = 5;
  netio::Daemon::Options opts;
  opts.handle_signals = true;
  netio::Daemon daemon(c, opts);
  daemon.start();

  // Burst a stream at the daemon, then SIGTERM the process mid-stream. The
  // bounded drain must process everything the socket had accepted: counters
  // must conserve, and no packet may be half-counted.
  netio::Fd tx = netio::udpSocket(SockAddr{kLoopback, 0});
  const std::size_t kBurst = 500;
  std::uint8_t buf[netio::kMaxDatagram];
  WirePacket<A> p;
  p.dest = a4("10.2.3.4");
  p.clue = core::ClueField::of(8);
  const std::size_t len = netio::encode(p, buf);
  std::size_t sent = 0;
  for (std::size_t i = 0; i < kBurst; ++i) {
    const netio::OutDatagram out{buf, len, daemon.dataAddr()};
    if (netio::sendBatch(tx.get(), &out, 1) == 1) ++sent;
    if (i == kBurst / 2) {
      ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);  // mid-stream
    }
  }
  daemon.waitShutdown();  // returns only because the signalfd saw SIGTERM

  const auto& dp = daemon.datapath(0);
  EXPECT_GT(dp.rxPackets(), 0u);
  EXPECT_EQ(dp.rxPackets() + dp.decodeErrors() <= sent, true);
  EXPECT_EQ(dp.rxPackets(),
            dp.txPackets() + dp.delivered() + dp.noRoute() +
                dp.ttlExpired() + dp.sendErrors());
  EXPECT_EQ(dp.oracleMismatches(), 0u);
}

// ---------------------------------------------------------------------------
// Batched I/O: GSO runs in sendBatch, the GRO receive (DESIGN.md §9.2)
// ---------------------------------------------------------------------------

// A batch whose datagrams carry their index in the first 4 bytes and an
// index-derived fill after it, so a lost, split, spliced or reordered
// datagram cannot compare equal.
struct Batch {
  std::vector<std::vector<std::uint8_t>> bufs;
  std::vector<netio::OutDatagram> out;

  void add(const SockAddr& to, std::size_t len, std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      const auto i = static_cast<std::uint32_t>(bufs.size());
      std::vector<std::uint8_t> b(len);
      for (std::size_t j = 0; j < len; ++j) {
        b[j] = static_cast<std::uint8_t>(i * 131 + j * 7);
      }
      std::memcpy(b.data(), &i, std::min<std::size_t>(len, sizeof(i)));
      push(std::move(b), to);
    }
  }
  // out[] points into bufs[]: moving a vector keeps its heap buffer, so the
  // views survive bufs growing.
  void push(std::vector<std::uint8_t> b, const SockAddr& to) {
    bufs.push_back(std::move(b));
    out.push_back({bufs.back().data(), bufs.back().size(), to});
  }
};

// Every run boundary sendBatch knows, in one call, opened by a lone
// datagram.
Batch mixedBatch(const SockAddr& a, const SockAddr& b) {
  Batch batch;
  batch.add(a, 40, 1);    // a lone datagram: a plain message
  batch.add(a, 100, 5);   // a run to a...
  batch.add(a, 120, 3);   // ...whose length changes mid-run
  batch.add(b, 80, 4);    // a run to b...
  batch.add(b, 50, 1);    // ...that ends in a shorter datagram
  batch.add(a, 200, 150);  // past the 64-segment cap: 64 + 64 + 22
  // Past the 65507-byte cap: 52 + 8 (53 × 1255 B is EMSGSIZE).
  batch.add(b, netio::kMaxDatagram, 60);
  batch.add(a, 30, 2);    // back to a
  return batch;
}

// Receives everything `batch` sent to `to` on `sock` and requires each
// datagram byte-identical and in the order it was sent.
void expectArrivedInOrder(int sock, const SockAddr& to, const Batch& batch) {
  std::vector<std::size_t> want;
  for (std::size_t k = 0; k < batch.out.size(); ++k) {
    if (batch.out[k].to == to) want.push_back(k);
  }
  const auto got = recvAll(sock, want.size());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& sent = batch.bufs[want[i]];
    ASSERT_EQ(got[i].len, sent.size()) << "datagram " << want[i];
    EXPECT_EQ(std::memcmp(got[i].data.data(), sent.data(), sent.size()), 0)
        << "datagram " << want[i];
  }
}

TEST(SendBatchTest, MixedRunsArriveByteIdenticalInOrder) {
  SockAddr a_addr, b_addr;
  netio::Fd a = testSink(&a_addr);
  netio::Fd b = testSink(&b_addr);
  netio::Fd tx = netio::udpSocket(SockAddr{kLoopback, 0});
  const Batch batch = mixedBatch(a_addr, b_addr);
  const int n = static_cast<int>(batch.out.size());

  std::uint64_t syscalls = 0;
  ASSERT_EQ(netio::sendBatch(tx.get(), batch.out.data(), n, syscalls), n);
  // With GSO, 226 datagrams are 10 messages, all in one sendmmsg; the plain
  // path needs one message per datagram, at most 64 per call.
  if (netio::gsoSupported()) EXPECT_EQ(syscalls, 1u);
  expectArrivedInOrder(a.get(), a_addr, batch);
  expectArrivedInOrder(b.get(), b_addr, batch);
}

TEST(SendBatchTest, RefusedGsoRunsAreResentAsSingleDatagrams) {
  SockAddr a_addr, b_addr;
  netio::Fd a = testSink(&a_addr);
  netio::Fd b = testSink(&b_addr);
  netio::Fd tx = netio::udpSocket(SockAddr{kLoopback, 0});
  // Without UDP checksums the kernel refuses every GSO message (EINVAL).
  // The batch opens with a lone datagram, so the first refusal comes after
  // a message was sent — where sendmmsg drops the errno.
  const int one = 1;
  ASSERT_EQ(::setsockopt(tx.get(), SOL_SOCKET, SO_NO_CHECK, &one, sizeof(one)),
            0);
  const Batch batch = mixedBatch(a_addr, b_addr);
  const int n = static_cast<int>(batch.out.size());

  std::uint64_t syscalls = 0;
  ASSERT_EQ(netio::sendBatch(tx.get(), batch.out.data(), n, syscalls), n);
  if (netio::gsoSupported()) EXPECT_GT(syscalls, 1u);  // the refusals cost
  expectArrivedInOrder(a.get(), a_addr, batch);
  expectArrivedInOrder(b.get(), b_addr, batch);
}

TEST(GroReceiverTest, WalksCoalescedMessagesInPlaceInChunks) {
  if (!netio::gsoSupported()) GTEST_SKIP() << "kernel without UDP GSO";
  netio::Fd rx = netio::udpSocket(SockAddr{kLoopback, 0}, false, 4 << 20);
  ASSERT_TRUE(rx.valid());
  ASSERT_TRUE(netio::enableGro(rx.get()));
  const SockAddr rx_addr = *netio::localAddr(rx.get());
  netio::Fd tx = netio::udpSocket(SockAddr{kLoopback, 0});
  // 70 equal datagrams and a shorter one: two GSO messages, 64 and 6 + 1.
  Batch batch;
  batch.add(rx_addr, 50, 70);
  batch.add(rx_addr, 20, 1);
  const int n = static_cast<int>(batch.out.size());
  ASSERT_EQ(netio::sendBatch(tx.get(), batch.out.data(), n), n);
  ::usleep(20'000);  // both messages queued before the one receive

  netio::GroReceiver receiver(8);
  ASSERT_EQ(receiver.recv(rx.get()), 2);
  // Chunks of 50 cut the first message, then cross into the second.
  std::array<std::span<const std::uint8_t>, 50> chunk;
  std::vector<std::size_t> chunk_sizes;
  std::vector<std::span<const std::uint8_t>> got;
  while (const std::size_t k = receiver.next(chunk.data(), chunk.size())) {
    chunk_sizes.push_back(k);
    got.insert(got.end(), chunk.begin(), chunk.begin() + k);
  }
  EXPECT_EQ(chunk_sizes, (std::vector<std::size_t>{50, 21}));
  ASSERT_EQ(got.size(), batch.bufs.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), batch.bufs[i].size()) << "datagram " << i;
    EXPECT_EQ(
        std::memcmp(got[i].data(), batch.bufs[i].data(), got[i].size()), 0)
        << "datagram " << i;
  }
  EXPECT_EQ(receiver.recv(rx.get()), 0);  // drained
  EXPECT_EQ(receiver.next(chunk.data(), chunk.size()), 0u);
}

// One daemon for the GRO receive tests: 10/8 → 1 and 10.1/16 → 2, every
// routed packet forwarded to a sink with this router's clue.
struct GroRig {
  SockAddr sink_addr;
  netio::Fd sink;
  netio::Fd tx = netio::udpSocket(SockAddr{kLoopback, 0});
  std::unique_ptr<netio::Daemon> daemon;
  Batch batch;  // what send() sends

  GroRig() {
    const std::string routes = tempPath("gro.routes");
    writeFileOrDie(routes, "10.0.0.0/8 1\n10.1.0.0/16 2\n");
    sink = testSink(&sink_addr);
    netio::Config c = baseConfig(routes);
    c.name = "gro";
    c.router_id = 7;
    c.default_peer = sink_addr;
    c.rcvbuf = 4 << 20;
    daemon = std::make_unique<netio::Daemon>(c);
    daemon->start();
  }

  // Queues wire datagram `seq`: even ones to 10.1/16 (clue 16 back), odd
  // ones to 10.2/16 (clue 8 back). The payload is the sequence number,
  // padded to `payload_len`.
  std::vector<std::uint8_t>& add(std::uint32_t seq,
                                 std::size_t payload_len = 8) {
    WirePacket<A> p;
    p.dest = A((seq % 2 == 0 ? 0x0a010000u : 0x0a020000u) | (seq & 0xffff));
    p.clue = core::ClueField::of(8);
    p.ttl = 9;
    p.src_id = 3;
    std::vector<std::uint8_t> payload(payload_len, 0xee);
    std::memcpy(payload.data(), &seq, sizeof(seq));
    p.payload = {payload.data(), payload.size()};
    std::vector<std::uint8_t> buf(netio::kMaxDatagram);
    buf.resize(netio::encode(p, buf));
    batch.push(std::move(buf), daemon->dataAddr());
    return batch.bufs.back();
  }

  // One sendBatch of everything queued.
  void send() {
    const int n = static_cast<int>(batch.out.size());
    ASSERT_EQ(netio::sendBatch(tx.get(), batch.out.data(), n), n);
  }

  std::uint64_t counter(const char* name) {
    const auto snap = daemon->registry().snapshot();
    const obs::MetricSample* s = snap.find(name, {{"shard", "0"}});
    return s == nullptr ? 0 : s->counter_value;
  }

  // Requires the sink to get exactly `seqs`, in order, each re-stamped
  // with this router's clue and id.
  void expectForwarded(const std::vector<std::uint32_t>& seqs) {
    const auto got = recvAll(sink.get(), seqs.size());
    ASSERT_EQ(got.size(), seqs.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const auto r = netio::decode<A>({got[i].data.data(), got[i].len});
      ASSERT_TRUE(r.ok()) << "datagram " << i;
      std::uint32_t seq = 0;
      std::memcpy(&seq, r.packet.payload.data(), sizeof(seq));
      EXPECT_EQ(seq, seqs[i]);
      ASSERT_TRUE(r.packet.clue.present);
      EXPECT_EQ(r.packet.clue.length, seq % 2 == 0 ? 16 : 8) << "seq " << seq;
      EXPECT_EQ(r.packet.src_id, 7);
      EXPECT_EQ(r.packet.ttl, 8);
    }
  }
};

TEST(GroReceiveTest, CoalescedReceiveBeyondOneBatchForwardsInOrder) {
  GroRig rig;
  // Hold the datapath's loop while one sendBatch of 192 equal datagrams
  // (three 64-segment GSO messages) lands, so one recvmmsg takes all three
  // and the walk cuts them into three kMaxBatch chunks.
  std::atomic<bool> held{false}, release{false};
  rig.daemon->datapath(0).loop().post([&] {
    held.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) ::usleep(100);
  });
  while (!held.load(std::memory_order_acquire)) ::usleep(100);
  std::vector<std::uint32_t> seqs;
  for (std::uint32_t seq = 0; seq < 192; ++seq) {
    rig.add(seq);
    seqs.push_back(seq);
  }
  rig.send();
  ::usleep(20'000);  // all three messages queued before the loop reads
  release.store(true, std::memory_order_release);

  rig.expectForwarded(seqs);
  rig.daemon->stop();
  const auto& dp = rig.daemon->datapath(0);
  EXPECT_EQ(dp.rxPackets(), 192u);
  EXPECT_EQ(dp.txPackets(), 192u);
  EXPECT_EQ(dp.decodeErrors(), 0u);
  EXPECT_EQ(dp.oracleMismatches(), 0u);
  if (netio::gsoSupported()) {
    EXPECT_EQ(rig.counter("netio_rx_syscalls_total"), 1u);
    std::vector<std::uint64_t> chunks;
    for (const obs::FlightEvent& e : rig.daemon->flight().ring(0).snapshot()) {
      if (e.kind == obs::FlightKind::kRxBatch) chunks.push_back(e.a);
    }
    EXPECT_EQ(chunks, (std::vector<std::uint64_t>{64, 64, 64}));
  }
}

TEST(GroReceiveTest, BadMagicInsideBurstCostsOneDecodeError) {
  GroRig rig;
  // One GSO message of 64 equal-length datagrams; #20 has a bad magic.
  std::vector<std::uint32_t> seqs;
  for (std::uint32_t seq = 0; seq < 64; ++seq) {
    auto& buf = rig.add(seq);
    if (seq == 20) {
      buf[0] ^= 0xff;
    } else {
      seqs.push_back(seq);
    }
  }
  rig.send();

  rig.expectForwarded(seqs);
  rig.daemon->stop();
  const auto& dp = rig.daemon->datapath(0);
  EXPECT_EQ(dp.decodeErrors(), 1u);
  EXPECT_EQ(dp.rxPackets(), 63u);
  EXPECT_EQ(dp.txPackets(), 63u);
  EXPECT_EQ(dp.oracleMismatches(), 0u);
}

TEST(GroReceiveTest, RunWithShorterLastDatagramDecodesEverySegment) {
  GroRig rig;
  // Nine datagrams with an 8-byte payload, then one with 4: one GSO
  // message whose last segment is shorter than the rest.
  std::vector<std::uint32_t> seqs;
  for (std::uint32_t seq = 0; seq < 10; ++seq) {
    rig.add(seq, seq < 9 ? 8 : 4);
    seqs.push_back(seq);
  }
  rig.send();

  rig.expectForwarded(seqs);
  rig.daemon->stop();
  const auto& dp = rig.daemon->datapath(0);
  EXPECT_EQ(dp.decodeErrors(), 0u);
  EXPECT_EQ(dp.rxPackets(), 10u);
  EXPECT_EQ(dp.txPackets(), 10u);
  EXPECT_EQ(dp.oracleMismatches(), 0u);
}

// ---------------------------------------------------------------------------
// Distributed tracing (DESIGN.md §11)
// ---------------------------------------------------------------------------

TEST(TraceWireTest, RoundTripFixpoint) {
  WirePacket<A> p;
  p.dest = a4("10.1.2.3");
  p.clue = core::ClueField::of(24);
  p.ttl = 9;
  p.src_id = 42;
  netio::TraceContext tc;
  tc.id_hi = 0x0102030405060708ULL;
  tc.id_lo = 0x090a0b0c0d0e0f10ULL;
  tc.hop = 2;
  tc.origin_ns = 0xfedcba9876543210ULL;
  p.trace = tc;
  const std::uint8_t payload[] = {1, 2, 3};
  p.payload = {payload, sizeof(payload)};

  std::uint8_t buf[netio::kMaxDatagram];
  const std::size_t len = netio::encode(p, buf);
  ASSERT_EQ(len,
            netio::headerBytes<A>() + netio::kTraceBytes + sizeof(payload));
  EXPECT_NE(buf[5] & netio::kFlagTrace, 0);

  const auto r = netio::decode<A>({buf, len});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.packet.trace.has_value());
  EXPECT_EQ(*r.packet.trace, tc);
  EXPECT_EQ(r.packet.dest, p.dest);
  ASSERT_EQ(r.packet.payload.size(), sizeof(payload));
  EXPECT_EQ(std::memcmp(r.packet.payload.data(), payload, sizeof(payload)),
            0);

  // encode ∘ decode fixpoint: re-encoding the decoded packet is bytewise
  // identical, trace context included.
  std::uint8_t buf2[netio::kMaxDatagram];
  const std::size_t len2 = netio::encode(r.packet, buf2);
  ASSERT_EQ(len2, len);
  EXPECT_EQ(std::memcmp(buf, buf2, len), 0);

  // An old-format datagram (no trace flag) still decodes with no context.
  WirePacket<A> old = p;
  old.trace.reset();
  const std::size_t olen = netio::encode(old, buf);
  ASSERT_EQ(olen, netio::headerBytes<A>() + sizeof(payload));
  const auto r_old = netio::decode<A>({buf, olen});
  ASSERT_TRUE(r_old.ok());
  EXPECT_FALSE(r_old.packet.trace.has_value());
}

TEST(TraceWireTest, TruncatedContextRejected) {
  WirePacket<A> p;
  p.dest = a4("10.1.2.3");
  p.trace = netio::TraceContext{1, 2, 3, 4};
  const std::uint8_t payload[] = {9, 9};
  p.payload = {payload, sizeof(payload)};
  std::uint8_t buf[netio::kMaxDatagram];
  const std::size_t len = netio::encode(p, buf);
  ASSERT_EQ(len,
            netio::headerBytes<A>() + netio::kTraceBytes + sizeof(payload));

  // Strict framing: any truncation of the trace context (or a trace flag on
  // a datagram too short to hold one) is kBadLength, not a short context.
  for (const std::size_t cut :
       {std::size_t{1}, std::size_t{2}, netio::kTraceBytes,
        netio::kTraceBytes + sizeof(payload)}) {
    EXPECT_EQ(netio::decode<A>({buf, len - cut}).error,
              DecodeError::kBadLength)
        << "cut=" << cut;
  }

  // Flag set but zero room for the context at all.
  WirePacket<A> bare;
  bare.dest = a4("10.1.2.3");
  std::uint8_t sbuf[netio::kMaxDatagram];
  const std::size_t slen = netio::encode(bare, sbuf);
  sbuf[5] |= netio::kFlagTrace;
  EXPECT_EQ(netio::decode<A>({sbuf, slen}).error, DecodeError::kBadLength);
}

TEST(TraceDaemonTest, SamplingDeterminismAndAdminDrain) {
  const std::string routes = tempPath("trace_sample.routes");
  writeFileOrDie(routes, "10.0.0.0/8 1\n0.0.0.0/0 9\n");
  netio::Config c = baseConfig(routes);
  c.name = "tracer";
  c.router_id = 5;
  c.trace_sample = 4;  // every 4th untraced ingress packet, per shard
  netio::Daemon daemon(c);  // no peer: routed packets are "delivered"
  daemon.start();

  WirePacket<A> p;
  p.dest = a4("10.9.9.9");
  p.clue = core::ClueField::of(8);
  p.ttl = 5;
  std::uint8_t buf[netio::kMaxDatagram];
  const std::size_t len = netio::encode(p, buf);
  netio::Fd tx = netio::udpSocket(SockAddr{kLoopback, 0});
  const std::size_t kPackets = 16;
  for (std::size_t i = 0; i < kPackets; ++i) {
    const netio::OutDatagram out{buf, len, daemon.dataAddr()};
    ASSERT_EQ(netio::sendBatch(tx.get(), &out, 1), 1);
  }
  for (int i = 0; i < 5000 && daemon.datapath(0).rxPackets() < kPackets;
       ++i) {
    ::usleep(1000);
  }
  ASSERT_EQ(daemon.datapath(0).rxPackets(), kPackets);

  // Deterministic 1-in-4: exactly ticks 0, 4, 8, 12 sampled, in order.
  const auto spans = daemon.datapath(0).drainSpans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    EXPECT_EQ(s.hop, 0);  // ingress-sampled
    EXPECT_EQ(s.router_id, 5);
    // id_hi folds (router_id, shard, ordinal); ordinals count samples.
    EXPECT_EQ(s.trace_hi, (std::uint64_t{5} << 48) | i);
    EXPECT_EQ(s.origin_ns, s.rx_ns);
    EXPECT_LE(s.rx_ns, s.decode_ns);
    EXPECT_LE(s.decode_ns, s.lookup_start_ns);
    EXPECT_LE(s.lookup_start_ns, s.lookup_end_ns);
    EXPECT_EQ(s.verdict, obs::SpanVerdict::kDelivered);
    EXPECT_EQ(s.tx_ns, 0u);
    EXPECT_EQ(s.clue_len, 8);
    EXPECT_GT(s.accessTotal(), 0u);
  }
  EXPECT_EQ(daemon.datapath(0).spansRecorded(), 4u);
  EXPECT_EQ(daemon.datapath(0).spansDropped(), 0u);

  // Another round reaches the /trace endpoint instead: 4 more JSONL spans.
  for (std::size_t i = 0; i < kPackets; ++i) {
    const netio::OutDatagram out{buf, len, daemon.dataAddr()};
    ASSERT_EQ(netio::sendBatch(tx.get(), &out, 1), 1);
  }
  for (int i = 0; i < 5000 && daemon.datapath(0).spansRecorded() < 8; ++i) {
    ::usleep(1000);
  }
  const std::string jsonl = adminGet(daemon.adminAddr(), "/trace");
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 4);
  EXPECT_NE(jsonl.find("\"router\":\"tracer\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"verdict\":\"delivered\""), std::string::npos);
  // Drained means drained: a second scrape is empty.
  EXPECT_EQ(adminGet(daemon.adminAddr(), "/trace"), "");

  // The always-on flight recorder saw the batches regardless of sampling.
  const std::string flight = adminGet(daemon.adminAddr(), "/debug/flight");
  EXPECT_NE(flight.find("\"router\":\"tracer\""), std::string::npos);
  EXPECT_NE(flight.find("\"kind\":\"rx_batch\""), std::string::npos);
  EXPECT_NE(flight.find("\"kind\":\"trace_start\""), std::string::npos);

  const std::string status = adminGet(daemon.adminAddr(), "/status");
  EXPECT_NE(status.find("\"trace_sample\":4"), std::string::npos);
  EXPECT_NE(status.find("\"trace_spans_recorded\":8"), std::string::npos);
  EXPECT_NE(status.find("\"pinned_seq\":[1]"), std::string::npos);
  EXPECT_NE(status.find("\"flight_events\":"), std::string::npos);
  daemon.stop();
  EXPECT_EQ(daemon.datapath(0).oracleMismatches(), 0u);
}

// A traced batch resolves like any other: one sendBatch of 16 datagrams,
// every one sampled, leaves 16 spans whose accesses are exactly what the
// port's post-pass fed lookup_accesses, and the spans of one receive chunk
// share that chunk's lookup window.
TEST(TraceDaemonTest, TracedBatchSharesOneResolve) {
  const std::string routes = tempPath("trace_batch.routes");
  writeFileOrDie(routes,
                 "10.0.0.0/8 1\n10.1.0.0/16 2\n10.1.2.0/24 3\n"
                 "10.2.0.0/16 4\n0.0.0.0/0 9\n");
  netio::Config c = baseConfig(routes);  // oracle = 1
  c.trace_sample = 1;
  netio::Daemon daemon(c);  // no peer: routed packets are "delivered"
  daemon.start();

  constexpr std::size_t kPackets = 16;
  const char* const dests[] = {"10.1.2.3", "10.1.9.9", "10.2.0.1",
                               "10.200.0.1"};
  std::uint8_t bufs[kPackets][netio::kMaxDatagram];
  std::array<netio::OutDatagram, kPackets> out;
  for (std::size_t i = 0; i < kPackets; ++i) {
    WirePacket<A> p;
    p.dest = a4(dests[i % 4]);
    // Clue-less, /8 (case 3 continuations) and /16 clues.
    p.clue = i % 3 == 0   ? core::ClueField::none()
             : i % 3 == 1 ? core::ClueField::of(8)
                          : core::ClueField::of(16);
    out[i] = {bufs[i], netio::encode(p, bufs[i]), daemon.dataAddr()};
  }
  netio::Fd tx = netio::udpSocket(SockAddr{kLoopback, 0});
  ASSERT_EQ(netio::sendBatch(tx.get(), out.data(), kPackets),
            static_cast<int>(kPackets));
  auto& dp = daemon.datapath(0);
  for (int i = 0; i < 5000 && dp.spansRecorded() < kPackets; ++i) {
    ::usleep(1000);
  }
  const auto spans = dp.drainSpans();
  ASSERT_EQ(spans.size(), kPackets);

  std::uint64_t span_accesses = 0;
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> window;
  for (const obs::PacketSpan& s : spans) {
    span_accesses += s.accessTotal();
    EXPECT_GT(s.accessTotal(), 0u);
    EXPECT_LE(s.rx_ns, s.decode_ns);
    EXPECT_LE(s.decode_ns, s.lookup_start_ns);
    EXPECT_LE(s.lookup_start_ns, s.lookup_end_ns);
    // rx_ns is per receive; ≤ kMaxBatch datagrams make one chunk.
    const auto [it, fresh] = window.try_emplace(
        s.rx_ns, s.lookup_start_ns, s.lookup_end_ns);
    if (!fresh) {
      EXPECT_EQ(it->second.first, s.lookup_start_ns);
      EXPECT_EQ(it->second.second, s.lookup_end_ns);
    }
  }
  const obs::MetricSnapshot snap = daemon.registry().snapshot();
  const obs::MetricSample* hist = snap.find("lookup_accesses");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, kPackets);
  EXPECT_EQ(hist->hist.sum, span_accesses);
  daemon.stop();
  EXPECT_EQ(dp.oracleMismatches(), 0u);
}

TEST(TraceDaemonTest, HopCountIncrementsAcrossChain) {
  const std::string routes = tempPath("trace_chain.routes");
  writeFileOrDie(routes, "10.0.0.0/8 1\n0.0.0.0/0 9\n");
  SockAddr sink_addr;
  netio::Fd sink = testSink(&sink_addr);

  // B first (A forwards into it); only A samples — B propagates.
  netio::Config cb = baseConfig(routes);
  cb.name = "B";
  cb.router_id = 2;
  cb.default_peer = sink_addr;
  netio::Daemon b(cb);
  b.start();

  netio::Config ca = baseConfig(routes);
  ca.name = "A";
  ca.router_id = 1;
  ca.trace_sample = 1;  // trace everything: every packet spans both hops
  ca.default_peer = b.dataAddr();
  netio::Daemon a(ca);
  a.start();

  WirePacket<A> p;
  p.dest = a4("10.7.7.7");
  p.clue = core::ClueField::of(8);
  p.ttl = 8;
  std::uint8_t buf[netio::kMaxDatagram];
  const std::size_t len = netio::encode(p, buf);
  netio::Fd tx = netio::udpSocket(SockAddr{kLoopback, 0});
  const std::size_t kPackets = 8;
  std::size_t sent = 0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    const netio::OutDatagram out{buf, len, a.dataAddr()};
    if (netio::sendBatch(tx.get(), &out, 1) == 1) ++sent;
    ::usleep(1000);  // pace: two daemons share the test core
  }
  ASSERT_GT(sent, 0u);

  // The sink sees B's re-encode: the context A stamped (hop 0), incremented
  // once by A's egress and once by B's — hop 2, id preserved verbatim.
  const auto got = recvAll(sink.get(), sent, 5000);
  ASSERT_FALSE(got.empty());
  for (const auto& d : got) {
    const auto r = netio::decode<A>({d.data.data(), d.len});
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.packet.trace.has_value());
    EXPECT_EQ(r.packet.trace->hop, 2);
    EXPECT_EQ(r.packet.trace->id_hi >> 48, 1u);  // minted by router 1
  }

  // Join the two hops' spans on the trace id: hop numbers 0 then 1, and
  // time flows forward across the wire (CLOCK_MONOTONIC is system-wide).
  // (B records a hop's span just after forwarding it, so give the recorders
  // a beat to catch up with what the sink already holds.)
  for (int i = 0; i < 5000 && (a.datapath(0).spansRecorded() < got.size() ||
                               b.datapath(0).spansRecorded() < got.size());
       ++i) {
    ::usleep(1000);
  }
  const auto spans_a = a.datapath(0).drainSpans();
  const auto spans_b = b.datapath(0).drainSpans();
  ASSERT_GE(spans_a.size(), got.size());
  ASSERT_GE(spans_b.size(), got.size());
  for (const auto& sb : spans_b) {
    EXPECT_EQ(sb.hop, 1);
    bool joined = false;
    for (const auto& sa : spans_a) {
      if (sa.trace_hi != sb.trace_hi || sa.trace_lo != sb.trace_lo) continue;
      joined = true;
      EXPECT_EQ(sa.hop, 0);
      EXPECT_EQ(sa.origin_ns, sb.origin_ns);  // propagated verbatim
      EXPECT_LE(sa.tx_ns, sb.rx_ns);
      EXPECT_GT(sa.tx_ns, 0u);
    }
    EXPECT_TRUE(joined) << "hop-1 span with no matching hop-0 span";
  }

  a.stop();
  b.stop();
  EXPECT_EQ(a.datapath(0).oracleMismatches(), 0u);
  EXPECT_EQ(b.datapath(0).oracleMismatches(), 0u);
}

}  // namespace
}  // namespace cluert
