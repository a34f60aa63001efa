// One data-plane shard of cluertd: an event loop, a UDP socket, and the
// same PinnedResolver the in-process pipeline workers use — so a packet
// that arrives from the wire takes *exactly* the per-batch pin → bindVersion
// → processBatch path the repo's experiments measure (DESIGN.md §9).
//
// Receive flow, per EPOLLIN: one recvmmsg of up to kRxMessages messages
// into the GroReceiver's slabs. The socket has UDP_GRO on, so a message may
// hold many datagrams of one sender's GSO run; the datagrams are walked in
// place, in arrival order, in chunks of ≤ kMaxBatch. Each chunk is one
// batch: decode each datagram through the wire codec (rejects counted,
// never fatal), pin ONE table version for the whole batch, resolve, then
// for each packet:
//   no BMP            → drop, netio_no_route_total
//   TTL ≤ 1           → drop, netio_ttl_expired_total
//   peer for next hop → re-encode with THIS router's clue (the matched
//                       prefix length — §2: the clue a router sends is its
//                       own BMP information) and TTL-1, then out through
//                       one sendBatch per chunk (consecutive datagrams to
//                       one peer leave as a GSO run)
//   no peer           → netio_delivered_total: last clue-speaking hop
//
// With `oracle` on, every packet is double-checked inside the read guard
// against brute-force BMP over the pinned version's local table — the
// wire-path equivalent of the simulator's per-packet differential oracle,
// at O(routes) per packet.
//
// Every count lands in this shard's cells of the daemon's MetricRegistry
// (obs::NetioObs, the per-peer series, the port's LookupObs) and nowhere
// else: /metrics exports them, /status sums them over shards, and the
// accessors below read this shard's cells. Each is tallied over a batch and
// added to its cell once per batch, so a cell costs one atomic add per batch
// that touches it, not one per packet.
//
// Distributed tracing (DESIGN.md §11): with trace_sample = N, every Nth
// untraced ingress packet gets a wire trace context; already-traced packets
// always propagate (hop+1 on re-encode). Traced or not, a batch resolves
// through one PinnedResolver::resolve; the port is always observed, so each
// Result carries its lookup's per-Region accesses, and every traced packet
// leaves a PacketSpan — outcome, flags and accesses from its Result, the
// lookup window bracketing the batch's resolve — in the shard's
// SpanCollector for /trace. The always-on flight recorder rides the same
// loop: batch arrivals, decode rejects and the drop taxonomy push O(ns)
// events into this shard's lock-free FlightRing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ip/ip_address.h"
#include "mem/access_counter.h"
#include "netio/config.h"
#include "netio/event_loop.h"
#include "netio/socket.h"
#include "netio/wire.h"
#include "obs/flight.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "pipeline/packet_batch.h"
#include "pipeline/pinned_resolver.h"
#include "rib/versioned_tables.h"

namespace cluert::netio {

class Datapath {
 public:
  using A = ip::Ip4Addr;

  // Rx datagrams are attributed per source router id up to this many ids;
  // higher ids fold into one "other" cell, bounding label cardinality no
  // matter what src_id bytes arrive off the wire.
  static constexpr std::uint16_t kMaxSrcLabel = 16;

  Datapath(const Config& config, std::size_t shard,
           rib::VersionedTables<A>& tables, obs::MetricRegistry& registry);
  ~Datapath();

  Datapath(const Datapath&) = delete;
  Datapath& operator=(const Datapath&) = delete;

  // Spawns the shard thread (binds the socket first, so dataAddr() is valid
  // as soon as the constructor returned).
  void start();

  // Asks the shard to drain: keep processing already-accepted datagrams
  // until the socket runs dry or drain_ms elapses, then stop the loop.
  // Returns immediately; join() to wait.
  void requestDrain();

  void join();

  const SockAddr& dataAddr() const { return data_addr_; }
  EventLoop& loop() { return loop_; }

  // Attaches this shard's flight-recorder ring (control-plane, before
  // start()). The shard is the ring's single writer from then on.
  void attachFlight(obs::FlightRing* ring) { flight_ = ring; }

  // Drains the hop-spans of traced packets (any thread; the /trace admin
  // endpoint calls this from the admin loop while the shard runs).
  std::vector<obs::PacketSpan> drainSpans() { return spans_.drain(); }
  std::uint64_t spansRecorded() const { return spans_.recorded(); }
  std::uint64_t spansDropped() const { return spans_.dropped(); }

  // This shard's totals: its cells of the registry's netio_* series.
  std::uint64_t rxPackets() const { return nobs_.rx_packets->get(); }
  std::uint64_t txPackets() const { return nobs_.tx_packets->get(); }
  std::uint64_t delivered() const { return nobs_.delivered->get(); }
  std::uint64_t decodeErrors() const { return nobs_.decode_errors->get(); }
  std::uint64_t noRoute() const { return nobs_.no_route->get(); }
  std::uint64_t ttlExpired() const { return nobs_.ttl_expired->get(); }
  std::uint64_t sendErrors() const { return nobs_.send_errors->get(); }
  std::uint64_t oracleMismatches() const {
    return nobs_.oracle_mismatch->get();
  }

  // The table version seq the last batch pinned (0 before any batch) — the
  // /status "pinned_seq" field.
  std::uint64_t lastPinnedSeq() const {
    return pinned_seq_.load(std::memory_order_relaxed);
  }

  // Label values of the per-peer series. netio_peer_rx_packets_total{src}:
  // the wire header's source router id, ids ≥ kMaxSrcLabel folded into
  // "other". netio_peer_tx_packets_total{peer}: one per tx-target slot, the
  // configured peers in next-hop order, then "default".
  static std::string srcLabel(std::uint16_t src_id);
  static std::vector<std::string> txPeerLabels(const Config& config);

 private:
  // Messages per receive: one recvmmsg fills at most this many slabs.
  static constexpr std::size_t kRxMessages = pipeline::kMaxBatch;

  void onReadable();
  // One receive round: one recvmmsg, then its datagrams in chunks of
  // ≤ kMaxBatch through forward(). Returns the messages received.
  int receive();
  // Forwards one chunk end-to-end: decode, pin, resolve, encode, send.
  void forward(std::span<const std::span<const std::uint8_t>> dgrams,
               std::uint64_t rx_ns);
  void drainStep(std::uint64_t deadline_ns);

  // The rx_by_src_ slot of `src_id`.
  static std::size_t srcSlot(std::uint16_t src_id);

  Config config_;
  std::size_t shard_;
  EventLoop loop_;
  Fd sock_;
  SockAddr data_addr_;
  pipeline::PinnedResolver<A> resolver_;
  mem::AccessCounter acc_;
  obs::NetioObs nobs_;
  // rx per source router id: [0, kMaxSrcLabel) exact + one "other".
  std::array<obs::CounterCell*, kMaxSrcLabel + 1> rx_by_src_{};
  // tx per configured peer endpoint, indexed like tx_targets_. The last
  // entry (when present) is peer.default.
  std::vector<obs::CounterCell*> tx_by_peer_;
  // One batch's tx count per peer, indexed like tx_by_peer_; all zero
  // between batches.
  std::vector<std::uint64_t> tx_tally_;
  std::vector<SockAddr> tx_targets_;
  std::map<NextHop, std::size_t> peer_index_;
  std::optional<std::size_t> default_index_;

  // Receive slabs and transmit scratch, sized once.
  GroReceiver receiver_;
  std::array<std::array<std::uint8_t, kMaxDatagram>, pipeline::kMaxBatch>
      tx_bufs_;

  std::thread thread_;
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> pinned_seq_{0};

  // Distributed tracing (owner-thread state; DESIGN.md §11). The sampler
  // ticks once per untraced ingress packet; ingress trace ids fold
  // (router_id, shard, sample ordinal) into id_hi.
  obs::SpanSampler sampler_;
  obs::SpanCollector spans_;
  obs::FlightRing* flight_ = nullptr;  // optional; owned by the daemon
};

}  // namespace cluert::netio
