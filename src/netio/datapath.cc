#include "netio/datapath.h"

#include <sys/epoll.h>

#include <span>
#include <string>

#include "check/fib_check.h"
#include "common/check.h"
#include "common/clock.h"
#include "core/distributed_lookup.h"

namespace cluert::netio {

namespace {

std::unique_ptr<core::CluePort<ip::Ip4Addr>> makePort(const Config& c) {
  typename core::CluePort<ip::Ip4Addr>::Options o;
  o.method = c.method;
  o.mode = c.mode;
  o.cache_entries = c.cache_entries;
  return std::make_unique<core::CluePort<ip::Ip4Addr>>(o);
}

}  // namespace

Datapath::Datapath(const Config& config, std::size_t shard,
                   rib::VersionedTables<A>& tables,
                   obs::MetricRegistry& registry)
    : config_(config),
      shard_(shard),
      sock_(udpSocket(config.listen, /*reuseport=*/config.workers > 1,
                      config.rcvbuf)),
      resolver_(makePort(config), shard),
      nobs_(obs::NetioObs::bind(registry, shard,
                                {{"shard", std::to_string(shard)}})),
      receiver_(kRxMessages),
      sampler_(config.trace_sample, /*phase=*/0) {
  CLUERT_CHECK(sock_.valid())
      << "cannot bind UDP " << config.listen.toString();
  // Without GRO (an old kernel) every message is one datagram; the receive
  // below handles both.
  enableGro(sock_.get());
  const auto bound = localAddr(sock_.get());
  CLUERT_CHECK(bound.has_value()) << "getsockname failed";
  data_addr_ = *bound;
  resolver_.bindVersions(&tables);
  resolver_.port().attachObs(obs::LookupObs::bind(registry, shard_));

  for (std::uint16_t s = 0; s <= kMaxSrcLabel; ++s) {
    rx_by_src_[s] = &registry
                         .counter("netio_peer_rx_packets_total",
                                  "Ingress datagrams by the wire header's "
                                  "source router id",
                                  {{"src", srcLabel(s)}})
                         .shard(shard_);
  }
  for (const std::string& label : txPeerLabels(config_)) {
    tx_by_peer_.push_back(&registry
                               .counter("netio_peer_tx_packets_total",
                                        "Egress datagrams by next-hop peer",
                                        {{"peer", label}})
                               .shard(shard_));
  }
  for (const auto& [nh, addr] : config_.peers) {
    peer_index_[nh] = tx_targets_.size();
    tx_targets_.push_back(addr);
  }
  if (config_.default_peer) {
    default_index_ = tx_targets_.size();
    tx_targets_.push_back(*config_.default_peer);
  }

  loop_.add(sock_.get(), EPOLLIN, [this](std::uint32_t) { onReadable(); });
}

std::string Datapath::srcLabel(std::uint16_t src_id) {
  return src_id < kMaxSrcLabel ? std::to_string(src_id) : "other";
}

std::vector<std::string> Datapath::txPeerLabels(const Config& config) {
  std::vector<std::string> labels;
  for (const auto& [nh, addr] : config.peers) {
    labels.push_back(std::to_string(nh));
  }
  if (config.default_peer) labels.push_back("default");
  return labels;
}

Datapath::~Datapath() { join(); }

void Datapath::start() {
  thread_ = std::thread([this] { loop_.run(); });
}

void Datapath::join() {
  if (thread_.joinable()) thread_.join();
}

void Datapath::requestDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_seq_cst)) {
    return;
  }
  loop_.post([this] {
    if (flight_ != nullptr) flight_->push(obs::FlightKind::kDrain);
    const std::uint64_t deadline =
        steadyNs() + std::uint64_t{config_.drain_ms} * 1000000ULL;
    drainStep(deadline);
  });
}

void Datapath::drainStep(std::uint64_t deadline_ns) {
  // Drain already-accepted datagrams: keep pulling until the kernel buffer
  // is dry (no loss for anything the socket took before the SIGTERM) or the
  // drain budget runs out, whichever is first.
  while (steadyNs() < deadline_ns) {
    if (receive() == 0) break;
  }
  loop_.stop();
}

obs::CounterCell& Datapath::rxCellFor(std::uint16_t src_id) {
  return *rx_by_src_[src_id < kMaxSrcLabel ? src_id : kMaxSrcLabel];
}

void Datapath::onReadable() {
  // Level-triggered: processing a bounded number of rounds per callback
  // keeps posted tasks responsive under sustained load.
  for (int round = 0; round < 4; ++round) {
    if (receive() < static_cast<int>(kRxMessages)) break;
  }
}

int Datapath::receive() {
  const int msgs = receiver_.recv(sock_.get());
  if (msgs <= 0) return 0;
  const std::uint64_t rx_ns = steadyNs();
  nobs_.rx_syscalls->inc();
  std::array<std::span<const std::uint8_t>, pipeline::kMaxBatch> dgrams;
  while (const std::size_t n = receiver_.next(dgrams.data(), dgrams.size())) {
    forward({dgrams.data(), n}, rx_ns);
  }
  return msgs;
}

void Datapath::forward(std::span<const std::span<const std::uint8_t>> dgrams,
                       std::uint64_t rx_ns) {
  if (flight_ != nullptr) {
    flight_->push(obs::FlightKind::kRxBatch, dgrams.size());
  }

  // Decode pass: valid packets compact into the resolve arrays; the decode
  // buffer stays alive (payload spans alias it) until the send below. An
  // untraced packet may pick up a fresh trace context here — the ingress
  // 1-in-N sample (phase 0: untraced arrivals 0, N, 2N, … of this shard).
  std::array<WirePacket<A>, pipeline::kMaxBatch> pkts;
  std::array<A, pipeline::kMaxBatch> dests;
  std::array<core::ClueField, pipeline::kMaxBatch> clues;
  std::array<core::CluePort<A>::Result, pipeline::kMaxBatch> results;
  std::size_t valid = 0;
  std::uint64_t rx_bytes = 0;
  bool any_traced = false;
  for (const std::span<const std::uint8_t> dgram : dgrams) {
    const auto r = decode<A>(dgram);
    if (!r.ok()) {
      nobs_.decode_errors->inc();
      if (flight_ != nullptr) {
        flight_->push(obs::FlightKind::kDecodeReject,
                      static_cast<std::uint64_t>(r.error));
      }
      continue;
    }
    rxCellFor(r.packet.src_id).inc();
    rx_bytes += dgram.size();
    pkts[valid] = r.packet;
    if (!pkts[valid].trace.has_value() && sampler_.sample()) {
      TraceContext tc;
      // (router_id, shard, sample ordinal) make the id unique across the
      // topology; the low word carries the origin timestamp for free.
      tc.id_hi = (std::uint64_t{config_.router_id} << 48) |
                 (std::uint64_t{static_cast<std::uint32_t>(shard_)} << 32) |
                 ((sampler_.samples() - 1) & 0xffffffffULL);
      tc.id_lo = rx_ns;
      tc.hop = 0;
      tc.origin_ns = rx_ns;
      pkts[valid].trace = tc;
      if (flight_ != nullptr) {
        flight_->push(obs::FlightKind::kTraceStart, tc.id_hi, tc.id_lo);
      }
    }
    any_traced = any_traced || pkts[valid].trace.has_value();
    dests[valid] = r.packet.dest;
    clues[valid] = r.packet.clue;
    ++valid;
  }
  nobs_.rx_packets->inc(valid);
  nobs_.rx_bytes->inc(rx_bytes);
  if (valid == 0) return;
  // Decode ends where the lookup window opens; both are read only when a
  // span will carry them.
  const std::uint64_t decode_ns = any_traced ? steadyNs() : rx_ns;

  // One pinned version for the whole batch; the optional differential
  // oracle runs inside the guard so it reads the *same* version the port
  // answered from. The lookup window closes before the oracle runs.
  std::uint64_t lookup_end_ns = 0;
  const std::uint64_t seq = resolver_.resolve(
      {dests.data(), valid}, {clues.data(), valid}, {results.data(), valid},
      acc_, [&](const rib::TableVersion<A>* version) {
        if (any_traced) lookup_end_ns = steadyNs();
        if (!config_.oracle || version == nullptr) return;
        // Brute-force BMP over the pinned receiver table, not the engine
        // whose continuation the port just ran: a defect shared by the
        // common lookup and the continuation must not read as agreement.
        for (std::size_t i = 0; i < valid; ++i) {
          const auto expect =
              check::bruteForceBmp(version->local.entries(), dests[i]);
          const auto& got = results[i].match;
          const bool mismatch =
              expect.has_value() != got.has_value() ||
              (expect.has_value() &&
               (expect->next_hop != got->next_hop ||
                expect->prefix != got->prefix));
          if (mismatch) nobs_.oracle_mismatch->inc();
        }
      });
  pinned_seq_.store(seq, std::memory_order_relaxed);

  // Forwarding pass: re-encode toward peers, settle the drop taxonomy. A
  // traced packet propagates its context verbatim with hop+1.
  std::array<OutDatagram, pipeline::kMaxBatch> out;
  std::array<std::size_t, pipeline::kMaxBatch> out_peer_idx;
  std::array<std::size_t, pipeline::kMaxBatch> out_src;  // out slot → valid i
  std::array<obs::SpanVerdict, pipeline::kMaxBatch> verdicts;
  std::size_t n_out = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t no_route_batch = 0, ttl_batch = 0, enc_err_batch = 0;
  for (std::size_t i = 0; i < valid; ++i) {
    const auto& m = results[i].match;
    if (!m.has_value()) {
      nobs_.no_route->inc();
      verdicts[i] = obs::SpanVerdict::kNoRoute;
      ++no_route_batch;
      continue;
    }
    std::size_t peer_idx = 0;
    {
      auto it = peer_index_.find(m->next_hop);
      if (it != peer_index_.end()) {
        peer_idx = it->second;
      } else if (default_index_) {
        peer_idx = *default_index_;
      } else {
        nobs_.delivered->inc();
        verdicts[i] = obs::SpanVerdict::kDelivered;
        continue;
      }
    }
    if (pkts[i].ttl <= 1) {
      nobs_.ttl_expired->inc();
      verdicts[i] = obs::SpanVerdict::kTtlExpired;
      ++ttl_batch;
      continue;
    }
    WirePacket<A> fwd;
    fwd.dest = pkts[i].dest;
    // §2: the clue this router sends downstream is its own BMP — the length
    // of the prefix it matched. (A default-route match has length 0, which
    // encodes as "no clue": the downstream falls back to a common lookup.)
    fwd.clue = m->prefix.length() > 0 ? core::ClueField::of(m->prefix.length())
                                      : core::ClueField::none();
    fwd.ttl = static_cast<std::uint8_t>(pkts[i].ttl - 1);
    fwd.src_id = config_.router_id;
    fwd.trace = pkts[i].trace;
    if (fwd.trace.has_value() && fwd.trace->hop < 0xff) ++fwd.trace->hop;
    fwd.payload = pkts[i].payload;
    const std::size_t len = encode(fwd, tx_bufs_[n_out]);
    if (len == 0) {
      nobs_.send_errors->inc();
      verdicts[i] = obs::SpanVerdict::kSendError;
      ++enc_err_batch;
      continue;
    }
    out[n_out] = OutDatagram{tx_bufs_[n_out].data(), len,
                             tx_targets_[peer_idx]};
    out_peer_idx[n_out] = peer_idx;
    out_src[n_out] = i;
    verdicts[i] = obs::SpanVerdict::kForwarded;
    tx_bytes += len;
    ++n_out;
  }
  // Stamped BEFORE the send syscall: the downstream hop's rx_ns is after
  // the datagram arrived, so pre-send stamping keeps tx(hop k) <= rx(hop
  // k+1) on a shared monotonic clock — post-send stamping would not.
  const std::uint64_t tx_ns = any_traced ? steadyNs() : 0;
  std::size_t sent_ok = 0;
  if (n_out > 0) {
    std::uint64_t syscalls = 0;
    const int sent = sendBatch(sock_.get(), out.data(),
                               static_cast<int>(n_out), syscalls);
    nobs_.tx_syscalls->inc(syscalls);
    sent_ok = sent < 0 ? 0 : static_cast<std::size_t>(sent);
    nobs_.tx_packets->inc(sent_ok);
    nobs_.tx_bytes->inc(tx_bytes);
    for (std::size_t i = 0; i < sent_ok; ++i) {
      tx_by_peer_[out_peer_idx[i]]->inc();
    }
    // sendmmsg accepts a prefix: everything past `sent_ok` never left.
    if (sent_ok < n_out) nobs_.send_errors->inc(n_out - sent_ok);
    for (std::size_t s = sent_ok; s < n_out; ++s) {
      verdicts[out_src[s]] = obs::SpanVerdict::kSendError;
    }
  }
  if (flight_ != nullptr) {
    if (no_route_batch > 0) {
      flight_->push(obs::FlightKind::kNoRoute, no_route_batch);
    }
    if (ttl_batch > 0) flight_->push(obs::FlightKind::kTtlExpired, ttl_batch);
    const std::uint64_t send_err_batch =
        enc_err_batch + (n_out - sent_ok);
    if (send_err_batch > 0) {
      flight_->push(obs::FlightKind::kSendError, send_err_batch);
    }
  }

  // Span pass: one PacketSpan per traced packet, handed to the admin plane
  // through the collector. Off the hot path — runs only when the batch
  // carried a traced packet at all.
  if (any_traced) {
    for (std::size_t i = 0; i < valid; ++i) {
      if (!pkts[i].trace.has_value()) continue;
      const TraceContext& tc = *pkts[i].trace;
      obs::PacketSpan s;
      s.trace_hi = tc.id_hi;
      s.trace_lo = tc.id_lo;
      s.origin_ns = tc.origin_ns;
      s.hop = tc.hop;
      s.router_id = config_.router_id;
      s.worker = static_cast<std::uint32_t>(shard_);
      s.dest = pkts[i].dest.value();
      s.src_id = pkts[i].src_id;
      s.rx_ns = rx_ns;
      s.decode_ns = decode_ns;
      s.lookup_start_ns = decode_ns;
      s.lookup_end_ns = lookup_end_ns;
      s.verdict = verdicts[i];
      const bool went_out = verdicts[i] == obs::SpanVerdict::kForwarded;
      s.tx_ns = went_out ? tx_ns : 0;
      s.clue_len = pkts[i].clue.present
                       ? static_cast<std::int16_t>(pkts[i].clue.length)
                       : std::int16_t{-1};
      s.outcome = results[i].outcome;
      s.claim1_skip = results[i].claim1_skip;
      s.search_failed = results[i].search_failed;
      s.accesses = results[i].accesses;
      spans_.record(s);
    }
  }
}

}  // namespace cluert::netio
