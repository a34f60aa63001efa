#include "netio/daemon.h"

#include <sys/epoll.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <cstdio>

#include "common/check.h"
#include "common/text.h"
#include "obs/export.h"
#include "rib/fib_diff.h"

namespace cluert::netio {

Daemon::Daemon(const Config& config) : Daemon(config, Options()) {}

Daemon::Daemon(const Config& config, const Options& options)
    : config_(config),
      options_(options),
      // One ring per datapath shard + admin/signal thread + route updater:
      // each ring keeps exactly one writer thread (obs/flight.h contract).
      flight_(config.workers + 2) {
  // Block the handled signals BEFORE any thread exists (RouteUpdater and
  // the datapaths spawn below and inherit this mask) — otherwise a SIGTERM
  // can land on a thread with the default disposition and kill the process
  // instead of reaching the signalfd.
  if (options_.handle_signals) setupSignals();
  std::optional<rib::Fib<A>> local;
  if (const auto text = readFile(config_.routes)) {
    local = rib::Fib<A>::parse(*text);
  }
  CLUERT_CHECK(local.has_value())
      << "cannot load routes file " << config_.routes;
  local_mirror_ = std::move(*local);
  if (!config_.neighbor_routes.empty()) {
    std::optional<rib::Fib<A>> neighbor;
    if (const auto text = readFile(config_.neighbor_routes)) {
      neighbor = rib::Fib<A>::parse(*text);
    }
    CLUERT_CHECK(neighbor.has_value())
        << "cannot load neighbor_routes file " << config_.neighbor_routes;
    neighbor_mirror_ = std::move(*neighbor);
  } else {
    // Simple mode verifies only the receiver's own table; an empty sender
    // universe keeps Advance's Claim-1 machinery inert.
    neighbor_mirror_ = local_mirror_;
  }

  typename rib::VersionedTables<A>::Options topts;
  topts.method = config_.method;
  topts.mode = config_.mode;
  topts.registry = &registry_;
  // The daemon swaps tables while the wire is live; re-validating every
  // retired version on the updater thread is sim/test-tier paranoia that a
  // router under load cannot afford per delta.
  topts.validate_retired = false;
  // The updater thread is the publish hook's caller — and the updater
  // ring's single writer.
  topts.on_publish = [this](const rib::TableVersion<A>& v) {
    flight_.ring(updaterRing()).push(obs::FlightKind::kPublish, v.seq);
  };
  tables_ = std::make_unique<rib::VersionedTables<A>>(local_mirror_,
                                                      neighbor_mirror_, topts);
  updater_ = std::make_unique<rib::RouteUpdater<A>>(*tables_);

  datapaths_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    Config shard_config = config_;
    // Shards after the first bind the address the first shard got — with
    // listen port 0 the kernel picks once, and SO_REUSEPORT spreads flows.
    if (w > 0) shard_config.listen = datapaths_.front()->dataAddr();
    datapaths_.push_back(std::make_unique<Datapath>(shard_config, w, *tables_,
                                                    registry_));
  }
  for (std::size_t w = 0; w < datapaths_.size(); ++w) {
    flight_.ring(w).setWorker(static_cast<std::uint8_t>(w));
    datapaths_[w]->attachFlight(&flight_.ring(w));
  }
  flight_.ring(adminRing()).setWorker(static_cast<std::uint8_t>(adminRing()));
  flight_.ring(updaterRing())
      .setWorker(static_cast<std::uint8_t>(updaterRing()));

  admin_ = std::make_unique<AdminServer>(admin_loop_, config_.admin);
  admin_->route("/metrics", [this] {
    return AdminResponse{200, "text/plain; version=0.0.4",
                         obs::toPrometheus(registry_.snapshot())};
  });
  admin_->route("/status", [this] { return statusJson(); });
  admin_->route("/reload", [this] { return reloadResponse(); });
  admin_->route("/healthz",
                [] { return AdminResponse{200, "text/plain", "ok\n"}; });
  // Route handlers run on the admin loop thread, which is the admin ring's
  // single writer — the kReload/kShutdown/kSignal pushes below and in the
  // signalfd handler all come from that one thread.
  admin_->route("/trace", [this] {
    return AdminResponse{200, "application/x-ndjson", drainTraceJsonl()};
  });
  admin_->route("/debug/flight", [this] {
    return AdminResponse{200, "application/json",
                         flight_.toJson(config_.name)};
  });
  admin_->route("/quit", [this] {
    flight_.ring(adminRing()).push(obs::FlightKind::kShutdown);
    beginShutdown();
    return AdminResponse{200, "text/plain", "shutting down\n"};
  });
}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  started_at_ = std::chrono::steady_clock::now();
  for (auto& dp : datapaths_) dp->start();
  admin_thread_ = std::thread([this] { admin_loop_.run(); });
}

void Daemon::beginShutdown() {
  {
    sync::MutexLock lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Daemon::waitShutdown() {
  {
    sync::MutexLock lock(shutdown_mu_);
    shutdown_cv_.wait(shutdown_mu_,
                      [this]() CLUERT_REQUIRES(shutdown_mu_) {
                        return shutdown_requested_;
                      });
    if (torn_down_) return;
    torn_down_ = true;
  }
  draining_.store(true, std::memory_order_relaxed);
  // Bounded drain: already-accepted datagrams are processed, new arrivals
  // past drain_ms are the network's problem (it's UDP).
  for (auto& dp : datapaths_) dp->requestDrain();
  for (auto& dp : datapaths_) dp->join();
  // Everything the admin plane enqueued gets published before the tables
  // die.
  updater_->stop();
  if (!config_.metrics_out.empty()) {
    writeFile(config_.metrics_out, obs::toPrometheus(registry_.snapshot()));
  }
  admin_loop_.stop();
  if (admin_thread_.joinable()) admin_thread_.join();
  teardownSignals();
}

void Daemon::stop() {
  beginShutdown();
  waitShutdown();
}

std::uint64_t Daemon::liveSeq() const { return tables_->liveSeq(); }

std::uint64_t Daemon::reload() {
  std::optional<rib::Fib<A>> local;
  if (const auto text = readFile(config_.routes)) {
    local = rib::Fib<A>::parse(*text);
  }
  if (!local) return 0;
  std::optional<rib::Fib<A>> neighbor;
  if (!config_.neighbor_routes.empty()) {
    if (const auto text = readFile(config_.neighbor_routes)) {
      neighbor = rib::Fib<A>::parse(*text);
    }
    if (!neighbor) return 0;
  }
  rib::FibDelta<A> dl;
  rib::FibDelta<A> dn;
  {
    sync::MutexLock lock(fib_mu_);
    dl = rib::diff(local_mirror_, *local);
    local_mirror_ = std::move(*local);
    if (neighbor) {
      dn = rib::diff(neighbor_mirror_, *neighbor);
      neighbor_mirror_ = std::move(*neighbor);
    }
  }
  // Neighbor first: a new local route whose clue relies on a new sender
  // prefix must not go live before that prefix exists in the clue universe.
  if (!dn.empty()) updater_->enqueueNeighbor(std::move(dn));
  if (!dl.empty()) updater_->enqueueLocal(std::move(dl));
  updater_->flush();
  return liveSeq();
}

AdminResponse Daemon::statusJson() {
  // Every counter below is a registry series summed over its shards — the
  // same numbers /metrics exports.
  const obs::MetricSnapshot snap = registry_.snapshot();
  const auto sum = [&snap](std::string_view name) {
    std::uint64_t n = 0;
    for (const obs::MetricSample& s : snap.samples) {
      if (s.desc.name == name) n += s.counter_value;
    }
    return n;
  };
  const auto value = [&snap](std::string_view name, const obs::Labels& l) {
    const obs::MetricSample* s = snap.find(name, l);
    return s == nullptr ? std::uint64_t{0} : s->counter_value;
  };
  std::uint64_t spans_recorded = 0, spans_dropped = 0;
  for (const auto& dp : datapaths_) {
    spans_recorded += dp->spansRecorded();
    spans_dropped += dp->spansDropped();
  }
  std::uint64_t flight_events = 0;
  for (std::size_t i = 0; i < flight_.ringCount(); ++i) {
    flight_events += flight_.ring(i).count();
  }
  const auto uptime = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - started_at_)
                          .count();
  std::ostringstream js;
  js << "{\"name\":\"" << config_.name << "\",\"router_id\":"
     << config_.router_id << ",\"uptime_ms\":" << uptime
     << ",\"live_seq\":" << liveSeq() << ",\"workers\":" << datapaths_.size()
     << ",\"rx_packets\":" << sum("netio_rx_packets_total")
     << ",\"tx_packets\":" << sum("netio_tx_packets_total")
     << ",\"delivered\":" << sum("netio_delivered_total")
     << ",\"decode_errors\":" << sum("netio_decode_errors_total")
     << ",\"no_route\":" << sum("netio_no_route_total")
     << ",\"ttl_expired\":" << sum("netio_ttl_expired_total")
     << ",\"send_errors\":" << sum("netio_send_errors_total")
     << ",\"oracle_mismatches\":" << sum("netio_oracle_mismatch_total");
  // The table version each shard pinned for its latest batch — lets an
  // operator see a reload actually reach the data plane, per worker.
  js << ",\"pinned_seq\":[";
  for (std::size_t w = 0; w < datapaths_.size(); ++w) {
    if (w > 0) js << ',';
    js << datapaths_[w]->lastPinnedSeq();
  }
  js << ']';
  // Per-peer counters: rx keyed by the upstream router id off the wire
  // (nonzero series only; id kMaxSrcLabel is the "other" series folding
  // everything larger), tx by configured tx-target slot (peer.default last
  // when present).
  js << ",\"peers_rx\":{";
  bool first = true;
  for (std::uint16_t s = 0; s <= Datapath::kMaxSrcLabel; ++s) {
    const std::uint64_t n = value("netio_peer_rx_packets_total",
                                  {{"src", Datapath::srcLabel(s)}});
    if (n == 0) continue;
    if (!first) js << ',';
    first = false;
    js << '"' << s << "\":" << n;
  }
  js << '}';
  js << ",\"peers_tx\":[";
  first = true;
  for (const std::string& label : Datapath::txPeerLabels(config_)) {
    if (!first) js << ',';
    first = false;
    js << value("netio_peer_tx_packets_total", {{"peer", label}});
  }
  js << ']';
  js << ",\"trace_sample\":" << config_.trace_sample
     << ",\"trace_spans_recorded\":" << spans_recorded
     << ",\"trace_spans_dropped\":" << spans_dropped
     << ",\"flight_events\":" << flight_events << ",\"draining\":"
     << (draining_.load(std::memory_order_relaxed) ? "true" : "false")
     << "}\n";
  return AdminResponse{200, "application/json", js.str()};
}

std::string Daemon::drainTraceJsonl() {
  std::vector<obs::PacketSpan> all;
  for (auto& dp : datapaths_) {
    auto spans = dp->drainSpans();
    all.insert(all.end(), spans.begin(), spans.end());
  }
  return obs::spansToJsonl({all.data(), all.size()}, config_.name);
}

void Daemon::dumpFlight() {
  const std::string body = flight_.toJson(config_.name);
  if (config_.flight_out.empty()) {
    std::fwrite(body.data(), 1, body.size(), stderr);
    std::fflush(stderr);
  } else {
    writeFile(config_.flight_out, body);
  }
}

AdminResponse Daemon::reloadResponse() {
  const std::uint64_t seq = reload();
  flight_.ring(adminRing()).push(obs::FlightKind::kReload, seq);
  if (seq == 0) {
    return AdminResponse{400, "application/json",
                         "{\"reloaded\":false}\n"};
  }
  std::ostringstream js;
  js << "{\"reloaded\":true,\"live_seq\":" << seq << "}\n";
  return AdminResponse{200, "application/json", js.str()};
}

void Daemon::setupSignals() {
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGHUP);
  sigaddset(&mask, SIGQUIT);
  CLUERT_CHECK(pthread_sigmask(SIG_BLOCK, &mask, &old_sigmask_) == 0)
      << "pthread_sigmask failed";
  signal_fd_ = Fd(::signalfd(-1, &mask, SFD_NONBLOCK));
  CLUERT_CHECK(signal_fd_.valid()) << "signalfd failed";
  signals_active_ = true;
  admin_loop_.add(signal_fd_.get(), EPOLLIN, [this](std::uint32_t) {
    signalfd_siginfo si{};
    while (::read(signal_fd_.get(), &si, sizeof(si)) == sizeof(si)) {
      auto& ring = flight_.ring(adminRing());
      ring.push(obs::FlightKind::kSignal, si.ssi_signo);
      if (si.ssi_signo == SIGHUP) {
        ring.push(obs::FlightKind::kReload, reload());
      } else if (si.ssi_signo == SIGQUIT) {
        // Dump-and-continue, like a JVM thread dump: the recorder is for
        // inspecting a live (or wedged) daemon, not just a dying one.
        dumpFlight();
      } else {
        ring.push(obs::FlightKind::kShutdown);
        beginShutdown();
      }
    }
  });
}

void Daemon::teardownSignals() {
  if (!signals_active_) return;
  signals_active_ = false;
  // The admin loop is stopped by the time we get here only on the stop()
  // path; removing by fd is safe from this thread because the loop has
  // exited (waitShutdown joins it first).
  signal_fd_.reset();
  pthread_sigmask(SIG_SETMASK, &old_sigmask_, nullptr);
}

}  // namespace cluert::netio
