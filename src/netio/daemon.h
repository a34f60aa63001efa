// The cluertd process object: wires the subsystems together and owns their
// lifetimes (DESIGN.md §9 threading model).
//
//   admin thread   — control EventLoop: TCP admin server, signalfd,
//                    reload, shutdown sequencing
//   datapath ×N    — one EventLoop + UDP socket + PinnedResolver each
//   updater thread — rib::RouteUpdater publishing FibDeltas into the
//                    epoch-versioned tables all datapaths pin from
//
// Startup order: load config → load FIBs → build VersionedTables (seq 1 is
// live before any socket exists) → start updater → start datapaths → start
// admin loop. Shutdown inverts it with a bounded drain: each datapath
// keeps consuming already-accepted datagrams until its socket is dry or
// drain_ms expires, so a SIGTERM never loses work the kernel had accepted.
//
// Embeddable by design: tests run whole topologies of in-process Daemons,
// and perfbench's wire_loopback times one; cluertd_main adds only signal
// wiring and argv.
#pragma once

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "netio/admin.h"
#include "netio/config.h"
#include "netio/datapath.h"
#include "netio/event_loop.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "rib/fib.h"
#include "rib/route_updater.h"
#include "rib/versioned_tables.h"

namespace cluert::netio {

class Daemon {
 public:
  using A = ip::Ip4Addr;

  struct Options {
    // Block and handle SIGTERM/SIGINT (shutdown) and SIGHUP (reload) via a
    // signalfd on the admin loop. Only the real daemon turns this on; tests
    // that embed a Daemon leave signal disposition alone unless they are
    // specifically testing it.
    bool handle_signals = false;
  };

  // Throws CLUERT_CHECK failures on unbindable sockets / unreadable route
  // files — a daemon that cannot serve should die loudly at startup.
  explicit Daemon(const Config& config);
  Daemon(const Config& config, const Options& options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Starts updater, datapaths and the admin loop. Non-blocking.
  void start();

  // Thread-safe and async-signal-adjacent: flips the shutdown flag and
  // wakes waitShutdown(). Called by /quit, the signalfd handler, stop().
  void beginShutdown();

  // Blocks until beginShutdown(), then tears down in order: drain + join
  // datapaths, stop updater (publishes everything enqueued), write the
  // final metrics snapshot, stop the admin loop. Idempotent.
  void waitShutdown();

  // beginShutdown() + waitShutdown().
  void stop();

  // Triggers the same reload the admin /reload endpoint runs (re-read route
  // files, diff, publish). Returns the live seq after the flush, or 0 when
  // a route file failed to load (the old tables stay live).
  std::uint64_t reload();

  const SockAddr& dataAddr() const { return datapaths_.front()->dataAddr(); }
  const SockAddr& adminAddr() const { return admin_->adminAddr(); }
  obs::MetricRegistry& registry() { return registry_; }
  std::uint64_t liveSeq() const;
  const Config& config() const { return config_; }
  Datapath& datapath(std::size_t i) { return *datapaths_[i]; }
  std::size_t datapathCount() const { return datapaths_.size(); }

  // The flight recorder: rings [0, workers) belong to the datapath shards,
  // ring workers to the admin/signal thread, ring workers+1 to the route
  // updater (via the on_publish hook).
  obs::FlightRecorder& flight() { return flight_; }

  // Drains every shard's SpanCollector into one JSONL body — what the
  // /trace admin endpoint serves.
  std::string drainTraceJsonl();

  // Writes the flight-recorder JSON to config.flight_out (stderr when
  // unset). The SIGQUIT dump-and-continue path; also callable by tests.
  void dumpFlight();

 private:
  AdminResponse statusJson();
  AdminResponse reloadResponse();
  void setupSignals();
  void teardownSignals();

  std::size_t adminRing() const { return config_.workers; }
  std::size_t updaterRing() const { return config_.workers + 1; }

  Config config_;
  Options options_;
  obs::MetricRegistry registry_;
  // Before tables_/datapaths_: writer threads hold ring pointers, so the
  // rings must outlive them (members destroy in reverse order).
  obs::FlightRecorder flight_;

  sync::Mutex fib_mu_;  // guards the mirrors during reload
  rib::Fib<A> local_mirror_ CLUERT_GUARDED_BY(fib_mu_);
  rib::Fib<A> neighbor_mirror_ CLUERT_GUARDED_BY(fib_mu_);

  std::unique_ptr<rib::VersionedTables<A>> tables_;
  std::unique_ptr<rib::RouteUpdater<A>> updater_;
  std::vector<std::unique_ptr<Datapath>> datapaths_;

  EventLoop admin_loop_;
  std::unique_ptr<AdminServer> admin_;
  std::thread admin_thread_;

  Fd signal_fd_;
  sigset_t old_sigmask_{};
  bool signals_active_ = false;

  std::chrono::steady_clock::time_point started_at_;

  sync::Mutex shutdown_mu_;
  sync::CondVar shutdown_cv_;
  bool shutdown_requested_ CLUERT_GUARDED_BY(shutdown_mu_) = false;
  bool torn_down_ CLUERT_GUARDED_BY(shutdown_mu_) = false;
  std::atomic<bool> draining_{false};
};

}  // namespace cluert::netio
