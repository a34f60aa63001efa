// Pre-bound instrument bundles for the data plane.
//
// Hot-path code must not pay a name lookup (or the registry mutex) per
// packet, so instrumented classes hold one of these bundles instead of a
// MetricRegistry: bind() resolves the named instruments once on the control
// plane and stores raw pointers to *this worker's* shard cells. A
// default-constructed bundle is inert; CluePort tests it once per resolve
// call, not per packet.
//
// Metric names are fixed here so every producer (CluePort, Worker, the netio
// datapath, VersionedTables, benches) feeds the same series and DESIGN.md
// can map them to the paper's §6 tables.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/span.h"

namespace cluert::obs {

// Per-worker view of the lookup-path metrics, fed by CluePort's post-pass
// over the results of each resolve call.
struct LookupObs {
  CounterCell* packets = nullptr;
  // One cell per Outcome, indexed by static_cast<size_t>(Outcome): the
  // lookup_case_total{case=...} family. Summed over cases it equals
  // lookup_packets_total — the invariant the CluePortObs tests and
  // examples/pipeline_throughput check.
  std::array<CounterCell*, kOutcomeCount> cases{};
  CounterCell* claim1_skip = nullptr;
  CounterCell* search_failed = nullptr;
  Histogram* accesses = nullptr;     // per-lookup total access delta
  std::size_t shard = 0;
  // Set by an owner that builds spans from the Results (pipeline::Worker
  // sampling spans without a registry): the port fills each Result's
  // accesses even though no metric cell is bound.
  bool record_accesses = false;

  bool metricsEnabled() const { return packets != nullptr; }

  // True when anything observes the lookups: the port then records each
  // lookup's accesses in its Result and runs the post-pass.
  bool attached() const { return metricsEnabled() || record_accesses; }

  // Resolves the instruments in `reg`, pinning this bundle to `shard`.
  // `extra` labels distinguish co-hosted producers (e.g. {"shard", "2"});
  // the same labels must be used when reading the series back.
  static LookupObs bind(MetricRegistry& reg, std::size_t shard,
                        const Labels& extra = {});
};

// Per-worker pipeline-level counters, fed by Worker once per batch.
struct WorkerObs {
  CounterCell* packets = nullptr;
  CounterCell* batches = nullptr;

  bool enabled() const { return packets != nullptr; }

  static WorkerObs bind(MetricRegistry& reg, std::size_t shard,
                        const Labels& extra = {});
};

// Control-plane instruments for the epoch-versioned publication scheme
// (rib::VersionedTables). All cells live on the updater thread's shard:
// publication is single-threaded by design, so no per-worker sharding is
// needed — but the bundle keeps the bind-once discipline so the swap path
// never takes the registry mutex.
struct ChurnObs {
  CounterCell* swaps = nullptr;          // versions published
  CounterCell* full_rebuilds = nullptr;  // publishes past the churn threshold
  CounterCell* retired_validated = nullptr;  // check::validate runs (debug)
  Gauge* live_seq = nullptr;             // sequence number of the live version
  Histogram* apply_ns = nullptr;         // delta apply + build, per publish
  Histogram* grace_ns = nullptr;         // grace-period wait, per publish
  std::size_t shard = 0;

  bool enabled() const { return swaps != nullptr; }

  static ChurnObs bind(MetricRegistry& reg, std::size_t shard = 0,
                       const Labels& extra = {});
};

// Per-datapath-shard counters for the wire daemon (src/netio/): datagram
// ingress/egress, the decode/drop taxonomy, and the differential-oracle
// mismatch count. They are the daemon's only copy of these totals: /metrics
// exports them and /status sums them over shards. Per-peer breakouts
// (netio_peer_{rx,tx}_packets_total, labelled by the wire header's source
// id on rx and by the configured next-hop peer on tx) are bound by the
// datapath itself — the peer set is config-dependent, so the bundle cannot
// fix it here.
struct NetioObs {
  CounterCell* rx_packets = nullptr;   // datagrams that decoded cleanly
  CounterCell* rx_bytes = nullptr;
  CounterCell* tx_packets = nullptr;   // datagrams re-emitted toward a peer
  CounterCell* tx_bytes = nullptr;
  CounterCell* delivered = nullptr;    // routed, but no peer: this hop sinks
  CounterCell* decode_errors = nullptr;
  CounterCell* no_route = nullptr;     // lookup found no BMP
  CounterCell* ttl_expired = nullptr;
  CounterCell* send_errors = nullptr;
  CounterCell* oracle_mismatch = nullptr;  // port result != engine BMP
  CounterCell* rx_syscalls = nullptr;  // receive calls that returned data
  CounterCell* tx_syscalls = nullptr;  // send calls made
  std::size_t shard = 0;

  static NetioObs bind(MetricRegistry& reg, std::size_t shard,
                       const Labels& extra = {});
};

// Publishes a quiesced AccessCounter into the mem_accesses_total{region=...}
// family (control-plane: called after the pipeline joined, or by
// single-threaded drivers at end of run).
void publishAccessCounter(MetricRegistry& reg,
                          const mem::AccessCounter& counter,
                          const Labels& extra = {});

}  // namespace cluert::obs
