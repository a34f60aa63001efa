#include "obs/hooks.h"

namespace cluert::obs {

LookupObs LookupObs::bind(MetricRegistry& reg, std::size_t shard) {
  LookupObs o;
  o.shard = shard;
  o.packets = &reg.counter("lookup_packets_total",
                           "Packets resolved by the clue-assisted fast path")
                   .shard(shard);
  for (std::size_t c = 0; c < kOutcomeCount; ++c) {
    o.cases[c] =
        &reg.counter(
                "lookup_case_total",
                "Lookup outcomes by paper case (1/2/3) plus miss and no_clue",
                {{"case",
                  std::string(outcomeName(static_cast<Outcome>(c)))}})
             .shard(shard);
  }
  o.claim1_skip =
      &reg.counter("lookup_claim1_skip_total",
                   "Case-2 resolutions where Claim 1 (not a leaf clue) "
                   "emptied the candidate set")
           .shard(shard);
  o.search_failed =
      &reg.counter("lookup_search_failed_total",
                   "Case-3 continuations that fell back to the FD")
           .shard(shard);
  o.accesses = &reg.histogram("lookup_accesses",
                              "Dependent memory accesses per lookup (the §6 "
                              "unit of cost)");
  return o;
}

WorkerObs WorkerObs::bind(MetricRegistry& reg, std::size_t shard) {
  WorkerObs o;
  o.packets = &reg.counter("pipeline_packets_total",
                           "Packets forwarded by the pipeline shards")
                   .shard(shard);
  o.batches = &reg.counter("pipeline_batches_total",
                           "Batches consumed by the pipeline shards")
                   .shard(shard);
  return o;
}

ChurnObs ChurnObs::bind(MetricRegistry& reg) {
  ChurnObs o;
  o.swaps = &reg.counter("rib_version_swaps_total",
                         "Table versions published (atomic live-pointer swaps)")
                 .shard(0);
  o.full_rebuilds =
      &reg.counter("rib_version_full_rebuilds_total",
                   "Publishes that fell back to a full table rebuild because "
                   "the delta exceeded the churn threshold")
           .shard(0);
  o.retired_validated =
      &reg.counter("rib_version_retired_validated_total",
                   "Retired versions run through check::validate before reuse")
           .shard(0);
  o.live_seq =
      &reg.gauge("rib_version_live_seq",
                 "Sequence number of the currently live table version");
  o.apply_ns = &reg.histogram("rib_version_apply_ns",
                              "Nanoseconds building the next version (delta "
                              "apply or full rebuild)")
                    .shard(0);
  o.grace_ns = &reg.histogram("rib_version_grace_ns",
                              "Nanoseconds waiting for readers to drain the "
                              "retired version")
                    .shard(0);
  return o;
}

NetioObs NetioObs::bind(MetricRegistry& reg, std::size_t shard,
                        const Labels& extra) {
  NetioObs o;
  o.shard = shard;
  o.rx_packets = &reg.counter("netio_rx_packets_total",
                              "Clue-tagged datagrams that decoded cleanly",
                              extra)
                      .shard(shard);
  o.rx_bytes =
      &reg.counter("netio_rx_bytes_total",
                   "Bytes of cleanly decoded ingress datagrams", extra)
           .shard(shard);
  o.tx_packets = &reg.counter("netio_tx_packets_total",
                              "Datagrams re-emitted toward a next-hop peer",
                              extra)
                      .shard(shard);
  o.tx_bytes = &reg.counter("netio_tx_bytes_total",
                            "Bytes of egress datagrams", extra)
                    .shard(shard);
  o.delivered =
      &reg.counter("netio_delivered_total",
                   "Packets routed to a next hop with no configured peer "
                   "(this router is their last clue-speaking hop)",
                   extra)
           .shard(shard);
  o.decode_errors =
      &reg.counter("netio_decode_errors_total",
                   "Ingress datagrams rejected by the wire codec", extra)
           .shard(shard);
  o.no_route = &reg.counter("netio_no_route_total",
                            "Packets dropped because the lookup found no BMP",
                            extra)
                    .shard(shard);
  o.ttl_expired = &reg.counter("netio_ttl_expired_total",
                               "Packets dropped on TTL reaching zero", extra)
                       .shard(shard);
  o.send_errors =
      &reg.counter("netio_send_errors_total",
                   "Egress datagrams the kernel refused (sendmsg failure)",
                   extra)
           .shard(shard);
  o.oracle_mismatch =
      &reg.counter("netio_oracle_mismatch_total",
                   "Differential-oracle disagreements: the clue-assisted "
                   "result differed from the plain engine BMP at the pinned "
                   "version",
                   extra)
           .shard(shard);
  // Datagrams per syscall = rx_packets / rx_syscalls (tx alike): GRO and
  // GSO keep both well above 1 under load.
  o.rx_syscalls =
      &reg.counter("netio_rx_syscalls_total",
                   "Receive syscalls (recvmmsg) that returned data", extra)
           .shard(shard);
  o.tx_syscalls = &reg.counter("netio_tx_syscalls_total",
                               "Send syscalls (sendmmsg) made", extra)
                       .shard(shard);
  return o;
}

void publishAccessCounter(MetricRegistry& reg,
                          const mem::AccessCounter& counter) {
  counter.forEachNonZero([&](mem::Region r, std::uint64_t n) {
    reg.counter("mem_accesses_total",
                "Dependent memory references by region (the paper's access "
                "accounting)",
                {{"region", std::string(mem::regionName(r))}})
        .inc(n);
  });
}

}  // namespace cluert::obs
