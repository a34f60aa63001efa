// Shared plumbing of the perfbench workloads: clocks, process counters
// (CPU time, peak RSS, the kernel's UDP drop counters), order statistics,
// the brute-force BMP oracle every output is checked against, and the
// Report that prints metrics by name and the final JSON line.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/clue.h"
#include "ip/ip_address.h"
#include "ip/prefix.h"
#include "rib/fib.h"
#include "rib/fib_diff.h"
#include "rib/table_gen.h"

namespace perfbench {

using A = cluert::ip::Ip4Addr;
using Prefix4 = cluert::ip::Prefix4;
using cluert::NextHop;

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secondsSince(std::uint64_t t0_ns) {
  return static_cast<double>(nowNs() - t0_ns) / 1e9;
}

// User + system CPU seconds of the whole process (every thread).
inline double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// VmHWM: the process's peak resident set, MiB.
inline double peakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// The kernel's UDP error counters (/proc/net/snmp). Deltas around a run
// attribute loss that happened outside the program: receive-queue
// overflow, send-buffer exhaustion, and all receive errors.
struct UdpSnmp {
  std::uint64_t in_errors = 0;
  std::uint64_t rcvbuf_errors = 0;
  std::uint64_t sndbuf_errors = 0;

  static UdpSnmp read() {
    UdpSnmp s;
    std::ifstream in("/proc/net/snmp");
    std::string header, values;
    while (std::getline(in, header)) {
      if (header.rfind("Udp:", 0) != 0 || !std::getline(in, values)) continue;
      std::istringstream hs(header), vs(values);
      std::string name, value;
      while (hs >> name && vs >> value) {
        if (name == "InErrors") s.in_errors = std::stoull(value);
        if (name == "RcvbufErrors") s.rcvbuf_errors = std::stoull(value);
        if (name == "SndbufErrors") s.sndbuf_errors = std::stoull(value);
      }
      break;
    }
    return s;
  }

  UdpSnmp operator-(const UdpSnmp& o) const {
    return {in_errors - o.in_errors, rcvbuf_errors - o.rcvbuf_errors,
            sndbuf_errors - o.sndbuf_errors};
  }
};

// Linearly interpolated quantile of an ascending sample, q in [0, 1]; 0 for
// an empty sample.
template <typename T>
double quantileSorted(const std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(v[lo]) +
         (static_cast<double>(v[hi]) - static_cast<double>(v[lo])) * frac;
}

template <typename T>
double quantile(std::vector<T> v, double q) {
  std::sort(v.begin(), v.end());
  return quantileSorted(v, q);
}

template <typename T>
double median(const std::vector<T>& v) {
  return quantile(v, 0.5);
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Best matching prefix by exhaustion over prefix lengths: one hash probe
// per length, longest first. Shares no code with the tries, Patricia or
// the clue machinery, which is what makes it an oracle for them. Supports
// the same deltas the versioned tables apply, so it can follow churn.
class BmpOracle {
 public:
  explicit BmpOracle(const cluert::rib::Fib4& fib) {
    for (const auto& e : fib.entries()) routes_[key(e.prefix)] = e.next_hop;
    for (const auto& e : fib.entries()) ++per_length_[e.prefix.length()];
  }

  // {matched length, next hop}; length -1 when no prefix covers `dest`.
  std::pair<int, NextHop> lookup(const A& dest) const {
    for (int len = 32; len >= 0; --len) {
      if (per_length_[len] == 0) continue;
      const auto it = routes_.find(key(Prefix4(dest, len)));
      if (it != routes_.end()) return {len, it->second};
    }
    return {-1, cluert::kNoNextHop};
  }

  NextHop nextHop(const A& dest) const { return lookup(dest).second; }

  void apply(const cluert::rib::FibDelta4& d) {
    for (const auto& p : d.removed) {
      if (routes_.erase(key(p)) != 0) --per_length_[p.length()];
    }
    for (const auto& e : d.added) {
      if (routes_.emplace(key(e.prefix), e.next_hop).second) {
        ++per_length_[e.prefix.length()];
      }
    }
    for (const auto& e : d.rerouted) routes_[key(e.prefix)] = e.next_hop;
  }

 private:
  static std::uint64_t key(const Prefix4& p) {
    return (std::uint64_t{p.addr().value()} << 8) |
           static_cast<std::uint64_t>(p.length());
  }

  std::unordered_map<std::uint64_t, NextHop> routes_;
  int per_length_[33] = {};
};

// §6 destination sampling: an address inside a random sender prefix whose
// sender BMP is also a vertex of the receiver's trie (the paper's filter),
// with one draw in ten uniform over the address space.
template <typename Trie>
std::vector<A> sampleDestinations(const cluert::rib::Fib4& sender,
                                  const Trie& t1, const Trie& t2,
                                  cluert::Rng& rng, std::size_t count) {
  std::vector<A> out;
  out.reserve(count);
  cluert::mem::AccessCounter scratch;
  const auto entries = sender.entries();
  for (std::size_t attempts = 0;
       out.size() < count && attempts < count * 200 + 10'000; ++attempts) {
    A dest(rng.u32());
    if (!rng.chance(0.1)) {
      const auto& p = entries[rng.index(entries.size())].prefix;
      dest = p.addr();
      for (int b = p.length(); b < 32; ++b) {
        dest = dest.withBit(b, static_cast<unsigned>(rng.u32() & 1));
      }
    }
    const auto bmp = t1.lookup(dest, scratch);
    if (!bmp || t2.findVertex(bmp->prefix) == nullptr) continue;
    out.push_back(dest);
  }
  return out;
}

// The clue a sender attaches: the length of its own BMP (§2).
template <typename Trie>
cluert::core::ClueField senderClue(const Trie& sender_trie, const A& dest) {
  cluert::mem::AccessCounter scratch;
  const auto bmp = sender_trie.lookup(dest, scratch);
  return bmp ? cluert::core::ClueField::of(bmp->prefix.length())
             : cluert::core::ClueField::none();
}

// What a run reports. End-to-end metrics are what the workload's user sees
// and come from untraced measurement; per-layer metrics come from the
// traced run. Every metric prints as "metric <name> <value> <unit>"; the
// final line is one JSON object, for tools that compare runs.
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = {value, unit};
  }
  void info(const std::string& key, const std::string& value) {
    info_.emplace_back(key, value);
  }

  void fail(std::uint64_t n, const std::string& why) {
    if (n == 0) return;
    failed_ += n;
    std::fprintf(stderr, "perfbench: FAIL: %llu %s\n",
                 static_cast<unsigned long long>(n), why.c_str());
  }
  void attempt(std::uint64_t n) { attempted_ += n; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  // Prints everything; the JSON line carries the per-layer metrics when
  // `trace`, the end-to-end ones otherwise.
  void print(bool trace) const {
    for (const auto& [k, v] : info_) std::printf("info %s %s\n", k.c_str(), v.c_str());
    const auto dump = [](const char* kind, const Metrics& m) {
      for (const auto& [name, mv] : m) {
        std::printf("%s %s %.6g %s\n", kind, name.c_str(), mv.first,
                    mv.second.c_str());
      }
    };
    dump("metric", e2e_);
    dump("layer", layer_);
    std::printf("fail_ratio %.6g ratio (%llu of %llu)\n",
                ratio(static_cast<double>(failed_),
                      static_cast<double>(attempted_)),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, mv] : trace ? layer_ : e2e_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(mv.first) ? mv.first : 0.0);
      json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + mv.second + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  using Metrics = std::map<std::string, std::pair<double, std::string>>;
  Metrics e2e_, layer_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Per-layer metrics every workload reports, zero where the layer is not on
// the workload's path (README.md lists which layer runs where). The first
// six are end-to-end figures of only some workloads; BENCHMARK.json can
// gate only metrics every workload has, so they ride with the traced run.
inline void declareLayers(Report& r) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"capacity_pps", "1/s"},
      {"latency_p50_us", "us"},
      {"latency_p90_us", "us"},
      {"latency_p99_us", "us"},
      {"update_p50_us", "us"},
      {"update_p99_us", "us"},
      {"netio.rx_ns_per_pkt", "ns"},
      {"netio.decode_ns_per_pkt", "ns"},
      {"netio.encode_ns_per_pkt", "ns"},
      {"netio.tx_ns_per_pkt", "ns"},
      {"netio.rx_batch_fill", "ratio"},
      {"netio.tx_short_ratio", "ratio"},
      {"netio.rx_empty_ratio", "ratio"},
      {"netio.residence_p50_us", "us"},
      {"netio.queue_wait_p50_us", "us"},
      {"netio.kernel_rcvbuf_drops", "count"},
      {"netio.kernel_sndbuf_drops", "count"},
      {"netio.kernel_in_errors", "count"},
      {"netio.daemon_decode_errors", "count"},
      {"netio.daemon_send_errors", "count"},
      {"netio.daemon_start_s", "s"},
      {"pipeline.ns_per_pkt", "ns"},
      {"pipeline.batch_assembly_ns_per_pkt", "ns"},
      {"pipeline.handoff_ns_per_pkt", "ns"},
      {"pipeline.shard_imbalance", "ratio"},
      {"pipeline.cpu_busy_ratio", "ratio"},
      {"pipeline.pin_ns_per_batch", "ns"},
      {"pipeline.version_changes", "count"},
      {"core.resolve_ns_per_pkt", "ns"},
      {"core.sequential_ns_per_pkt", "ns"},
      {"core.table_hit_ratio", "ratio"},
      {"core.fd_direct_ratio", "ratio"},
      {"core.clue_table_accesses_per_pkt", "count"},
      {"core.searched_ratio", "ratio"},
      {"core.search_failed_ratio", "ratio"},
      {"core.no_clue_ratio", "ratio"},
      {"core.precompute_s", "s"},
      {"lookup.common_ns_per_lookup", "ns"},
      {"lookup.trie_accesses_per_pkt", "count"},
      {"lookup.fib_accesses_per_pkt", "count"},
      {"lookup.suite_build_s", "s"},
      {"rib.apply_us_p50", "us"},
      {"rib.grace_us_p99", "us"},
      {"rib.queue_wait_us_p99", "us"},
      {"rib.full_rebuild_ratio", "ratio"},
      {"rib.tablegen_s", "s"},
      {"rib.build_s", "s"},
      {"mem.steady_allocs", "count"},
      {"ledger.unattributed_ratio", "ratio"},
      {"ledger.trace_overhead_ratio", "ratio"},
      {"load.gen_late_p99_us", "us"},
      {"load.busy_threads", "count"},
  };
  for (const auto& [name, unit] : kLayers) r.layer(name, 0.0, unit);
}

}  // namespace perfbench
