// Lock-free metric instruments and the registry that names them.
//
// The paper's argument is statistical — §6 reports *distributions* of memory
// accesses per lookup, not just means — so the data plane needs instruments
// it can feed per packet without serialising shards. The design follows the
// ownership discipline already used by mem::AccessCounter::mergeFrom: every
// instrument is an array of per-worker shards (cache-line padded, relaxed
// atomics), the hot path touches only its own shard, and aggregation happens
// at snapshot() time on whatever thread asks. Relaxed atomics make a
// mid-run snapshot safe (it reads a slightly stale but tear-free value) and
// keep the per-event cost at one uncontended fetch_add.
//
// Registration (counter()/gauge()/histogram()) is control-plane: it takes a
// mutex, deduplicates by (name, labels) and returns a reference that stays
// valid for the registry's lifetime. Hot paths never call it — they bind
// once (see hooks.h) and keep the shard cell pointer.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"

namespace cluert::obs {

// Upper bound on pipeline workers feeding one registry. Shard ids are taken
// modulo this, so an oversized worker set degrades to sharing (still
// correct — the cells are atomic), never to UB.
inline constexpr std::size_t kMetricShards = 16;

inline constexpr std::size_t kCacheLineBytes = 64;

// One shard of a counter: a cache-line-padded relaxed atomic, so two workers
// bumping adjacent shards never contend on a line.
struct alignas(kCacheLineBytes) CounterCell {
  std::atomic<std::uint64_t> v{0};

  void inc(std::uint64_t n = 1) { v.fetch_add(n, std::memory_order_relaxed); }
  // Named get() rather than load() so it cannot be mistaken for (and is not
  // flagged as) a raw std::atomic access with an implicit order.
  std::uint64_t get() const { return v.load(std::memory_order_relaxed); }
};

// Monotone event count, sharded per worker.
class Counter {
 public:
  CounterCell& shard(std::size_t s) { return cells_[s % kMetricShards]; }

  // Convenience for single-threaded callers (benchmarks, routers).
  void inc(std::uint64_t n = 1) { cells_[0].inc(n); }

  std::uint64_t value() const {
    std::uint64_t t = 0;
    for (const auto& c : cells_) t += c.get();
    return t;
  }

 private:
  std::array<CounterCell, kMetricShards> cells_{};
};

// Point-in-time value (table sizes, worker counts). Set from the control
// plane; last writer wins, which is the right semantics for configuration
// gauges. Stored as the bit pattern of a double so reads are tear-free.
class Gauge {
 public:
  void set(double v) {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }

  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

// Log-bucketed histogram geometry: bucket i counts observations v with
// v <= 2^i (cumulative rendering happens at export time); the last bucket is
// +Inf. Powers of two keep bucketFor() at one bit_width instruction — cheap
// enough for the per-lookup access-count and nanosecond-latency paths — and
// give the exporters exact integer `le` bounds.
inline constexpr std::size_t kHistogramBuckets = 32;  // le 2^0 .. 2^30, +Inf

constexpr std::size_t histogramBucketFor(std::uint64_t v) {
  if (v <= 1) return 0;
  const auto b = static_cast<std::size_t>(std::bit_width(v - 1));
  return b < kHistogramBuckets - 1 ? b : kHistogramBuckets - 1;
}

// Upper bound of bucket i; the last bucket is +Inf (returned as the max
// uint64 sentinel — exporters print "+Inf").
constexpr std::uint64_t histogramBucketBound(std::size_t i) {
  if (i >= kHistogramBuckets - 1) return ~std::uint64_t{0};
  return std::uint64_t{1} << i;
}

// One shard of a histogram. ~300 bytes; the padding keeps shard boundaries
// off shared lines.
struct alignas(kCacheLineBytes) HistogramCell {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> counts{};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> count{0};

  void observe(std::uint64_t v) {
    counts[histogramBucketFor(v)].fetch_add(1, std::memory_order_relaxed);
    sum.fetch_add(v, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
  }
};

// Aggregated histogram contents (snapshot vocabulary; no atomics).
struct HistogramData {
  std::array<std::uint64_t, kHistogramBuckets> counts{};  // per-bucket
  std::uint64_t sum = 0;
  std::uint64_t count = 0;

  // Cumulative count of observations <= histogramBucketBound(i).
  std::uint64_t cumulative(std::size_t i) const {
    std::uint64_t t = 0;
    for (std::size_t b = 0; b <= i && b < kHistogramBuckets; ++b) {
      t += counts[b];
    }
    return t;
  }
};

class Histogram {
 public:
  HistogramCell& shard(std::size_t s) { return cells_[s % kMetricShards]; }

  void observe(std::uint64_t v) { cells_[0].observe(v); }

  HistogramData data() const {
    HistogramData d;
    for (const auto& c : cells_) {
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        d.counts[b] += c.counts[b].load(std::memory_order_relaxed);
      }
      d.sum += c.sum.load(std::memory_order_relaxed);
      d.count += c.count.load(std::memory_order_relaxed);
    }
    return d;
  }

 private:
  std::array<HistogramCell, kMetricShards> cells_{};
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum class MetricKind { kCounter, kGauge, kHistogram };

// Label set, kept sorted by key so (name, labels) identity is canonical.
using Labels = std::vector<std::pair<std::string, std::string>>;

struct MetricDesc {
  std::string name;
  std::string help;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
};

// One aggregated reading: the union of the three instrument shapes.
struct MetricSample {
  MetricDesc desc;
  std::uint64_t counter_value = 0;  // kCounter
  double gauge_value = 0.0;         // kGauge
  HistogramData hist;               // kHistogram
};

struct MetricSnapshot {
  std::vector<MetricSample> samples;

  // The counter/gauge value of the series with this name and labels, or
  // nullopt. Convenience for tests and the bench summary prints.
  const MetricSample* find(std::string_view name,
                           const Labels& labels = {}) const;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Idempotent: the same (name, labels) returns the same instrument (the
  // help string of the first registration wins). Registering the same name
  // with a different kind aborts — that is a programming error that would
  // corrupt the exposition.
  Counter& counter(std::string_view name, std::string_view help,
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       Labels labels = {});

  // Aggregates every instrument across its shards. Safe to call while
  // workers are still incrementing (relaxed reads; values are tear-free but
  // may trail in-flight increments).
  MetricSnapshot snapshot() const CLUERT_EXCLUDES(mu_);

  std::size_t size() const CLUERT_EXCLUDES(mu_);

 private:
  struct Entry {
    MetricDesc desc;
    // Exactly one of these is set, per desc.kind. unique_ptr keeps
    // instrument addresses stable as entries_ grows.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& findOrCreate(std::string_view name, std::string_view help,
                      Labels labels, MetricKind kind) CLUERT_EXCLUDES(mu_);

  mutable sync::Mutex mu_;
  // The dedup map: guarded registration, stable instrument addresses.
  std::vector<Entry> entries_ CLUERT_GUARDED_BY(mu_);
};

}  // namespace cluert::obs
