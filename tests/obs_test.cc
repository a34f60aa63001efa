// Tests for the telemetry subsystem (src/obs/): instrument semantics and
// sharding, deterministic span sampling, and golden renderings of the
// Prometheus and span-JSONL exporters. Suite names start with Obs so
// tools/run_sanitizers.sh picks them up for the TSan pass — the sharded
// counter test below is exactly the kind of code TSan exists for.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace cluert::obs {
namespace {

// --- histogram geometry ----------------------------------------------------

TEST(ObsHistogram, BucketBoundaries) {
  // Bucket i holds v in (2^(i-1), 2^i]; bucket 0 holds 0 and 1. The bound is
  // inclusive, so every power of two lands exactly on its own bucket's `le`.
  EXPECT_EQ(histogramBucketFor(0), 0u);
  EXPECT_EQ(histogramBucketFor(1), 0u);
  EXPECT_EQ(histogramBucketFor(2), 1u);
  EXPECT_EQ(histogramBucketFor(3), 2u);
  EXPECT_EQ(histogramBucketFor(4), 2u);
  EXPECT_EQ(histogramBucketFor(5), 3u);
  EXPECT_EQ(histogramBucketFor(8), 3u);
  EXPECT_EQ(histogramBucketFor(9), 4u);
  EXPECT_EQ(histogramBucketFor(~std::uint64_t{0}), kHistogramBuckets - 1);

  for (std::size_t b = 0; b + 1 < kHistogramBuckets; ++b) {
    // Every bucket's upper bound maps back into that bucket...
    EXPECT_EQ(histogramBucketFor(histogramBucketBound(b)), b);
    // ...and one past it maps into the next.
    EXPECT_EQ(histogramBucketFor(histogramBucketBound(b) + 1),
              std::min(b + 1, kHistogramBuckets - 1));
  }
  EXPECT_EQ(histogramBucketBound(kHistogramBuckets - 1), ~std::uint64_t{0});
}

TEST(ObsHistogram, ObserveAggregatesAcrossShards) {
  Histogram h;
  h.shard(0).observe(1);
  h.shard(1).observe(3);
  h.shard(2).observe(100);
  const HistogramData d = h.data();
  EXPECT_EQ(d.count, 3u);
  EXPECT_EQ(d.sum, 104u);
  EXPECT_EQ(d.counts[histogramBucketFor(1)], 1u);
  EXPECT_EQ(d.counts[histogramBucketFor(3)], 1u);
  EXPECT_EQ(d.counts[histogramBucketFor(100)], 1u);
  EXPECT_EQ(d.cumulative(kHistogramBuckets - 1), 3u);
  EXPECT_EQ(d.cumulative(histogramBucketFor(3)), 2u);
}

// --- counters / registry ---------------------------------------------------

TEST(ObsCounter, ShardedIncrementsFromManyThreads) {
  MetricRegistry reg;
  Counter& c = reg.counter("x_total", "help");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      CounterCell& cell = c.shard(static_cast<std::size_t>(t));
      for (std::uint64_t i = 0; i < kPerThread; ++i) cell.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsCounter, ShardIndexWrapsModuloShardCount) {
  Counter c;
  c.shard(0).inc(5);
  c.shard(kMetricShards).inc(7);  // same cell as shard 0, still correct
  EXPECT_EQ(c.value(), 12u);
  EXPECT_EQ(c.shard(0).get(), 12u);
}

TEST(ObsRegistry, RegistrationIsIdempotentByNameAndLabels) {
  MetricRegistry reg;
  Counter& a = reg.counter("hits_total", "h", {{"router", "1"}});
  Counter& b = reg.counter("hits_total", "ignored", {{"router", "1"}});
  Counter& other = reg.counter("hits_total", "h", {{"router", "2"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  EXPECT_EQ(reg.size(), 2u);

  a.inc(3);
  other.inc(4);
  const MetricSnapshot snap = reg.snapshot();
  const MetricSample* s1 = snap.find("hits_total", {{"router", "1"}});
  const MetricSample* s2 = snap.find("hits_total", {{"router", "2"}});
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s1->counter_value, 3u);
  EXPECT_EQ(s2->counter_value, 4u);
  EXPECT_EQ(snap.find("hits_total", {{"router", "3"}}), nullptr);
}

TEST(ObsRegistry, LabelOrderDoesNotSplitSeries) {
  MetricRegistry reg;
  Counter& a = reg.counter("y_total", "h", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("y_total", "h", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsGauge, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.set(-1.0);  // last writer wins
  EXPECT_EQ(g.value(), -1.0);
}

// --- span sampling ---------------------------------------------------------

std::vector<std::size_t> samplePattern(std::uint64_t seed,
                                       std::uint32_t worker,
                                       std::uint32_t every, std::size_t calls) {
  SpanSampler sampler(every, SpanSampler::shardPhase(every, seed, worker));
  std::vector<std::size_t> fired;
  for (std::size_t i = 0; i < calls; ++i) {
    if (sampler.sample()) fired.push_back(i);
  }
  EXPECT_EQ(sampler.samples(), fired.size());
  return fired;
}

// The pattern pipeline shards sampled lookups with before spans: a 1-based
// tick counter firing at next = 1 + Rng::forThread(seed, worker)'s first
// uniform draw in [0, every), then every `every` ticks. Returned 0-based.
std::vector<std::size_t> perLookupPattern(std::uint64_t seed,
                                          std::uint32_t worker,
                                          std::uint32_t every,
                                          std::size_t calls) {
  Rng rng = Rng::forThread(seed, worker);
  std::uint64_t next = 1 + rng.uniform(0, every - 1);
  std::vector<std::size_t> fired;
  for (std::uint64_t tick = 1; tick <= calls; ++tick) {
    if (tick < next) continue;
    next += every;
    fired.push_back(static_cast<std::size_t>(tick - 1));
  }
  return fired;
}

TEST(ObsSampling, DeterministicPerSeedAndWorker) {
  const auto a = samplePattern(42, 3, 8, 1000);
  const auto b = samplePattern(42, 3, 8, 1000);
  EXPECT_EQ(a, b);  // same (seed, worker): bit-identical pattern

  // Exactly one sample per window of sample_every calls after the phase.
  ASSERT_FALSE(a.empty());
  EXPECT_LT(a.front(), 8u);  // phase lands inside the first window
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_EQ(a[i] - a[i - 1], 8u);
  }
  EXPECT_NEAR(static_cast<double>(a.size()), 1000.0 / 8.0, 1.0);

  // The shard phase fires on exactly the ticks per-lookup sampling did.
  for (const std::uint32_t every : {1u, 8u, 64u}) {
    for (std::uint32_t w = 0; w < 4; ++w) {
      EXPECT_EQ(samplePattern(42, w, every, 1000),
                perLookupPattern(42, w, every, 1000))
          << "every " << every << " worker " << w;
    }
  }
}

TEST(ObsSampling, WorkersArePhaseShifted) {
  // The phase comes from Rng::forThread(seed, worker), so different workers
  // (deterministically) don't all sample the same ticks in lockstep.
  std::vector<std::size_t> first_fire;
  for (std::uint32_t w = 0; w < 16; ++w) {
    const auto p = samplePattern(42, w, 64, 64);
    ASSERT_EQ(p.size(), 1u);
    first_fire.push_back(p.front());
  }
  std::size_t distinct = 0;
  std::sort(first_fire.begin(), first_fire.end());
  for (std::size_t i = 0; i < first_fire.size(); ++i) {
    if (i == 0 || first_fire[i] != first_fire[i - 1]) ++distinct;
  }
  EXPECT_GT(distinct, 4u);
}

// The datapath's ingress sampler: phase 0 fires at ticks 0, N, 2N, ...
TEST(ObsSampling, PhaseZeroFiresAtMultiplesOfEvery) {
  SpanSampler sampler(5, /*phase=*/0);
  std::vector<std::size_t> fired;
  for (std::size_t i = 0; i < 23; ++i) {
    if (sampler.sample()) fired.push_back(i);
  }
  EXPECT_EQ(fired, (std::vector<std::size_t>{0, 5, 10, 15, 20}));
  EXPECT_EQ(sampler.samples(), 5u);

  SpanSampler every_one(1, 0);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(every_one.sample());
}

TEST(ObsSampling, EveryZeroNeverFires) {
  SpanSampler sampler(0, /*phase=*/0);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(sampler.sample());
  EXPECT_EQ(sampler.samples(), 0u);
  EXPECT_EQ(SpanSampler::shardPhase(0, 42, 3), 0u);
}

// --- exporters (golden) ----------------------------------------------------

TEST(ObsExport, PrometheusGolden) {
  MetricRegistry reg;
  reg.counter("requests_total", "Requests", {{"kind", "a"}}).inc(3);
  reg.gauge("temp", "Temp").set(1.5);
  Histogram& h = reg.histogram("lat", "Lat");
  h.observe(1);
  h.observe(3);
  h.observe(100);

  const std::string golden =
      "# HELP lat Lat\n"
      "# TYPE lat histogram\n"
      "lat_bucket{le=\"1\"} 1\n"
      "lat_bucket{le=\"4\"} 2\n"
      "lat_bucket{le=\"128\"} 3\n"
      "lat_bucket{le=\"+Inf\"} 3\n"
      "lat_sum 104\n"
      "lat_count 3\n"
      "# HELP requests_total Requests\n"
      "# TYPE requests_total counter\n"
      "requests_total{kind=\"a\"} 3\n"
      "# HELP temp Temp\n"
      "# TYPE temp gauge\n"
      "temp 1.5\n";
  EXPECT_EQ(toPrometheus(reg.snapshot()), golden);
}

TEST(ObsExport, PrometheusEscapesLabelValues) {
  MetricRegistry reg;
  reg.counter("c_total", "h", {{"k", "a\"b\\c\nd"}}).inc();
  const std::string text = toPrometheus(reg.snapshot());
  EXPECT_NE(text.find("c_total{k=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

// The one-hop span a pipeline shard emits (pipeline::Worker): no rx or tx
// of its own, so rx = decode = lookup start and tx 0; id = shard << 32 |
// sample ordinal, start time as the low word; router "pipeline". The same
// line is tools/trace_merge.py --self-test's one-hop fixture.
TEST(ObsExport, JsonlGolden) {
  PacketSpan s;
  s.trace_hi = (std::uint64_t{1} << 32) | 7;
  s.trace_lo = 5000;
  s.origin_ns = 5000;
  s.worker = 1;
  s.dest = 0x0a000001;  // 10.0.0.1
  s.rx_ns = 5000;
  s.decode_ns = 5000;
  s.lookup_start_ns = 5000;
  s.lookup_end_ns = 5400;
  s.clue_len = 24;
  s.outcome = Outcome::kCase3;
  s.accesses[static_cast<std::size_t>(mem::Region::kClueTable)] = 1;
  s.accesses[static_cast<std::size_t>(mem::Region::kTrieNode)] = 2;
  s.verdict = SpanVerdict::kDelivered;
  EXPECT_EQ(
      spansToJsonl({&s, 1}, "pipeline"),
      "{\"trace_id\":\"00000001000000070000000000001388\",\"hop\":0,"
      "\"router\":\"pipeline\",\"router_id\":0,\"worker\":1,\"src_id\":0,"
      "\"dest\":\"10.0.0.1\",\"origin_ns\":5000,\"rx_ns\":5000,"
      "\"decode_ns\":5000,\"lookup_start_ns\":5000,\"lookup_end_ns\":5400,"
      "\"tx_ns\":0,\"clue_len\":24,\"outcome\":\"3\","
      "\"claim1_skip\":false,\"search_failed\":false,"
      "\"verdict\":\"delivered\",\"accesses\":{\"clue-table\":1,"
      "\"trie-node\":2},\"total_accesses\":3}\n");
}

// --- hooks -----------------------------------------------------------------

TEST(ObsHooks, LookupObsBindsTheFullFamilySet) {
  MetricRegistry reg;
  const LookupObs lo = LookupObs::bind(reg, /*shard=*/2);
  EXPECT_TRUE(lo.metricsEnabled());
  EXPECT_TRUE(lo.attached());
  ASSERT_NE(lo.packets, nullptr);
  lo.packets->inc(5);
  lo.cases[static_cast<std::size_t>(Outcome::kCase3)]->inc(2);
  lo.accesses->shard(lo.shard).observe(4);

  const MetricSnapshot snap = reg.snapshot();
  const MetricSample* packets = snap.find("lookup_packets_total");
  ASSERT_NE(packets, nullptr);
  EXPECT_EQ(packets->counter_value, 5u);
  const MetricSample* case3 = snap.find("lookup_case_total", {{"case", "3"}});
  ASSERT_NE(case3, nullptr);
  EXPECT_EQ(case3->counter_value, 2u);
  const MetricSample* acc = snap.find("lookup_accesses");
  ASSERT_NE(acc, nullptr);
  EXPECT_EQ(acc->hist.count, 1u);

  LookupObs off;
  EXPECT_FALSE(off.metricsEnabled());
  EXPECT_FALSE(off.attached());
  // A span-sampling owner without a registry still gets accesses.
  off.record_accesses = true;
  EXPECT_FALSE(off.metricsEnabled());
  EXPECT_TRUE(off.attached());
}

TEST(ObsHooks, PublishAccessCounterMirrorsRegions) {
  MetricRegistry reg;
  mem::AccessCounter acc;
  acc.add(mem::Region::kTrieNode, 7);
  acc.add(mem::Region::kClueTable, 2);
  publishAccessCounter(reg, acc);
  const MetricSnapshot snap = reg.snapshot();
  const MetricSample* trie =
      snap.find("mem_accesses_total", {{"region", "trie-node"}});
  ASSERT_NE(trie, nullptr);
  EXPECT_EQ(trie->counter_value, 7u);
  const MetricSample* clue =
      snap.find("mem_accesses_total", {{"region", "clue-table"}});
  ASSERT_NE(clue, nullptr);
  EXPECT_EQ(clue->counter_value, 2u);
}

// --- flight recorder (DESIGN.md §11) ---------------------------------------

TEST(FlightRecorderTest, RecordsAndSnapshots) {
  FlightRing ring;
  ring.setWorker(3);
  ring.pushAt(100, FlightKind::kRxBatch, 64);
  ring.pushAt(200, FlightKind::kDecodeReject, 4);
  ring.pushAt(300, FlightKind::kTraceStart, 0xabcd, 0x1234);
  EXPECT_EQ(ring.count(), 3u);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ns, 100u);
  EXPECT_EQ(events[0].kind, FlightKind::kRxBatch);
  EXPECT_EQ(events[0].a, 64u);
  EXPECT_EQ(events[0].worker, 3);
  EXPECT_EQ(events[2].kind, FlightKind::kTraceStart);
  EXPECT_EQ(events[2].a, 0xabcdu);
  EXPECT_EQ(events[2].b, 0x1234u);
}

TEST(FlightRecorderTest, RingOverwriteKeepsNewest) {
  FlightRing ring;
  const std::size_t total = FlightRing::kCapacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    ring.pushAt(i, FlightKind::kNoRoute, i);
  }
  EXPECT_EQ(ring.count(), total);
  const auto events = ring.snapshot();
  // One slot is sacrificed to the mid-push tear guard: a full ring yields
  // capacity-1 provably-whole events, newest last.
  ASSERT_EQ(events.size(), FlightRing::kCapacity - 1);
  EXPECT_EQ(events.front().a, total - FlightRing::kCapacity + 1);
  EXPECT_EQ(events.back().a, total - 1);
}

TEST(FlightRecorderTest, DumpGolden) {
  // Fixed timestamps via pushAt make the signal-safe dump byte-exact.
  FlightRecorder rec(2);
  rec.ring(0).pushAt(111, FlightKind::kRxBatch, 64, 0);
  rec.ring(0).pushAt(222, FlightKind::kSignal, 3, 0);
  rec.ring(1).pushAt(333, FlightKind::kPublish, 7, 0);

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  rec.dumpTo(fds[1]);
  ::close(fds[1]);
  std::string got;
  char buf[512];
  ssize_t r;
  while ((r = ::read(fds[0], buf, sizeof(buf))) > 0) {
    got.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fds[0]);
  EXPECT_EQ(got,
            "=== flight recorder dump ===\n"
            "flight 0 111 rx_batch 64 0\n"
            "flight 0 222 signal 3 0\n"
            "flight 1 333 publish 7 0\n"
            "=== end flight recorder dump ===\n");

  const std::string json = rec.toJson("hopX");
  EXPECT_EQ(json,
            "{\"router\":\"hopX\",\"rings\":["
            "{\"worker\":0,\"recorded\":2,\"events\":["
            "{\"ns\":111,\"kind\":\"rx_batch\",\"a\":64,\"b\":0},"
            "{\"ns\":222,\"kind\":\"signal\",\"a\":3,\"b\":0}]},"
            "{\"worker\":1,\"recorded\":1,\"events\":["
            "{\"ns\":333,\"kind\":\"publish\",\"a\":7,\"b\":0}]}"
            "]}\n");
}

// snapshot() and dumpTo() share one read path, so on a quiescent ring they
// list the same events — here a ring lapped past its capacity, where both
// apply the mid-push discard to the oldest slot.
TEST(FlightRecorderTest, SnapshotAndDumpListTheSameEvents) {
  FlightRing ring;
  ring.setWorker(5);
  const std::size_t total = FlightRing::kCapacity + 37;
  for (std::size_t i = 0; i < total; ++i) {
    ring.pushAt(1000 + i, FlightKind::kRxBatch, i, 2 * i);
  }
  std::string want;
  for (const FlightEvent& e : ring.snapshot()) {
    want += "flight " + std::to_string(e.worker) + " " +
            std::to_string(e.ns) + " " + std::string(flightKindName(e.kind)) +
            " " + std::to_string(e.a) + " " + std::to_string(e.b) + "\n";
  }
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  ring.dumpTo(::fileno(f));
  std::rewind(f);
  std::string got;
  char buf[4096];
  std::size_t r;
  while ((r = std::fread(buf, 1, sizeof(buf), f)) > 0) got.append(buf, r);
  std::fclose(f);
  EXPECT_EQ(ring.snapshot().size(), FlightRing::kCapacity - 1);
  EXPECT_EQ(got, want);
}

TEST(FlightRecorderTest, ConcurrentReaderWriterNeverTears) {
  // One writer laps the ring many times while readers snapshot: the TSan
  // proof of the release-publish protocol, plus an invariant check — pushes
  // carry a == b == sequence, so any torn copy would break a == b.
  FlightRing ring;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ring.pushAt(i, FlightKind::kNoRoute, i, i);
      ++i;
    }
  });
  // Keep snapshotting until the writer has lapped the ring a few times, so
  // the copies genuinely race overwrites (not just an idle or empty ring).
  int rounds = 0;
  while (ring.count() < 4 * FlightRing::kCapacity || rounds < 200) {
    ++rounds;
    const auto events = ring.snapshot();
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto& e : events) {
      ASSERT_EQ(e.a, e.b);
      ASSERT_EQ(e.ns, e.a);
      if (!first) ASSERT_EQ(e.a, prev + 1);
      prev = e.a;
      first = false;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GE(ring.count(), 4 * FlightRing::kCapacity);
}

// --- span collector + JSONL export -----------------------------------------

PacketSpan testSpan(std::uint64_t lo) {
  PacketSpan s;
  s.trace_hi = 0x0001000200000003ULL;
  s.trace_lo = lo;
  s.origin_ns = 1000;
  s.hop = 1;
  s.router_id = 2;
  s.worker = 0;
  s.dest = 0x0a010203;  // 10.1.2.3
  s.src_id = 1;
  s.rx_ns = 2000;
  s.decode_ns = 2100;
  s.lookup_start_ns = 2200;
  s.lookup_end_ns = 2500;
  s.tx_ns = 2800;
  s.clue_len = 16;
  s.outcome = Outcome::kCase2;
  s.claim1_skip = false;
  s.search_failed = false;
  s.accesses[static_cast<std::size_t>(mem::Region::kClueTable)] = 2;
  s.accesses[static_cast<std::size_t>(mem::Region::kTrieNode)] = 3;
  s.verdict = SpanVerdict::kForwarded;
  return s;
}

TEST(SpanCollectorTest, RecordsDrainsAndOverwritesOldest) {
  SpanCollector col(4);
  for (std::uint64_t i = 0; i < 6; ++i) col.record(testSpan(i));
  EXPECT_EQ(col.recorded(), 6u);
  EXPECT_EQ(col.dropped(), 2u);
  const auto spans = col.drain();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest two were overwritten; drain returns oldest-first.
  EXPECT_EQ(spans.front().trace_lo, 2u);
  EXPECT_EQ(spans.back().trace_lo, 5u);
  EXPECT_TRUE(col.drain().empty());
  EXPECT_EQ(col.recorded(), 6u);  // cumulative, not reset by drain
}

TEST(SpanCollectorTest, JsonlGolden) {
  const PacketSpan s = testSpan(0x00000000000000ffULL);
  const std::string jsonl = spansToJsonl({&s, 1}, "hopB");
  EXPECT_EQ(
      jsonl,
      "{\"trace_id\":\"000100020000000300000000000000ff\",\"hop\":1,"
      "\"router\":\"hopB\",\"router_id\":2,\"worker\":0,\"src_id\":1,"
      "\"dest\":\"10.1.2.3\",\"origin_ns\":1000,\"rx_ns\":2000,"
      "\"decode_ns\":2100,\"lookup_start_ns\":2200,\"lookup_end_ns\":2500,"
      "\"tx_ns\":2800,\"clue_len\":16,\"outcome\":\"2\","
      "\"claim1_skip\":false,\"search_failed\":false,"
      "\"verdict\":\"forwarded\",\"accesses\":{\"" +
          std::string(mem::regionName(mem::Region::kClueTable)) + "\":2,\"" +
          std::string(mem::regionName(mem::Region::kTrieNode)) +
          "\":3},\"total_accesses\":5}\n");
}

}  // namespace
}  // namespace cluert::obs
