// Regression tests for the pipeline's slice sharding (src/pipeline/): each
// shard resolving exactly its contiguous slice, partial tail batches,
// sharded-vs-sequential equivalence across traffic shapes (uniform,
// Zipf-skewed, single-flow), equivalence under rib::VersionedTables version
// swaps, the zero-allocation steady-state contract, sampled spans against a
// sequential port, the hardware-concurrency clamp reporting, and shard
// placement on cache lines. Suites are
// named PipelineShard* so tools/run_sanitizers.sh's "Pipeline" filter gives
// them TSan coverage automatically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "mem/alloc_hook.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "rib/versioned_tables.h"
#include "test_util.h"

namespace cluert::pipeline {
namespace {

using A = ip::Ip4Addr;
using Entry = rib::Fib4::EntryT;

struct ShardFixture {
  rib::Fib4 sender;
  rib::Fib4 receiver;
  trie::BinaryTrie4 t1;
  std::unique_ptr<lookup::LookupSuite<A>> suite;
  std::vector<Entry> sender_entries;

  explicit ShardFixture(std::uint64_t seed = 4242, std::size_t size = 800) {
    Rng rng(seed);
    sender_entries = testutil::randomTable4(rng, size);
    const auto receiver_entries =
        testutil::neighborOf(sender_entries, rng, 0.85, size / 8, 0.4);
    sender = rib::Fib4{std::vector<Entry>(sender_entries)};
    receiver = rib::Fib4{std::vector<Entry>(receiver_entries)};
    for (const auto& e : sender.entries()) t1.insert(e.prefix, e.next_hop);
    suite = std::make_unique<lookup::LookupSuite<A>>(std::vector<trie::Match<A>>(
        receiver_entries.begin(), receiver_entries.end()));
  }

  Pipeline4::Input packet(const A& dest) {
    mem::AccessCounter scratch;
    const auto bmp = t1.lookup(dest, scratch);
    return {dest, bmp ? core::ClueField::of(bmp->prefix.length())
                      : core::ClueField::none()};
  }

  // These tests run the shard count they ask for — real concurrent shards
  // — even on a small CI host where the hardware clamp would cut it.
  PipelineOptions threadedOptions(std::size_t workers,
                                  std::size_t batch) const {
    PipelineOptions opt;
    opt.workers = workers;
    opt.batch_size = batch;
    opt.method = lookup::Method::kPatricia;
    opt.mode = lookup::ClueMode::kAdvance;
    opt.learn = false;
    opt.expected_clues = sender.size() + 16;
    opt.clamp_to_hardware = false;
    return opt;
  }

  // A port configured like every shard of threadedOptions(), precomputed.
  std::unique_ptr<core::CluePort<A>> sequentialPort() {
    typename core::CluePort<A>::Options popt;
    popt.method = lookup::Method::kPatricia;
    popt.mode = lookup::ClueMode::kAdvance;
    popt.learn = false;
    popt.expected_clues = sender.size() + 16;
    auto port = std::make_unique<core::CluePort<A>>(*suite, &t1, popt);
    const auto clues = sender.prefixes();
    port->precompute(clues);
    return port;
  }

  std::vector<NextHop> sequential(std::span<const Pipeline4::Input> inputs) {
    const auto port = sequentialPort();
    mem::AccessCounter acc;
    std::vector<NextHop> hops;
    hops.reserve(inputs.size());
    for (const auto& in : inputs) {
      const auto r = port->process(in.dest, in.clue, acc);
      hops.push_back(r.match ? r.match->next_hop : kNoNextHop);
    }
    return hops;
  }

  // A stream of `n` packets over a pool of covered destinations. skew = 0:
  // uniform over the pool. skew > 0: Zipf-ish, pool index drawn as
  // pool_size * u^(1+skew) — a handful of elephant flows carry most of the
  // traffic.
  std::vector<Pipeline4::Input> stream(Rng& rng, std::size_t n,
                                       std::size_t pool_size, double skew) {
    std::vector<Pipeline4::Input> pool;
    pool.reserve(pool_size);
    while (pool.size() < pool_size) {
      pool.push_back(packet(testutil::coveredAddress<A>(
          sender_entries, rng, testutil::randomAddr4)));
    }
    std::vector<Pipeline4::Input> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t j;
      if (skew <= 0) {
        j = rng.index(pool.size());
      } else {
        const double u =
            (static_cast<double>(rng.u32()) + 0.5) / 4294967296.0;
        j = std::min(pool.size() - 1,
                     static_cast<std::size_t>(
                         static_cast<double>(pool.size()) *
                         std::pow(u, 1.0 + skew)));
      }
      out.push_back(pool[j]);
    }
    return out;
  }
};

void expectSameHops(const std::vector<NextHop>& got,
                    const std::vector<NextHop>& expect) {
  ASSERT_EQ(got.size(), expect.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    if (got[i] != expect[i] && ++mismatches <= 5) {
      ADD_FAILURE() << "next hop differs at packet " << i << ": " << got[i]
                    << " vs " << expect[i];
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// Partial tail batches: 997 packets over 3 shards are slices of 332, 332
// and 333 packets, and each ends on a partial batch of 32. Every packet of
// every tail must be resolved. The second run re-checks the same property
// on a reused pipeline, whose counters reset between runs.
TEST(PipelineShardTest, TailBatchesFlushedOnRunCompletion) {
  ShardFixture fx;
  Rng rng(11);
  const auto inputs = fx.stream(rng, 997, 256, 0.0);
  const auto expect = fx.sequential(inputs);

  Pipeline4 pipe(*fx.suite, &fx.t1, fx.threadedOptions(3, 32));
  const auto clues = fx.sender.prefixes();
  pipe.precompute(clues);
  for (int run = 0; run < 2; ++run) {
    std::vector<NextHop> got(inputs.size(), kNoNextHop);
    const auto stats = pipe.run(inputs, got);
    // Every packet resolved — a dropped tail shows up here first.
    EXPECT_EQ(stats.packets, inputs.size()) << "run " << run;
    expectSameHops(got, expect);
  }
}

// Each shard resolves exactly its contiguous slice of the stream, positions
// [N·w/W, N·(w+1)/W). 1,000 packets with distinct destinations over 3
// shards, a span for every packet: each span's worker must be the slice
// that holds its destination's stream position.
TEST(PipelineShardTest, EachShardResolvesItsContiguousSlice) {
  ShardFixture fx;
  Rng rng(66);
  constexpr std::size_t kPackets = 1'000;
  constexpr std::size_t kShards = 3;
  std::vector<Pipeline4::Input> inputs;
  std::map<std::uint32_t, std::size_t> position;  // dest -> stream position
  while (inputs.size() < kPackets) {
    const A d = testutil::coveredAddress<A>(fx.sender_entries, rng,
                                            testutil::randomAddr4);
    if (!position.emplace(d.value(), inputs.size()).second) continue;
    inputs.push_back(fx.packet(d));
  }

  PipelineOptions opt = fx.threadedOptions(kShards, 32);
  opt.trace.enabled = true;
  opt.trace.sample_every = 1;
  Pipeline4 pipe(*fx.suite, &fx.t1, opt);
  const auto clues = fx.sender.prefixes();
  pipe.precompute(clues);
  std::vector<NextHop> got(inputs.size(), kNoNextHop);
  const PipelineStats stats = pipe.run(inputs, got);
  ASSERT_EQ(stats.packets, kPackets);
  expectSameHops(got, fx.sequential(inputs));

  const std::vector<obs::PacketSpan> spans = pipe.drainSpans();
  ASSERT_EQ(spans.size(), kPackets);
  std::vector<std::size_t> per_shard(kShards, 0);
  for (const obs::PacketSpan& s : spans) {
    const auto it = position.find(s.dest);
    ASSERT_NE(it, position.end()) << "span for a packet never sent";
    std::size_t slice = 0;
    while (kPackets * (slice + 1) / kShards <= it->second) ++slice;
    EXPECT_EQ(s.worker, slice) << "packet " << it->second;
    ASSERT_LT(s.worker, kShards);
    ++per_shard[s.worker];
  }
  EXPECT_EQ(per_shard, (std::vector<std::size_t>{333, 333, 334}));
}

TEST(PipelineShardTest, UniformZipfAndSingleFlowTrafficMatchSequential) {
  ShardFixture fx;
  Rng rng(22);
  const struct {
    const char* name;
    std::size_t pool;
    double skew;
  } shapes[] = {
      {"uniform", 512, 0.0},
      {"zipf", 512, 3.0},
      {"single-flow", 1, 0.0},
  };
  for (const auto& shape : shapes) {
    SCOPED_TRACE(shape.name);
    const auto inputs = fx.stream(rng, 20'000, shape.pool, shape.skew);
    const auto expect = fx.sequential(inputs);
    Pipeline4 pipe(*fx.suite, &fx.t1, fx.threadedOptions(4, 8));
    const auto clues = fx.sender.prefixes();
    pipe.precompute(clues);
    std::vector<NextHop> got(inputs.size(), kNoNextHop);
    const auto stats = pipe.run(inputs, got);
    EXPECT_EQ(stats.packets, inputs.size());
    expectSameHops(got, expect);
    if (shape.pool == 1) {
      // No flow affinity: a single flow is split like any other stream,
      // 5,000 packets to each of the 4 shards.
      EXPECT_EQ(stats.worker_packets.min(), 5'000.0);
      EXPECT_EQ(stats.worker_packets.max(), 5'000.0);
      EXPECT_DOUBLE_EQ(stats.shardImbalance(), 1.0);
    }
  }
}

// Quiescent version swaps between sharded runs: every packet must resolve
// against the live version (version_out records the pinned seq), results
// must equal the per-version oracle, and the shards must observe the swap
// (version_changes). The racing variant — an updater thread publishing
// *during* run() — lives in churn_pipeline_test.cc.
TEST(PipelineShardTest, VersionSwapsKeepShardedRunsOracleExact) {
  Rng rng(31337);
  const auto local_entries = testutil::randomTable4(rng, 256);
  const auto neighbor_entries =
      testutil::neighborOf(local_entries, rng, 0.8, 40, 0.5);
  rib::Fib4 local{std::vector<Entry>(local_entries)};
  rib::Fib4 neighbor{std::vector<Entry>(neighbor_entries)};
  trie::BinaryTrie4 t1 = neighbor.buildTrie();

  mem::AccessCounter scratch;
  std::vector<Pipeline4::Input> inputs;
  std::vector<A> dests;
  while (dests.size() < 96) {
    dests.push_back(testutil::coveredAddress<A>(local_entries, rng,
                                                testutil::randomAddr4));
  }
  for (std::size_t i = 0; i < 4'096; ++i) {
    const A d = dests[rng.index(dests.size())];
    const auto bmp = t1.lookup(d, scratch);
    inputs.push_back({d, bmp ? core::ClueField::of(bmp->prefix.length())
                             : core::ClueField::none()});
  }

  rib::VersionedTables4::Options vopt;
  vopt.mode = lookup::ClueMode::kSimple;
  rib::VersionedTables4 vt(local, neighbor, vopt);

  PipelineOptions popt;
  popt.workers = 4;
  popt.batch_size = 32;
  popt.mode = lookup::ClueMode::kSimple;
  popt.clamp_to_hardware = false;
  Pipeline4 pipe(vt, popt);

  rib::Fib4 cur = local;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    std::vector<NextHop> got(inputs.size(), kNoNextHop);
    std::vector<std::uint64_t> vout(inputs.size(), 0);
    const auto stats = pipe.run(inputs, got, vout);
    EXPECT_EQ(stats.packets, inputs.size());
    if (round > 0) EXPECT_GE(stats.version_changes, 1u);

    // Quiescent oracle at the (only) live version.
    const auto& live = vt.liveVersion();
    mem::AccessCounter acc;
    const auto& engine = live.suite->engine(live.method);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_EQ(vout[i], live.seq) << "packet " << i;
      const auto m = engine.lookup(inputs[i].dest, acc);
      ASSERT_EQ(got[i], m ? m->next_hop : kNoNextHop) << "packet " << i;
    }

    // Publish a swap for the next round: reroute two live prefixes.
    rib::FibDelta4 d;
    const auto entries = cur.entries();
    for (int k = 0; k < 2; ++k) {
      Entry e = entries[rng.index(entries.size())];
      e.next_hop = static_cast<NextHop>(90 + k);
      d.rerouted.push_back(e);
      cur.add(e.prefix, e.next_hop);
    }
    vt.publishLocal(d);
  }
}

// The zero-allocation contract on the sharded path: after each shard's
// warm-up batch, the caller's shard and the spawned one alike, the
// steady-state window performs no heap allocation. Run twice — the second
// run has no first-touch warm-up left anywhere. Checked unobserved and
// fully observed (metric cells plus a span for every packet: the post-pass,
// the sampler and the span collector must not allocate either).
TEST(PipelineShardTest, SteadyStateIsAllocationFree) {
  if (!mem::allocHookActive()) {
    GTEST_SKIP() << "counting alloc hook compiled out (sanitizer build)";
  }
  ShardFixture fx;
  Rng rng(33);
  const auto inputs = fx.stream(rng, 20'000, 256, 0.0);
  const auto clues = fx.sender.prefixes();
  for (const bool observed : {false, true}) {
    SCOPED_TRACE(observed ? "observed" : "unobserved");
    obs::MetricRegistry registry;
    PipelineOptions opt = fx.threadedOptions(2, 32);
    if (observed) {
      opt.registry = &registry;
      opt.trace.enabled = true;
      opt.trace.sample_every = 1;
    }
    Pipeline4 pipe(*fx.suite, &fx.t1, opt);
    pipe.precompute(clues);
    std::vector<NextHop> got(inputs.size(), kNoNextHop);
    PipelineStats stats;
    for (int run = 0; run < 2; ++run) stats = pipe.run(inputs, got);
    EXPECT_TRUE(stats.alloc_hook_active);
    EXPECT_EQ(stats.steady_allocs, 0u);
    if (observed) {
      // The observed run really counted and sampled.
      EXPECT_FALSE(pipe.drainSpans().empty());
      const obs::MetricSample* packets =
          registry.snapshot().find("lookup_packets_total");
      ASSERT_NE(packets, nullptr);
      EXPECT_EQ(packets->counter_value, 2 * inputs.size());
    }
  }
}

// Spans without a registry: at sample_every = 1 every packet leaves one
// span, built from its batch's Results — the worker turns on per-lookup
// accesses itself. Each span must agree with a sequential CluePort::process
// of the same packet (learning and the cache are off, so a packet's resolve
// depends on nothing but the packet), and its lookup window must be its
// batch's. Windows are keyed by (worker, lookup start): two shards may read
// the same nanosecond, one shard's batches never do.
TEST(PipelineShardTest, SpansOfEveryPacketMatchSequentialPort) {
  ShardFixture fx;
  Rng rng(55);
  auto inputs = fx.stream(rng, 1'000, 256, 0.0);
  for (std::size_t i = 0; i < inputs.size(); i += 4) {
    inputs[i].clue = core::ClueField::none();
  }

  PipelineOptions opt = fx.threadedOptions(4, 32);
  opt.trace.enabled = true;
  opt.trace.sample_every = 1;
  Pipeline4 pipe(*fx.suite, &fx.t1, opt);
  const auto clues = fx.sender.prefixes();
  pipe.precompute(clues);
  std::vector<NextHop> got(inputs.size(), kNoNextHop);
  const PipelineStats stats = pipe.run(inputs, got);
  ASSERT_EQ(stats.packets, inputs.size());
  const std::vector<obs::PacketSpan> spans = pipe.drainSpans();
  ASSERT_EQ(spans.size(), inputs.size());
  EXPECT_TRUE(pipe.drainSpans().empty());

  // The reference: an unobserved port, accesses read off its counter.
  // Packets with equal (dest, clue length) resolve alike, so the expected
  // span is keyed by that pair, with a count of the packets carrying it.
  const auto port = fx.sequentialPort();
  std::map<std::pair<std::uint32_t, std::int16_t>,
           std::pair<obs::PacketSpan, std::size_t>>
      want;
  mem::AccessCounter acc;
  std::size_t no_clue = 0;
  for (const auto& in : inputs) {
    const mem::AccessCounter before = acc;
    const auto r = port->process(in.dest, in.clue, acc);
    obs::PacketSpan s;
    s.dest = in.dest.value();
    s.clue_len = in.clue.present ? static_cast<std::int16_t>(in.clue.length)
                                 : std::int16_t{-1};
    s.outcome = r.outcome;
    s.claim1_skip = r.claim1_skip;
    s.search_failed = r.search_failed;
    s.accesses = mem::lookupDelta(acc, before);
    s.verdict = r.match ? obs::SpanVerdict::kDelivered
                        : obs::SpanVerdict::kNoRoute;
    auto& entry = want[{s.dest, s.clue_len}];
    entry.first = s;
    ++entry.second;
    no_clue += in.clue.present ? 0 : 1;
  }
  EXPECT_GT(no_clue, 0u);

  std::uint64_t span_accesses = 0;
  std::set<std::pair<std::uint64_t, std::uint64_t>> ids;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> windows;
  for (const obs::PacketSpan& s : spans) {
    auto it = want.find({s.dest, s.clue_len});
    ASSERT_NE(it, want.end()) << "span for a packet never sent";
    ASSERT_GT(it->second.second, 0u) << "more spans than packets";
    --it->second.second;
    const obs::PacketSpan& w = it->second.first;
    EXPECT_EQ(s.outcome, w.outcome);
    EXPECT_EQ(s.claim1_skip, w.claim1_skip);
    EXPECT_EQ(s.search_failed, w.search_failed);
    EXPECT_EQ(s.accesses, w.accesses);
    EXPECT_EQ(s.verdict, w.verdict);
    span_accesses += s.accessTotal();

    EXPECT_EQ(s.hop, 0);
    EXPECT_EQ(s.rx_ns, s.lookup_start_ns);
    EXPECT_EQ(s.decode_ns, s.lookup_start_ns);
    EXPECT_LE(s.lookup_start_ns, s.lookup_end_ns);
    EXPECT_EQ(s.tx_ns, 0u);
    ids.insert({s.trace_hi, s.trace_lo});
    const auto [win, fresh] =
        windows.emplace(std::make_pair(s.worker, s.lookup_start_ns),
                        s.lookup_end_ns);
    if (!fresh) EXPECT_EQ(win->second, s.lookup_end_ns);
  }
  EXPECT_EQ(ids.size(), spans.size()) << "trace ids must be unique";
  EXPECT_EQ(span_accesses, stats.accesses.total());
  EXPECT_EQ(span_accesses, acc.total());
  // One window per batch, and one shard's windows never overlap.
  EXPECT_EQ(windows.size(), stats.batches);
  for (auto it = windows.begin(); it != windows.end(); ++it) {
    const auto next = std::next(it);
    if (next == windows.end() || next->first.first != it->first.first) {
      continue;
    }
    EXPECT_LE(it->second, next->first.second)
        << "worker " << it->first.first << " windows overlap";
  }
}

// Oversubscribed worker requests are clamped to hardware_concurrency, and
// the clamp is *reported*: both counts in the stats, the delta as a gauge.
// (The stderr warning rides the same branch as the gauge.)
TEST(PipelineShardTest, HardwareClampReportsRequestedAndActual) {
  const auto hc =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  if (hc == 0 || hc >= 64) {
    GTEST_SKIP() << "hardware_concurrency " << hc
                 << " cannot demonstrate the clamp";
  }
  ShardFixture fx;
  Rng rng(44);
  const auto inputs = fx.stream(rng, 2'000, 128, 0.0);
  const auto expect = fx.sequential(inputs);

  obs::MetricRegistry registry;
  PipelineOptions opt = fx.threadedOptions(64, 16);
  opt.clamp_to_hardware = true;  // the behaviour under test
  opt.registry = &registry;
  Pipeline4 pipe(*fx.suite, &fx.t1, opt);
  const auto clues = fx.sender.prefixes();
  pipe.precompute(clues);
  std::vector<NextHop> got(inputs.size(), kNoNextHop);
  const auto stats = pipe.run(inputs, got);

  EXPECT_EQ(stats.requested_workers, 64u);
  EXPECT_EQ(stats.workers, hc);
  expectSameHops(got, expect);

  const auto snap = registry.snapshot();
  const auto* clamped = snap.find("pipeline_workers_clamped");
  ASSERT_NE(clamped, nullptr);
  EXPECT_EQ(clamped->gauge_value, static_cast<double>(64 - hc));
  const auto* workers = snap.find("pipeline_workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->gauge_value, static_cast<double>(hc));
}

// Shard placement: Worker holds alignas(64) members, so aligned new starts
// every shard on its own cache line, and no hot word of one shard shares a
// line with another's.
static_assert(alignof(Worker<ip::Ip4Addr>) == 64);

TEST(PipelineShardTest, EachShardStartsOnItsOwnCacheLine) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::uintptr_t kLine = 64;
  ShardFixture fx;
  Pipeline4 pipe(*fx.suite, &fx.t1, fx.threadedOptions(kWorkers, 16));
  // Each shard's [first, last] cache line.
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> lines;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    const auto at = reinterpret_cast<std::uintptr_t>(&pipe.worker(w));
    EXPECT_EQ(at % kLine, 0u) << "worker " << w;
    lines.emplace_back(at / kLine, (at + sizeof(Worker<A>) - 1) / kLine);
  }
  std::sort(lines.begin(), lines.end());
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_LT(lines[i - 1].second, lines[i].first) << "two shards share a line";
  }
}

}  // namespace
}  // namespace cluert::pipeline
