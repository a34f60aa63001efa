// Tests for the batched multi-worker forwarding pipeline (src/pipeline/):
// ring correctness, shard-vs-sequential equivalence, counter aggregation,
// the batch lookup API, and the supporting primitives (Rng::forThread,
// AccessCounter::mergeFrom).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "lookup/factory.h"
#include "pipeline/pipeline.h"
#include "test_util.h"

namespace cluert {
namespace {

using A = ip::Ip4Addr;

// ---------------------------------------------------------------------------
// SpscRing
// ---------------------------------------------------------------------------

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(pipeline::SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(pipeline::SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(pipeline::SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(pipeline::SpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(pipeline::SpscRing<int>(65).capacity(), 128u);
}

TEST(SpscRingTest, FullAndEmpty) {
  pipeline::SpscRing<int> ring(4);
  int out = 0;
  EXPECT_FALSE(ring.tryPop(out));  // empty from the start
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.tryPush(int{i}));
  EXPECT_FALSE(ring.tryPush(99));  // full: push refused, value intact
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_FALSE(ring.tryPop(out));  // drained again
}

TEST(SpscRingTest, WraparoundPreservesFifoOrder) {
  pipeline::SpscRing<int> ring(4);
  int next_push = 0, next_pop = 0, out = 0;
  // 3 in, 3 out per round: 3 does not divide the capacity, so the occupied
  // window slides across the mask boundary and wraps many times.
  for (int round = 0; round < 1000; ++round) {
    for (int k = 0; k < 3; ++k) EXPECT_TRUE(ring.tryPush(next_push++));
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(ring.tryPop(out));
      EXPECT_EQ(out, next_pop++);
    }
  }
  EXPECT_FALSE(ring.tryPop(out));
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscRingTest, CloseIsObservedAfterDrain) {
  pipeline::SpscRing<int> ring(8);
  EXPECT_FALSE(ring.closed());
  EXPECT_TRUE(ring.tryPush(7));
  ring.close();
  EXPECT_TRUE(ring.closed());
  int out = 0;
  EXPECT_TRUE(ring.tryPop(out));  // items pushed before close still drain
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(ring.tryPop(out));
}

TEST(SpscRingTest, TwoThreadTransferDeliversEverythingInOrder) {
  pipeline::SpscRing<std::uint64_t> ring(16);
  constexpr std::uint64_t kItems = 100'000;
  std::uint64_t sum = 0, received = 0;
  bool ordered = true;
  std::thread consumer([&] {
    std::uint64_t v, expect = 0;
    for (;;) {
      if (ring.tryPop(v)) {
        ordered = ordered && v == expect++;
        sum += v;
        ++received;
      } else if (ring.closed()) {
        if (!ring.tryPop(v)) break;
        ordered = ordered && v == expect++;
        sum += v;
        ++received;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i) {
    while (!ring.tryPush(std::uint64_t{i})) std::this_thread::yield();
  }
  ring.close();
  consumer.join();
  EXPECT_EQ(received, kItems);
  EXPECT_TRUE(ordered);
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
}

// ---------------------------------------------------------------------------
// Supporting primitives
// ---------------------------------------------------------------------------

TEST(RngForThreadTest, DeterministicAndIndependentPerWorker) {
  Rng a0 = Rng::forThread(42, 0);
  Rng a0_again = Rng::forThread(42, 0);
  Rng a1 = Rng::forThread(42, 1);
  Rng b0 = Rng::forThread(43, 0);
  bool same_stream = true, split_by_id = false, split_by_seed = false;
  for (int i = 0; i < 64; ++i) {
    const auto v = a0.u64();
    same_stream = same_stream && v == a0_again.u64();
    split_by_id = split_by_id || v != a1.u64();
    split_by_seed = split_by_seed || v != b0.u64();
  }
  EXPECT_TRUE(same_stream);
  EXPECT_TRUE(split_by_id);
  EXPECT_TRUE(split_by_seed);
}

TEST(AccessCounterTest, MergeFromSumsAllRegions) {
  mem::AccessCounter a, b;
  a.add(mem::Region::kClueTable, 3);
  a.add(mem::Region::kTrieNode, 1);
  b.add(mem::Region::kClueTable, 2);
  b.add(mem::Region::kFibEntry, 5);
  a.mergeFrom(b);
  EXPECT_EQ(a.count(mem::Region::kClueTable), 5u);
  EXPECT_EQ(a.count(mem::Region::kTrieNode), 1u);
  EXPECT_EQ(a.count(mem::Region::kFibEntry), 5u);
  EXPECT_EQ(a.total(), 11u);
}

// ---------------------------------------------------------------------------
// Batch lookup API
// ---------------------------------------------------------------------------

// Full lookups on the bit trie through walkBatch, a tenth of them to
// addresses no prefix may cover, give what one lookup() call at a time
// gives: the same matches and the same charges.
TEST(LookupBatchTest, BitTrieBatchMatchesSequentialResultsAndCharges) {
  Rng rng(7);
  const auto entries = testutil::randomTable4(rng, 2'000);
  lookup::LookupSuite<A> suite(entries);
  const auto& engine = suite.engine(lookup::Method::kRegular);

  std::vector<A> dests;
  for (int i = 0; i < 4'096; ++i) {
    if (rng.chance(0.9)) {
      const auto& p = entries[rng.index(entries.size())].prefix;
      A d = p.addr();
      for (int b = p.length(); b < 32; ++b) {
        d = d.withBit(b, static_cast<unsigned>(rng.u32() & 1));
      }
      dests.push_back(d);
    } else {
      dests.push_back(A(rng.u32()));
    }
  }

  mem::AccessCounter seq_acc;
  std::vector<std::optional<trie::Match<A>>> expect;
  for (const A& d : dests) expect.push_back(engine.lookup(d, seq_acc));

  // Exercise several batch shapes, including a ragged tail.
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{32}, std::size_t{200}}) {
    mem::AccessCounter batch_acc;
    std::vector<lookup::Walk<A>> walks(dests.size());
    for (std::size_t i = 0; i < dests.size(); ++i) walks[i].address = dests[i];
    for (std::size_t i = 0; i < walks.size(); i += batch) {
      const std::size_t n = std::min(batch, walks.size() - i);
      engine.walkBatch({walks.data() + i, n}, std::nullopt, false, batch_acc);
    }
    for (std::size_t i = 0; i < dests.size(); ++i) {
      ASSERT_EQ(walks[i].match, expect[i]) << "batch=" << batch << " i=" << i;
    }
    EXPECT_EQ(batch_acc.total(), seq_acc.total()) << "batch=" << batch;
    EXPECT_EQ(batch_acc.count(mem::Region::kTrieNode),
              seq_acc.count(mem::Region::kTrieNode));
  }
}

// ---------------------------------------------------------------------------
// Pipeline end-to-end
// ---------------------------------------------------------------------------

struct PipelineFixture {
  rib::Fib4 sender;
  rib::Fib4 receiver;
  trie::BinaryTrie4 t1;
  std::unique_ptr<lookup::LookupSuite<A>> suite;
  std::vector<pipeline::Pipeline4::Input> inputs;

  explicit PipelineFixture(std::size_t packets, std::uint64_t seed = 2026) {
    Rng rng(seed);
    rib::GenOptions<A> gopt;
    gopt.size = 6'000;
    gopt.histogram = rib::internetLengths1999();
    gopt.subprefix_fraction = 0.25;
    sender = rib::TableGen<A>::generate(rng, gopt);
    rib::NeighborOptions<A> nopt;
    nopt.shared = 5'200;
    nopt.fresh = 300;
    nopt.fresh_extension_fraction = 0.4;
    receiver = rib::TableGen<A>::deriveNeighbor(sender, rng, nopt);
    for (const auto& e : sender.entries()) t1.insert(e.prefix, e.next_hop);
    suite = std::make_unique<lookup::LookupSuite<A>>(std::vector<trie::Match<A>>(
        receiver.entries().begin(), receiver.entries().end()));

    // Random packet stream: mostly destinations covered by the sender (so
    // clues are present), some uniform noise (no-clue / no-route paths).
    const auto entries = sender.entries();
    mem::AccessCounter scratch;
    inputs.reserve(packets);
    for (std::size_t i = 0; i < packets; ++i) {
      A d(rng.u32());
      if (!rng.chance(0.1)) {
        const auto& p = entries[rng.index(entries.size())].prefix;
        d = p.addr();
        for (int b = p.length(); b < 32; ++b) {
          d = d.withBit(b, static_cast<unsigned>(rng.u32() & 1));
        }
      }
      const auto bmp = t1.lookup(d, scratch);
      inputs.push_back({d, bmp ? core::ClueField::of(bmp->prefix.length())
                               : core::ClueField::none()});
    }
  }

  pipeline::PipelineOptions baseOptions() const {
    pipeline::PipelineOptions opt;
    opt.method = lookup::Method::kPatricia;
    opt.mode = lookup::ClueMode::kAdvance;
    opt.learn = false;
    opt.expected_clues = sender.size() + 16;
    // These tests exercise the *threaded* data plane deliberately — real
    // rings, real cross-thread hand-off — even on a small CI host where the
    // hardware clamp would fold everything to one inline shard.
    opt.clamp_to_hardware = false;
    opt.inline_serial = false;
    return opt;
  }

  // Single-threaded reference: one CluePort, packets processed in order.
  std::vector<NextHop> sequentialBaseline(mem::AccessCounter& acc) const {
    typename core::CluePort<A>::Options popt;
    popt.method = lookup::Method::kPatricia;
    popt.mode = lookup::ClueMode::kAdvance;
    popt.learn = false;
    popt.expected_clues = sender.size() + 16;
    core::CluePort<A> port(*suite, &t1, popt);
    const auto clues = sender.prefixes();
    port.precompute(clues);
    std::vector<NextHop> hops;
    hops.reserve(inputs.size());
    for (const auto& in : inputs) {
      const auto r = port.process(in.dest, in.clue, acc);
      hops.push_back(r.match ? r.match->next_hop : kNoNextHop);
    }
    return hops;
  }
};

TEST(PipelineTest, ParallelNextHopsIdenticalToSequentialFor100kPackets) {
  PipelineFixture fx(100'000);
  mem::AccessCounter seq_acc;
  const auto expect = fx.sequentialBaseline(seq_acc);

  pipeline::Pipeline4 pipe(*fx.suite, &fx.t1, fx.baseOptions());
  const auto clues = fx.sender.prefixes();
  pipe.precompute(clues);
  std::vector<NextHop> got(fx.inputs.size(), kNoNextHop);
  const auto stats = pipe.run(fx.inputs, got);

  EXPECT_EQ(stats.packets, fx.inputs.size());
  EXPECT_EQ(stats.workers, 4u);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    if (got[i] != expect[i] && ++mismatches < 5) {
      ADD_FAILURE() << "next hop differs at packet " << i << ": " << got[i]
                    << " vs " << expect[i];
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // (c) with learning and caching off, per-packet accounting is
  // deterministic, so the merged per-worker counters must equal the
  // single-thread run exactly — region by region.
  EXPECT_EQ(stats.accesses.total(), seq_acc.total());
  for (std::size_t r = 0; r < mem::AccessCounter::kRegions; ++r) {
    const auto region = static_cast<mem::Region>(r);
    EXPECT_EQ(stats.accesses.count(region), seq_acc.count(region))
        << "region " << mem::regionName(region);
  }
}

TEST(PipelineTest, OddWorkerAndBatchShapesStayEquivalent) {
  PipelineFixture fx(10'000, 99);
  mem::AccessCounter seq_acc;
  const auto expect = fx.sequentialBaseline(seq_acc);
  const auto clues = fx.sender.prefixes();

  struct Shape {
    std::size_t workers, batch;
  };
  for (const Shape s : {Shape{1, 1}, Shape{2, 5}, Shape{3, 32}, Shape{8, 8}}) {
    auto opt = fx.baseOptions();
    opt.workers = s.workers;
    opt.batch_size = s.batch;
    opt.ring_batches = 8;  // small ring: exercise backpressure
    pipeline::Pipeline4 pipe(*fx.suite, &fx.t1, opt);
    pipe.precompute(clues);
    std::vector<NextHop> got(fx.inputs.size(), kNoNextHop);
    const auto stats = pipe.run(fx.inputs, got);
    EXPECT_EQ(stats.packets, fx.inputs.size());
    EXPECT_EQ(got, expect) << s.workers << " workers, batch " << s.batch;
    EXPECT_EQ(stats.accesses.total(), seq_acc.total())
        << s.workers << " workers, batch " << s.batch;
  }
}

TEST(PipelineTest, StatsAggregateAcrossWorkers) {
  PipelineFixture fx(20'000, 5);
  auto opt = fx.baseOptions();
  opt.workers = 4;
  pipeline::Pipeline4 pipe(*fx.suite, &fx.t1, opt);
  const auto clues = fx.sender.prefixes();
  pipe.precompute(clues);
  std::vector<NextHop> got(fx.inputs.size(), kNoNextHop);
  const auto stats = pipe.run(fx.inputs, got);

  EXPECT_EQ(stats.packets, 20'000u);
  EXPECT_EQ(stats.table_hits + stats.table_misses + stats.no_clue,
            stats.packets);
  EXPECT_EQ(stats.fd_direct + stats.searched, stats.table_hits);
  EXPECT_LE(stats.search_failed, stats.searched);
  EXPECT_GT(stats.table_hits, stats.packets / 2);  // clues mostly resolve
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GT(stats.packetsPerSec(), 0.0);
  // Flow-hash dispatch: balance is statistical, not round-robin-exact. With
  // thousands of distinct flows spread over 4 shards the hottest shard stays
  // well under 1.5x its fair share, and every shard sees traffic.
  EXPECT_EQ(stats.worker_packets.count(), 4u);
  EXPECT_GT(stats.worker_packets.min(), 0.0);
  EXPECT_LT(stats.shardImbalance(), 1.5);
  EXPECT_FALSE(pipeline::formatStats(stats).empty());
}

TEST(PipelineTest, ShardsShareOnePrecomputedClueTable) {
  // The static pipeline precomputes one clue table that every shard's port
  // probes; the ports' own tables stay at their minimum size, however large
  // the clue universe the pipeline was sized for.
  PipelineFixture fx(20'000, 17);
  mem::AccessCounter seq_acc;
  const auto expect = fx.sequentialBaseline(seq_acc);

  auto opt = fx.baseOptions();
  opt.workers = 4;
  opt.expected_clues = 20'000;
  pipeline::Pipeline4 pipe(*fx.suite, &fx.t1, opt);
  const auto clues = fx.sender.prefixes();
  pipe.precompute(clues);
  std::vector<NextHop> got(fx.inputs.size(), kNoNextHop);
  const auto stats = pipe.run(fx.inputs, got);
  EXPECT_EQ(stats.packets, fx.inputs.size());
  EXPECT_EQ(got, expect);
  EXPECT_GT(stats.table_hits, stats.packets / 2);  // the shared table served

  const std::size_t min_buckets = core::HashClueTable<A>(0).bucketCount();
  for (std::size_t w = 0; w < 4; ++w) {
    const auto& port = pipe.worker(w).port();
    EXPECT_EQ(port.hashTable().bucketCount(), min_buckets) << "shard " << w;
    EXPECT_EQ(port.hashTable().size(), 0u) << "shard " << w;
    EXPECT_EQ(port.indexedTable().capacity(), 0u) << "shard " << w;
  }
}

}  // namespace
}  // namespace cluert
