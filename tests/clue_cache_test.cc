// §3.5 clue-entry cache: correctness must be untouched; only the DRAM
// access count changes.
#include <gtest/gtest.h>

#include "core/distributed_lookup.h"
#include "test_util.h"

namespace cluert::core {
namespace {

using testutil::a4;
using testutil::p4;
using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;
using lookup::ClueMode;
using lookup::LookupSuite;
using lookup::Method;

TEST(ClueCache, HitCostsZeroDramAccesses) {
  trie::BinaryTrie<A> t1;
  t1.insert(p4("10.1.0.0/16"), 1);
  LookupSuite<A> suite({MatchT{p4("10.1.0.0/16"), 2}});
  typename CluePort<A>::Options opt;
  opt.method = Method::kPatricia;
  opt.mode = ClueMode::kAdvance;
  opt.cache_entries = 16;
  CluePort<A> port(suite, &t1, opt);
  const std::vector<ip::Prefix4> clues{p4("10.1.0.0/16")};
  port.precompute(clues);

  mem::AccessCounter first;
  port.process(a4("10.1.2.3"), ClueField::of(16), first);
  EXPECT_EQ(first.total(), 1u);  // DRAM probe + cache fill
  mem::AccessCounter second;
  const auto r = port.process(a4("10.1.9.9"), ClueField::of(16), second);
  ASSERT_TRUE(r.match.has_value());
  EXPECT_EQ(r.match->next_hop, 2u);
  EXPECT_EQ(second.total(), 0u);  // served entirely from the cache
  EXPECT_EQ(port.cache().stats().hits, 1u);
  EXPECT_EQ(port.cache().stats().misses, 1u);
}

TEST(ClueCache, DisabledCacheChangesNothing) {
  Rng rng(515);
  const auto sender = testutil::randomTable4(rng, 150);
  const auto receiver = testutil::neighborOf(sender, rng, 0.8, 20, 0.5);
  trie::BinaryTrie<A> t1;
  for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
  LookupSuite<A> s1(receiver), s2(receiver);
  typename CluePort<A>::Options base;
  base.method = Method::kPatricia;
  base.mode = ClueMode::kAdvance;
  base.learn = false;
  auto cached_opt = base;
  cached_opt.cache_entries = 256;
  CluePort<A> plain(s1, &t1, base);
  CluePort<A> cached(s2, &t1, cached_opt);
  std::vector<ip::Prefix4> clues;
  for (const auto& e : sender) clues.push_back(e.prefix);
  plain.precompute(clues);
  cached.precompute(clues);

  mem::AccessCounter scratch, plain_acc, cached_acc;
  for (int i = 0; i < 500; ++i) {
    const auto dest = testutil::coveredAddress<A>(sender, rng,
                                                  testutil::randomAddr4);
    const auto bmp = t1.lookup(dest, scratch);
    if (!bmp) continue;
    const auto field = ClueField::of(bmp->prefix.length());
    const auto rp = plain.process(dest, field, plain_acc);
    const auto rc = cached.process(dest, field, cached_acc);
    ASSERT_EQ(rp.match.has_value(), rc.match.has_value());
    if (rp.match) EXPECT_EQ(rp.match->prefix, rc.match->prefix);
  }
  // The cache can only remove accesses, never add them.
  EXPECT_LE(cached_acc.total(), plain_acc.total());
  EXPECT_GT(cached.cache().stats().hits, 0u);
}

TEST(ClueCache, ZipfTrafficGetsHighHitRateFromSmallCache) {
  Rng rng(616);
  const auto sender = testutil::randomTable4(rng, 400);
  const auto receiver = testutil::neighborOf(sender, rng, 0.85, 30, 0.4);
  trie::BinaryTrie<A> t1;
  for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
  LookupSuite<A> suite(receiver);
  typename CluePort<A>::Options opt;
  opt.method = Method::kPatricia;
  opt.mode = ClueMode::kAdvance;
  opt.learn = false;
  opt.cache_entries = 64;
  CluePort<A> port(suite, &t1, opt);
  std::vector<ip::Prefix4> clues;
  for (const auto& e : sender) clues.push_back(e.prefix);
  port.precompute(clues);

  // Build a destination pool, replay it Zipf-weighted.
  mem::AccessCounter scratch;
  std::vector<std::pair<A, ClueField>> pool;
  while (pool.size() < 200) {
    const auto dest = testutil::coveredAddress<A>(sender, rng,
                                                  testutil::randomAddr4);
    const auto bmp = t1.lookup(dest, scratch);
    if (!bmp) continue;
    pool.emplace_back(dest, ClueField::of(bmp->prefix.length()));
  }
  ZipfSampler zipf(pool.size(), 1.2);
  mem::AccessCounter acc;
  for (int i = 0; i < 3000; ++i) {
    const auto& [dest, field] = pool[zipf.sample(rng)];
    port.process(dest, field, acc);
  }
  EXPECT_GT(port.cache().stats().hitRate(), 0.5);
  // Average DRAM cost sinks below the 1-access floor.
  EXPECT_LT(static_cast<double>(acc.total()) / 3000.0, 1.0);
}

TEST(ClueCache, ClearedOnRouteChange) {
  trie::BinaryTrie<A> t1;
  t1.insert(p4("10.0.0.0/8"), 1);
  LookupSuite<A> suite({MatchT{p4("10.0.0.0/8"), 2}});
  typename CluePort<A>::Options opt;
  opt.method = Method::kPatricia;
  opt.mode = ClueMode::kAdvance;
  opt.cache_entries = 16;
  CluePort<A> port(suite, &t1, opt);
  const std::vector<ip::Prefix4> clues{p4("10.0.0.0/8")};
  port.precompute(clues);
  mem::AccessCounter acc;
  port.process(a4("10.1.2.3"), ClueField::of(8), acc);  // fill
  // Receiver learns a more-specific: the cached FD would now be stale.
  rib::FibDelta4 d;
  d.added.push_back(MatchT{p4("10.1.0.0/16"), 9});
  suite.applyRouteDelta(d.removed, d.upserts());
  port.refreshLocal(d);
  mem::AccessCounter acc2;
  const auto r = port.process(a4("10.1.2.3"), ClueField::of(8), acc2);
  ASSERT_TRUE(r.match.has_value());
  EXPECT_EQ(r.match->next_hop, 9u);      // the new /16, not the stale /8
  EXPECT_GE(acc2.total(), 1u);           // cache was dropped: DRAM again
}

TEST(ClueCache, CapacityRoundsClampsAndDisables) {
  // 0 disables outright; tiny requests round up to a power of two; huge
  // requests (including the SIZE_MAX overflow bait) clamp to kMaxSlots
  // instead of wrapping bit_ceil around to zero.
  EXPECT_EQ(ClueCache<A>(0).capacity(), 0u);
  EXPECT_FALSE(ClueCache<A>(0).enabled());
  EXPECT_EQ(ClueCache<A>(1).capacity(), 1u);
  EXPECT_EQ(ClueCache<A>(3).capacity(), 4u);
  EXPECT_EQ(ClueCache<A>(64).capacity(), 64u);
  EXPECT_EQ(ClueCache<A>(ClueCache<A>::kMaxSlots).capacity(),
            ClueCache<A>::kMaxSlots);
  EXPECT_EQ(ClueCache<A>(ClueCache<A>::kMaxSlots + 1).capacity(),
            ClueCache<A>::kMaxSlots);
  EXPECT_EQ(ClueCache<A>(std::numeric_limits<std::size_t>::max()).capacity(),
            ClueCache<A>::kMaxSlots);
}

TEST(ClueCache, SetVersionInvalidatesOnlyOnChange) {
  ClueCache<A> cache(16);
  ClueEntry<A> e;
  e.clue = p4("10.0.0.0/8");
  e.valid = true;
  e.fd = MatchT{p4("10.0.0.0/8"), 7};
  cache.fill(e);
  ASSERT_NE(cache.lookup(e.clue), nullptr);

  const auto gen = cache.generation();
  cache.setVersion(1);  // first bind: entries predate any version -> flush
  EXPECT_NE(cache.generation(), gen);
  EXPECT_EQ(cache.lookup(e.clue), nullptr);

  cache.fill(e);
  cache.setVersion(1);  // same version re-bound: cache survives
  ASSERT_NE(cache.lookup(e.clue), nullptr);
  cache.setVersion(2);  // swap: everything cached under v1 is gone
  EXPECT_EQ(cache.lookup(e.clue), nullptr);
  EXPECT_EQ(cache.version(), 2u);
}

// Regression for the route-churn staleness bug: a withdrawn local route must
// never be served out of the §3.5 cache afterwards.
TEST(ClueCache, WithdrawnRouteNotServedFromCache) {
  trie::BinaryTrie<A> t1;
  t1.insert(p4("10.1.0.0/16"), 1);
  LookupSuite<A> suite(
      {MatchT{p4("10.0.0.0/8"), 3}, MatchT{p4("10.1.0.0/16"), 5}});
  typename CluePort<A>::Options opt;
  opt.method = Method::kPatricia;
  opt.mode = ClueMode::kSimple;
  opt.cache_entries = 16;
  CluePort<A> port(suite, &t1, opt);
  const std::vector<ip::Prefix4> clues{p4("10.1.0.0/16")};
  port.precompute(clues);

  mem::AccessCounter acc;
  const auto before = port.process(a4("10.1.2.3"), ClueField::of(16), acc);
  ASSERT_TRUE(before.match.has_value());
  ASSERT_EQ(before.match->next_hop, 5u);  // cached now

  rib::FibDelta4 d;
  d.removed.push_back(p4("10.1.0.0/16"));
  suite.applyRouteDelta(d.removed, d.upserts());
  port.refreshLocal(d);

  mem::AccessCounter acc2;
  const auto after = port.process(a4("10.1.2.3"), ClueField::of(16), acc2);
  ASSERT_TRUE(after.match.has_value());
  EXPECT_EQ(after.match->next_hop, 3u)
      << "withdrawn /16's FD served from a stale cache entry";
}

TEST(ZipfSampler, SkewsTowardLowIndices) {
  Rng rng(1);
  ZipfSampler zipf(100, 1.2);
  std::size_t low = 0;
  for (int i = 0; i < 5000; ++i) {
    if (zipf.sample(rng) < 10) ++low;
  }
  EXPECT_GT(low, 2500u);  // top-10% of ranks draw most of the mass
}

}  // namespace
}  // namespace cluert::core
