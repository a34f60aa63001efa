// Update-under-traffic acceptance: a RouteUpdater publishes FibDelta batches
// while pipeline workers forward, and every packet's next hop must equal a
// quiescent oracle evaluated at the exact version the worker pinned for that
// packet's batch. This is the TSan-gated proof that the epoch-versioned swap
// scheme never lets a half-applied delta (or a freed retired version) reach
// the data plane.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pipeline/pipeline.h"
#include "rib/route_updater.h"
#include "rib/versioned_tables.h"
#include "test_util.h"

namespace cluert::pipeline {
namespace {

using A = ip::Ip4Addr;
using Entry = rib::Fib4::EntryT;

struct ChurnBench {
  rib::Fib4 local;
  rib::Fib4 neighbor;
  std::vector<A> pool;                     // destination pool
  std::vector<core::ClueField> pool_clue;  // clue per pool entry (initial t1)
  std::vector<Pipeline4::Input> inputs;    // fixed stream over the pool
  std::vector<std::size_t> pool_idx;       // inputs[i] -> pool index

  ChurnBench(Rng& rng, std::size_t table_size, std::size_t pool_size,
             std::size_t packets) {
    const auto local_entries = testutil::randomTable4(rng, table_size);
    const auto neighbor_entries =
        testutil::neighborOf(local_entries, rng, 0.8, table_size / 6, 0.5);
    local = rib::Fib4{std::vector<Entry>(local_entries)};
    neighbor = rib::Fib4{std::vector<Entry>(neighbor_entries)};
    trie::BinaryTrie<A> t1 = neighbor.buildTrie();
    mem::AccessCounter scratch;
    while (pool.size() < pool_size) {
      const auto dest = testutil::coveredAddress<A>(local_entries, rng,
                                                    testutil::randomAddr4);
      pool.push_back(dest);
      // The clue each packet carries is computed ONCE, against the initial
      // sender table — under neighbor churn these clues go stale and
      // straddle version swaps, which is exactly the case the Simple
      // correctness argument (DESIGN.md §7) covers.
      const auto bmp = t1.lookup(dest, scratch);
      pool_clue.push_back(bmp ? core::ClueField::of(bmp->prefix.length())
                              : core::ClueField::none());
    }
    inputs.reserve(packets);
    pool_idx.reserve(packets);
    for (std::size_t i = 0; i < packets; ++i) {
      const std::size_t j = rng.index(pool.size());
      pool_idx.push_back(j);
      inputs.push_back({pool[j], pool_clue[j]});
    }
  }
};

// Quiescent oracle for one published version: the plain engine lookup for
// every pool destination. Runs on the updater thread inside on_publish (the
// version is live and immutable there); the main thread reads the map only
// after RouteUpdater::stop() joined, so no lock is needed.
std::vector<NextHop> oracleRow(const rib::TableVersion<A>& v,
                               const std::vector<A>& pool) {
  std::vector<NextHop> row(pool.size(), kNoNextHop);
  mem::AccessCounter acc;
  const auto& engine = v.suite->engine(v.method);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto m = engine.lookup(pool[i], acc);
    if (m) row[i] = m->next_hop;
  }
  return row;
}

// Mutates `cur` (the generator's mirror of the table) and returns a
// consistent delta: bursty withdraws, re-announces drawn from the withdrawn
// stack, and reroutes — never touching the same prefix twice in one delta.
rib::FibDelta4 makeDelta(Rng& rng, rib::Fib4& cur,
                         std::vector<Entry>& withdrawn, std::size_t burst,
                         bool reroute) {
  rib::FibDelta4 d;
  std::unordered_set<ip::Prefix4> touched;
  for (std::size_t k = 0; k < burst && cur.size() > 32; ++k) {
    const auto entries = cur.entries();
    const Entry e = entries[rng.index(entries.size())];
    if (!touched.insert(e.prefix).second) continue;
    withdrawn.push_back(e);
    d.removed.push_back(e.prefix);
    cur.remove(e.prefix);
  }
  for (std::size_t k = 0; k < burst && !withdrawn.empty(); ++k) {
    const Entry e = withdrawn.back();
    withdrawn.pop_back();
    if (!touched.insert(e.prefix).second) continue;
    if (cur.contains(e.prefix)) continue;
    d.added.push_back(e);
    cur.add(e.prefix, e.next_hop);
  }
  if (reroute) {
    for (int k = 0; k < 2 && !cur.empty(); ++k) {
      const auto entries = cur.entries();
      Entry e = entries[rng.index(entries.size())];
      if (!touched.insert(e.prefix).second) continue;
      e.next_hop = static_cast<NextHop>(rng.uniform(0, 30));
      d.rerouted.push_back(e);
      cur.add(e.prefix, e.next_hop);
    }
  }
  return d;
}

// The acceptance test: >= 1000 published FibDelta batches from a dedicated
// updater thread racing 4 forwarding workers, per-packet results compared to
// the quiescent oracle at each packet's pinned version.
TEST(ChurnPipeline, OracleHoldsAcrossAThousandSwaps) {
  Rng rng(90909);
  ChurnBench wb(rng, /*table_size=*/192, /*pool_size=*/128,
                /*packets=*/2048);

  std::unordered_map<std::uint64_t, std::vector<NextHop>> oracle;
  rib::VersionedTables4::Options vopt;
  vopt.mode = lookup::ClueMode::kSimple;  // both sides churn -> Simple
  // 1k+ publishes: re-validating every retired version would dominate the
  // runtime many times over; dedicated validation tests cover that path.
  vopt.validate_retired = false;
  vopt.on_publish = [&](const rib::TableVersion<A>& v) {
    oracle.emplace(v.seq, oracleRow(v, wb.pool));
  };
  rib::VersionedTables4 vt(wb.local, wb.neighbor, vopt);
  oracle.emplace(1, oracleRow(vt.liveVersion(), wb.pool));

  PipelineOptions popt;
  popt.workers = 4;
  // Keep 4 real worker threads even on a small host: the whole point is
  // racing the updater against a genuinely concurrent data plane.
  popt.clamp_to_hardware = false;
  popt.batch_size = 32;
  popt.mode = lookup::ClueMode::kSimple;
  popt.cache_entries = 64;  // exercise §3.5 cache invalidation across swaps
  popt.seed = 7;
  Pipeline4 pipe(vt, popt);

  rib::Fib4 cur_local = wb.local;
  rib::Fib4 cur_neighbor = wb.neighbor;
  std::vector<Entry> withdrawn_local, withdrawn_neighbor;

  std::vector<std::vector<NextHop>> outs;
  std::vector<std::vector<std::uint64_t>> vouts;
  std::uint64_t version_changes = 0;
  {
    rib::RouteUpdater4 updater(vt);
    std::uint64_t enqueued = 0;
    while (updater.published() < 1000) {
      // Bursty churn: a clump of receiver deltas plus sender-side
      // withdraw/re-announce (the stale-clue injector), then one pipeline
      // pass over the fixed stream while the updater drains. Enqueues are
      // throttled against publish progress so the queue stays a burst, not
      // an unbounded backlog stop() would have to drain.
      if (enqueued < updater.published() + 48) {
        for (int b = 0; b < 6; ++b) {
          auto d = makeDelta(rng, cur_local, withdrawn_local, 3, true);
          if (d.empty()) continue;
          updater.enqueueLocal(std::move(d));
          ++enqueued;
        }
        for (int b = 0; b < 2; ++b) {
          auto d = makeDelta(rng, cur_neighbor, withdrawn_neighbor, 3, false);
          if (d.empty()) continue;
          updater.enqueueNeighbor(std::move(d));
          ++enqueued;
        }
      }
      outs.emplace_back(wb.inputs.size(), kNoNextHop);
      vouts.emplace_back(wb.inputs.size(), 0);
      const auto stats = pipe.run(wb.inputs, outs.back(), vouts.back());
      version_changes += stats.version_changes;
    }
    updater.stop();
    EXPECT_GE(updater.published(), 1000u);
    EXPECT_GT(updater.latencyNs().max(), 0.0);
  }
  EXPECT_GE(vt.swaps(), 1000u);
  EXPECT_GT(version_changes, 0u);  // the data plane really observed swaps

  // Every packet of every run: identical to the quiescent oracle at the
  // version its batch pinned.
  std::size_t checked = 0;
  for (std::size_t r = 0; r < outs.size(); ++r) {
    for (std::size_t i = 0; i < wb.inputs.size(); ++i) {
      const std::uint64_t seq = vouts[r][i];
      ASSERT_NE(seq, 0u) << "packet resolved without a pinned version: run "
                         << r << " of " << outs.size() << ", packet " << i
                         << ", out=" << outs[r][i];
      const auto it = oracle.find(seq);
      ASSERT_NE(it, oracle.end()) << "no oracle row for seq " << seq;
      ASSERT_EQ(outs[r][i], it->second[wb.pool_idx[i]])
          << "run " << r << " packet " << i << " at version " << seq;
      ++checked;
    }
  }
  EXPECT_GE(checked, outs.size() * wb.inputs.size());
}

// Advance analysis is only churn-safe when the *sender* table is static
// (Claim 1 reasons about the sender's view the clue was built from); with
// receiver-only churn the same oracle must hold in Advance mode.
TEST(ChurnPipeline, AdvanceModeWithStaticSender) {
  Rng rng(30303);
  ChurnBench wb(rng, /*table_size=*/160, /*pool_size=*/96, /*packets=*/1024);

  std::unordered_map<std::uint64_t, std::vector<NextHop>> oracle;
  rib::VersionedTables4::Options vopt;
  vopt.mode = lookup::ClueMode::kAdvance;
  vopt.validate_retired = false;
  vopt.on_publish = [&](const rib::TableVersion<A>& v) {
    oracle.emplace(v.seq, oracleRow(v, wb.pool));
  };
  rib::VersionedTables4 vt(wb.local, wb.neighbor, vopt);
  oracle.emplace(1, oracleRow(vt.liveVersion(), wb.pool));

  PipelineOptions popt;
  popt.workers = 4;
  // Keep 4 real worker threads even on a small host: the whole point is
  // racing the updater against a genuinely concurrent data plane.
  popt.clamp_to_hardware = false;
  popt.batch_size = 32;
  popt.mode = lookup::ClueMode::kAdvance;
  popt.seed = 11;
  Pipeline4 pipe(vt, popt);

  rib::Fib4 cur_local = wb.local;
  std::vector<Entry> withdrawn;
  std::vector<std::vector<NextHop>> outs;
  std::vector<std::vector<std::uint64_t>> vouts;
  {
    rib::RouteUpdater4 updater(vt);
    std::uint64_t enqueued = 0;
    while (updater.published() < 200) {
      if (enqueued < updater.published() + 32) {
        for (int b = 0; b < 4; ++b) {
          auto d = makeDelta(rng, cur_local, withdrawn, 2, true);
          if (d.empty()) continue;
          updater.enqueueLocal(std::move(d));
          ++enqueued;
        }
      }
      outs.emplace_back(wb.inputs.size(), kNoNextHop);
      vouts.emplace_back(wb.inputs.size(), 0);
      pipe.run(wb.inputs, outs.back(), vouts.back());
    }
    updater.stop();
  }
  for (std::size_t r = 0; r < outs.size(); ++r) {
    for (std::size_t i = 0; i < wb.inputs.size(); ++i) {
      const auto it = oracle.find(vouts[r][i]);
      ASSERT_NE(it, oracle.end());
      ASSERT_EQ(outs[r][i], it->second[wb.pool_idx[i]])
          << "run " << r << " packet " << i << " at version " << vouts[r][i];
    }
  }
}

// With no churn at all, the versioned pipeline must forward exactly like the
// classic suite-bound pipeline over the same tables.
TEST(ChurnPipeline, QuiescentVersionedMatchesUnversioned) {
  Rng rng(1212);
  ChurnBench wb(rng, /*table_size=*/160, /*pool_size=*/96, /*packets=*/1024);

  PipelineOptions popt;
  popt.workers = 4;
  // Keep 4 real worker threads even on a small host: the whole point is
  // racing the updater against a genuinely concurrent data plane.
  popt.clamp_to_hardware = false;
  popt.batch_size = 32;
  popt.mode = lookup::ClueMode::kSimple;
  popt.learn = false;
  popt.expected_clues = wb.neighbor.size() + 16;
  popt.seed = 3;

  rib::VersionedTables4::Options vopt;
  vopt.mode = lookup::ClueMode::kSimple;
  rib::VersionedTables4 vt(wb.local, wb.neighbor, vopt);
  Pipeline4 versioned(vt, popt);
  std::vector<NextHop> got_versioned(wb.inputs.size(), kNoNextHop);
  std::vector<std::uint64_t> vout(wb.inputs.size(), 0);
  const auto vstats = versioned.run(wb.inputs, got_versioned, vout);
  EXPECT_EQ(vstats.version_changes, 4u);  // each shard's first batch

  lookup::LookupSuite<A> suite(std::vector<trie::Match<A>>(
      wb.local.entries().begin(), wb.local.entries().end()));
  trie::BinaryTrie<A> t1 = wb.neighbor.buildTrie();
  Pipeline4 classic(suite, &t1, popt);
  classic.precompute(wb.neighbor.prefixes());
  std::vector<NextHop> got_classic(wb.inputs.size(), kNoNextHop);
  classic.run(wb.inputs, got_classic);

  EXPECT_EQ(got_versioned, got_classic);
  for (const std::uint64_t seq : vout) EXPECT_EQ(seq, 1u);
}

// The §3.5 per-worker cache must never serve an FD cached under an older
// version: withdraw the route a cached entry's FD points at, swap, and the
// next packet must see the new version's answer.
TEST(ChurnCache, NoStaleFdServedAcrossSwap) {
  using testutil::a4;
  using testutil::p4;
  rib::Fib4 local({Entry{p4("10.0.0.0/8"), 1}, Entry{p4("10.1.0.0/16"), 2}});
  rib::Fib4 neighbor({Entry{p4("10.1.0.0/16"), 9}});

  rib::VersionedTables4::Options vopt;
  vopt.mode = lookup::ClueMode::kSimple;
  vopt.validate_retired = true;
  rib::VersionedTables4 vt(local, neighbor, vopt);

  typename core::CluePort<A>::Options opt;
  opt.method = lookup::Method::kPatricia;
  opt.mode = lookup::ClueMode::kSimple;
  opt.cache_entries = 16;
  core::CluePort<A> port(opt);

  {
    auto guard = vt.pin(0);
    port.bindVersion(guard->seq, *guard->suite, guard->clues,
                     &guard->neighbor_trie);
    mem::AccessCounter acc;
    const auto r = port.process(a4("10.1.2.3"), core::ClueField::of(16), acc);
    ASSERT_TRUE(r.match.has_value());
    EXPECT_EQ(r.match->next_hop, 2u);
    // Second hit comes from the cache (no DRAM probe).
    mem::AccessCounter acc2;
    port.process(a4("10.1.9.9"), core::ClueField::of(16), acc2);
    EXPECT_EQ(acc2.total(), 0u);
    EXPECT_EQ(port.cache().stats().hits, 1u);
  }

  // Withdraw the /16 and publish: the cached FD (next hop 2) is now stale.
  rib::FibDelta4 d;
  d.removed.push_back(p4("10.1.0.0/16"));
  vt.publishLocal(d);

  {
    auto guard = vt.pin(0);
    port.bindVersion(guard->seq, *guard->suite, guard->clues,
                     &guard->neighbor_trie);
    mem::AccessCounter acc;
    const auto r = port.process(a4("10.1.2.3"), core::ClueField::of(16), acc);
    ASSERT_TRUE(r.match.has_value());
    EXPECT_EQ(r.match->next_hop, 1u)  // the /8, not the withdrawn /16's FD
        << "stale cached FD served across a version swap";
  }
}

}  // namespace
}  // namespace cluert::pipeline
