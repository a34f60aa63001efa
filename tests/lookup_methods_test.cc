#include <gtest/gtest.h>

#include <cmath>

#include "core/distributed_lookup.h"
#include "lookup/factory.h"
#include "test_util.h"

namespace cluert::lookup {
namespace {

using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;

std::string methodParamName(const ::testing::TestParamInfo<Method>& info) {
  std::string name(methodName(info.param));
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  return name;
}

class LookupMethodsTest : public ::testing::TestWithParam<Method> {};

INSTANTIATE_TEST_SUITE_P(AllMethods, LookupMethodsTest,
                         ::testing::ValuesIn(kExtendedMethods),
                         methodParamName);

TEST_P(LookupMethodsTest, MatchesBruteForceOnRandomTables) {
  Rng rng(101);
  for (int round = 0; round < 3; ++round) {
    const auto table = testutil::randomTable4(rng, 400);
    LookupSuite<A> suite(table);
    const auto& engine = suite.engine(GetParam());
    mem::AccessCounter acc;
    for (int i = 0; i < 500; ++i) {
      const auto dest = testutil::coveredAddress<A>(table, rng,
                                                    testutil::randomAddr4);
      const auto expect = check::bruteForceBmp(table, dest);
      const auto got = engine.lookup(dest, acc);
      ASSERT_EQ(expect.has_value(), got.has_value())
          << methodName(GetParam()) << " dest " << dest.toString();
      if (expect) {
        EXPECT_EQ(expect->prefix, got->prefix);
        EXPECT_EQ(expect->next_hop, got->next_hop);
      }
    }
  }
}

TEST_P(LookupMethodsTest, HandlesEmptyTable) {
  LookupSuite<A> suite(std::vector<MatchT>{});
  mem::AccessCounter acc;
  Rng rng(5);
  EXPECT_FALSE(
      suite.engine(GetParam()).lookup(testutil::randomAddr4(rng), acc));
}

TEST_P(LookupMethodsTest, HandlesDefaultRouteOnly) {
  LookupSuite<A> suite({MatchT{ip::Prefix4{}, 42}});
  mem::AccessCounter acc;
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    const auto m =
        suite.engine(GetParam()).lookup(testutil::randomAddr4(rng), acc);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->next_hop, 42u);
  }
}

TEST_P(LookupMethodsTest, HandlesHostRoutes) {
  const auto host = testutil::p4("1.2.3.4/32");
  LookupSuite<A> suite({MatchT{host, 1}, MatchT{testutil::p4("1.0.0.0/8"), 2}});
  mem::AccessCounter acc;
  EXPECT_EQ(suite.engine(GetParam()).lookup(testutil::a4("1.2.3.4"), acc)
                ->next_hop,
            1u);
  EXPECT_EQ(suite.engine(GetParam()).lookup(testutil::a4("1.2.3.5"), acc)
                ->next_hop,
            2u);
}

TEST_P(LookupMethodsTest, ContinuationFindsLongerMatches) {
  Rng rng(321);
  const auto table = testutil::randomTable4(rng, 300);
  LookupSuite<A> suite(table);
  const auto& engine = suite.engine(GetParam());
  const trie::BinaryTrie<A>& t2 = suite.binaryTrie();
  mem::AccessCounter acc;
  for (int i = 0; i < 300; ++i) {
    const auto dest =
        testutil::coveredAddress<A>(table, rng, testutil::randomAddr4);
    const auto bmp = check::bruteForceBmp(table, dest);
    if (!bmp) continue;
    const int cut = static_cast<int>(
        rng.uniform(0, static_cast<std::uint64_t>(bmp->prefix.length())));
    const auto clue = bmp->prefix.truncated(cut);
    // Simple-style candidate set: every table prefix strictly below the
    // clue vertex.
    std::vector<MatchT> cands;
    for (const auto& e : table) {
      if (clue.isStrictPrefixOf(e.prefix)) cands.push_back(e);
    }
    CandidateStore<A> store;
    const auto cont = engine.makeContinuation(clue, cands, &store);
    const auto got =
        engine.continueLookup(cont, clue.length(), dest, std::nullopt, acc);
    if (bmp->prefix.length() > cut) {
      ASSERT_TRUE(got.has_value()) << methodName(GetParam());
      EXPECT_EQ(got->prefix, bmp->prefix);
    } else {
      // No strictly longer match exists for this destination. A method may
      // still report nothing or must at least not report a wrong prefix.
      if (got) {
        EXPECT_EQ(check::bruteForceBmp(cands, dest)->prefix, got->prefix);
      }
    }
    // Sanity: the reference trie agrees the clue vertex exists.
    if (!cands.empty()) EXPECT_NE(t2.findVertex(clue), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Batched walks (LookupEngine::walkBatch, the walk stage of CluePort)
// ---------------------------------------------------------------------------

class LookupBatchTest : public ::testing::TestWithParam<Method> {};

INSTANTIATE_TEST_SUITE_P(AllMethods, LookupBatchTest,
                         ::testing::ValuesIn(kExtendedMethods),
                         methodParamName);

// Every walk a resolve queues — full lookups, and the continuation of every
// case-3 entry a Simple or an Advance port would precompute, with and
// without a neighbor index, each continuation pruned (a carried clue's) or
// not (a self-clue's) — gives, through walkBatch in batches of any size,
// what the sequential lookup()/continueLookup() call gives: the same match
// and the same per-region charges, in the shared counter and, when asked
// for, in each walk's record.
TEST_P(LookupBatchTest, WalkBatchMatchesSequentialCalls) {
  const Method method = GetParam();
  Rng rng(7);
  const auto sender = testutil::randomTable4(rng, 1'500);
  const auto receiver = testutil::neighborOf(sender, rng, 0.8, 200, 0.5);
  trie::BinaryTrie<A> t1;
  for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
  LookupSuite<A> suite(receiver);
  constexpr NeighborIndex kNeighbor = 0;
  suite.annotateNeighbor(kNeighbor, t1);
  const auto& engine = suite.engine(method);

  CandidateStore<A> store;
  std::vector<core::ClueEntry<A>> entries;
  for (const ClueMode mode : {ClueMode::kSimple, ClueMode::kAdvance}) {
    for (const auto& e : sender) {
      auto entry =
          core::buildClueEntry(suite, &t1, method, mode, e.prefix, &store);
      if (!entry.ptr_empty) entries.push_back(entry);
    }
  }
  ASSERT_GT(entries.size(), 100u);

  // Two destinations under each continuation's clue, and as many full
  // lookups again, shuffled so batches mix the two kinds.
  std::vector<Walk<A>> walks;
  const auto queue = [&](const A& address, const core::ClueEntry<A>* entry) {
    Walk<A> w;
    w.address = address;
    if (entry != nullptr) {
      w.cont = entry->cont;
      w.clue_length = entry->clue.length();
      w.prune = (rng.u32() & 1) != 0;
    }
    walks.push_back(w);
  };
  for (const auto& e : entries) {
    for (int k = 0; k < 2; ++k) {
      A d = e.clue.addr();
      for (int b = e.clue.length(); b < A::kBits; ++b) {
        d = d.withBit(b, static_cast<unsigned>(rng.u32() & 1));
      }
      queue(d, &e);
    }
  }
  for (std::size_t i = 0, n = walks.size(); i < n; ++i) {
    queue(testutil::coveredAddress<A>(receiver, rng, testutil::randomAddr4),
          nullptr);
  }
  for (std::size_t i = walks.size() - 1; i > 0; --i) {
    std::swap(walks[i], walks[rng.index(i + 1)]);
  }

  for (const auto neighbor :
       {std::optional<NeighborIndex>{}, std::optional(kNeighbor)}) {
    SCOPED_TRACE(neighbor ? "with neighbor" : "without neighbor");
    std::vector<Walk<A>> want = walks;
    mem::AccessCounter seq_acc;
    for (Walk<A>& w : want) {
      mem::AccessCounter own;
      w.match = w.clue_length == kFullLookup
                    ? engine.lookup(w.address, own)
                    : engine.continueLookup(w.cont, w.clue_length, w.address,
                                            w.prune ? neighbor : std::nullopt,
                                            own);
      w.accesses = mem::lookupDelta(own, mem::AccessCounter{});
      seq_acc += own;
    }
    // Sizes below, at and above the 64-walk interleave window, and a
    // ragged tail.
    for (const bool per_walk : {false, true}) {
      for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                      std::size_t{32}, std::size_t{64},
                                      std::size_t{200}}) {
        SCOPED_TRACE("batch " + std::to_string(batch) +
                     (per_walk ? ", per-walk charges" : ""));
        std::vector<Walk<A>> got = walks;
        mem::AccessCounter batch_acc;
        for (std::size_t i = 0; i < got.size(); i += batch) {
          const std::size_t n = std::min(batch, got.size() - i);
          engine.walkBatch({got.data() + i, n}, neighbor, per_walk,
                           batch_acc);
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].match, want[i].match) << "walk " << i;
          if (per_walk) {
            ASSERT_EQ(got[i].accesses, want[i].accesses) << "walk " << i;
          }
        }
        for (std::size_t r = 0; r < mem::AccessCounter::kRegions; ++r) {
          const auto region = static_cast<mem::Region>(r);
          EXPECT_EQ(batch_acc.count(region), seq_acc.count(region))
              << mem::regionName(region);
        }
      }
    }
  }
}

TEST(LookupMethods, AccessOrderingMatchesThePaper) {
  // §6: Regular is the most expensive; Patricia cheaper; 6-way beats
  // Binary; LogW probes ~log2(W).
  Rng rng(55);
  const auto table = testutil::randomTable4(rng, 5000);
  LookupSuite<A> suite(table);
  mem::AccessCounter reg, pat, bin, six, logw;
  for (int i = 0; i < 500; ++i) {
    const auto dest =
        testutil::coveredAddress<A>(table, rng, testutil::randomAddr4);
    suite.engine(Method::kRegular).lookup(dest, reg);
    suite.engine(Method::kPatricia).lookup(dest, pat);
    suite.engine(Method::kBinary).lookup(dest, bin);
    suite.engine(Method::kMultiway).lookup(dest, six);
    suite.engine(Method::kLogW).lookup(dest, logw);
  }
  EXPECT_GT(reg.total(), pat.total());
  EXPECT_GT(bin.total(), six.total());
  EXPECT_GT(reg.total(), logw.total());
  // LogW averages at most ceil(log2(#distinct lengths)) + 1 per lookup.
  EXPECT_LE(logw.total(), 500u * 7u);
}

TEST(LookupMethods, LogWVertexCountMatchesTrie) {
  Rng rng(66);
  const auto table = testutil::randomTable4(rng, 300);
  LookupSuite<A> suite(table);
  const auto& logw =
      static_cast<const LogWLookup<A>&>(suite.engine(Method::kLogW));
  EXPECT_EQ(logw.vertexCount(), suite.binaryTrie().nodeCount());
  EXPECT_LE(logw.distinctLengths(), 32u);
}

TEST(LookupMethods, InlineCandidateScanCostsNothing) {
  Rng rng(77);
  const auto table = testutil::randomTable4(rng, 200);
  SuiteOptions opt;
  opt.inline_candidates = 4;
  LookupSuite<A> suite(table, opt);
  const auto& engine = suite.engine(Method::kBinary);
  // A clue with up to 4 candidates must be continued with zero accesses.
  const auto clue = testutil::p4("10.0.0.0/8");
  std::vector<MatchT> cands{MatchT{testutil::p4("10.1.0.0/16"), 1},
                            MatchT{testutil::p4("10.2.0.0/16"), 2}};
  CandidateStore<A> store;
  const auto cont = engine.makeContinuation(clue, cands, &store);
  mem::AccessCounter acc;
  const auto m = engine.continueLookup(cont, clue.length(),
                                       testutil::a4("10.1.5.5"), std::nullopt,
                                       acc);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->next_hop, 1u);
  EXPECT_EQ(acc.total(), 0u);
}

// A released candidate set stays readable and keeps its storage until the
// owner reclaims; only then may add() hand that storage to another set.
TEST(LookupMethods, CandidateStoreReusesOnlyReclaimedSets) {
  const auto set = [](std::uint32_t octet) {
    const auto clue = testutil::p4("10.0.0.0/8");
    return SegmentTable<A>::build(
        {MatchT{ip::Prefix4(A((10u << 24) | (octet << 16)), 16), octet}},
        clue.rangeLow());
  };
  CandidateStore<A> store;
  const SegmentTable<A>* first = store.add(set(1));
  ASSERT_TRUE(store.holds(first));
  store.release(first);
  store.release(&store);  // not one of its sets: a no-op
  EXPECT_FALSE(store.holds(first));
  const SegmentTable<A>* second = store.add(set(2));
  EXPECT_NE(second, first);
  ASSERT_TRUE(first->scan(testutil::a4("10.1.0.1")).has_value());
  EXPECT_EQ(first->scan(testutil::a4("10.1.0.1"))->next_hop, 1u);
  store.reclaim();
  const SegmentTable<A>* third = store.add(set(3));
  EXPECT_EQ(third, first);
  EXPECT_TRUE(store.holds(third));
  EXPECT_TRUE(store.holds(second));
  EXPECT_EQ(third->scan(testutil::a4("10.3.0.1"))->next_hop, 3u);
}

TEST(LookupMethods, MethodNamesAreStable) {
  EXPECT_EQ(methodName(Method::kRegular), "Regular");
  EXPECT_EQ(methodName(Method::kPatricia), "Patricia");
  EXPECT_EQ(methodName(Method::kBinary), "Binary");
  EXPECT_EQ(methodName(Method::kMultiway), "6-way");
  EXPECT_EQ(methodName(Method::kLogW), "LogW");
  EXPECT_EQ(clueModeName(ClueMode::kCommon), "Common");
  EXPECT_EQ(clueModeName(ClueMode::kSimple), "Simple");
  EXPECT_EQ(clueModeName(ClueMode::kAdvance), "Advance");
}

TEST(LookupMethods, NamesReadBack) {
  for (const Method m : kExtendedMethods) {
    EXPECT_EQ(methodFromName(methodName(m)), m) << methodName(m);
  }
  EXPECT_FALSE(methodFromName("patricia").has_value());
  EXPECT_FALSE(methodFromName("").has_value());
  // Both spellings a daemon config or topo scenario may use; Common is no
  // mode a table is built for.
  EXPECT_EQ(clueModeFromName("simple"), ClueMode::kSimple);
  EXPECT_EQ(clueModeFromName("Simple"), ClueMode::kSimple);
  EXPECT_EQ(clueModeFromName("advance"), ClueMode::kAdvance);
  EXPECT_EQ(clueModeFromName("Advance"), ClueMode::kAdvance);
  EXPECT_FALSE(clueModeFromName("Common").has_value());
  EXPECT_FALSE(clueModeFromName("ADVANCE").has_value());
}

}  // namespace
}  // namespace cluert::lookup
