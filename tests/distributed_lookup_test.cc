#include <gtest/gtest.h>

#include <tuple>

#include "check/fib_check.h"
#include "core/distributed_lookup.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace cluert::core {
namespace {

using testutil::a4;
using testutil::p4;
using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;
using Port = CluePort<A>;
using lookup::ClueMode;
using lookup::LookupSuite;
using lookup::Method;

struct Pair {
  std::vector<MatchT> sender;
  std::vector<MatchT> receiver;
  trie::BinaryTrie<A> t1;
  std::unique_ptr<LookupSuite<A>> suite;

  Pair(std::vector<MatchT> s, std::vector<MatchT> r)
      : sender(std::move(s)), receiver(std::move(r)) {
    for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
    suite = std::make_unique<LookupSuite<A>>(receiver);
  }

  static Pair random(Rng& rng, std::size_t n) {
    auto s = testutil::randomTable4(rng, n);
    auto r = testutil::neighborOf(s, rng, 0.8, n / 10 + 5, 0.5);
    return Pair(std::move(s), std::move(r));
  }
};

Port::Options portOptions(Method m, ClueMode mode, bool learn = true) {
  Port::Options o;
  o.method = m;
  o.mode = mode;
  o.learn = learn;
  o.neighbor_index = 0;
  return o;
}

TEST(CluePort, FdPathAnswersInOneAccess) {
  // Sender and receiver both know 10.1/16 as a leaf: Claim 1 holds, so the
  // receiver answers from the clue table alone — the paper's headline.
  Pair pair({{p4("10.1.0.0/16"), 1}}, {{p4("10.1.0.0/16"), 2}});
  Port port(*pair.suite, &pair.t1,
            portOptions(Method::kPatricia, ClueMode::kAdvance));
  const std::vector<ip::Prefix4> clues{p4("10.1.0.0/16")};
  port.precompute(clues);
  mem::AccessCounter acc;
  const auto r = port.process(a4("10.1.2.3"), ClueField::of(16), acc);
  ASSERT_TRUE(r.match.has_value());
  EXPECT_EQ(r.match->next_hop, 2u);
  EXPECT_TRUE(r.used_fd);
  EXPECT_EQ(acc.total(), 1u);  // exactly the clue-table probe
  EXPECT_EQ(port.stats().fd_direct, 1u);
}

// A clue-less packet takes the first 16 bits of its own destination as its
// clue (§3.1, §5.3(b)): one self-slot probe, whose FD answers here, and the
// packet still counts as clue-less, never as a table hit. With self_clue
// off, the paper's router walks the trie from its root instead.
TEST(CluePort, NoCluePacketProbesItsSelfClue) {
  Pair pair({{p4("10.0.0.0/8"), 1}}, {{p4("10.0.0.0/8"), 2}});
  Port port(*pair.suite, &pair.t1,
            portOptions(Method::kRegular, ClueMode::kSimple));
  mem::AccessCounter acc;
  const auto r = port.process(a4("10.1.2.3"), ClueField::none(), acc);
  ASSERT_TRUE(r.match.has_value());
  EXPECT_EQ(*r.match, (MatchT{p4("10.0.0.0/8"), 2}));
  EXPECT_FALSE(r.table_hit);
  EXPECT_EQ(r.outcome, obs::Outcome::kNoClue);
  EXPECT_EQ(acc.count(mem::Region::kClueTable), 1u);
  EXPECT_EQ(acc.total(), 1u);
  EXPECT_EQ(port.stats().no_clue, 1u);
  EXPECT_EQ(port.stats().table_hits + port.stats().table_misses, 0u);

  auto paper = portOptions(Method::kRegular, ClueMode::kSimple);
  paper.self_clue = false;
  Port legacy(*pair.suite, &pair.t1, paper);
  mem::AccessCounter walked;
  EXPECT_EQ(legacy.process(a4("10.1.2.3"), ClueField::none(), walked).match,
            r.match);
  EXPECT_EQ(walked.count(mem::Region::kClueTable), 0u);
  EXPECT_GT(walked.count(mem::Region::kTrieNode), 0u);
}

TEST(CluePort, MissLearnsAndSecondPacketHits) {
  Pair pair({{p4("10.1.0.0/16"), 1}}, {{p4("10.1.0.0/16"), 2}});
  Port port(*pair.suite, &pair.t1,
            portOptions(Method::kPatricia, ClueMode::kAdvance));
  mem::AccessCounter acc;
  const auto first = port.process(a4("10.1.2.3"), ClueField::of(16), acc);
  EXPECT_FALSE(first.table_hit);
  ASSERT_TRUE(first.match.has_value());
  EXPECT_EQ(first.match->next_hop, 2u);

  mem::AccessCounter acc2;
  const auto second = port.process(a4("10.1.9.9"), ClueField::of(16), acc2);
  EXPECT_TRUE(second.table_hit);
  EXPECT_EQ(acc2.total(), 1u);
  EXPECT_EQ(port.stats().table_misses, 1u);
  EXPECT_EQ(port.stats().table_hits, 1u);
}

TEST(CluePort, LearningDisabledNeverHits) {
  Pair pair({{p4("10.1.0.0/16"), 1}}, {{p4("10.1.0.0/16"), 2}});
  Port port(*pair.suite, &pair.t1,
            portOptions(Method::kPatricia, ClueMode::kAdvance,
                        /*learn=*/false));
  mem::AccessCounter acc;
  port.process(a4("10.1.2.3"), ClueField::of(16), acc);
  port.process(a4("10.1.2.4"), ClueField::of(16), acc);
  EXPECT_EQ(port.stats().table_hits, 0u);
  EXPECT_EQ(port.stats().table_misses, 2u);
}

TEST(CluePort, SearchPathFindsLongerPrefix) {
  // Receiver knows a /24 under the clue that the sender does not know.
  Pair pair({{p4("10.0.0.0/8"), 1}},
            {{p4("10.0.0.0/8"), 2}, {p4("10.1.2.0/24"), 3}});
  Port port(*pair.suite, &pair.t1,
            portOptions(Method::kPatricia, ClueMode::kAdvance));
  const std::vector<ip::Prefix4> clues{p4("10.0.0.0/8")};
  port.precompute(clues);
  mem::AccessCounter acc;
  const auto r = port.process(a4("10.1.2.3"), ClueField::of(8), acc);
  ASSERT_TRUE(r.match.has_value());
  EXPECT_EQ(r.match->next_hop, 3u);
  EXPECT_TRUE(r.searched);
  EXPECT_FALSE(r.used_fd);
  EXPECT_EQ(port.stats().searched, 1u);
}

TEST(CluePort, SearchFailureFallsBackToFd) {
  Pair pair({{p4("10.0.0.0/8"), 1}},
            {{p4("10.0.0.0/8"), 2}, {p4("10.1.2.0/24"), 3}});
  Port port(*pair.suite, &pair.t1,
            portOptions(Method::kPatricia, ClueMode::kAdvance));
  const std::vector<ip::Prefix4> clues{p4("10.0.0.0/8")};
  port.precompute(clues);
  mem::AccessCounter acc;
  // Dest matches the clue but not the /24: the continuation fails and FD
  // (the /8) answers.
  const auto r = port.process(a4("10.200.0.1"), ClueField::of(8), acc);
  ASSERT_TRUE(r.match.has_value());
  EXPECT_EQ(r.match->next_hop, 2u);
  EXPECT_TRUE(r.used_fd);
  EXPECT_TRUE(r.searched);
  EXPECT_EQ(port.stats().search_failed, 1u);
}

TEST(CluePort, MakeEntryMatchesFigure5) {
  Pair pair({{p4("10.0.0.0/8"), 1}, {p4("10.1.0.0/16"), 1}},
            {{p4("10.0.0.0/8"), 2}, {p4("10.1.2.0/24"), 3}});
  Port port(*pair.suite, &pair.t1,
            portOptions(Method::kPatricia, ClueMode::kAdvance));
  // Claim 1 holds: the only deeper t2 prefix sits behind t1's 10.1/16.
  const auto final_entry = port.makeEntry(p4("10.0.0.0/8"));
  EXPECT_TRUE(final_entry.ptr_empty);
  EXPECT_EQ(final_entry.fd()->prefix, p4("10.0.0.0/8"));
  // Clue vertex absent: Ptr empty, FD = least marked ancestor.
  const auto absent = port.makeEntry(p4("10.64.0.0/10"));
  EXPECT_TRUE(absent.ptr_empty);
  EXPECT_EQ(absent.fd()->prefix, p4("10.0.0.0/8"));
}

// The central invariant (DESIGN.md #2): clues never change what is routed,
// only how fast. Checked for every method under both clue modes.
class ClueTransparencyTest
    : public ::testing::TestWithParam<std::tuple<Method, ClueMode>> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, ClueTransparencyTest,
    ::testing::Combine(::testing::ValuesIn(lookup::kExtendedMethods),
                       ::testing::Values(ClueMode::kSimple,
                                         ClueMode::kAdvance)),
    [](const auto& info) {
      return std::string(methodName(std::get<0>(info.param))) ==
                     std::string("6-way")
                 ? std::string("Multiway") +
                       std::string(clueModeName(std::get<1>(info.param)))
                 : std::string(methodName(std::get<0>(info.param))) +
                       std::string(clueModeName(std::get<1>(info.param)));
    });

TEST_P(ClueTransparencyTest, ResultEqualsReceiverBmp) {
  const auto [method, mode] = GetParam();
  Rng rng(2024);
  for (int round = 0; round < 2; ++round) {
    Pair pair = Pair::random(rng, 250);
    Port port(*pair.suite, &pair.t1, portOptions(method, mode));
    mem::AccessCounter scratch;
    for (int i = 0; i < 400; ++i) {
      const auto dest = testutil::coveredAddress<A>(pair.sender, rng,
                                                    testutil::randomAddr4);
      const auto sender_bmp = pair.t1.lookup(dest, scratch);
      const ClueField field = sender_bmp
                                  ? ClueField::of(sender_bmp->prefix.length())
                                  : ClueField::none();
      mem::AccessCounter acc;
      const auto r = port.process(dest, field, acc);
      const auto expect = check::bruteForceBmp(pair.receiver, dest);
      ASSERT_EQ(expect.has_value(), r.match.has_value())
          << "dest " << dest.toString();
      if (expect) {
        EXPECT_EQ(expect->prefix, r.match->prefix)
            << "dest " << dest.toString() << " clue "
            << (sender_bmp ? sender_bmp->prefix.toString() : "-");
      }
      EXPECT_GE(acc.total(), 1u);  // the >=1 access floor
    }
  }
}

TEST_P(ClueTransparencyTest, PrecomputedEqualsLearned) {
  const auto [method, mode] = GetParam();
  Rng rng(31337);
  Pair pair = Pair::random(rng, 200);
  Port learned(*pair.suite, &pair.t1, portOptions(method, mode));
  // A second suite over the same table for the precomputed port (ports
  // annotate and share the suite; separate suites keep them independent).
  LookupSuite<A> suite2(pair.receiver);
  Port precomputed(suite2, &pair.t1, portOptions(method, mode, false));
  std::vector<ip::Prefix4> clues;
  for (const auto& e : pair.sender) clues.push_back(e.prefix);
  precomputed.precompute(clues);

  mem::AccessCounter scratch;
  std::vector<std::pair<A, ClueField>> workload;
  for (int i = 0; i < 300; ++i) {
    const auto dest = testutil::coveredAddress<A>(pair.sender, rng,
                                                  testutil::randomAddr4);
    const auto sender_bmp = pair.t1.lookup(dest, scratch);
    if (!sender_bmp) continue;
    const auto field = ClueField::of(sender_bmp->prefix.length());
    workload.emplace_back(dest, field);
    mem::AccessCounter acc1, acc2;
    const auto a = learned.process(dest, field, acc1);
    const auto b = precomputed.process(dest, field, acc2);
    ASSERT_EQ(a.match.has_value(), b.match.has_value());
    if (a.match) EXPECT_EQ(a.match->prefix, b.match->prefix);
  }
  // Replaying the same workload: every clue was learned on the first pass,
  // so the learned port now costs what the precomputed port costs, up to
  // hash-collision noise (the learned table holds only the observed subset
  // of clues, so its probe chains can differ slightly).
  mem::AccessCounter w1, w2;
  for (const auto& [dest, field] : workload) {
    learned.process(dest, field, w1);
    precomputed.process(dest, field, w2);
  }
  const double ratio = static_cast<double>(w1.total()) /
                       static_cast<double>(w2.total());
  EXPECT_GT(ratio, 0.95);
  EXPECT_LT(ratio, 1.05);
}

TEST(CluePort, SimpleIsRobustToTruncatedClues) {
  // §5.3b: a truncated clue is still a prefix of the destination; Simple
  // must stay correct with it.
  Rng rng(999);
  Pair pair = Pair::random(rng, 200);
  Port port(*pair.suite, &pair.t1,
            portOptions(Method::kPatricia, ClueMode::kSimple));
  mem::AccessCounter scratch;
  for (int i = 0; i < 400; ++i) {
    const auto dest = testutil::coveredAddress<A>(pair.sender, rng,
                                                  testutil::randomAddr4);
    const auto sender_bmp = pair.t1.lookup(dest, scratch);
    if (!sender_bmp) continue;
    const int cut = static_cast<int>(rng.uniform(
        1, static_cast<std::uint64_t>(sender_bmp->prefix.length())));
    mem::AccessCounter acc;
    const auto r = port.process(dest, ClueField::of(cut), acc);
    const auto expect = check::bruteForceBmp(pair.receiver, dest);
    ASSERT_EQ(expect.has_value(), r.match.has_value());
    if (expect) EXPECT_EQ(expect->prefix, r.match->prefix);
  }
}

TEST(CluePort, SimpleIsRobustToArbitraryPrefixClues) {
  // Even a clue from a completely unrelated router (any prefix of dest) must
  // not corrupt Simple routing.
  Rng rng(1001);
  Pair pair = Pair::random(rng, 150);
  Port port(*pair.suite, &pair.t1,
            portOptions(Method::kRegular, ClueMode::kSimple));
  for (int i = 0; i < 400; ++i) {
    const auto dest = testutil::coveredAddress<A>(pair.receiver, rng,
                                                  testutil::randomAddr4);
    const int len = static_cast<int>(rng.uniform(1, 32));
    mem::AccessCounter acc;
    const auto r = port.process(dest, ClueField::of(len), acc);
    const auto expect = check::bruteForceBmp(pair.receiver, dest);
    ASSERT_EQ(expect.has_value(), r.match.has_value());
    if (expect) EXPECT_EQ(expect->prefix, r.match->prefix);
  }
}

TEST(CluePort, IndexedTechniqueUsesOneAccessAndRelearnsOnMismatch) {
  Pair pair({{p4("10.1.0.0/16"), 1}, {p4("99.0.0.0/8"), 1}},
            {{p4("10.1.0.0/16"), 2}, {p4("99.0.0.0/8"), 3}});
  Port::Options opt = portOptions(Method::kPatricia, ClueMode::kAdvance);
  opt.indexed = true;
  opt.indexed_capacity = 64;
  Port port(*pair.suite, &pair.t1, opt);
  ClueIndexer<A> indexer;
  const auto i16 = *indexer.indexOf(p4("10.1.0.0/16"));
  mem::AccessCounter acc;
  // First packet: slot empty -> miss + learn.
  auto r = port.process(a4("10.1.2.3"), ClueField::indexed(16, i16), acc);
  EXPECT_FALSE(r.table_hit);
  EXPECT_EQ(r.match->next_hop, 2u);
  // Second packet: exactly one clue-table access.
  mem::AccessCounter acc2;
  r = port.process(a4("10.1.7.7"), ClueField::indexed(16, i16), acc2);
  EXPECT_TRUE(r.table_hit);
  EXPECT_EQ(acc2.count(mem::Region::kClueTable), 1u);
  EXPECT_EQ(acc2.total(), 1u);
  // Sender renumbered: same slot now carries a different clue. Verification
  // fails, the packet is still routed correctly, and the slot is relearned.
  mem::AccessCounter acc3;
  r = port.process(a4("99.1.2.3"), ClueField::indexed(8, i16), acc3);
  EXPECT_FALSE(r.table_hit);
  EXPECT_EQ(r.match->next_hop, 3u);
  mem::AccessCounter acc4;
  r = port.process(a4("99.9.9.9"), ClueField::indexed(8, i16), acc4);
  EXPECT_TRUE(r.table_hit);
  EXPECT_EQ(r.match->next_hop, 3u);
}

TEST(ClueIndexer, EnumeratesSequentially) {
  ClueIndexer<A> indexer;
  EXPECT_EQ(*indexer.indexOf(p4("10.0.0.0/8")), 0u);
  EXPECT_EQ(*indexer.indexOf(p4("11.0.0.0/8")), 1u);
  EXPECT_EQ(*indexer.indexOf(p4("10.0.0.0/8")), 0u);  // stable
  EXPECT_EQ(indexer.size(), 2u);
}

TEST(CluePort, AdvanceNeverCostsMoreThanSimple) {
  // Advance dominates Simple on average: it can only turn searches into
  // 1-access FD answers or shorten walks.
  Rng rng(777);
  Pair pair = Pair::random(rng, 400);
  LookupSuite<A> suite2(pair.receiver);
  Port simple(*pair.suite, &pair.t1,
              portOptions(Method::kPatricia, ClueMode::kSimple));
  Port advance(suite2, &pair.t1,
               portOptions(Method::kPatricia, ClueMode::kAdvance));
  std::vector<ip::Prefix4> clues;
  for (const auto& e : pair.sender) clues.push_back(e.prefix);
  simple.precompute(clues);
  advance.precompute(clues);
  mem::AccessCounter scratch, s_acc, a_acc;
  for (int i = 0; i < 600; ++i) {
    const auto dest = testutil::coveredAddress<A>(pair.sender, rng,
                                                  testutil::randomAddr4);
    const auto bmp = pair.t1.lookup(dest, scratch);
    if (!bmp) continue;
    const auto field = ClueField::of(bmp->prefix.length());
    simple.process(dest, field, s_acc);
    advance.process(dest, field, a_acc);
  }
  EXPECT_LE(a_acc.total(), s_acc.total());
}

// --- Observation: the post-pass against the unobserved path ---------------

struct ObsCase {
  ClueMode mode;
  bool learn;           // misses learn mid-batch; otherwise half precomputed
  std::size_t cache;    // §3.5 cache entries (0: off)
};

// One stream through two ports built alike over separate suites: `plain`
// unobserved, `seen` with a registry.
// Observing must not change one result, stat or access; what the post-pass
// records must add up to what the counter saw.
void expectObservedMatchesPlain(const ObsCase& c) {
  SCOPED_TRACE(std::string(clueModeName(c.mode)) +
               (c.learn ? " learning" : " precomputed") +
               (c.cache != 0 ? " cached" : ""));
  Rng rng(4711);
  Pair pair = Pair::random(rng, 300);
  LookupSuite<A> seen_suite(pair.receiver);
  Port::Options opt = portOptions(Method::kPatricia, c.mode, c.learn);
  opt.cache_entries = c.cache;
  Port plain(*pair.suite, &pair.t1, opt);
  Port seen(seen_suite, &pair.t1, opt);
  if (!c.learn) {
    std::vector<ip::Prefix4> clues;
    for (std::size_t i = 0; i < pair.sender.size(); i += 2) {
      clues.push_back(pair.sender[i].prefix);
    }
    plain.precompute(clues);
    seen.precompute(clues);
  }
  obs::MetricRegistry registry;
  seen.attachObs(obs::LookupObs::bind(registry, /*shard=*/0));

  // Genuine clues (the sender's BMP, as Advance requires), plus ~10%
  // clue-less packets. Destinations cluster under the sender's 300
  // prefixes, so clues repeat and learned entries get hit.
  std::vector<A> dests;
  std::vector<ClueField> fields;
  mem::AccessCounter scratch;
  while (dests.size() < 230) {
    const auto dest = testutil::coveredAddress<A>(pair.sender, rng,
                                                  testutil::randomAddr4);
    const auto bmp = pair.t1.lookup(dest, scratch);
    dests.push_back(dest);
    fields.push_back(bmp && rng.uniform(0, 9) != 0
                         ? ClueField::of(bmp->prefix.length())
                         : ClueField::none());
  }

  // 150 packets in one processBatch (past kMaxProcessBatch, so it splits),
  // 30 process() calls, then a 50-packet processBatch.
  std::vector<Port::Result> want(dests.size()), got(dests.size());
  mem::AccessCounter plain_acc, seen_acc;
  const auto run = [&](Port& port, std::vector<Port::Result>& out,
                       mem::AccessCounter& acc) {
    const std::span<const A> d(dests);
    const std::span<const ClueField> f(fields);
    const std::span<Port::Result> o(out);
    port.processBatch(d.first(150), f.first(150), o.first(150), acc);
    for (std::size_t i = 150; i < 180; ++i) {
      out[i] = port.process(dests[i], fields[i], acc);
    }
    port.processBatch(d.subspan(180), f.subspan(180), o.subspan(180), acc);
  };
  run(plain, want, plain_acc);
  run(seen, got, seen_acc);

  std::array<std::uint64_t, mem::AccessCounter::kRegions> summed{};
  for (std::size_t i = 0; i < dests.size(); ++i) {
    SCOPED_TRACE("packet " + std::to_string(i));
    EXPECT_EQ(got[i].match, want[i].match);
    EXPECT_EQ(got[i].outcome, want[i].outcome);
    EXPECT_EQ(got[i].table_hit, want[i].table_hit);
    EXPECT_EQ(got[i].used_fd, want[i].used_fd);
    EXPECT_EQ(got[i].searched, want[i].searched);
    EXPECT_EQ(got[i].claim1_skip, want[i].claim1_skip);
    EXPECT_EQ(got[i].search_failed, want[i].search_failed);
    EXPECT_EQ(mem::accessTotal(want[i].accesses), 0u)
        << "an unobserved port must not fill accesses";
    for (std::size_t r = 0; r < summed.size(); ++r) {
      summed[r] += got[i].accesses[r];
    }
  }
  const Port::Stats& ps = plain.stats();
  const Port::Stats& ss = seen.stats();
  EXPECT_EQ(ss.packets, ps.packets);
  EXPECT_EQ(ss.no_clue, ps.no_clue);
  EXPECT_EQ(ss.table_hits, ps.table_hits);
  EXPECT_EQ(ss.table_misses, ps.table_misses);
  EXPECT_EQ(ss.fd_direct, ps.fd_direct);
  EXPECT_EQ(ss.searched, ps.searched);
  EXPECT_EQ(ss.search_failed, ps.search_failed);
  for (std::size_t r = 0; r < summed.size(); ++r) {
    const auto region = static_cast<mem::Region>(r);
    EXPECT_EQ(seen_acc.count(region), plain_acc.count(region))
        << mem::regionName(region);
    EXPECT_EQ(summed[r], seen_acc.count(region)) << mem::regionName(region);
  }
  // The stream reaches the paths under test.
  EXPECT_GT(ps.no_clue, 0u);
  EXPECT_GT(ps.table_hits, 0u);
  EXPECT_GT(ps.table_misses, 0u);

  const obs::MetricSnapshot snap = registry.snapshot();
  const obs::MetricSample* packets = snap.find("lookup_packets_total");
  ASSERT_NE(packets, nullptr);
  EXPECT_EQ(packets->counter_value, dests.size());
  std::uint64_t case_sum = 0;
  for (std::size_t o = 0; o < obs::kOutcomeCount; ++o) {
    const obs::MetricSample* s = snap.find(
        "lookup_case_total",
        {{"case", std::string(obs::outcomeName(static_cast<obs::Outcome>(o)))}});
    ASSERT_NE(s, nullptr);
    case_sum += s->counter_value;
  }
  EXPECT_EQ(case_sum, packets->counter_value);
  const obs::MetricSample* hist = snap.find("lookup_accesses");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.sum, seen_acc.total());
  EXPECT_EQ(hist->hist.count, dests.size());
  // Each call tallies its lookups and adds them to the cell at once; every
  // bucket must hold exactly the packets whose own total falls in it.
  std::array<std::uint64_t, obs::kHistogramBuckets> buckets{};
  for (const Port::Result& r : got) {
    ++buckets[obs::histogramBucketFor(mem::accessTotal(r.accesses))];
  }
  EXPECT_GT(std::count_if(buckets.begin(), buckets.end(),
                          [](std::uint64_t n) { return n != 0; }),
            1)
      << "the stream should fill more than one bucket";
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    EXPECT_EQ(hist->hist.counts[b], buckets[b])
        << "bucket le " << obs::histogramBucketBound(b);
  }
}

TEST(CluePortObs, AdvanceLearningMatchesUnobserved) {
  expectObservedMatchesPlain({ClueMode::kAdvance, /*learn=*/true, 0});
}

TEST(CluePortObs, SimpleLearningMatchesUnobserved) {
  expectObservedMatchesPlain({ClueMode::kSimple, /*learn=*/true, 0});
}

TEST(CluePortObs, AdvancePrecomputedCachedMatchesUnobserved) {
  expectObservedMatchesPlain({ClueMode::kAdvance, /*learn=*/false, 64});
}

TEST(CluePortObs, SimplePrecomputedMatchesUnobserved) {
  expectObservedMatchesPlain({ClueMode::kSimple, /*learn=*/false, 0});
}

// --- Batch shape: one stream, any batch size, one answer -------------------

// {method, mode, learning, indexed, §3.5 cache entries}.
using ShapeParam = std::tuple<Method, ClueMode, bool, bool, std::size_t>;

class CluePortBatchShape : public ::testing::TestWithParam<ShapeParam> {};

std::string shapeParamName(const ::testing::TestParamInfo<ShapeParam>& info) {
  const auto& [method, mode, learn, indexed, cache] = info.param;
  std::string name(lookup::methodName(method));
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  return name + "_" + std::string(clueModeName(mode)) +
         (learn ? "_Learning" : "_Precomputed") +
         (indexed ? "_Indexed" : "_Hash") + "_Cache" + std::to_string(cache);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CluePortBatchShape,
    ::testing::Combine(::testing::ValuesIn(lookup::kExtendedMethods),
                       ::testing::Values(ClueMode::kSimple,
                                         ClueMode::kAdvance),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(std::size_t{0}, std::size_t{64})),
    shapeParamName);

// Whatever the batch shape, the staged resolve must leave the answer of a
// packet-at-a-time port: the same Results (observed, so each carries its own
// charges), Stats, cache Stats and per-region charges; and every match is
// the receiver's brute-force BMP. A learning port starts from a 16-slot
// table, so inserts grow it (reallocating every slot) mid-batch; an indexed
// stream carries a stale index on one clue in eight, so learning overwrites
// occupied slots mid-batch. A resolve whose queued walks kept a
// pointer into a table across either write would read moved or freed
// entries.
TEST_P(CluePortBatchShape, EveryShapeGivesOneAnswer) {
  const auto& [method, mode, learn, indexed, cache] = GetParam();
  Rng rng(99);
  Pair pair = Pair::random(rng, 400);
  ClueIndexer<A> indexer;

  // A stale index names the clue of one of the last few packets, so the
  // slot it overwrites is likely one an earlier packet of the same batch
  // is still walking from.
  std::vector<A> dests;
  std::vector<ClueField> fields;
  std::vector<ip::Prefix4> recent;
  mem::AccessCounter scratch;
  while (dests.size() < 600) {
    const auto dest = testutil::coveredAddress<A>(pair.sender, rng,
                                                  testutil::randomAddr4);
    const auto bmp = pair.t1.lookup(dest, scratch);
    ClueField field;
    if (bmp && bmp->prefix.length() > 0 && rng.uniform(0, 9) != 0) {
      field = ClueField::of(bmp->prefix.length());
      if (indexed) {
        const bool stale = !recent.empty() && rng.uniform(0, 7) == 0;
        field.index = indexer.indexOf(
            stale ? recent[rng.index(recent.size())] : bmp->prefix);
      }
      recent.push_back(bmp->prefix);
      if (recent.size() > 4) recent.erase(recent.begin());
    }
    dests.push_back(dest);
    fields.push_back(field);
  }
  // A precomputed port knows every other sender clue, so it sees misses too.
  std::vector<ip::Prefix4> clues;
  for (std::size_t i = 0; i < pair.sender.size(); i += 2) {
    clues.push_back(pair.sender[i].prefix);
  }

  struct Run {
    std::vector<Port::Result> results;
    Port::Stats stats;
    ClueCache<A>::Stats cache;
    mem::AccessCounter acc;
  };
  const auto run = [&](std::size_t shape) {
    Port::Options opt = portOptions(method, mode, learn);
    opt.indexed = indexed;
    opt.indexed_capacity = 1024;
    opt.cache_entries = cache;
    opt.expected_clues = learn ? 4 : clues.size();
    Port port(*pair.suite, &pair.t1, opt);
    if (!learn && indexed) port.precomputeIndexed(clues, indexer);
    if (!learn && !indexed) port.precompute(clues);
    obs::MetricRegistry registry;
    port.attachObs(obs::LookupObs::bind(registry, /*shard=*/0));
    Run out;
    out.results.resize(dests.size());
    for (std::size_t i = 0; i < dests.size(); i += shape) {
      const std::size_t n = std::min(shape, dests.size() - i);
      if (n == 1) {
        out.results[i] = port.process(dests[i], fields[i], out.acc);
      } else {
        port.processBatch({dests.data() + i, n}, {fields.data() + i, n},
                          {out.results.data() + i, n}, out.acc);
      }
    }
    out.stats = port.stats();
    out.cache = port.cache().stats();
    if (learn && !indexed) {
      EXPECT_GT(port.hashTable().bucketCount(), 16u) << "the table never grew";
    }
    return out;
  };

  const Run base = run(1);
  for (std::size_t i = 0; i < dests.size(); ++i) {
    ASSERT_EQ(base.results[i].match,
              check::bruteForceBmp(pair.receiver, dests[i]))
        << "packet " << i << " dest " << dests[i].toString();
  }
  EXPECT_GT(base.stats.table_hits, 0u);
  EXPECT_GT(base.stats.table_misses, 0u);
  EXPECT_GT(base.stats.no_clue, 0u);

  for (const std::size_t shape : {7, 32, 64, 150}) {
    SCOPED_TRACE("batches of " + std::to_string(shape));
    const Run got = run(shape);
    for (std::size_t i = 0; i < dests.size(); ++i) {
      const Port::Result& w = base.results[i];
      const Port::Result& g = got.results[i];
      ASSERT_EQ(g.match, w.match) << "packet " << i;
      ASSERT_EQ(g.table_hit, w.table_hit) << "packet " << i;
      ASSERT_EQ(g.used_fd, w.used_fd) << "packet " << i;
      ASSERT_EQ(g.searched, w.searched) << "packet " << i;
      ASSERT_EQ(g.outcome, w.outcome) << "packet " << i;
      ASSERT_EQ(g.claim1_skip, w.claim1_skip) << "packet " << i;
      ASSERT_EQ(g.search_failed, w.search_failed) << "packet " << i;
      ASSERT_EQ(g.accesses, w.accesses) << "packet " << i;
    }
    EXPECT_EQ(got.stats.packets, base.stats.packets);
    EXPECT_EQ(got.stats.no_clue, base.stats.no_clue);
    EXPECT_EQ(got.stats.table_hits, base.stats.table_hits);
    EXPECT_EQ(got.stats.table_misses, base.stats.table_misses);
    EXPECT_EQ(got.stats.fd_direct, base.stats.fd_direct);
    EXPECT_EQ(got.stats.searched, base.stats.searched);
    EXPECT_EQ(got.stats.search_failed, base.stats.search_failed);
    EXPECT_EQ(got.cache.hits, base.cache.hits);
    EXPECT_EQ(got.cache.misses, base.cache.misses);
    for (std::size_t r = 0; r < mem::AccessCounter::kRegions; ++r) {
      const auto region = static_cast<mem::Region>(r);
      EXPECT_EQ(got.acc.count(region), base.acc.count(region))
          << mem::regionName(region);
    }
  }
}

// One port, batches of one composition after another: all walks (clue-less
// packets, misses and case-3 searches), then all FD-direct, then the
// reverse. Every slot of the port's stage scratch, and of the caller's
// result buffer, then still holds the other kind's record from the batch
// before, so a stage that leaves a field of it in place for the next packet
// — its queued walk, its clue, a Result flag or access count — shows up as
// a result that differs from a fresh port's process() of the same stream.
TEST_P(CluePortBatchShape, AlternatingCompositionsMatchAFreshPort) {
  const auto& [method, mode, learn, indexed, cache] = GetParam();
  Rng rng(2718);
  Pair pair = Pair::random(rng, 400);
  Port::Options opt = portOptions(method, mode, learn);
  opt.indexed = indexed;
  opt.indexed_capacity = 1024;
  opt.cache_entries = cache;
  opt.expected_clues = 512;

  // Sender clues by the entry they get: answered by the FD alone, or a
  // case-3 search. A precomputed port knows every search clue and every
  // other FD clue, so it misses on the rest; a learning port misses on a
  // clue's first packet and hits from the second on.
  std::vector<ip::Prefix4> fd_clues, search_clues;
  {
    const Port classify(*pair.suite, &pair.t1, opt);
    lookup::CandidateStore<A> store;
    for (const MatchT& m : pair.sender) {
      if (m.prefix.length() == 0) continue;
      (classify.makeEntry(m.prefix, &store).ptr_empty ? fd_clues
                                                      : search_clues)
          .push_back(m.prefix);
    }
  }
  ASSERT_FALSE(search_clues.empty());
  std::vector<ip::Prefix4> known_fd, unknown;
  for (std::size_t i = 0; i < fd_clues.size(); ++i) {
    (i % 2 == 0 ? known_fd : unknown).push_back(fd_clues[i]);
  }
  std::vector<ip::Prefix4> known = search_clues;
  known.insert(known.end(), known_fd.begin(), known_fd.end());

  ClueIndexer<A> indexer;
  mem::AccessCounter scratch;
  // A packet whose genuine clue (the sender's BMP) is `clue`, or nullopt
  // when no address drawn under it has that BMP.
  const auto packetUnder =
      [&](const ip::Prefix4& clue) -> std::optional<std::pair<A, ClueField>> {
    for (int attempt = 0; attempt < 16; ++attempt) {
      A dest = clue.addr();
      for (int b = clue.length(); b < A::kBits; ++b) {
        dest = dest.withBit(b, static_cast<unsigned>(rng.u32() & 1));
      }
      const auto bmp = pair.t1.lookup(dest, scratch);
      if (!bmp || bmp->prefix != clue) continue;
      ClueField field = ClueField::of(clue.length());
      if (indexed) field.index = indexer.indexOf(clue);
      return std::pair{dest, field};
    }
    return std::nullopt;
  };

  // A walk batch cycles through a clue-less packet, a miss, a search (under
  // learning, a first sight of a search clue is a miss: it walks too) and a
  // miss. A learning port misses on FD clues it has not seen yet, which the
  // later FD-direct batches then hit.
  constexpr std::size_t kBatch = 16;
  enum class Kind { kWalk, kFdDirect };
  const Kind kinds[] = {Kind::kWalk, Kind::kFdDirect, Kind::kFdDirect,
                        Kind::kWalk, Kind::kWalk,     Kind::kFdDirect};
  std::vector<A> dests;
  std::vector<ClueField> fields;
  std::size_t next_fresh = 0;       // learning: the next FD clue not yet sent
  std::vector<ip::Prefix4> learned;  // learning: FD clues sent so far
  for (const Kind kind : kinds) {
    const std::size_t end = dests.size() + kBatch;
    while (dests.size() < end) {
      std::optional<ip::Prefix4> clue;
      const std::size_t pos = dests.size() % 4;
      if (kind == Kind::kWalk && pos == 0) {  // the common lookup
        dests.push_back(testutil::coveredAddress<A>(pair.sender, rng,
                                                    testutil::randomAddr4));
        fields.push_back(ClueField::none());
        continue;
      }
      if (kind == Kind::kWalk && pos == 2) {
        // A few search clues, so that a learning port sees each again.
        clue = search_clues[rng.index(std::min<std::size_t>(
            search_clues.size(), 3))];
      } else if (kind == Kind::kWalk && learn) {
        ASSERT_LT(next_fresh, fd_clues.size()) << "too few FD-direct clues";
        clue = fd_clues[next_fresh++];
      } else if (kind == Kind::kWalk) {
        clue = unknown[rng.index(unknown.size())];
      } else {
        const auto& pool = learn ? learned : known_fd;
        clue = pool[rng.index(pool.size())];
      }
      const auto packet = packetUnder(*clue);
      if (!packet) continue;
      if (learn && kind == Kind::kWalk && pos != 2) learned.push_back(*clue);
      dests.push_back(packet->first);
      fields.push_back(packet->second);
    }
  }

  // The port under test and the reference are built alike and both
  // observed, so every Result carries its accesses.
  const auto makePort = [&] {
    auto port = std::make_unique<Port>(*pair.suite, &pair.t1, opt);
    if (!learn && indexed) port->precomputeIndexed(known, indexer);
    if (!learn && !indexed) port->precompute(known);
    return port;
  };
  obs::MetricRegistry batch_registry, fresh_registry;
  const auto batched = makePort();
  batched->attachObs(obs::LookupObs::bind(batch_registry, /*shard=*/0));
  const auto fresh = makePort();
  fresh->attachObs(obs::LookupObs::bind(fresh_registry, /*shard=*/0));

  // One result buffer for every batch, as a pipeline worker keeps one: a
  // Result field the resolve leaves in place is the last batch's.
  std::vector<Port::Result> got;
  std::array<Port::Result, kBatch> slots;
  mem::AccessCounter batch_acc, fresh_acc;
  for (std::size_t i = 0; i < dests.size(); i += kBatch) {
    batched->processBatch({dests.data() + i, kBatch},
                          {fields.data() + i, kBatch}, slots, batch_acc);
    got.insert(got.end(), slots.begin(), slots.end());
  }
  std::size_t searches = 0;
  for (std::size_t i = 0; i < dests.size(); ++i) {
    SCOPED_TRACE("packet " + std::to_string(i));
    const Port::Result want = fresh->process(dests[i], fields[i], fresh_acc);
    const bool fd_direct = want.outcome == obs::Outcome::kCase1 ||
                           want.outcome == obs::Outcome::kCase2;
    ASSERT_EQ(fd_direct, kinds[i / kBatch] == Kind::kFdDirect)
        << "a packet of case " << obs::outcomeName(want.outcome)
        << " in the wrong batch";
    searches += want.searched ? 1 : 0;
    const Port::Result& g = got[i];
    EXPECT_EQ(g.match, want.match);
    EXPECT_EQ(g.table_hit, want.table_hit);
    EXPECT_EQ(g.used_fd, want.used_fd);
    EXPECT_EQ(g.searched, want.searched);
    EXPECT_EQ(g.outcome, want.outcome);
    EXPECT_EQ(g.claim1_skip, want.claim1_skip);
    EXPECT_EQ(g.search_failed, want.search_failed);
    EXPECT_EQ(g.accesses, want.accesses);
  }
  EXPECT_GT(searches, 0u);
  EXPECT_EQ(batch_acc.total(), fresh_acc.total());
}

}  // namespace
}  // namespace cluert::core
