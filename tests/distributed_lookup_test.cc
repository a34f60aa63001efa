#include <gtest/gtest.h>

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

TEST(CluePort, NoCluePacketDoesCommonLookup) {
  Pair pair({{p4("10.0.0.0/8"), 1}}, {{p4("10.0.0.0/8"), 2}});
  Port port(*pair.suite, &pair.t1,
            portOptions(Method::kRegular, ClueMode::kSimple));
  mem::AccessCounter acc;
  const auto r = port.process(a4("10.1.2.3"), ClueField::none(), acc);
  ASSERT_TRUE(r.match.has_value());
  EXPECT_FALSE(r.table_hit);
  EXPECT_EQ(acc.count(mem::Region::kClueTable), 0u);
  EXPECT_GT(acc.count(mem::Region::kTrieNode), 0u);
  EXPECT_EQ(port.stats().no_clue, 1u);
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
  EXPECT_EQ(final_entry.fd->prefix, p4("10.0.0.0/8"));
  // Clue vertex absent: Ptr empty, FD = least marked ancestor.
  const auto absent = port.makeEntry(p4("10.64.0.0/10"));
  EXPECT_TRUE(absent.ptr_empty);
  EXPECT_EQ(absent.fd->prefix, p4("10.0.0.0/8"));
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

}  // namespace
}  // namespace cluert::core
