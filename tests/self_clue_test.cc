// Self-clues (core::kSelfClueBits): the 65,536 Simple entries a clue table's
// owner builds so that a clue-less packet probes its own /16 instead of
// walking the receiver's trie from the root (§3.1, §5.3(b)). Built in one
// descent, followed through local deltas, untouched by neighbor deltas and
// by a compaction of the hashed entries, and never pruned by Claim 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "check/clue_check.h"
#include "core/distributed_lookup.h"
#include "rib/fib_diff.h"
#include "sim/scenario.h"
#include "test_util.h"

namespace cluert {
namespace {

using lookup::ClueMode;
using lookup::LookupSuite;
using lookup::Method;
using testutil::a4;
using testutil::p4;

// The slots of `clues` equal those of a fresh build over `suite`.
template <typename A>
void expectSameAsFreshBuild(const core::HashClueTable<A>& clues,
                            const LookupSuite<A>& suite, Method method) {
  core::HashClueTable<A> fresh(0);
  core::buildSelfClues(fresh, suite, method);
  for (std::size_t i = 0; i < core::kSelfClueSlots; ++i) {
    ASSERT_TRUE(testutil::sameClueEntry(clues.selfSlotAt(i),
                                        fresh.selfSlotAt(i), method))
        << "slot " << i;
  }
}

// The one-descent build equals buildClueEntry(..., kSimple, /16) slot for
// slot, for every method.
template <typename A>
void expectBuildMatchesEntries(const std::vector<trie::Match<A>>& table) {
  const LookupSuite<A> suite(table);
  for (const Method method : lookup::kExtendedMethods) {
    SCOPED_TRACE(lookup::methodName(method));
    core::HashClueTable<A> clues(0);
    EXPECT_FALSE(clues.hasSelfClues());
    core::buildSelfClues(clues, suite, method);
    ASSERT_TRUE(clues.hasSelfClues());
    lookup::CandidateStore<A> store;
    std::array<std::size_t, 3> cases{};
    for (std::size_t i = 0; i < core::kSelfClueSlots; ++i) {
      ASSERT_EQ(core::selfClueIndex(core::selfClue<A>(i).addr()), i);
      const auto want =
          core::buildClueEntry<A>(suite, nullptr, method, ClueMode::kSimple,
                                  core::selfClue<A>(i), &store);
      ++cases[static_cast<std::size_t>(want.kase)];
      ASSERT_TRUE(testutil::sameClueEntry(clues.selfSlotAt(i), want, method))
          << "slot " << i;
    }
    // The table reaches every case: slots under absent vertices, /16
    // leaves, and /16s with longer prefixes below them.
    for (const std::size_t n : cases) EXPECT_GT(n, 0u);
    const check::Report report = check::validate(
        clues, suite.binaryTrie(), nullptr, &suite.engine(method));
    EXPECT_TRUE(report.ok()) << report.toString();
  }
}

TEST(SelfClue, OneDescentEqualsBuildClueEntryIpv4) {
  Rng rng(3);
  auto table = testutil::randomTable4(rng, 2'000);
  for (const char* p : {"0.0.0.0/0", "64.0.0.0/4", "10.0.0.0/8",
                        "10.128.0.0/9", "10.1.0.0/16", "172.16.0.0/12"}) {
    table.push_back({p4(p), 7});
  }
  expectBuildMatchesEntries(table);
}

TEST(SelfClue, OneDescentEqualsBuildClueEntryIpv6) {
  Rng rng(4);
  auto table = testutil::randomTable6(rng, 2'000);
  for (const char* p : {"::/0", "2000::/3", "2001::/16", "2001:db8::/32",
                        "2400::/12", "3000::/16"}) {
    table.push_back({*ip::Prefix6::parse(p), 7});
  }
  expectBuildMatchesEntries(table);
}

// A local delta over prefixes of /0, /8, /16, /24 and /32: each change
// withdraws the prefix when the table holds it (or reroutes it), else
// announces it.
rib::FibDelta4 drawLocalDelta(Rng& rng, rib::Fib4& local,
                              const std::vector<trie::Match<ip::Ip4Addr>>&
                                  seeds) {
  constexpr std::array<int, 5> kLengths{0, 8, 16, 24, 32};
  rib::FibDelta4 d;
  std::vector<ip::Prefix4> touched;
  const std::size_t changes = 1 + rng.index(4);
  for (std::size_t k = 0; k < changes; ++k) {
    // Near the table's own prefixes, so the change lands where slots vary.
    const ip::Ip4Addr addr = testutil::coveredAddress(
        seeds, rng, testutil::randomAddr4);
    const ip::Prefix4 p(addr, kLengths[rng.index(kLengths.size())]);
    if (std::find(touched.begin(), touched.end(), p) != touched.end()) {
      continue;
    }
    touched.push_back(p);
    const auto hop = static_cast<NextHop>(rng.uniform(1, 40));
    if (!local.contains(p)) {
      d.added.push_back({p, hop});
      local.add(p, hop);
    } else if (rng.chance(0.5)) {
      d.removed.push_back(p);
      local.remove(p);
    } else {
      d.rerouted.push_back({p, hop});
      local.add(p, hop);
    }
  }
  return d;
}

// After random local deltas the followed slots equal a fresh build, for
// every method (Stride's dangling anchors included). A neighbor delta, under
// either mode, leaves every slot as it was, and so does a compaction, as
// rib::VersionedTables runs one: reset() empties the hashed entries and
// releases their candidate sets, whose storage the refill then reuses, and
// every slot stays bit for bit, its own set still live; one more local
// delta then follows them as before. The compaction comes last, after the
// neighbor deltas: their Advance pass leaves Claim-1-pruned hashed entries
// that the Simple validation here would not accept, and the refill builds
// every hashed entry under Simple.
TEST(SelfClue, FollowedSlotsEqualAFreshBuild) {
  for (const Method method : lookup::kExtendedMethods) {
    SCOPED_TRACE(lookup::methodName(method));
    Rng rng(21 + static_cast<std::uint64_t>(method));
    auto table = testutil::randomTable4(rng, 600);
    table.push_back({p4("0.0.0.0/0"), 3});
    const auto sender = testutil::neighborOf(table, rng);
    rib::Fib4 local{std::vector<trie::Match<ip::Ip4Addr>>(table)};
    rib::Fib4 neighbor{std::vector<trie::Match<ip::Ip4Addr>>(sender)};
    LookupSuite<ip::Ip4Addr> suite(table);
    trie::BinaryTrie4 t1 = neighbor.buildTrie();
    suite.annotateNeighbor(0, t1);
    core::HashClueTable<ip::Ip4Addr> clues(sender.size());
    core::buildSelfClues(clues, suite, method);

    for (int step = 0; step < 26; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      if (step == 24) {
        std::vector<unsigned char> before(core::kSelfClueSlots *
                                          sizeof(core::ClueEntry<ip::Ip4Addr>));
        std::memcpy(before.data(), &clues.selfSlotAt(0), before.size());
        clues.reset(neighbor.size() + 16);
        clues.candidates().reclaim();
        for (const ip::Prefix4& c : neighbor.prefixes()) {
          clues.insert(core::buildClueEntry<ip::Ip4Addr>(
              suite, nullptr, method, ClueMode::kSimple, c,
              &clues.candidates()));
        }
        ASSERT_EQ(clues.size(), neighbor.size());
        ASSERT_EQ(std::memcmp(before.data(), &clues.selfSlotAt(0),
                              before.size()),
                  0)
            << "a compaction moved a self slot";
        const check::Report report = check::validate(
            clues, suite.binaryTrie(), nullptr, &suite.engine(method));
        ASSERT_TRUE(report.ok()) << report.toString();
        continue;
      }
      if (step % 4 == 3) {
        std::vector<core::ClueEntry<ip::Ip4Addr>> before(core::kSelfClueSlots);
        for (std::size_t i = 0; i < before.size(); ++i) {
          before[i] = clues.selfSlotAt(i);
        }
        std::vector<trie::Match<ip::Ip4Addr>> withdrawn;
        const auto d = sim::detail::drawDelta(rng, neighbor, withdrawn, 6);
        rib::applyDelta(t1, d);
        suite.annotateNeighbor(0, t1);
        for (const ClueMode mode : {ClueMode::kSimple, ClueMode::kAdvance}) {
          core::followDelta(clues, d, core::DeltaSide::kNeighbor, suite,
                            mode == ClueMode::kAdvance ? &t1 : nullptr,
                            method, mode);
        }
        for (std::size_t i = 0; i < before.size(); ++i) {
          const auto& e = clues.selfSlotAt(i);
          ASSERT_TRUE(e.clue == before[i].clue && e.cont == before[i].cont &&
                      e.fd() == before[i].fd() &&
                      e.ptr_empty == before[i].ptr_empty)
              << "a neighbor delta moved self slot " << i;
        }
        continue;
      }
      const auto d = drawLocalDelta(rng, local, table);
      suite.applyRouteDelta(d.removed, d.upserts());
      core::followDelta<ip::Ip4Addr>(clues, d, core::DeltaSide::kLocal, suite,
                                     nullptr, method, ClueMode::kSimple);
      expectSameAsFreshBuild(clues, suite, method);
      if (HasFatalFailure()) return;
      const check::Report report = check::validate(
          clues, suite.binaryTrie(), nullptr, &suite.engine(method));
      ASSERT_TRUE(report.ok()) << report.toString();
    }
  }
}

// Claim 1 holds only for the sender's own BMP. The receiver holds
// 10.1.0.0/16 and 10.1.2.0/24, the sender 10.1.0.0/20, which blocks the /24
// below the /16: an Advance walk from the /16 slot stops at once and its FD
// sends 10.1.2.3 to hop 1. A self-clued walk is never pruned, so the port
// routes it to hop 2, its BMP.
TEST(SelfClue, AdvancePortWalksASelfClueUnpruned) {
  const std::vector<trie::Match<ip::Ip4Addr>> receiver{
      {p4("10.1.0.0/16"), 1}, {p4("10.1.2.0/24"), 2}};
  trie::BinaryTrie4 t1;
  t1.insert(p4("10.1.0.0/20"), 5);
  const ip::Ip4Addr dest = a4("10.1.2.3");
  for (const Method method : lookup::kExtendedMethods) {
    SCOPED_TRACE(lookup::methodName(method));
    LookupSuite<ip::Ip4Addr> suite(receiver);
    core::CluePort<ip::Ip4Addr>::Options opt;
    opt.method = method;
    opt.mode = ClueMode::kAdvance;
    core::CluePort<ip::Ip4Addr> port(suite, &t1, opt);

    // The premise: the trie walks stop at the /16 when pruned.
    const auto* slot = port.hashTable().selfSlotOf(dest);
    ASSERT_FALSE(slot->ptr_empty);
    mem::AccessCounter scratch;
    if (method == Method::kRegular || method == Method::kPatricia) {
      EXPECT_FALSE(suite.engine(method)
                       .continueLookup(slot->cont, 16, dest,
                                       NeighborIndex{0}, scratch)
                       .has_value());
    }

    mem::AccessCounter acc;
    const auto r = port.process(dest, core::ClueField::none(), acc);
    ASSERT_TRUE(r.match.has_value());
    EXPECT_EQ(r.match->next_hop, 2u);
    EXPECT_EQ(r.outcome, obs::Outcome::kNoClue);
    EXPECT_FALSE(r.table_hit);

    const std::array<ip::Ip4Addr, 3> dests{dest, a4("10.1.9.9"),
                                           a4("10.2.0.1")};
    const std::array<core::ClueField, 3> fields{};
    std::array<core::CluePort<ip::Ip4Addr>::Result, 3> out;
    port.processBatch(dests, fields, out, acc);
    ASSERT_TRUE(out[0].match.has_value());
    EXPECT_EQ(out[0].match->next_hop, 2u);
    ASSERT_TRUE(out[1].match.has_value());
    EXPECT_EQ(out[1].match->next_hop, 1u);
    EXPECT_FALSE(out[2].match.has_value());
    EXPECT_EQ(port.stats().no_clue, 4u);
    EXPECT_EQ(port.stats().table_hits + port.stats().table_misses, 0u);
  }
}

// Every clue-less packet resolves to its BMP through one self-slot probe,
// for every method and mode, hashed or indexed, through process and
// processBatch alike, and counts as clue-less only.
TEST(SelfClue, ClueLessPacketsResolveToTheBmp) {
  Rng rng(8);
  const auto receiver = testutil::randomTable4(rng, 1'500);
  const auto sender = testutil::neighborOf(receiver, rng);
  trie::BinaryTrie4 t1;
  for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
  std::vector<ip::Ip4Addr> dests;
  for (int i = 0; i < 2'000; ++i) {
    dests.push_back(
        testutil::coveredAddress(receiver, rng, testutil::randomAddr4));
  }
  const std::vector<core::ClueField> fields(dests.size());
  for (const Method method : lookup::kExtendedMethods) {
    for (const ClueMode mode : {ClueMode::kSimple, ClueMode::kAdvance}) {
      for (const bool indexed : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << lookup::methodName(method) << "/"
                     << lookup::clueModeName(mode)
                     << (indexed ? "/indexed" : "/hashed"));
        LookupSuite<ip::Ip4Addr> suite(receiver);
        core::CluePort<ip::Ip4Addr>::Options opt;
        opt.method = method;
        opt.mode = mode;
        opt.indexed = indexed;
        core::CluePort<ip::Ip4Addr> port(suite, &t1, opt);
        std::vector<core::CluePort<ip::Ip4Addr>::Result> batch(dests.size());
        mem::AccessCounter acc;
        port.processBatch(dests, fields, batch, acc);
        EXPECT_EQ(acc.count(mem::Region::kClueTable), dests.size());
        for (std::size_t i = 0; i < dests.size(); ++i) {
          const auto want = check::bruteForceBmp(receiver, dests[i]);
          ASSERT_EQ(batch[i].match, want) << dests[i].toString();
          ASSERT_EQ(port.process(dests[i], fields[i], acc).match, want)
              << dests[i].toString();
          ASSERT_EQ(batch[i].outcome, obs::Outcome::kNoClue);
          ASSERT_FALSE(batch[i].table_hit);
        }
        const auto& s = port.stats();
        EXPECT_EQ(s.no_clue, 2 * dests.size());
        EXPECT_EQ(s.table_hits + s.table_misses + s.searched +
                      s.search_failed + s.fd_direct,
                  0u);
      }
    }
  }
}

}  // namespace
}  // namespace cluert
