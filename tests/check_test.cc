// Tests for the src/check/ invariant validators and the CLUERT_CHECK macro
// layer. The negative tests deliberately corrupt structures (const_cast is
// the point: the validators exist to catch exactly the states the public
// API makes unrepresentable) and assert the precise violation id reported.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "check/validate.h"
#include "common/check.h"
#include "core/distributed_lookup.h"
#include "lookup/factory.h"
#include "test_util.h"

namespace cluert {
namespace {

using testutil::a4;
using testutil::p4;
using A = ip::Ip4Addr;
using Trie = trie::BinaryTrie<A>;
using Patricia = trie::PatriciaTrie<A>;
using Match = trie::Match<A>;
using Node = Trie::Node;

// A small nested table: /8 with a /9 and a /10 inside it, plus an unrelated
// /16. Handy because clue 10.0.0.0/8 has Simple candidates {/9, /10}, while
// a neighbor owning the /9 blocks both under Advance (Claim 1 holds).
std::vector<Match> nestedTable() {
  return {
      Match{p4("10.0.0.0/8"), 1},
      Match{p4("10.128.0.0/9"), 2},
      Match{p4("10.192.0.0/10"), 3},
      Match{p4("192.168.0.0/16"), 4},
  };
}

Trie buildTrie(const std::vector<Match>& entries) {
  Trie t;
  for (const Match& e : entries) t.insert(e.prefix, e.next_hop);
  return t;
}

// ---------------------------------------------------------------------------
// CLUERT_CHECK macro layer
// ---------------------------------------------------------------------------

TEST(CheckMacroDeathTest, FailurePrintsStreamedMessageAndAborts) {
  EXPECT_DEATH(CLUERT_CHECK(1 == 2) << "boom " << 42,
               "CLUERT_CHECK failed: 1 == 2 boom 42");
}

TEST(CheckMacro, SuccessEvaluatesNothing) {
  int evaluations = 0;
  CLUERT_CHECK(true) << "never built: " << ++evaluations;
  EXPECT_EQ(evaluations, 0);
}

#ifdef NDEBUG
TEST(CheckMacro, DcheckCompiledOutInRelease) {
  int evaluations = 0;
  CLUERT_DCHECK(++evaluations > 0) << "also not built";
  EXPECT_EQ(evaluations, 0);  // neither condition nor message evaluated
}
#else
TEST(CheckMacroDeathTest, DcheckActiveInDebug) {
  EXPECT_DEATH(CLUERT_DCHECK(false) << "debug", "CLUERT_CHECK failed");
}
#endif

// ---------------------------------------------------------------------------
// BinaryTrie
// ---------------------------------------------------------------------------

TEST(CheckBinaryTrie, ValidTrieIsClean) {
  Rng rng(7);
  const auto entries = testutil::randomTable4(rng, 300);
  const Trie t = buildTrie(entries);
  const auto report = check::validate(t);
  EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(CheckBinaryTrie, EmptyTrieIsClean) {
  const Trie t;
  EXPECT_TRUE(check::validate(t).ok());
}

// Walks to any leaf (leaves are marked in a pruned trie).
Node* someLeaf(Trie& t) {
  const Node* node = t.root();
  while (!node->isLeaf()) {
    node = t.child(node, node->child[0] != trie::kNoChild ? 0 : 1);
  }
  return const_cast<Node*>(node);
}

TEST(CheckBinaryTrie, UnmarkedLeafViolatesPruning) {
  Trie t = buildTrie(nestedTable());
  Node* leaf = someLeaf(t);
  leaf->marked = false;
  leaf->next_hop = kNoNextHop;
  const auto report = check::validate(t);
  EXPECT_TRUE(report.has("pruned-subtree")) << report.toString();
  EXPECT_TRUE(report.has("prefix-count")) << report.toString();
}

TEST(CheckBinaryTrie, NextHopOnUnmarkedVertexIsReported) {
  Trie t = buildTrie(nestedTable());
  // The /9 sits two levels below the /8; its path vertices are unmarked.
  auto* on_path = const_cast<Node*>(t.child(t.root(), 0));  // 10.x: bit 0
  ASSERT_NE(on_path, nullptr);
  ASSERT_FALSE(on_path->marked);
  on_path->next_hop = 9;
  const auto report = check::validate(t);
  EXPECT_TRUE(report.has("unmarked-next-hop")) << report.toString();
  EXPECT_EQ(report.count("unmarked-next-hop"), 1u);
}

TEST(CheckBinaryTrie, MarkedVertexRoutingNowhereIsReported) {
  Trie t = buildTrie(nestedTable());
  someLeaf(t)->next_hop = kNoNextHop;
  const auto report = check::validate(t);
  EXPECT_TRUE(report.has("marked-no-next-hop")) << report.toString();
}

TEST(CheckBinaryTrie, NodeLinkedUnderTwoParentsIsReported) {
  Trie t = buildTrie(nestedTable());
  // someLeaf() ends in the 10.x branch (bit 0); hang the 192.168.x branch
  // (bit 1) under that leaf as well as under the root.
  someLeaf(t)->child[1] = t.root()->child[1];
  const auto report = check::validate(t);
  ASSERT_TRUE(report.has("pool-accounting")) << report.toString();
  EXPECT_EQ(report.count("pool-accounting"), 1u) << report.toString();
}

TEST(CheckBinaryTrie, LeakedSlotIsReported) {
  Trie t = buildTrie(nestedTable());
  // Cut the root's link to the 192.168.x branch: the 16 vertices of
  // 192.168.0.0/16's path stay live in the pool, reachable by no link.
  const_cast<Node*>(t.root())->child[1] = trie::kNoChild;
  const auto report = check::validate(t);
  ASSERT_TRUE(report.has("pool-accounting")) << report.toString();
  EXPECT_EQ(report.count("pool-accounting"), 16u) << report.toString();
}

TEST(CheckBinaryTrie, ContinueBitsMatchDefinition) {
  Rng rng(11);
  const auto mine = testutil::randomTable4(rng, 200);
  const auto theirs = testutil::neighborOf(mine, rng);
  Trie t2 = buildTrie(mine);
  const Trie t1 = buildTrie(theirs);
  t2.computeContinueBits(3, t1);
  const auto report = check::validateContinueBits(t2, 3, t1);
  EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(CheckBinaryTrie, FlippedContinueBitIsReported) {
  Trie t2 = buildTrie(nestedTable());
  const Trie t1 = buildTrie({Match{p4("10.128.0.0/9"), 7}});
  t2.computeContinueBits(0, t1);
  someLeaf(t2)->continue_bits ^= 1u;  // leaf must say "stop"
  const auto report = check::validateContinueBits(t2, 0, t1);
  ASSERT_TRUE(report.has("claim1-continue-bit")) << report.toString();
  EXPECT_EQ(report.count("claim1-continue-bit"), 1u);
}

// ---------------------------------------------------------------------------
// PatriciaTrie
// ---------------------------------------------------------------------------

TEST(CheckPatricia, ValidTrieIsCleanAndEquivalent) {
  Rng rng(13);
  const auto entries = testutil::randomTable4(rng, 300);
  const Trie binary = buildTrie(entries);
  const Patricia patricia = Patricia::fromBinaryTrie(binary);
  EXPECT_TRUE(check::validate(patricia).ok());
  const auto equiv = check::validateEquivalent(binary, patricia);
  EXPECT_TRUE(equiv.ok()) << equiv.toString();
}

TEST(CheckPatricia, UnmarkedLeafViolatesCompression) {
  const Trie binary = buildTrie(nestedTable());
  Patricia patricia = Patricia::fromBinaryTrie(binary);
  // Unmark any marked leaf: an unmarked non-root vertex with 0 children
  // must have been contracted away.
  using PNode = Patricia::Node;
  PNode* leaf = nullptr;
  patricia.forEachNode([&](const PNode& n) {
    if (n.isLeaf() && n.marked) leaf = const_cast<PNode*>(&n);
  });
  ASSERT_NE(leaf, nullptr);
  leaf->marked = false;
  leaf->next_hop = kNoNextHop;
  const auto report = check::validate(patricia);
  EXPECT_TRUE(report.has("path-compression")) << report.toString();
  EXPECT_TRUE(report.has("prefix-count")) << report.toString();
}

TEST(CheckPatricia, LeakedSlotIsReported) {
  const Trie binary = buildTrie(nestedTable());
  Patricia patricia = Patricia::fromBinaryTrie(binary);
  // The root's bit-1 child is the 192.168.0.0/16 leaf; unlinking it leaves
  // one live slot no link reaches.
  using PNode = Patricia::Node;
  const_cast<PNode*>(patricia.root())->child[1] = trie::kNoChild;
  const auto report = check::validate(patricia);
  ASSERT_TRUE(report.has("pool-accounting")) << report.toString();
  EXPECT_EQ(report.count("pool-accounting"), 1u) << report.toString();
}

TEST(CheckPatricia, DivergedNextHopBreaksEquivalence) {
  const Trie binary = buildTrie(nestedTable());
  Patricia patricia = Patricia::fromBinaryTrie(binary);
  using PNode = Patricia::Node;
  patricia.forEachNode([&](const PNode& n) {
    if (n.marked && n.prefix == p4("10.128.0.0/9")) {
      const_cast<PNode&>(n).next_hop = 42;
    }
  });
  const auto report = check::validateEquivalent(binary, patricia);
  ASSERT_TRUE(report.has("next-hop-mismatch")) << report.toString();
  EXPECT_EQ(report.count("next-hop-mismatch"), 1u);
}

// ---------------------------------------------------------------------------
// Clue tables (Simple + Advance, hash + indexed)
// ---------------------------------------------------------------------------

struct PortFixture {
  std::unique_ptr<lookup::LookupSuite<A>> suite;
  Trie neighbor_trie;
  std::unique_ptr<core::CluePort<A>> port;

  PortFixture(lookup::Method method, lookup::ClueMode mode,
              const std::vector<Match>& mine,
              const std::vector<Match>& theirs) {
    suite = std::make_unique<lookup::LookupSuite<A>>(mine);
    neighbor_trie = buildTrie(theirs);
    typename core::CluePort<A>::Options opt;
    opt.method = method;
    opt.mode = mode;
    port = std::make_unique<core::CluePort<A>>(
        *suite,
        mode == lookup::ClueMode::kAdvance ? &neighbor_trie : nullptr, opt);
    std::vector<ip::Prefix<A>> clues;
    for (const Match& e : theirs) clues.push_back(e.prefix);
    port->precompute(clues);
  }

  check::Report validateHash() const {
    return check::validate(
        port->hashTable(), suite->binaryTrie(),
        port->options().mode == lookup::ClueMode::kAdvance ? &neighbor_trie
                                                           : nullptr,
        &suite->engine(port->options().method));
  }

  core::HashClueTable<A>& mutableTable() {
    return const_cast<core::HashClueTable<A>&>(port->hashTable());
  }

  core::ClueEntry<A>* mutableEntry(const ip::Prefix<A>& clue) {
    return mutableTable().findMutable(clue);
  }
};

TEST(CheckClueTable, EveryMethodValidatesCleanSimpleAndAdvance) {
  Rng rng(17);
  const auto mine = testutil::randomTable4(rng, 200);
  const auto theirs = testutil::neighborOf(mine, rng);
  for (const auto method :
       {lookup::Method::kRegular, lookup::Method::kPatricia,
        lookup::Method::kBinary, lookup::Method::kMultiway,
        lookup::Method::kLogW, lookup::Method::kStride}) {
    for (const auto mode :
         {lookup::ClueMode::kSimple, lookup::ClueMode::kAdvance}) {
      PortFixture f(method, mode, mine, theirs);
      const auto report = f.validateHash();
      EXPECT_TRUE(report.ok())
          << "method " << static_cast<int>(method) << " mode "
          << static_cast<int>(mode) << ":\n"
          << report.toString();
    }
  }
}

TEST(CheckClueTable, WrongFdIsReported) {
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto* e = f.mutableEntry(p4("10.128.0.0/9"));
  ASSERT_NE(e, nullptr);
  e->setFd(Match{p4("10.0.0.0/8"), 99});  // right prefix family, wrong hop
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("fd-mismatch")) << report.toString();
  EXPECT_EQ(report.count("fd-mismatch"), 1u);
}

TEST(CheckClueTable, Claim1ViolationIsReported) {
  // Simple mode: clue 10.0.0.0/8 has candidates {/9, /10}, so an empty Ptr
  // is exactly the unsound state Claim 1 forbids.
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto* e = f.mutableEntry(p4("10.0.0.0/8"));
  ASSERT_NE(e, nullptr);
  ASSERT_FALSE(e->ptr_empty);  // sanity: a search is genuinely needed
  e->ptr_empty = true;
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("claim1-empty-ptr")) << report.toString();
}

TEST(CheckClueTable, SpuriousPtrIsReported) {
  // Advance mode with the neighbor owning 10.128.0.0/9: both candidates are
  // C1-blocked, Claim 1 holds, the Ptr must be empty.
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kAdvance,
                nestedTable(),
                {Match{p4("10.0.0.0/8"), 1}, Match{p4("10.128.0.0/9"), 2}});
  auto* e = f.mutableEntry(p4("10.0.0.0/8"));
  ASSERT_NE(e, nullptr);
  ASSERT_TRUE(e->ptr_empty);  // sanity: Claim 1 holds for this clue
  e->ptr_empty = false;
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("ptr-not-empty")) << report.toString();
}

TEST(CheckClueTable, DanglingPatriciaAnchorIsReported) {
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto* e = f.mutableEntry(p4("10.0.0.0/8"));
  ASSERT_NE(e, nullptr);
  ASSERT_FALSE(e->ptr_empty);
  e->cont.anchor = f.suite->patricia().root();  // wrong node
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("dangling-patricia-anchor")) << report.toString();
}

// The self slots (core::kSelfClueBits) are re-derived under Simple even in
// an Advance table: a wrong FD, a stale anchor, an emptied Ptr and a slot
// holding another /16 are each reported once, and nothing else is.
TEST(CheckClueTable, SelfSlotMutantsAreReported) {
  const std::vector<Match> mine{
      Match{p4("10.0.0.0/8"), 1}, Match{p4("10.1.0.0/16"), 2},
      Match{p4("10.1.2.0/24"), 3}, Match{p4("10.1.3.0/24"), 4}};
  const std::vector<Match> theirs{Match{p4("10.1.0.0/20"), 9}};
  const A searched = a4("10.1.2.3");  // its /16 has /24s below it
  const A absent = a4("10.2.0.1");    // no vertex under 10/8 here
  const auto mutant = [&](const A& dest, auto&& edit) {
    PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kAdvance, mine,
                  theirs);
    EXPECT_TRUE(f.validateHash().ok()) << f.validateHash().toString();
    auto& slot =
        const_cast<core::ClueEntry<A>&>(*f.port->hashTable().selfSlotOf(dest));
    edit(slot, f);
    return f.validateHash();
  };
  const auto expectOnly = [](const check::Report& r, const char* id) {
    EXPECT_EQ(r.count(id), 1u) << r.toString();
    EXPECT_EQ(r.size(), 1u) << r.toString();
  };
  expectOnly(mutant(absent,
                    [](core::ClueEntry<A>& e, PortFixture&) {
                      ASSERT_TRUE(e.ptr_empty);
                      e.setFd(Match{p4("10.0.0.0/8"), 99});
                    }),
             "fd-mismatch");
  expectOnly(mutant(searched,
                    [](core::ClueEntry<A>& e, PortFixture&) {
                      ASSERT_FALSE(e.ptr_empty);
                      e.setFd(Match{p4("10.0.0.0/8"), 1});  // not 10.1/16
                    }),
             "fd-mismatch");
  expectOnly(mutant(searched,
                    [](core::ClueEntry<A>& e, PortFixture& f) {
                      e.cont.anchor = f.suite->patricia().root();
                    }),
             "dangling-patricia-anchor");
  expectOnly(mutant(searched,
                    [](core::ClueEntry<A>& e, PortFixture&) {
                      e.ptr_empty = true;
                    }),
             "claim1-empty-ptr");
  expectOnly(mutant(absent,
                    [](core::ClueEntry<A>& e, PortFixture&) {
                      e.clue = p4("10.3.0.0/16");
                    }),
             "self-slot-misplaced");
}

TEST(CheckClueTable, DanglingTrieAnchorIsReported) {
  PortFixture f(lookup::Method::kRegular, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto* e = f.mutableEntry(p4("10.0.0.0/8"));
  ASSERT_NE(e, nullptr);
  ASSERT_FALSE(e->ptr_empty);
  e->cont.anchor = f.suite->binaryTrie().root();  // not the clue vertex
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("dangling-trie-anchor")) << report.toString();
}

TEST(CheckClueTable, PtrWithNoContinuationStateIsReported) {
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto* e = f.mutableEntry(p4("10.0.0.0/8"));
  ASSERT_NE(e, nullptr);
  ASSERT_FALSE(e->ptr_empty);
  e->cont = lookup::Continuation{};  // wipe: Ptr now points at nothing
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("dangling-ptr")) << report.toString();
}

TEST(CheckClueTable, CandidateCountMismatchIsReported) {
  PortFixture f(lookup::Method::kBinary, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto* e = f.mutableEntry(p4("10.0.0.0/8"));
  ASSERT_NE(e, nullptr);
  ASSERT_FALSE(e->ptr_empty);
  ASSERT_NE(e->cont.anchor, nullptr);
  e->cont.n += 1;
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("candidate-count-mismatch")) << report.toString();
}

TEST(CheckClueTable, CorruptedCandidateSetIsReported) {
  PortFixture f(lookup::Method::kBinary, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto* e = f.mutableEntry(p4("10.0.0.0/8"));
  ASSERT_NE(e, nullptr);
  ASSERT_FALSE(e->ptr_empty);
  // Rebuild the per-clue segment table over a candidate set with a wrong
  // next hop: the recomputed C1 set disagrees segment by segment.
  e->cont.anchor = f.mutableTable().candidates().add(
      lookup::SegmentTable<A>::build({Match{p4("10.128.0.0/9"), 77}},
                                     p4("10.0.0.0/8").rangeLow()));
  e->cont.n = 1;
  const auto report = f.validateHash();
  EXPECT_TRUE(report.has("segment-match-mismatch")) << report.toString();
  EXPECT_TRUE(report.has("candidate-count-mismatch")) << report.toString();
}

TEST(CheckClueTable, ReleasedCandidateSetIsReported) {
  // An entry still anchoring a set its table released: the store may hand
  // that storage to another clue's set at its next reclaim.
  PortFixture f(lookup::Method::kMultiway, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto* e = f.mutableEntry(p4("10.0.0.0/8"));
  ASSERT_NE(e, nullptr);
  ASSERT_FALSE(e->ptr_empty);
  ASSERT_TRUE(f.validateHash().ok());
  f.mutableTable().candidates().release(e->cont.anchor);
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("released-candidate-set")) << report.toString();
  EXPECT_EQ(report.count("released-candidate-set"), 1u);
}

TEST(CheckClueTable, WrongStrideDepthIsReported) {
  PortFixture f(lookup::Method::kStride, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto* e = f.mutableEntry(p4("10.0.0.0/8"));
  ASSERT_NE(e, nullptr);
  ASSERT_FALSE(e->ptr_empty);
  e->cont.n += 1;  // the anchor's level, one too deep
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("dangling-stride-anchor")) << report.toString();
}

TEST(CheckClueTable, WrongLogWWindowIsReported) {
  PortFixture f(lookup::Method::kLogW, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto* e = f.mutableEntry(p4("10.0.0.0/8"));
  ASSERT_NE(e, nullptr);
  ASSERT_FALSE(e->ptr_empty);
  e->cont.n -= 1;  // the window now ends short of the longest candidate
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("logw-window-mismatch")) << report.toString();
}

TEST(CheckClueTable, BrokenProbeChainIsReported) {
  // Enough entries that open addressing displaces at least one of them;
  // invalidating the displaced entry's home slot severs its probe chain.
  Rng rng(23);
  const auto mine = testutil::randomTable4(rng, 300);
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple, mine,
                mine);
  const auto& table = f.port->hashTable();
  std::size_t displaced = table.bucketCount();
  for (std::size_t i = 0; i < table.bucketCount(); ++i) {
    const auto& e = table.slotAt(i);
    if (e.valid && table.homeSlot(e.clue) != i) {
      displaced = i;
      break;
    }
  }
  ASSERT_LT(displaced, table.bucketCount())
      << "table has no collisions; grow the test table";
  const std::size_t home = table.homeSlot(table.slotAt(displaced).clue);
  const_cast<core::ClueEntry<A>&>(table.slotAt(home)).valid = false;
  const auto report = f.validateHash();
  EXPECT_TRUE(report.has("probe-chain-broken")) << report.toString();
  EXPECT_TRUE(report.has("size-mismatch")) << report.toString();
}

TEST(CheckClueTable, InactiveEntriesAreNotAnalyzed) {
  // §3.4 marking: a corrupt but inactive entry behaves as a miss, so the
  // validator must not flag it (it will be recomputed before reactivation).
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto* e = f.mutableEntry(p4("10.0.0.0/8"));
  ASSERT_NE(e, nullptr);
  e->setFd(Match{p4("10.0.0.0/8"), 99});
  e->active = false;
  const auto report = f.validateHash();
  EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(CheckClueTable, IndexedTableValidatesCleanAndCatchesWrongFd) {
  Rng rng(29);
  const auto mine = testutil::randomTable4(rng, 100);
  lookup::LookupSuite<A> suite(mine);
  typename core::CluePort<A>::Options opt;
  opt.method = lookup::Method::kPatricia;
  opt.mode = lookup::ClueMode::kSimple;
  opt.indexed = true;
  core::CluePort<A> port(suite, nullptr, opt);
  core::ClueIndexer<A> indexer;
  std::vector<ip::Prefix<A>> clues;
  for (const Match& e : mine) clues.push_back(e.prefix);
  port.precomputeIndexed(clues, indexer);

  const auto* engine = &suite.engine(lookup::Method::kPatricia);
  auto clean =
      check::validate(port.indexedTable(), suite.binaryTrie(), nullptr, engine);
  EXPECT_TRUE(clean.ok()) << clean.toString();

  auto& table = const_cast<core::IndexedClueTable<A>&>(port.indexedTable());
  bool corrupted = false;
  table.forEachMutable([&](core::ClueEntry<A>& e) {
    if (corrupted) return;
    e.setFd(Match{e.clue, 12345});
    corrupted = true;
  });
  ASSERT_TRUE(corrupted);
  const auto report =
      check::validate(port.indexedTable(), suite.binaryTrie(), nullptr, engine);
  ASSERT_TRUE(report.has("fd-mismatch")) << report.toString();
}

// ---------------------------------------------------------------------------
// Fib
// ---------------------------------------------------------------------------

TEST(CheckFib, ValidFibIsCleanAndConsistentWithItsTrie) {
  Rng rng(31);
  const auto entries = testutil::randomTable4(rng, 200);
  const rib::Fib<A> fib(entries);
  EXPECT_TRUE(check::validate(fib).ok());
  const auto report = check::validateConsistent(fib, fib.buildTrie());
  EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(CheckFib, SentinelNextHopIsReported) {
  rib::Fib<A> fib;
  fib.add(p4("10.0.0.0/8"), kNoNextHop);
  const auto report = check::validate(fib);
  ASSERT_TRUE(report.has("no-route-next-hop")) << report.toString();
}

TEST(CheckFib, DuplicatePrefixIsReported) {
  rib::Fib<A> fib;
  fib.add(p4("10.0.0.0/8"), 1);
  fib.add(p4("20.0.0.0/8"), 2);
  // The public API refuses duplicates; forge one in place.
  const_cast<Match&>(fib.entries()[1]).prefix = p4("10.0.0.0/8");
  const auto report = check::validate(fib);
  ASSERT_TRUE(report.has("duplicate-prefix")) << report.toString();
}

TEST(CheckFib, TrieDriftIsReported) {
  rib::Fib<A> fib;
  fib.add(p4("10.0.0.0/8"), 1);
  fib.add(p4("20.0.0.0/8"), 2);
  Trie trie = fib.buildTrie();
  trie.insert(p4("30.0.0.0/8"), 3);   // trie-only route
  trie.erase(p4("20.0.0.0/8"));       // fib-only route
  const auto report = check::validateConsistent(fib, trie);
  EXPECT_TRUE(report.has("fib-trie-extra")) << report.toString();
  EXPECT_TRUE(report.has("fib-trie-missing")) << report.toString();
}

// ---------------------------------------------------------------------------
// SegmentTable
// ---------------------------------------------------------------------------

TEST(CheckSegmentTable, BuiltTableMatchesItsEntries) {
  Rng rng(37);
  const auto entries = testutil::randomTable4(rng, 150);
  const auto table = lookup::SegmentTable<A>::build(entries, A{});
  const auto report = check::validateAgainst<A>(table, entries, A{});
  EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(CheckSegmentTable, CorruptedAnswerIsReported) {
  const auto entries = nestedTable();
  const auto table = lookup::SegmentTable<A>::build(entries, A{});
  auto segments = table.segments();
  // Flip the answer of the segment holding 10.192.0.0/10.
  for (const auto& s : segments) {
    if (s.has_match && s.match.prefix == p4("10.192.0.0/10")) {
      const_cast<Match&>(s.match).next_hop = 55;
    }
  }
  const auto report = check::validateAgainst<A>(table, entries, A{});
  ASSERT_TRUE(report.has("segment-match-mismatch")) << report.toString();
}

TEST(CheckSegmentTable, ReorderedSegmentsAreReported) {
  const auto entries = nestedTable();
  const auto table = lookup::SegmentTable<A>::build(entries, A{});
  auto segments = table.segments();
  ASSERT_GE(segments.size(), 2u);
  using Segment = lookup::SegmentTable<A>::Segment;
  std::swap(const_cast<Segment&>(segments[0]),
            const_cast<Segment&>(segments[1]));
  const auto report = check::validate(table);
  ASSERT_TRUE(report.has("unsorted-segments")) << report.toString();
}

TEST(CheckSegmentTable, MissingBoundaryIsReported) {
  // Build from a superset, then validate against a list with one extra
  // entry whose boundaries the table never materialised.
  const std::vector<Match> built = {Match{p4("10.0.0.0/8"), 1}};
  std::vector<Match> claimed = built;
  claimed.push_back(Match{p4("10.64.0.0/10"), 2});
  const auto table = lookup::SegmentTable<A>::build(built, A{});
  const auto report = check::validateAgainst<A>(table, claimed, A{});
  // Both of the phantom entry's boundaries are missing from the table.
  EXPECT_EQ(report.count("missing-boundary"), 2u) << report.toString();
}

}  // namespace
}  // namespace cluert
