// CluePort: the receiving half of distributed IP lookup (§3) for one
// incoming link — the clue table plus the decision logic of Figure 5,
// parameterised by base method (§4) and clue mode (Simple / Advance).
//
// The sender half is trivial by design (attach the length of the BMP you
// just found); ClueIndexer below implements the only stateful part of it,
// the §3.3.1 clue enumeration for the indexing technique.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/clue.h"
#include "core/clue_analyzer.h"
#include "core/clue_cache.h"
#include "core/clue_table.h"
#include "lookup/factory.h"
#include "obs/hooks.h"
#include "rib/fib_diff.h"
#include "common/check.h"

namespace cluert::core {

// ---------------------------------------------------------------------------
// Sender side: clue enumeration for the indexing technique (§3.3.1).
// ---------------------------------------------------------------------------
template <typename A>
class ClueIndexer {
 public:
  using PrefixT = ip::Prefix<A>;

  // Index for `clue`, assigning the next sequential index on first use.
  // Returns nullopt once 64K clues have been enumerated (the paper's bound).
  std::optional<std::uint16_t> indexOf(const PrefixT& clue) {
    auto it = map_.find(clue);
    if (it != map_.end()) return it->second;
    if (next_ > kMaxClueIndex) return std::nullopt;
    const auto idx = static_cast<std::uint16_t>(next_++);
    map_.emplace(clue, idx);
    return idx;
  }

  std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<PrefixT, std::uint16_t> map_;
  std::uint32_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Control-plane entry construction (procedure new-clue of Figure 5), shared
// by CluePort (learning, refresh after route updates) and the versioned
// table builder (src/rib/versioned_tables.h), which constructs whole clue
// tables for immutable snapshots without owning a port. `store` is the
// candidate store of the table the entry goes into (HashClueTable::
// candidates()); Binary and Multiway need it, the other methods ignore it.
// ---------------------------------------------------------------------------
template <typename A>
ClueEntry<A> buildClueEntry(const lookup::LookupSuite<A>& suite,
                            const trie::BinaryTrie<A>* neighbor_trie,
                            lookup::Method method, lookup::ClueMode mode,
                            const ip::Prefix<A>& clue,
                            lookup::CandidateStore<A>* store = nullptr) {
  const ClueAnalyzer<A> analyzer(suite.binaryTrie(), neighbor_trie);
  const ClueAnalysis<A> a = mode == lookup::ClueMode::kAdvance
                                ? analyzer.analyzeAdvance(clue)
                                : analyzer.analyzeSimple(clue);
  ClueEntry<A> e;
  e.clue = clue;
  e.valid = true;
  e.setFd(a.fd);
  e.kase = a.kase;
  e.claim1_pruned = a.claim1_pruned;
  if (a.kase == ClueCase::kSearch) {
    e.ptr_empty = false;
    e.cont = suite.engine(method).makeContinuation(clue, a.candidates, store);
  }
  return e;
}

// ---------------------------------------------------------------------------
// Self-clue construction (kSelfClueBits): the owner of a clue table — an
// owning CluePort, the static pipeline::Pipeline, rib::VersionedTables —
// builds its self slots here. Slot i holds
// buildClueEntry(suite, nullptr, method, kSimple, selfClue<A>(i)), built in
// one descent of the receiver's binary trie to depth 16 rather than by 65,536
// walks from its root. `range`, at most kSelfClueBits long, limits the build
// to the slots under it (/0: all of them), which is how followDelta rebuilds
// what a changed prefix touches.
// ---------------------------------------------------------------------------
namespace detail {

template <typename A>
class SelfClueBuilder {
 public:
  using MatchT = trie::Match<A>;
  using Node = typename trie::BinaryTrie<A>::Node;

  SelfClueBuilder(HashClueTable<A>& table, const lookup::LookupSuite<A>& suite,
                  lookup::Method method)
      : table_(table),
        t2_(suite.binaryTrie()),
        engine_(suite.engine(method)),
        // Only these continuations read the candidates (LookupEngine::
        // makeContinuation): the trie-walk ones anchor a node.
        collect_(method == lookup::Method::kBinary ||
                 method == lookup::Method::kMultiway ||
                 method == lookup::Method::kLogW) {}

  void build(const ip::Prefix<A>& range) {
    CLUERT_DCHECK(range.length() <= kSelfClueBits)
        << "self-clue range " << range.toString() << " is below a slot";
    CLUERT_CHECK(table_.keepsSelfSlots() || range.length() == 0)
        << "the first self-clue build covers every slot, not "
        << range.toString();
    // Down to the range's vertex, the FD collecting the marked ones above.
    std::optional<MatchT> fd;
    const Node* v = t2_.root();
    std::size_t bits = 0;
    for (int d = 0; d < range.length(); ++d) {
      if (v != nullptr && v->marked) fd = MatchT{v->prefix, v->next_hop};
      if (v != nullptr) v = t2_.child(v, range.bit(d));
      bits = (bits << 1) | range.bit(d);
    }
    fill(v, range.length(), bits, fd);
  }

 private:
  // The slots under the `depth`-bit string `bits`: `v` is its vertex
  // (nullptr when absent) and `fd` the best match strictly above it.
  void fill(const Node* v, int depth, std::size_t bits,
            std::optional<MatchT> fd) {
    if (v != nullptr && v->marked) fd = MatchT{v->prefix, v->next_hop};
    if (v != nullptr && depth < kSelfClueBits) {
      fill(t2_.child(v, 0), depth + 1, bits << 1, fd);
      fill(t2_.child(v, 1), depth + 1, (bits << 1) | 1, fd);
      return;
    }
    // One entry for the whole range, which only a missing vertex spans.
    const std::size_t first = bits << (kSelfClueBits - depth);
    ClueEntry<A> e;
    e.valid = true;
    e.clue = selfClue<A>(first);
    e.setFd(fd);
    if (v == nullptr) {
      e.kase = ClueCase::kAbsent;  // case 1: nothing extends the clue
    } else if (v->isLeaf()) {
      e.kase = ClueCase::kFinal;
    } else {
      e.kase = ClueCase::kSearch;
      e.ptr_empty = false;
      candidates_.clear();
      if (collect_) collectBelow(v);
      e.cont =
          engine_.makeContinuation(e.clue, candidates_, &table_.candidates());
    }
    table_.assignSelf(first, (bits + 1) << (kSelfClueBits - depth), e);
  }

  // Every marked vertex strictly below `v`, as analyzeSimple lists them.
  void collectBelow(const Node* v) {
    for (unsigned b = 0; b < 2; ++b) {
      t2_.visitSubtree(t2_.child(v, b), [&](const Node& n) {
        if (n.marked) candidates_.push_back(MatchT{n.prefix, n.next_hop});
        return true;
      });
    }
  }

  HashClueTable<A>& table_;
  const trie::BinaryTrie<A>& t2_;
  const lookup::LookupEngine<A>& engine_;
  bool collect_;
  std::vector<MatchT> candidates_;
};

}  // namespace detail

template <typename A>
void buildSelfClues(HashClueTable<A>& table,
                    const lookup::LookupSuite<A>& suite, lookup::Method method,
                    const ip::Prefix<A>& range = ip::Prefix<A>()) {
  detail::SelfClueBuilder<A>(table, suite, method).build(range);
  if (range.length() == 0) table.markSelfCluesCurrent();
}

// ---------------------------------------------------------------------------
// How a clue table follows a FibDelta (§3.4) — the one refresh rule, run by
// both owners of a clue table: CluePort::refreshLocal/refreshNeighbor and
// rib::VersionedTables::applyLocal/applyNeighbor. Call it once what the
// entries derive from reflects `d`: the suite (LookupSuite::applyRouteDelta)
// for a local delta; the sender view `neighbor_trie`, and under Advance the
// suite's Claim-1 annotation, for a neighbor delta.
//
//  * Entries related to a changed prefix are rebuilt, each once; the §3.4
//    `active` bit survives the rebuild. A hash table finds them through its
//    key index (HashClueTable::forEachRelated), so the refresh costs
//    O(delta), not a scan of every slot.
//  * A local delta rebuilds the engines. Only kStride continuations anchor
//    nodes that rebuild frees, so there every case-3 entry is rebuilt (a
//    stale anchor is a use-after-free) by a scan; the other methods'
//    anchors survive — DESIGN.md §7.1 has the per-method argument.
//  * A neighbor delta marks withdrawn clues inactive rather than removing
//    them (probe chains stay intact) and installs fresh entries for announced
//    ones (§3.3.2) — in a hash table only, as an indexed slot needs the
//    sender's index. Only Advance entries read the sender's view (Claim 1),
//    so only they are rebuilt for a withdraw or an announce; a sender-side
//    reroute moves nothing.
//  * Every rebuilt entry is built into the table's candidate store and
//    written through the table's assign(), which releases the candidate set
//    of the entry it replaces; the owner reclaims released sets where no
//    copy of an old entry can reach them (lookup::CandidateStore).
//  * A hash table's self slots (kSelfClueBits) follow a local delta in
//    O(delta) by the same relation: a changed prefix of /16 or longer
//    touches its one slot, a shorter one the 2^(16−len) slots under it, each
//    range rebuilt in one descent (buildSelfClues). Under kStride a local
//    delta dangles every case-3 anchor, so one descent rebuilds them all. A
//    neighbor delta never touches them: they read no sender view.
// ---------------------------------------------------------------------------

// A clue entry depends on `changed` iff one is a prefix of the other: FDs
// look up the clue's path, candidate sets look down its subtree.
template <typename A>
bool related(const ip::Prefix<A>& clue, const ip::Prefix<A>& changed) {
  return clue.isPrefixOf(changed) || changed.isPrefixOf(clue);
}

enum class DeltaSide { kLocal, kNeighbor };

namespace detail {

// The self-slot ranges a receiver-side delta touches: a changed prefix's
// own slot, or every slot under a prefix of /16 or shorter.
template <typename A>
std::vector<ip::Prefix<A>> selfRangesOf(const rib::FibDelta<A>& d) {
  std::vector<ip::Prefix<A>> ranges;
  const auto touch = [&](const ip::Prefix<A>& p) {
    ranges.push_back(p.length() > kSelfClueBits ? p.truncated(kSelfClueBits)
                                                : p);
  };
  for (const auto& p : d.removed) touch(p);
  for (const auto& e : d.added) touch(e.prefix);
  for (const auto& e : d.rerouted) touch(e.prefix);
  return ranges;
}

// Rebuilds the slots under each of `ranges`, each slot once: sorted in
// prefix order, a range under one already rebuilt follows it and is
// skipped.
template <typename A>
void rebuildSelfRanges(HashClueTable<A>& table,
                       const lookup::LookupSuite<A>& suite,
                       lookup::Method method,
                       std::vector<ip::Prefix<A>>& ranges) {
  std::sort(ranges.begin(), ranges.end());
  const ip::Prefix<A>* rebuilt = nullptr;
  for (const ip::Prefix<A>& r : ranges) {
    if (rebuilt != nullptr && rebuilt->isPrefixOf(r)) continue;
    buildSelfClues(table, suite, method, r);
    rebuilt = &r;
  }
}

// Appends every /16 under `v` (a vertex of t2 at `depth`) that has
// prefixes below it: the case-3 self slots.
template <typename A>
void appendSearchSlots(const trie::BinaryTrie<A>& t2,
                       const typename trie::BinaryTrie<A>::Node* v, int depth,
                       std::vector<ip::Prefix<A>>& out) {
  if (v == nullptr) return;
  if (depth == kSelfClueBits) {
    if (!v->isLeaf()) out.push_back(v->prefix);
    return;
  }
  appendSearchSlots(t2, t2.child(v, 0), depth + 1, out);
  appendSearchSlots(t2, t2.child(v, 1), depth + 1, out);
}

}  // namespace detail

// The self-slot half of followDelta's local side: the ranges the delta
// touches, each rebuilt once.
template <typename A>
void followSelfClues(HashClueTable<A>& table, const rib::FibDelta<A>& d,
                     const lookup::LookupSuite<A>& suite,
                     lookup::Method method) {
  std::vector<ip::Prefix<A>> ranges = detail::selfRangesOf(d);
  if (ranges.empty()) return;
  if (method == lookup::Method::kStride) ranges.assign(1, ip::Prefix<A>());
  detail::rebuildSelfRanges(table, suite, method, ranges);
}

// After HashClueTable::reset kept the self slots of a receiver table that
// `changed` turns into the one `suite` was built over (an empty delta for
// the same table): a slot that no changed prefix touches and that has no
// prefix below its /16 (cases 1 and 2) holds only its FD, which the new
// table gives it too. Every other slot is rebuilt, once: the ones a changed
// prefix touches, and every case-3 slot, whose continuation the old suite
// anchored — a case-3 slot the delta ended had a removed prefix below it,
// which touches it. Far fewer than a full build's 65,536 writes when the
// table is small or the delta short.
template <typename A>
void rebuildSelfCluesAfterReset(HashClueTable<A>& table,
                                const lookup::LookupSuite<A>& suite,
                                lookup::Method method,
                                const rib::FibDelta<A>& changed) {
  CLUERT_CHECK(table.keepsSelfSlots() && !table.hasSelfClues())
      << "rebuildSelfCluesAfterReset needs the slots reset() kept";
  std::vector<ip::Prefix<A>> ranges = detail::selfRangesOf(changed);
  const trie::BinaryTrie<A>& t2 = suite.binaryTrie();
  detail::appendSearchSlots(t2, t2.root(), 0, ranges);
  detail::rebuildSelfRanges(table, suite, method, ranges);
  table.markSelfCluesCurrent();
}

template <typename A, typename TableT>
void followDelta(TableT& table, const rib::FibDelta<A>& d, DeltaSide side,
                 const lookup::LookupSuite<A>& suite,
                 const trie::BinaryTrie<A>* neighbor_trie,
                 lookup::Method method, lookup::ClueMode mode) {
  using PrefixT = ip::Prefix<A>;
  const auto build = [&](const PrefixT& clue) {
    return buildClueEntry(suite, neighbor_trie, method, mode, clue,
                          &table.candidates());
  };
  const bool local = side == DeltaSide::kLocal;
  if constexpr (std::is_same_v<TableT, HashClueTable<A>>) {
    if (local && table.hasSelfClues()) {
      followSelfClues(table, d, suite, method);
    }
  }
  if (!local) {
    for (const PrefixT& p : d.removed) table.setActive(p, false);
    if constexpr (std::is_same_v<TableT, HashClueTable<A>>) {
      for (const auto& e : d.added) {
        if (ClueEntry<A>* slot = table.findMutable(e.prefix)) {
          table.assign(*slot, build(e.prefix));  // re-announce: fresh, active
        } else {
          table.insert(build(e.prefix));
        }
      }
    }
    if (mode != lookup::ClueMode::kAdvance) return;
  }
  const bool anchors_dangle = local && method == lookup::Method::kStride;
  const auto rebuild = [&](ClueEntry<A>& e) {
    ClueEntry<A> fresh = build(e.clue);
    fresh.active = e.active;
    table.assign(e, fresh);
  };
  if constexpr (std::is_same_v<TableT, HashClueTable<A>>) {
    if (!anchors_dangle) {
      // O(delta): collect the entries related to each changed prefix from
      // the table's key index, then rebuild each once.
      std::vector<ClueEntry<A>*> hits;
      const auto collect = [&](const PrefixT& p) {
        table.forEachRelated(p, [&](ClueEntry<A>& e) { hits.push_back(&e); });
      };
      for (const PrefixT& p : d.removed) collect(p);
      for (const auto& e : d.added) collect(e.prefix);
      if (local) {
        for (const auto& e : d.rerouted) collect(e.prefix);
      }
      std::sort(hits.begin(), hits.end());
      hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
      for (ClueEntry<A>* e : hits) rebuild(*e);
      return;
    }
  }
  // A scan: every case-3 anchor dangles after a kStride local delta, and an
  // IndexedClueTable holds at most 65,536 slots.
  const auto touched = [&](const PrefixT& clue) {
    for (const PrefixT& p : d.removed) {
      if (related(clue, p)) return true;
    }
    for (const auto& e : d.added) {
      if (related(clue, e.prefix)) return true;
    }
    if (!local) return false;
    for (const auto& e : d.rerouted) {
      if (related(clue, e.prefix)) return true;
    }
    return false;
  };
  table.forEachMutable([&](ClueEntry<A>& e) {
    const bool dangling = anchors_dangle && e.kase == ClueCase::kSearch;
    if (dangling || touched(e.clue)) rebuild(e);
  });
}

// ---------------------------------------------------------------------------
// Receiver side.
// ---------------------------------------------------------------------------
template <typename A>
class CluePort {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  struct Options {
    lookup::Method method = lookup::Method::kPatricia;
    lookup::ClueMode mode = lookup::ClueMode::kAdvance;
    bool indexed = false;  // §3.3.1 indexing technique instead of hashing
    bool learn = true;     // learn entries on the fly (§3.3.1)
    NeighborIndex neighbor_index = 0;
    std::size_t expected_clues = 1 << 10;
    std::size_t indexed_capacity = std::size_t{kMaxClueIndex} + 1;
    // §3.5: entries of a fast-memory cache in front of the hash table
    // (0 disables). A cache hit costs zero DRAM accesses.
    std::size_t cache_entries = 0;
    // An owning port builds its hash table's self slots (kSelfClueBits), so
    // a clue-less packet probes its /16 instead of walking from the root.
    // False models the paper's router, whose clue-less packets take the
    // common lookup (E10's paper-model column). A bound port reads the
    // slots its shared table has.
    bool self_clue = true;
  };

  // Aggregate behaviour counters for the experiments.
  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t no_clue = 0;       // no clue: self slot or common lookup
    std::uint64_t table_hits = 0;
    std::uint64_t table_misses = 0;  // learned (or not) via common lookup
    std::uint64_t fd_direct = 0;     // answered by FD, Ptr empty
    std::uint64_t searched = 0;      // case-3 continuation ran
    std::uint64_t search_failed = 0; // continuation fell back to FD

    Stats& operator+=(const Stats& o) {
      packets += o.packets;
      no_clue += o.no_clue;
      table_hits += o.table_hits;
      table_misses += o.table_misses;
      fd_direct += o.fd_direct;
      searched += o.searched;
      search_failed += o.search_failed;
      return *this;
    }
  };

  // `mode` kSimple needs no neighbor table; kAdvance requires one (Claim 1
  // consults the sender's prefixes — in deployment this knowledge rides on
  // the routing protocol exchange, §5.3).
  CluePort(lookup::LookupSuite<A>& local,
           const trie::BinaryTrie<A>* neighbor_trie, const Options& options)
      : options_(options),
        local_(&local),
        suite_(&local),
        neighbor_trie_(neighbor_trie),
        hash_(options.expected_clues),
        indexed_(options.indexed ? options.indexed_capacity : 0),
        cache_(options.cache_entries) {
    CLUERT_CHECK(options.mode != lookup::ClueMode::kCommon)
        << "CluePort models the clue-assisted modes; use the engine directly "
           "for Common lookups";
    if (options.mode == lookup::ClueMode::kAdvance) {
      CLUERT_CHECK(neighbor_trie != nullptr)
          << "Advance requires the neighbor's prefix view (Claim 1)";
      local.annotateNeighbor(options.neighbor_index, *neighbor_trie);
    }
    if (options.self_clue) buildSelfClues(hash_, local, options.method);
  }

  // Unbound construction for a shared clue table: the port owns only
  // per-worker state (cache, stats, scratch) and borrows suite + clue table
  // via bindVersion() — which MUST run before the first packet — from a
  // published TableVersion or the static pipeline's one table. No annotation
  // happens here: the tables arrive fully built (and must not be mutated).
  // Its own tables stay at their minimum size; it never fills them.
  explicit CluePort(const Options& options)
      : options_(options), hash_(0), indexed_(0), cache_(options.cache_entries) {
    CLUERT_CHECK(options.mode != lookup::ClueMode::kCommon)
        << "CluePort models the clue-assisted modes; use the engine directly "
           "for Common lookups";
  }

  // Rebinds the data plane to an immutable published version: `suite` and
  // `clues` are read-only from here on (lookups probe `clues` instead of the
  // port-owned table; learning into the shared table is disabled — a miss
  // routes by common lookup, §3.3.1's safe path). The per-worker §3.5 cache
  // is version-stamped, so entries filled under another version are stale by
  // construction and never served across a swap. O(1); called once per
  // pinned PacketBatch.
  void bindVersion(std::uint64_t seq, const lookup::LookupSuite<A>& suite,
                   const HashClueTable<A>& clues,
                   const trie::BinaryTrie<A>* neighbor_trie) {
    suite_ = &suite;
    shared_hash_ = &clues;
    neighbor_trie_ = neighbor_trie;
    cache_.setVersion(seq);
  }

  // Pre-processing construction (§3.3.2): install entries for every clue the
  // neighbor may send. An entry it replaces may sit in the §3.5 cache, so the
  // cache drops everything, as after a refresh.
  void precompute(std::span<const PrefixT> clues) {
    checkOwnsTables("precompute");
    for (const PrefixT& c : clues) {
      hash_.insert(makeEntry(c, &hash_.candidates()));
    }
    cache_.clear();
  }

  // Indexed variant of precompute: the sender's enumeration fixes the slots.
  void precomputeIndexed(std::span<const PrefixT> clues,
                         ClueIndexer<A>& indexer) {
    checkOwnsTables("precomputeIndexed");
    CLUERT_CHECK(options_.indexed)
        << "precomputeIndexed on a port built without the indexing technique";
    for (const PrefixT& c : clues) {
      if (auto idx = indexer.indexOf(c)) {
        indexed_.put(*idx, makeEntry(c, &indexed_.candidates()));
      }
    }
  }

  struct Result {
    std::optional<MatchT> match;
    bool table_hit = false;
    bool used_fd = false;
    bool searched = false;
    // Observability classification (§3.1.2 case, Claim-1 attribution,
    // continuation fallback). Filled on every path.
    obs::Outcome outcome = obs::Outcome::kNoClue;
    bool claim1_skip = false;
    bool search_failed = false;
    // This lookup's share of `acc`, by region: its probe's clue-table
    // charges plus its walk's own. Filled only while an observer is
    // attached (attachObs); all-zero otherwise.
    mem::LookupAccesses accesses{};
  };

  // The per-packet fast path (Figure 5). `dest` is the destination address,
  // `field` the clue bits from the header. All data-plane memory accesses
  // are charged to `acc`. Runs processBatch's stages on one packet.
  Result process(const A& dest, const ClueField& field,
                 mem::AccessCounter& acc) {
    Result r;
    resolve({&dest, 1}, {&field, 1}, {&r, 1}, acc);
    return r;
  }

  // Largest batch resolved in one pass (the pipeline's kMaxBatch must be <=
  // this; both are sized so per-packet stage state stays L1-resident).
  static constexpr std::size_t kMaxProcessBatch = 64;

  // Batched fast path: the same results, Stats and acc charges as process()
  // called once per packet (prefetches are free in the access model). The
  // one resolve runs four stages, each over the whole batch:
  //   1. prepare  — hash the clue, prefetch its clue-table slot and SWAR tag
  //                 word; for a clue-less packet, prefetch its self slot
  //                 (kSelfClueBits) when the table has them;
  //   2. probe    — find each packet's §3.5 cache or table entry, in packet
  //                 order, so learning, cache fills and Stats stay exactly
  //                 sequential; queue a trie walk for every packet that
  //                 needs one (a miss, case 3, a self slot's case 3, no clue
  //                 and no self slot). A self slot costs one kClueTable
  //                 access, as an indexed probe does, and its packet still
  //                 counts only as no_clue, outcome kNoClue;
  //   3. walk     — one LookupEngine::walkBatch over the queued walks, which
  //                 Patricia interleaves so their misses overlap;
  //   4. complete — the FD fallback of a failed continuation, search_failed,
  //                 and the Result.
  // This is the entry point the pipeline workers and the datapath use. An
  // observed port fills each Result's accesses (its probe's table charges
  // plus its walk's own) and then runs one post-pass over the results
  // (observe()), so observation never costs the batch its overlap.
  void processBatch(std::span<const A> dests, std::span<const ClueField> fields,
                    std::span<Result> out, mem::AccessCounter& acc) {
    CLUERT_CHECK(dests.size() == fields.size() && dests.size() == out.size())
        << dests.size() << " dests, " << fields.size() << " fields, "
        << out.size() << " out slots";
    for (std::size_t i = 0; i < dests.size(); i += kMaxProcessBatch) {
      const std::size_t n = std::min(kMaxProcessBatch, dests.size() - i);
      resolve(dests.subspan(i, n), fields.subspan(i, n), out.subspan(i, n),
              acc);
    }
  }

  // -- control plane: route updates (§3.4) ----------------------------------
  //
  // One call per FibDelta; both run followDelta, the rule
  // rib::VersionedTables applies to its versions, on the hash and the
  // indexed table, then clear the §3.5 cache.

  // Call after LookupSuite::applyRouteDelta applied `d` to the receiver's
  // suite this port was built on.
  void refreshLocal(const rib::FibDelta<A>& d) {
    refresh(d, DeltaSide::kLocal);
  }

  // Call after the owner applied `d` to the sender view this port was built
  // with (Claim 1 consults it; under Advance the suite is re-annotated here).
  void refreshNeighbor(const rib::FibDelta<A>& d) {
    refresh(d, DeltaSide::kNeighbor);
  }

  const ClueCache<A>& cache() const { return cache_; }

  const Stats& stats() const { return stats_; }
  void resetStats() { stats_ = Stats{}; }

  const HashClueTable<A>& hashTable() const { return hash_; }
  const IndexedClueTable<A>& indexedTable() const { return indexed_; }
  const Options& options() const { return options_; }

  // Attaches pre-bound observability sinks (see obs/hooks.h). The bundle's
  // cells must outlive the port; a default-constructed bundle detaches.
  // Control-plane call — never invoke while the data plane is running.
  void attachObs(const obs::LookupObs& o) { obs_ = o; }

  // Exposed for tests: the control-plane construction of one entry
  // (procedure new-clue of Figure 5), its candidate set (Binary, Multiway)
  // built into `store`, the store of the table it is meant for.
  ClueEntry<A> makeEntry(const PrefixT& clue,
                         lookup::CandidateStore<A>* store = nullptr) const {
    return buildClueEntry(*suite_, neighbor_trie_, options_.method,
                          options_.mode, clue, store);
  }

 private:
  // Packet state carried from the prepare stage to the complete stage: one
  // slot of prep_ per packet, written in place (see resolve).
  struct Prepared {
    std::optional<PrefixT> clue;  // nullopt: packet carried no clue
    ClueProbeHint hint;           // hash probe start + SWAR tag
    std::size_t buckets = 0;      // table geometry when hint was computed
    // No clue: the packet's self slot, or nullptr when the table has none.
    const ClueEntry<A>* self = nullptr;
    int walk = -1;                // its queued walk, or -1
  };

  // The clue table the data plane probes: the version-bound shared table
  // when one is attached, the port-owned (learning) table otherwise.
  const HashClueTable<A>& readTable() const {
    return shared_hash_ != nullptr ? *shared_hash_ : hash_;
  }

  // Whether a miss learns its clue: a version-bound port must not mutate the
  // shared table (it is immutable by contract and probed concurrently by
  // other workers); its misses route correctly by the common lookup alone.
  bool learns() const { return options_.learn && shared_hash_ == nullptr; }

  // Whether the packet's entry lives in the indexed table (§3.3.1 indexing
  // technique, the header names the slot) rather than behind the hash.
  bool indexedProbe(const ClueField& field) const {
    return options_.indexed && field.index.has_value();
  }

  // Stage 1: the clue, its hash, and a prefetch of the lines its probe will
  // read. `p` still holds an earlier packet's record, so every field a later
  // stage reads for this packet is set here.
  void prepare(Prepared& p, const A& dest, const ClueField& field) {
    p.walk = -1;
    p.clue = cluePrefix(dest, field);
    const HashClueTable<A>& table = readTable();
    if (!p.clue) {
      p.self = table.hasSelfClues() ? table.selfSlotOf(dest) : nullptr;
      if (p.self != nullptr) __builtin_prefetch(p.self);
      return;
    }
    if (indexedProbe(field)) {
      indexed_.prefetch(*field.index);
      return;
    }
    p.hint = table.hintFor(*p.clue);
    p.buckets = table.bucketCount();
    // Pull both the SWAR tag word and the home entry toward the cache; by
    // the probe the tag word usually filters it down to the one entry
    // already in flight.
    table.prefetchTags(p.hint.slot);
    table.prefetchSlot(p.hint.slot);
  }

  // The probe stage's answer for one packet, written field by field into
  // its slot: `entry` is the live entry whose FD stands (nullptr: a miss,
  // or no clue and no self slot) — a table hit's, or under kNoClue the
  // packet's self slot. The walk and the observed post-pass fill in the
  // rest.
  static void startResult(Result& r, obs::Outcome outcome,
                          const ClueEntry<A>* entry) {
    const bool hit = entry != nullptr;
    if (hit) {
      r.match = entry->fd();
    } else {
      r.match.reset();
    }
    r.table_hit = hit && outcome != obs::Outcome::kNoClue;
    r.used_fd = hit;
    r.searched = outcome == obs::Outcome::kCase3;
    r.outcome = outcome;
    r.claim1_skip = hit && entry->ptr_empty && entry->claim1_pruned;
    r.search_failed = false;
    r.accesses = {};
  }

  // Stage 2 for one packet that carries a clue: its live entry — from the
  // §3.5 cache, the indexed slot or the hash table — or nullptr for a miss.
  // Charges the probe to `acc`.
  const ClueEntry<A>* probe(Prepared& p, const ClueField& field,
                            mem::AccessCounter& acc) {
    if (indexedProbe(field)) {
      const ClueEntry<A>* slot = indexed_.at(*field.index, acc);
      const bool hit = slot != nullptr && slot->valid && slot->clue == *p.clue;
      return hit && slot->active ? slot : nullptr;
    }
    // §3.5 cache: a fast-memory hit bypasses the DRAM probe entirely.
    const ClueEntry<A>* entry = cache_.lookup(*p.clue);
    if (entry == nullptr) {
      const HashClueTable<A>& table = readTable();
      // Learning from an earlier packet of this batch may have grown the
      // table since prepare(); the hint is only valid for its geometry.
      if (p.buckets != table.bucketCount()) p.hint = table.hintFor(*p.clue);
      entry = table.findFrom(p.hint, *p.clue, acc);
      if (entry != nullptr && entry->active) cache_.fill(*entry);
    }
    return entry != nullptr && entry->active ? entry : nullptr;  // §3.4
  }

  // The one resolve body (see processBatch) over at most kMaxProcessBatch
  // packets.
  //
  // Every per-packet record — the Prepared, the Walk, the Result — is
  // written field by field into its own slot, never built by value and
  // copied in: GCC builds such a temporary on the stack with narrow stores
  // and copies it out with 16-byte loads, which cannot be forwarded from
  // those stores, so each packet waited for them to retire. The per-call
  // counts (Stats, the probes' clue-table charges) are tallied in locals
  // and land in the port and `acc` once, at the end.
  void resolve(std::span<const A> dests, std::span<const ClueField> fields,
               std::span<Result> out, mem::AccessCounter& acc) {
    const std::size_t n = dests.size();
    const bool observed = obs_.attached();
    const auto& engine = suite_->engine(options_.method);
    const auto neighbor =
        options_.mode == lookup::ClueMode::kAdvance
            ? std::optional<NeighborIndex>(options_.neighbor_index)
            : std::nullopt;
    Prepared* prep = prep_.data();
    lookup::Walk<A>* walks = walks_.data();

    // The candidate sets released since the last call are unreachable here:
    // no walk is queued yet, and no live §3.5 cache slot holds a replaced
    // entry. Learning replaces only indexed slots and absent or inactive
    // hash entries, none of which the cache holds; every other replacement
    // (precompute, refresh) clears the cache.
    hash_.candidates().reclaim();
    indexed_.candidates().reclaim();

    for (std::size_t i = 0; i < n; ++i) prepare(prep[i], dests[i], fields[i]);

    // A walk carries its continuation and clue length by value, so the
    // learning and cache fills below may move or overwrite the entry it came
    // from (a grow reallocates every slot), and a set that learning releases
    // stays readable until the next call's reclaim.
    std::size_t queued = 0;
    // `prune`: the entry is a carried clue's, which Claim 1 governs under
    // Advance; a self slot is a Simple entry, and pruning its walk at the
    // sender's prefixes would misroute.
    const auto queueWalk = [&](Prepared& p, const A& dest,
                               const ClueEntry<A>* entry, bool prune) {
      lookup::Walk<A>& w = walks[queued];
      w.address = dest;
      if (entry == nullptr) {
        w.clue_length = lookup::kFullLookup;
      } else {
        w.cont = entry->cont;
        w.clue_length = entry->clue.length();
      }
      w.prune = prune;
      p.walk = static_cast<int>(queued++);
    };
    constexpr auto kTable = static_cast<std::size_t>(mem::Region::kClueTable);
    Stats tally;
    tally.packets = n;
    mem::AccessCounter probes;  // this call's probe charges
    for (std::size_t i = 0; i < n; ++i) {
      Prepared& p = prep[i];
      Result& r = out[i];
      const std::uint64_t probe_start = probes.count(mem::Region::kClueTable);
      if (!p.clue) {
        ++tally.no_clue;
        startResult(r, obs::Outcome::kNoClue, p.self);
        if (p.self == nullptr) {
          queueWalk(p, dests[i], nullptr, false);  // the common lookup
          continue;
        }
        // The packet's own first 16 bits as its clue (§3.1, §5.3(b)).
        probes.add(mem::Region::kClueTable);
        if (!p.self->ptr_empty) queueWalk(p, dests[i], p.self, false);
      } else if (const ClueEntry<A>* entry = probe(p, fields[i], probes);
                 entry == nullptr) {
        // "The Clue is not in the Table, never saw this clue": route by a
        // full common lookup, and learn the entry off the fast path
        // (§3.3.1).
        ++tally.table_misses;
        startResult(r, obs::Outcome::kMiss, nullptr);
        if (learns()) learn(*p.clue, fields[i]);
        queueWalk(p, dests[i], nullptr, false);
      } else {
        ++tally.table_hits;
        if (entry->ptr_empty) {
          ++tally.fd_direct;
          startResult(r,
                      entry->kase == ClueCase::kAbsent ? obs::Outcome::kCase1
                                                       : obs::Outcome::kCase2,
                      entry);
        } else {
          // Case 3: the FD stands unless the walk finds a longer match.
          ++tally.searched;
          startResult(r, obs::Outcome::kCase3, entry);
          queueWalk(p, dests[i], entry, true);
        }
      }
      if (observed) {
        r.accesses[kTable] = mem::saturatedAccesses(
            probes.count(mem::Region::kClueTable) - probe_start);
      }
    }
    probes.forEachNonZero(
        [&](mem::Region r, std::uint64_t c) { acc.add(r, c); });

    if (queued != 0) engine.walkBatch({walks, queued}, neighbor, observed, acc);

    for (std::size_t i = 0; i < n; ++i) {
      if (prep[i].walk < 0) continue;
      const lookup::Walk<A>& w = walks[prep[i].walk];
      Result& r = out[i];
      if (observed) {
        for (std::size_t k = 0; k < r.accesses.size(); ++k) {
          r.accesses[k] = mem::saturatedAccesses(
              std::uint64_t{r.accesses[k]} + w.accesses[k]);
        }
      }
      if (w.match) {
        r.match = w.match;
        r.used_fd = false;
        continue;
      }
      // A full lookup found no route, or the FD stands: a self slot's
      // quietly, a carried clue's as a failed search.
      if (!r.searched) continue;
      ++tally.search_failed;
      r.search_failed = true;
    }
    stats_ += tally;
    if (observed) observe(out);
  }

  // The post-pass of an observed resolve call: feeds the bound metric cells
  // from `results` (spans are the caller's, built from the same Results).
  // Runs once per call, after the resolve loop; kept out of line so that
  // loop stays as tight as an unobserved port's. Every family is tallied
  // over the call and flushed once: one fetch_add per counter, and per
  // non-empty lookup_accesses bucket plus its sum and count.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  void observe(std::span<const Result> results) {
    if (!obs_.metricsEnabled()) return;
    std::array<std::uint64_t, obs::kOutcomeCount> cases{};
    std::uint64_t claim1_skips = 0;
    std::uint64_t search_failures = 0;
    obs::HistogramData accesses;
    for (const Result& r : results) {
      ++cases[static_cast<std::size_t>(r.outcome)];
      claim1_skips += r.claim1_skip ? 1 : 0;
      search_failures += r.search_failed ? 1 : 0;
      accesses.observe(mem::accessTotal(r.accesses));
    }
    obs_.packets->inc(results.size());
    for (std::size_t c = 0; c < cases.size(); ++c) {
      if (cases[c] != 0) obs_.cases[c]->inc(cases[c]);
    }
    if (claim1_skips != 0) obs_.claim1_skip->inc(claim1_skips);
    if (search_failures != 0) obs_.search_failed->inc(search_failures);
    obs_.accesses->shard(obs_.shard).add(accesses);
  }

  void learn(const PrefixT& clue, const ClueField& field) {
    if (indexedProbe(field)) {
      indexed_.put(*field.index, makeEntry(clue, &indexed_.candidates()));
    } else {
      hash_.insert(makeEntry(clue, &hash_.candidates()));
    }
  }

  // Control-plane writes need a port built on its own suite: an unbound
  // port borrows tables that are immutable once bound.
  void checkOwnsTables(const char* what) const {
    CLUERT_CHECK(local_ != nullptr)
        << what << " on an unbound port; its tables arrive through "
           "bindVersion, built by their owner";
  }

  void refresh(const rib::FibDelta<A>& d, DeltaSide side) {
    checkOwnsTables("route-change notification");
    if (d.empty()) return;
    if (side == DeltaSide::kNeighbor &&
        options_.mode == lookup::ClueMode::kAdvance) {
      local_->annotateNeighbor(options_.neighbor_index, *neighbor_trie_);
    }
    followDelta(hash_, d, side, *local_, neighbor_trie_, options_.method,
                options_.mode);
    followDelta(indexed_, d, side, *local_, neighbor_trie_, options_.method,
                options_.mode);
    cache_.clear();
  }

  Options options_;
  // Control-plane suite this port may mutate (annotations, refreshes);
  // nullptr for unbound ports, whose tables are built by their owner
  // (VersionedTables, or the static Pipeline).
  lookup::LookupSuite<A>* local_ = nullptr;
  // The suite the data plane reads. Starts as local_, retargeted by
  // bindVersion() to the pinned TableVersion's suite.
  const lookup::LookupSuite<A>* suite_ = nullptr;
  // Non-null once bound: the shared (immutable) clue table the data plane
  // probes instead of hash_.
  const HashClueTable<A>* shared_hash_ = nullptr;
  const trie::BinaryTrie<A>* neighbor_trie_ = nullptr;
  HashClueTable<A> hash_;
  IndexedClueTable<A> indexed_;
  ClueCache<A> cache_;
  Stats stats_;
  obs::LookupObs obs_;
  // Stage scratch for resolve(); per-port (each pipeline shard owns its
  // port, so no sharing), constructed once instead of per call — neither
  // element type is trivially constructible, so a local array would
  // initialise every element on every call, a cost process() pays per
  // packet.
  std::array<Prepared, kMaxProcessBatch> prep_{};
  std::array<lookup::Walk<A>, kMaxProcessBatch> walks_{};
};

}  // namespace cluert::core
