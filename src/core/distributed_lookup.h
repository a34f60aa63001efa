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
// tables for immutable snapshots without owning a port.
// ---------------------------------------------------------------------------
template <typename A>
ClueEntry<A> buildClueEntry(const lookup::LookupSuite<A>& suite,
                            const trie::BinaryTrie<A>* neighbor_trie,
                            lookup::Method method, lookup::ClueMode mode,
                            const ip::Prefix<A>& clue) {
  const ClueAnalyzer<A> analyzer(suite.binaryTrie(), neighbor_trie);
  const ClueAnalysis<A> a = mode == lookup::ClueMode::kAdvance
                                ? analyzer.analyzeAdvance(clue)
                                : analyzer.analyzeSimple(clue);
  ClueEntry<A> e;
  e.clue = clue;
  e.valid = true;
  e.fd = a.fd;
  e.kase = a.kase;
  e.claim1_pruned = a.claim1_pruned;
  if (a.kase == ClueCase::kSearch) {
    e.ptr_empty = false;
    e.cont = suite.engine(method).makeContinuation(clue, a.candidates);
  }
  return e;
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
// ---------------------------------------------------------------------------

// A clue entry depends on `changed` iff one is a prefix of the other: FDs
// look up the clue's path, candidate sets look down its subtree.
template <typename A>
bool related(const ip::Prefix<A>& clue, const ip::Prefix<A>& changed) {
  return clue.isPrefixOf(changed) || changed.isPrefixOf(clue);
}

enum class DeltaSide { kLocal, kNeighbor };

template <typename A, typename TableT>
void followDelta(TableT& table, const rib::FibDelta<A>& d, DeltaSide side,
                 const lookup::LookupSuite<A>& suite,
                 const trie::BinaryTrie<A>* neighbor_trie,
                 lookup::Method method, lookup::ClueMode mode) {
  using PrefixT = ip::Prefix<A>;
  const auto build = [&](const PrefixT& clue) {
    return buildClueEntry(suite, neighbor_trie, method, mode, clue);
  };
  const bool local = side == DeltaSide::kLocal;
  if (!local) {
    for (const PrefixT& p : d.removed) table.setActive(p, false);
    if constexpr (std::is_same_v<TableT, HashClueTable<A>>) {
      for (const auto& e : d.added) {
        if (ClueEntry<A>* slot = table.findMutable(e.prefix)) {
          *slot = build(e.prefix);  // re-announce: fresh and active
        } else {
          table.insert(build(e.prefix));
        }
      }
    }
    if (mode != lookup::ClueMode::kAdvance) return;
  }
  const bool anchors_dangle = local && method == lookup::Method::kStride;
  const auto rebuild = [&](ClueEntry<A>& e) {
    const bool was_active = e.active;
    e = build(e.clue);
    e.active = was_active;
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
  };

  // Aggregate behaviour counters for the experiments.
  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t no_clue = 0;       // packet carried no clue: common lookup
    std::uint64_t table_hits = 0;
    std::uint64_t table_misses = 0;  // learned (or not) via common lookup
    std::uint64_t fd_direct = 0;     // answered by FD, Ptr empty
    std::uint64_t searched = 0;      // case-3 continuation ran
    std::uint64_t search_failed = 0; // continuation fell back to FD
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
  // neighbor may send.
  void precompute(std::span<const PrefixT> clues) {
    checkOwnsTables("precompute");
    for (const PrefixT& c : clues) {
      hash_.insert(makeEntry(c));
    }
  }

  // Indexed variant of precompute: the sender's enumeration fixes the slots.
  void precomputeIndexed(std::span<const PrefixT> clues,
                         ClueIndexer<A>& indexer) {
    checkOwnsTables("precomputeIndexed");
    CLUERT_CHECK(options_.indexed)
        << "precomputeIndexed on a port built without the indexing technique";
    for (const PrefixT& c : clues) {
      if (auto idx = indexer.indexOf(c)) indexed_.put(*idx, makeEntry(c));
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
  //                 word;
  //   2. probe    — find each packet's §3.5 cache or table entry, in packet
  //                 order, so learning, cache fills and Stats stay exactly
  //                 sequential; queue a trie walk for every packet that
  //                 needs one (no clue, miss, case 3);
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
  // (procedure new-clue of Figure 5).
  ClueEntry<A> makeEntry(const PrefixT& clue) const {
    return buildClueEntry(*suite_, neighbor_trie_, options_.method,
                          options_.mode, clue);
  }

 private:
  // Packet state carried from the prepare stage to the complete stage.
  struct Prepared {
    std::optional<PrefixT> clue;  // nullopt: packet carried no clue
    ClueProbeHint hint;           // hash probe start + SWAR tag
    std::size_t buckets = 0;      // table geometry when hint was computed
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
  // read.
  Prepared prepare(const A& dest, const ClueField& field) {
    Prepared p;
    p.clue = cluePrefix(dest, field);
    if (!p.clue) return p;
    if (indexedProbe(field)) {
      indexed_.prefetch(*field.index);
      return p;
    }
    const HashClueTable<A>& table = readTable();
    p.hint = table.hintFor(*p.clue);
    p.buckets = table.bucketCount();
    // Pull both the SWAR tag word and the home entry toward the cache; by
    // the probe the tag word usually filters it down to the one entry
    // already in flight.
    table.prefetchTags(p.hint.slot);
    table.prefetchSlot(p.hint.slot);
    return p;
  }

  // Stage 2 for one packet that carries a clue: its live entry — from the
  // §3.5 cache, the indexed slot or the hash table — or nullptr for a miss.
  // Charges the probe to `acc`, and calls `before_write()` before it fills
  // the cache.
  template <typename BeforeWrite>
  const ClueEntry<A>* probe(Prepared& p, const ClueField& field,
                            mem::AccessCounter& acc,
                            const BeforeWrite& before_write) {
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
      if (entry != nullptr && entry->active && cache_.enabled()) {
        before_write();
        cache_.fill(*entry);
      }
    }
    return entry != nullptr && entry->active ? entry : nullptr;  // §3.4
  }

  // The one resolve body (see processBatch) over at most kMaxProcessBatch
  // packets.
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

    for (std::size_t i = 0; i < n; ++i) prep[i] = prepare(dests[i], fields[i]);

    // A queued continuation reads its entry through a pointer into hash_,
    // indexed_ or cache_, and a learn or a cache fill may move or overwrite
    // that entry (a grow reallocates every slot). So the probe stage runs
    // the walks queued so far before it writes any of the three.
    std::size_t queued = 0;
    std::size_t walked = 0;
    const auto runWalks = [&] {
      if (walked == queued) return;
      engine.walkBatch({walks + walked, queued - walked}, neighbor, observed,
                       acc);
      walked = queued;
    };
    const auto queueWalk = [&](Prepared& p, const A& dest,
                               const lookup::Continuation<A>* cont) {
      walks[queued].address = dest;
      walks[queued].cont = cont;
      p.walk = static_cast<int>(queued++);
    };
    constexpr auto kTable = static_cast<std::size_t>(mem::Region::kClueTable);
    for (std::size_t i = 0; i < n; ++i) {
      Prepared& p = prep[i];
      Result& r = out[i];
      ++stats_.packets;
      if (!p.clue) {
        ++stats_.no_clue;
        r = Result{};
        queueWalk(p, dests[i], nullptr);  // the common lookup
        continue;
      }
      const std::uint64_t probe_start = acc.count(mem::Region::kClueTable);
      const ClueEntry<A>* entry = probe(p, fields[i], acc, runWalks);
      if (entry == nullptr) {
        // "The Clue is not in the Table, never saw this clue": route by a
        // full common lookup, and learn the entry off the fast path
        // (§3.3.1).
        ++stats_.table_misses;
        r = Result{std::nullopt, false, false, false, obs::Outcome::kMiss};
        if (learns()) {
          runWalks();
          learn(*p.clue, fields[i]);
        }
        queueWalk(p, dests[i], nullptr);
      } else {
        ++stats_.table_hits;
        if (entry->ptr_empty) {
          ++stats_.fd_direct;
          r = Result{entry->fd, true, true, false};
          r.outcome = entry->kase == ClueCase::kAbsent ? obs::Outcome::kCase1
                                                       : obs::Outcome::kCase2;
          r.claim1_skip = entry->claim1_pruned;
        } else {
          // Case 3: the FD stands unless the walk finds a longer match.
          ++stats_.searched;
          r = Result{entry->fd, true, true, true, obs::Outcome::kCase3};
          queueWalk(p, dests[i], &entry->cont);
        }
      }
      if (observed) {
        r.accesses[kTable] = mem::saturatedAccesses(
            acc.count(mem::Region::kClueTable) - probe_start);
      }
    }

    runWalks();

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
      if (!r.searched || w.match) {
        r.match = w.match;
        r.used_fd = false;
        continue;
      }
      ++stats_.search_failed;
      r.search_failed = true;
    }
    if (observed) observe(out);
  }

  // The post-pass of an observed resolve call: feeds the bound metric cells
  // from `results` (spans are the caller's, built from the same Results).
  // Runs once per call, after the resolve loop; kept out of line so that
  // loop stays as tight as an unobserved port's.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  void observe(std::span<const Result> results) {
    if (!obs_.metricsEnabled()) return;
    std::array<std::uint64_t, obs::kOutcomeCount> cases{};
    std::uint64_t claim1_skips = 0;
    std::uint64_t search_failures = 0;
    obs::HistogramCell& accesses = obs_.accesses->shard(obs_.shard);
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
  }

  void learn(const PrefixT& clue, const ClueField& field) {
    ClueEntry<A> entry = makeEntry(clue);
    if (indexedProbe(field)) {
      indexed_.put(*field.index, std::move(entry));
    } else {
      hash_.insert(std::move(entry));
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
