// CluePort: the receiving half of distributed IP lookup (§3) for one
// incoming link — the clue table plus the decision logic of Figure 5,
// parameterised by base method (§4) and clue mode (Simple / Advance).
//
// The sender half is trivial by design (attach the length of the BMP you
// just found); ClueIndexer below implements the only stateful part of it,
// the §3.3.1 clue enumeration for the indexing technique.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>

#include "core/clue.h"
#include "core/clue_analyzer.h"
#include "core/clue_cache.h"
#include "core/clue_table.h"
#include "lookup/factory.h"
#include "obs/hooks.h"
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

  // Unbound construction for the epoch-versioned data plane: the port owns
  // only per-worker state (cache, stats, scratch) and borrows suite + clue
  // table from a published TableVersion via bindVersion() — which MUST run
  // before the first packet. No annotation happens here: versions arrive
  // fully built (and must not be mutated).
  explicit CluePort(const Options& options)
      : options_(options),
        hash_(options.expected_clues),
        indexed_(options.indexed ? options.indexed_capacity : 0),
        cache_(options.cache_entries) {
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
    bound_seq_ = seq;
  }

  // The version currently bound (0 when the port runs unversioned).
  std::uint64_t boundVersion() const { return bound_seq_; }
  bool versionBound() const { return shared_hash_ != nullptr; }

  // Pre-processing construction (§3.3.2): install entries for every clue the
  // neighbor may send.
  void precompute(std::span<const PrefixT> clues) {
    for (const PrefixT& c : clues) {
      hash_.insert(makeEntry(c));
    }
  }

  // Indexed variant of precompute: the sender's enumeration fixes the slots.
  void precomputeIndexed(std::span<const PrefixT> clues,
                         ClueIndexer<A>& indexer) {
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
    // This lookup's share of `acc`, by region. Filled only while an
    // observer is attached (attachObs); all-zero otherwise, so an
    // unobserved resolve loop never snapshots the counter.
    mem::LookupAccesses accesses{};
  };

  // The per-packet fast path (Figure 5). `dest` is the destination address,
  // `field` the clue bits from the header. All data-plane memory accesses
  // are charged to `acc`. Observed ports end in the same post-pass as
  // processBatch.
  Result process(const A& dest, const ClueField& field,
                 mem::AccessCounter& acc) {
    Prepared p = prepare(dest, field);
    if (!obs_.attached()) return finishResolve(p, dest, field, acc);
    Result r = resolveCounted(p, dest, field, acc);
    observe({&r, 1});
    return r;
  }

  // Largest batch processBatch accepts in one call (the pipeline's
  // kMaxBatch must be <= this; both are sized so per-packet cursor state
  // stays L1-resident).
  static constexpr std::size_t kMaxProcessBatch = 64;

  // Batched fast path: behaves exactly like process() called once per
  // packet (same results, same Stats, same acc charges — prefetches are
  // free in the access model), but splits each packet into a prepare phase
  // (hash the clue, probe the §3.5 cache, issue prefetches) and a resolve
  // phase, and runs all prepares before any resolve. By the time packet i
  // is resolved, its clue-table line has been in flight while packets
  // i+1.. were being prepared — memory-level parallelism a packet-at-a-time
  // loop cannot express. The hash/cache work done in prepare is reused in
  // resolve, so batching adds no duplicated computation. This is the entry
  // point the pipeline workers use. An observed port fills each Result's
  // accesses and then runs one post-pass over the results (observe()), so
  // observation never costs the batch its prefetch.
  void processBatch(std::span<const A> dests, std::span<const ClueField> fields,
                    std::span<Result> out, mem::AccessCounter& acc) {
    CLUERT_CHECK(dests.size() == fields.size() && dests.size() == out.size())
        << dests.size() << " dests, " << fields.size() << " fields, "
        << out.size() << " out slots";
    if (dests.size() > kMaxProcessBatch) {
      const std::size_t half = dests.size() / 2;
      processBatch(dests.first(half), fields.first(half), out.first(half),
                   acc);
      processBatch(dests.subspan(half), fields.subspan(half),
                   out.subspan(half), acc);
      return;
    }
    const bool observed = obs_.attached();
    const auto& engine = suite_->engine(options_.method);
    // One virtual query per batch, not one virtual no-op call per packet.
    const bool engine_prefetches = engine.prefetchCapable();
    // Reused scratch (not a local array): Prepared is not trivially
    // constructible, so a local would zero all kMaxProcessBatch elements on
    // every call — pure per-call overhead that a batch-1 caller pays per
    // packet.
    Prepared* prep = batch_scratch_.data();
    for (std::size_t i = 0; i < dests.size(); ++i) {
      prep[i] = prepare(dests[i], fields[i]);
      if (!prep[i].clue) {
        // Miss path: a full common lookup.
        if (engine_prefetches) engine.prefetchLookup(dests[i]);
        continue;
      }
      if (options_.indexed && fields[i].index) {
        indexed_.prefetch(*fields[i].index);
      } else if (prep[i].cached == nullptr) {
        // Pull both the SWAR tag word and the home entry toward the cache;
        // by resolve time the tag word usually filters the probe down to
        // the one entry already in flight.
        readTable().prefetchTags(prep[i].hint.slot);
        readTable().prefetchSlot(prep[i].hint.slot);
      }
      // A table hit may still continue into the trie (case 3) or fall back
      // to a full lookup (miss); warming the first trie step costs nothing.
      if (engine_prefetches) engine.prefetchLookup(dests[i]);
    }
    if (!observed) {
      for (std::size_t i = 0; i < dests.size(); ++i) {
        out[i] = finishResolve(prep[i], dests[i], fields[i], acc);
      }
      return;
    }
    for (std::size_t i = 0; i < dests.size(); ++i) {
      out[i] = resolveCounted(prep[i], dests[i], fields[i], acc);
    }
    observe(out);
  }

  // The clue-less path, for packets arriving without the option (§5.3
  // heterogeneous networks) and for the Common baseline.
  std::optional<MatchT> lookupNoClue(const A& dest,
                                     mem::AccessCounter& acc) const {
    return suite_->engine(options_.method).lookup(dest, acc);
  }

  // -- control plane: route updates and §3.4 marking ------------------------

  // Call after a route for `changed` was inserted into or removed from the
  // *receiver's* table (and LookupSuite::insertRoute/eraseRoute ran): every
  // entry whose FD or candidate set can depend on `changed` — clues on its
  // path and clues extending it — is recomputed in place.
  void onLocalRouteChanged(const PrefixT& changed) {
    refreshRelated(changed, /*engines_rebuilt=*/true);
  }

  // Call after the *sender's* table changed (Claim 1 consults it): affected
  // entries are those whose clue is on the changed prefix's path, and the
  // per-vertex Claim-1 booleans must be recomputed against the new view.
  void onNeighborRouteChanged(const PrefixT& changed) {
    CLUERT_CHECK(local_ != nullptr)
        << "route-change notification on a version-bound port; updates flow "
           "through VersionedTables instead";
    if (options_.mode == lookup::ClueMode::kAdvance) {
      local_->annotateNeighbor(options_.neighbor_index, *neighbor_trie_);
    }
    refreshRelated(changed, /*engines_rebuilt=*/false);
  }

  // §3.4: mark a clue out-of-use / back in use without removing it (probe
  // chains stay intact). An inactive entry behaves as a miss.
  bool invalidateClue(const PrefixT& clue) {
    cache_.clear();
    return hash_.setActive(clue, false);
  }
  bool reactivateClue(const PrefixT& clue) {
    if (ClueEntry<A>* e = hash_.findMutable(clue)) {
      *e = makeEntry(clue);  // recompute: the tables may have moved on
      cache_.clear();
      return true;
    }
    return false;
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
  const obs::LookupObs& observability() const { return obs_; }

  // Exposed for tests: the control-plane construction of one entry
  // (procedure new-clue of Figure 5).
  ClueEntry<A> makeEntry(const PrefixT& clue) const {
    return buildClueEntry(*suite_, neighbor_trie_, options_.method,
                          options_.mode, clue);
  }

 private:
  // Packet state carried from the prepare phase to the resolve phase. For a
  // batch, prepares all run before any resolve; for a single packet the two
  // run back-to-back. Either way each packet hashes its clue and probes the
  // §3.5 cache exactly once.
  struct Prepared {
    std::optional<PrefixT> clue;          // nullopt: packet carried no clue
    const ClueEntry<A>* cached = nullptr;  // §3.5 fast-memory hit
    ClueProbeHint hint;                    // probe start + SWAR tag (if !cached)
    std::size_t buckets = 0;               // hash_ geometry when hint was computed
  };

  // The clue table the data plane probes: the version-bound shared table
  // when one is attached, the port-owned (learning) table otherwise.
  const HashClueTable<A>& readTable() const {
    return shared_hash_ != nullptr ? *shared_hash_ : hash_;
  }

  Prepared prepare(const A& dest, const ClueField& field) {
    Prepared p;
    p.clue = cluePrefix(dest, field);
    if (!p.clue) return p;
    if (options_.indexed && field.index) return p;  // slot named by header
    // §3.5 cache: a fast-memory hit bypasses the DRAM probe entirely.
    p.cached = cache_.lookup(*p.clue);
    if (p.cached == nullptr) {
      const HashClueTable<A>& table = readTable();
      p.hint = table.hintFor(*p.clue);
      p.buckets = table.bucketCount();
    }
    return p;
  }

  Result finishResolve(Prepared& p, const A& dest, const ClueField& field,
                       mem::AccessCounter& acc) {
    ++stats_.packets;
    const auto& engine = suite_->engine(options_.method);
    if (!p.clue) {
      ++stats_.no_clue;
      return Result{engine.lookup(dest, acc), false, false, false,
                    obs::Outcome::kNoClue};
    }
    const ClueEntry<A>* entry = nullptr;
    if (options_.indexed && field.index) {
      const ClueEntry<A>* slot = indexed_.at(*field.index, acc);
      if (slot != nullptr && slot->valid && slot->clue == *p.clue) entry = slot;
    } else {
      entry = p.cached;
      const HashClueTable<A>& table = readTable();
      // A cache fill from an earlier packet of this batch may have evicted
      // the slot since prepare(); treat that as the miss it now is.
      if (entry != nullptr && !(entry->valid && entry->clue == *p.clue)) {
        entry = nullptr;
        p.hint = table.hintFor(*p.clue);
        p.buckets = table.bucketCount();
      }
      if (entry == nullptr) {
        // Learning from an earlier packet of this batch may have grown the
        // table since prepare(); the hint is only valid for its geometry.
        if (p.buckets != table.bucketCount()) {
          p.hint = table.hintFor(*p.clue);
        }
        entry = table.findFrom(p.hint, *p.clue, acc);
        if (entry != nullptr && entry->active) cache_.fill(*entry);
      }
    }
    if (entry != nullptr && !entry->active) entry = nullptr;  // §3.4 marking

    if (entry == nullptr) {
      // "The Clue is not in the Table, never saw this clue": route by a full
      // common lookup, then learn the entry off the fast path (§3.3.1).
      ++stats_.table_misses;
      Result r{engine.lookup(dest, acc), false, false, false,
               obs::Outcome::kMiss};
      if (options_.learn) learn(*p.clue, field);
      return r;
    }

    ++stats_.table_hits;
    if (entry->ptr_empty) {
      ++stats_.fd_direct;
      Result r{entry->fd, true, true, false};
      r.outcome = entry->kase == ClueCase::kAbsent ? obs::Outcome::kCase1
                                                   : obs::Outcome::kCase2;
      r.claim1_skip = entry->claim1_pruned;
      return r;
    }
    ++stats_.searched;
    const auto neighbor =
        options_.mode == lookup::ClueMode::kAdvance
            ? std::optional<NeighborIndex>(options_.neighbor_index)
            : std::nullopt;
    if (auto found = engine.continueLookup(entry->cont, dest, neighbor, acc)) {
      return Result{found, true, false, true, obs::Outcome::kCase3};
    }
    ++stats_.search_failed;
    Result r{entry->fd, true, true, true, obs::Outcome::kCase3};
    r.search_failed = true;
    return r;
  }

  // finishResolve plus the lookup's per-region share of `acc`: the resolve
  // step of an observed port.
  Result resolveCounted(Prepared& p, const A& dest, const ClueField& field,
                        mem::AccessCounter& acc) {
    const mem::AccessCounter before = acc;
    Result r = finishResolve(p, dest, field, acc);
    r.accesses = mem::lookupDelta(acc, before);
    return r;
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
    // A version-bound port must not mutate the shared table (it is immutable
    // by contract and probed concurrently by other workers); misses already
    // routed correctly via the common lookup above.
    if (shared_hash_ != nullptr) return;
    ClueEntry<A> entry = makeEntry(clue);
    if (options_.indexed && field.index) {
      indexed_.put(*field.index, std::move(entry));
    } else {
      hash_.insert(std::move(entry));
    }
  }

  // A clue entry depends on `changed` iff one is a prefix of the other (FDs
  // look up the clue's path; candidate sets look down its subtree).
  static bool related(const PrefixT& clue, const PrefixT& changed) {
    return clue.isPrefixOf(changed) || changed.isPrefixOf(clue);
  }

  void refreshRelated(const PrefixT& changed, bool engines_rebuilt) {
    cache_.clear();  // coarse but always safe
    // Local changes rebuild the suite's engines. kStride continuations
    // anchor nodes the old engine owned, so every case-3 entry must be
    // rebuilt there — a stale anchor is a use-after-free. All other
    // methods' anchors survive the rebuild (tries are patched in place,
    // candidate tables are entry-owned), so related() suffices; see the
    // same analysis in VersionedTables::applyLocal.
    const bool anchors_dangle =
        engines_rebuilt && options_.method == lookup::Method::kStride;
    // makeEntry returns entries with active=true; a §3.4-marked entry must
    // stay out of use across the refresh (invalidateClue would otherwise be
    // silently undone by any nearby route update).
    const auto refresh = [&](ClueEntry<A>& e) {
      const bool dangling = anchors_dangle && e.kase == ClueCase::kSearch;
      if (!dangling && !related(e.clue, changed)) return;
      const bool was_active = e.active;
      e = makeEntry(e.clue);
      e.active = was_active;
    };
    hash_.forEachMutable(refresh);
    indexed_.forEachMutable(refresh);
  }

  Options options_;
  // Control-plane suite this port may mutate (annotations, refreshes);
  // nullptr for version-bound ports, whose updates flow through
  // VersionedTables instead.
  lookup::LookupSuite<A>* local_ = nullptr;
  // The suite the data plane reads. Starts as local_, retargeted by
  // bindVersion() to the pinned TableVersion's suite.
  const lookup::LookupSuite<A>* suite_ = nullptr;
  // Non-null iff version-bound: the published (immutable) clue table the
  // data plane probes instead of hash_.
  const HashClueTable<A>* shared_hash_ = nullptr;
  std::uint64_t bound_seq_ = 0;
  const trie::BinaryTrie<A>* neighbor_trie_ = nullptr;
  HashClueTable<A> hash_;
  IndexedClueTable<A> indexed_;
  ClueCache<A> cache_;
  Stats stats_;
  obs::LookupObs obs_;
  // processBatch scratch; per-port (each pipeline shard owns its port, so
  // no sharing), constructed once instead of per call.
  std::array<Prepared, kMaxProcessBatch> batch_scratch_{};
};

}  // namespace cluert::core
