// Combining the clue tables of several neighbors (§3.4).
//
// A router with d neighbors can either keep one table per port (just d
// independent CluePorts), or share one memory. Sharing naively loses the
// Advance precision — a clue may be case-2 for one sender and case-3 for
// another. The paper offers two space-efficient designs, both built here:
//
//  * Bit map    — one union table; each entry carries a d-bit map telling,
//                 per neighbor, whether the FD is final. Continuation state
//                 is shared (the trie anchors are sender-independent; the
//                 per-vertex Claim-1 booleans make the walk sender-aware).
//  * Sub-tables — a common table for clues whose behaviour is identical for
//                 every neighbor, plus a small specific table per neighbor;
//                 a lookup probes both (common first).
#pragma once

#include <memory>
#include <vector>

#include "core/distributed_lookup.h"
#include "common/check.h"

namespace cluert::core {

// ---------------------------------------------------------------------------
// Bit-map variant
// ---------------------------------------------------------------------------
template <typename A>
class BitmapClueTable {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  struct Entry {
    PrefixT clue;
    bool valid = false;
    std::optional<MatchT> fd;          // identical for all neighbors (§3.4)
    std::uint64_t fd_final_bits = 0;   // bit j: Ptr empty w.r.t. neighbor j
    lookup::Continuation cont;         // shared trie/Patricia anchor
  };

  struct Options {
    lookup::Method method = lookup::Method::kPatricia;
    std::size_t expected_clues = 1 << 10;
  };

  // The bitmap design shares one continuation per clue, so it supports the
  // trie-walk methods (Regular/Patricia), whose walks take the neighbor as a
  // parameter via the per-vertex booleans; the interval/log-W methods need
  // per-neighbor candidate state — use SubTableClueTable for those.
  BitmapClueTable(lookup::LookupSuite<A>& local, const Options& options)
      : options_(options),
        local_(local),
        engine_(local.engine(options.method)),
        slots_(bucketCountFor(options.expected_clues)) {
    CLUERT_CHECK(options.method == lookup::Method::kRegular ||
                 options.method == lookup::Method::kPatricia)
        << "per-neighbor continue bits exist only for the trie-walk methods";
  }

  // Registers neighbor j (Advance analysis against its table) and installs /
  // updates entries for every clue it may send.
  void addNeighbor(NeighborIndex j, const trie::BinaryTrie<A>& t1,
                   std::span<const PrefixT> clues) {
    CLUERT_CHECK(j < kMaxAnnotatedNeighbors)
        << "neighbor index " << j << " exceeds the continue-bit mask";
    local_.annotateNeighbor(j, t1);
    ClueAnalyzer<A> analyzer(local_.binaryTrie(), &t1);
    for (const PrefixT& c : clues) {
      Entry& e = slotFor(c);
      const ClueAnalysis<A> a = analyzer.analyzeAdvance(c);
      if (!e.valid) {
        e.clue = c;
        e.valid = true;
        e.fd = a.fd;
        // Trie anchors only (see the constructor): no candidate store.
        e.cont = engine_.makeContinuation(c, a.candidates, nullptr);
        ++size_;
      }
      if (a.kase != ClueCase::kSearch) {
        e.fd_final_bits |= std::uint64_t{1} << j;
      } else {
        e.fd_final_bits &= ~(std::uint64_t{1} << j);
      }
    }
  }

  // Data-plane lookup for a packet arriving from neighbor j.
  std::optional<MatchT> process(const A& dest, const PrefixT& clue,
                                NeighborIndex j,
                                mem::AccessCounter& acc) const {
    const Entry* e = find(clue, acc);
    if (e == nullptr) return engine_.lookup(dest, acc);
    if ((e->fd_final_bits >> j) & 1u) return e->fd;
    if (auto found = engine_.continueLookup(e->cont, clue.length(), dest, j,
                                            acc)) {
      return found;
    }
    return e->fd;
  }

  std::size_t size() const { return size_; }
  std::size_t bucketCount() const { return slots_.size(); }

 private:
  static std::size_t bucketCountFor(std::size_t expected) {
    std::size_t n = 16;
    while (n < expected * 4) n <<= 1;
    return n;
  }

  Entry& slotFor(const PrefixT& clue) {
    std::size_t i = std::hash<PrefixT>{}(clue) & (slots_.size() - 1);
    while (slots_[i].valid && !(slots_[i].clue == clue)) {
      i = (i + 1) & (slots_.size() - 1);
    }
    return slots_[i];
  }

  const Entry* find(const PrefixT& clue, mem::AccessCounter& acc) const {
    std::size_t i = std::hash<PrefixT>{}(clue) & (slots_.size() - 1);
    while (true) {
      acc.add(mem::Region::kClueTable);
      const Entry& e = slots_[i];
      if (!e.valid) return nullptr;
      if (e.clue == clue) return &e;
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  Options options_;
  lookup::LookupSuite<A>& local_;
  const lookup::LookupEngine<A>& engine_;
  std::vector<Entry> slots_;
  std::size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// Sub-tables variant
// ---------------------------------------------------------------------------
template <typename A>
class SubTableClueTable {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  struct Options {
    lookup::Method method = lookup::Method::kPatricia;
    lookup::ClueMode mode = lookup::ClueMode::kAdvance;
    std::size_t expected_clues = 1 << 10;
  };

  SubTableClueTable(lookup::LookupSuite<A>& local, const Options& options)
      : options_(options),
        local_(local),
        engine_(local.engine(options.method)),
        common_(options.expected_clues) {}

  // Registers neighbor j with its clue set. Clues whose entry would be
  // identical for *all* registered neighbors (here: Ptr empty everywhere,
  // since the FD is neighbor-independent) migrate to the common table; the
  // rest live in the neighbor's specific table.
  void addNeighbor(NeighborIndex j, const trie::BinaryTrie<A>& t1,
                   std::vector<PrefixT> clues) {
    CLUERT_CHECK(j < kMaxAnnotatedNeighbors)
        << "neighbor index " << j << " exceeds the continue-bit mask";
    if (options_.mode == lookup::ClueMode::kAdvance) {
      local_.annotateNeighbor(j, t1);
    }
    neighbors_.push_back(NeighborState{
        j, &t1, std::move(clues),
        std::make_unique<HashClueTable<A>>(options_.expected_clues)});
    rebuild();
  }

  // Data-plane lookup: probe the common table, then the sender's specific
  // table ("an arriving clue has to be looked in both", §3.4).
  std::optional<MatchT> process(const A& dest, const PrefixT& clue,
                                NeighborIndex j,
                                mem::AccessCounter& acc) const {
    if (const ClueEntry<A>* e = common_.find(clue, acc)) {
      return e->fd();  // common entries are final by construction
    }
    const NeighborState* ns = stateOf(j);
    CLUERT_CHECK(ns != nullptr) << "lookup names an unregistered neighbor " << j;
    if (const ClueEntry<A>* e = ns->specific->find(clue, acc)) {
      if (e->ptr_empty) return e->fd();
      const auto neighbor = options_.mode == lookup::ClueMode::kAdvance
                                ? std::optional<NeighborIndex>(j)
                                : std::nullopt;
      if (auto found = engine_.continueLookup(e->cont, clue.length(), dest,
                                              neighbor, acc)) {
        return found;
      }
      return e->fd();
    }
    return engine_.lookup(dest, acc);
  }

  std::size_t commonSize() const { return common_.size(); }
  std::size_t specificSize(NeighborIndex j) const {
    const NeighborState* ns = stateOf(j);
    return ns == nullptr ? 0 : ns->specific->size();
  }

 private:
  struct NeighborState {
    NeighborIndex index;
    const trie::BinaryTrie<A>* table;
    std::vector<PrefixT> clues;
    std::unique_ptr<HashClueTable<A>> specific;
  };

  const NeighborState* stateOf(NeighborIndex j) const {
    for (const NeighborState& ns : neighbors_) {
      if (ns.index == j) return &ns;
    }
    return nullptr;
  }

  // Recomputes the common/specific split from scratch. Control plane only;
  // runs when the neighbor set or a routing table changes.
  void rebuild() {
    common_ = HashClueTable<A>(options_.expected_clues);
    for (NeighborState& ns : neighbors_) {
      *ns.specific = HashClueTable<A>(options_.expected_clues);
    }
    // A clue is "common" iff every neighbor that may send it agrees the FD
    // is final. Count per-clue senders first.
    std::unordered_map<PrefixT, std::vector<const NeighborState*>> senders;
    for (const NeighborState& ns : neighbors_) {
      for (const PrefixT& c : ns.clues) senders[c].push_back(&ns);
    }
    for (const auto& [clue, list] : senders) {
      std::vector<ClueAnalysis<A>> analyses;
      analyses.reserve(list.size());
      bool all_final = true;
      for (const NeighborState* ns : list) {
        ClueAnalyzer<A> analyzer(local_.binaryTrie(), ns->table);
        analyses.push_back(options_.mode == lookup::ClueMode::kAdvance
                               ? analyzer.analyzeAdvance(clue)
                               : analyzer.analyzeSimple(clue));
        all_final = all_final && analyses.back().kase != ClueCase::kSearch;
      }
      // Each entry's candidate set goes into the store of the table that
      // holds the entry.
      const auto entryFor = [&](const ClueAnalysis<A>& a,
                                HashClueTable<A>& table) {
        ClueEntry<A> e;
        e.clue = clue;
        e.valid = true;
        e.setFd(a.fd);
        if (a.kase == ClueCase::kSearch) {
          e.ptr_empty = false;
          e.cont = engine_.makeContinuation(clue, a.candidates,
                                            &table.candidates());
        }
        return e;
      };
      if (all_final) {
        common_.insert(entryFor(analyses.front(), common_));
      } else {
        for (std::size_t i = 0; i < list.size(); ++i) {
          HashClueTable<A>& specific = *list[i]->specific;
          specific.insert(entryFor(analyses[i], specific));
        }
      }
    }
  }

  Options options_;
  lookup::LookupSuite<A>& local_;
  const lookup::LookupEngine<A>& engine_;
  HashClueTable<A> common_;
  std::vector<NeighborState> neighbors_;
};

}  // namespace cluert::core
