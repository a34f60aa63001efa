// FD/Ptr consistency validators for the clue tables (§3.1.1), for both
// Simple and Advance analysis.
//
// Every active entry is re-derived from scratch with ClueAnalyzer against
// the receiver's reference trie t2 (and, for Advance, the sender's table t1
// — the R1 side of Claim 1 / condition C1) and compared field by field.
//
// Invariant catalogue (see DESIGN.md "Verification"):
//   fd-mismatch              stored FD != best matching prefix of the clue
//                            string in t2 (§3.1.1 "FD")
//   claim1-empty-ptr         Ptr is empty although the C1 candidate set
//                            P(clue, R1) is non-empty — Claim 1 does NOT
//                            hold, so an FD answer can misroute packets
//                            whose BMP extends the clue (the unsound
//                            direction)
//   ptr-not-empty            Ptr is non-empty although no longer match can
//                            exist (Claim 1 holds) — the wasteful direction
//   dangling-trie-anchor     Ptr names a binary-trie vertex that is not the
//                            clue's vertex in t2 (Regular)
//   dangling-patricia-anchor Ptr names a Patricia node that is not
//                            descendAnchor(clue) (Patricia)
//   dangling-stride-anchor   Ptr names another multibit-trie node or depth
//                            than the clue determines (Stride)
//   logw-window-mismatch     the stored longest candidate length differs
//                            from the recomputed C1 set's (LogW)
//   dangling-ptr             Ptr is non-empty but carries no continuation
//                            state at all (no anchor, no length window)
//   released-candidate-set   the candidate set is not a live set of the
//                            table's store: released by an overwrite (its
//                            storage may be reused) or another table's
//   candidate-count-mismatch stored |P| differs from the recomputed C1 set
//   candidate-set (merged)   the per-clue segment table disagrees with the
//                            recomputed C1 candidate set (see
//                            segment_check.h ids)
//   probe-chain-broken       (hash table only) a valid entry is unreachable
//                            from its home slot — an invalid slot interrupts
//                            the open-addressing probe sequence, so lookups
//                            silently miss (§3.4 is why entries are marked
//                            inactive instead of removed)
//   size-mismatch            (hash table only) stored size != valid slots
//   self-slot-misplaced      (hash table only) self slot i (core::
//                            kSelfClueBits) is invalid, inactive or holds
//                            another clue than selfClue(i); its FD and Ptr
//                            are re-derived by the checks above, under
//                            Simple whatever the table's mode
//
// The Ptr checks read the continuation the way the engine that built it
// does, so they need that engine; without one, only dangling-ptr applies.
#pragma once

#include <optional>
#include <string>
#include <type_traits>

#include "check/report.h"
#include "check/segment_check.h"
#include "core/clue_analyzer.h"
#include "core/clue_table.h"
#include "lookup/engine.h"
#include "trie/binary_trie.h"
#include "trie/patricia_trie.h"

namespace cluert::check {

namespace detail {

template <typename A>
std::string describeMatch(const std::optional<trie::Match<A>>& m) {
  if (!m) return "(none)";
  return m->prefix.toString() + "->" + std::to_string(m->next_hop);
}

// Validates one entry against the freshly recomputed analysis. `engine`
// (may be null) built the entry's continuation, into `store`.
template <typename A>
void checkClueEntry(const core::ClueEntry<A>& e,
                    const trie::BinaryTrie<A>& t2,
                    const trie::BinaryTrie<A>* t1,
                    const lookup::LookupEngine<A>* engine,
                    const lookup::CandidateStore<A>& store, Report& report) {
  // Formatted only for a report: a clean table formats nothing.
  const auto clue = [&] { return e.clue.toString(); };
  const core::ClueAnalyzer<A> analyzer(t2, t1);
  const core::ClueAnalysis<A> a = t1 != nullptr
                                      ? analyzer.analyzeAdvance(e.clue)
                                      : analyzer.analyzeSimple(e.clue);

  const auto expected_fd = t2.longestMarkedAtOrAbove(e.clue);
  if (e.fd() != expected_fd) {
    report.add("ClueTable", "fd-mismatch",
               clue() + ": stored FD " + describeMatch<A>(e.fd()) +
                   " vs table " + describeMatch<A>(expected_fd));
  }

  const bool search_needed = a.kase == core::ClueCase::kSearch;
  if (e.ptr_empty && search_needed) {
    report.add("ClueTable", "claim1-empty-ptr",
               clue() + ": Ptr is empty but " +
                   std::to_string(a.candidates.size()) +
                   " C1 candidates extend the clue (Claim 1 violated)");
  }
  if (!e.ptr_empty && !search_needed) {
    report.add("ClueTable", "ptr-not-empty",
               clue() + ": Ptr set although no longer match can exist");
  }
  if (e.ptr_empty) return;

  // Ptr consistency: whatever continuation state the engine stored must
  // belong to this clue and this table. Only LogW keeps its state in `n`
  // alone, a window past the clue; without the engine, any entry might.
  const lookup::Continuation& c = e.cont;
  const bool logw =
      engine == nullptr || engine->method() == lookup::Method::kLogW;
  if (c.anchor == nullptr &&
      !(logw && static_cast<int>(c.n) > e.clue.length())) {
    report.add("ClueTable", "dangling-ptr",
               clue() +
                   ": Ptr is non-empty but carries no continuation state");
    return;
  }
  if (engine == nullptr) return;
  const lookup::Method method = engine->method();
  if (method == lookup::Method::kBinary ||
      method == lookup::Method::kMultiway) {
    if (!store.holds(c.anchor)) {
      report.add("ClueTable", "released-candidate-set",
                 clue() + ": the candidate set is not a live set of the "
                        "table's store");
      return;
    }
    if (c.n != a.candidates.size()) {
      report.add("ClueTable", "candidate-count-mismatch",
                 clue() + ": stored |P| = " + std::to_string(c.n) +
                     " vs recomputed " + std::to_string(a.candidates.size()));
    }
    report.merge(validateAgainst<A>(
        *static_cast<const lookup::SegmentTable<A>*>(c.anchor), a.candidates,
        e.clue.rangeLow()));
    return;
  }
  // The trie-walk and LogW continuations are a function of the clue (and
  // its candidates): rebuild it and compare.
  const lookup::Continuation want =
      engine->makeContinuation(e.clue, a.candidates, nullptr);
  if (c == want) return;
  switch (method) {
    case lookup::Method::kRegular:
      report.add("ClueTable", "dangling-trie-anchor",
                 clue() + ": Ptr names vertex " +
                     static_cast<const typename trie::BinaryTrie<A>::Node*>(
                         c.anchor)
                         ->prefix.toString() +
                     " which is not the clue's vertex");
      break;
    case lookup::Method::kPatricia:
      report.add("ClueTable", "dangling-patricia-anchor",
                 clue() + ": Ptr names Patricia node " +
                     static_cast<const typename trie::PatriciaTrie<A>::Node*>(
                         c.anchor)
                         ->prefix.toString() +
                     " which is not the clue's descend anchor");
      break;
    case lookup::Method::kStride:
      report.add("ClueTable", "dangling-stride-anchor",
                 clue() + ": Ptr names the node at depth " +
                     std::to_string(c.n) + ", the clue determines depth " +
                     std::to_string(want.n) + " or another node");
      break;
    default:
      report.add("ClueTable", "logw-window-mismatch",
                 clue() + ": stored longest candidate /" + std::to_string(c.n) +
                     " vs recomputed /" + std::to_string(want.n));
      break;
  }
}

// The self slots (core::kSelfClueBits) under the `depth`-bit string `bits`,
// re-derived by a descent of t2: `v` is that string's vertex (nullptr when
// absent) and `fd` the best match strictly above it. A slot below an absent
// vertex or at a leaf must hold the FD and an empty Ptr (cases 1 and 2);
// a case-3 slot gets every check of checkClueEntry, under Simple.
template <typename A>
void checkSelfSlots(const core::HashClueTable<A>& table,
                    const trie::BinaryTrie<A>& t2,
                    const typename trie::BinaryTrie<A>::Node* v, int depth,
                    std::size_t bits, std::optional<trie::Match<A>> fd,
                    const lookup::LookupEngine<A>* engine, Report& report) {
  if (v != nullptr && v->marked) fd = trie::Match<A>{v->prefix, v->next_hop};
  if (v != nullptr && depth < core::kSelfClueBits) {
    for (unsigned b = 0; b < 2; ++b) {
      checkSelfSlots(table, t2, t2.child(v, b), depth + 1, (bits << 1) | b, fd,
                     engine, report);
    }
    return;
  }
  const int below = core::kSelfClueBits - depth;
  for (std::size_t i = bits << below; i < (bits + 1) << below; ++i) {
    const core::ClueEntry<A>& e = table.selfSlotAt(i);
    if (!e.valid || !e.active || e.clue != core::selfClue<A>(i)) {
      report.add("ClueTable", "self-slot-misplaced",
                 "self slot " + std::to_string(i) + " holds " +
                     (e.valid ? e.clue.toString() : "no entry") + ", not " +
                     core::selfClue<A>(i).toString());
    } else if (v != nullptr && !v->isLeaf()) {
      checkClueEntry<A>(e, t2, nullptr, engine, table.candidates(), report);
    } else if (e.fd() != fd) {
      report.add("ClueTable", "fd-mismatch",
                 e.clue.toString() + ": stored FD " + describeMatch<A>(e.fd()) +
                     " vs table " + describeMatch<A>(fd));
    } else if (!e.ptr_empty) {
      report.add("ClueTable", "ptr-not-empty",
                 e.clue.toString() +
                     ": Ptr set although no longer match can exist");
    }
  }
}

}  // namespace detail

// Validates every active entry of a hash clue table, its self slots and the
// open-addressing structure itself. `t1` null selects Simple analysis;
// non-null, Advance against that sender table. `engine` (optional) is the
// engine that built the continuations, which enables the Ptr checks.
template <typename A>
Report validate(const core::HashClueTable<A>& table,
                const trie::BinaryTrie<A>& t2,
                std::type_identity_t<const trie::BinaryTrie<A>*> t1 = nullptr,
                const lookup::LookupEngine<A>* engine = nullptr) {
  Report report;
  std::size_t valid_slots = 0;
  for (std::size_t i = 0; i < table.bucketCount(); ++i) {
    const core::ClueEntry<A>& e = table.slotAt(i);
    if (!e.valid) continue;
    ++valid_slots;
    // Probe-chain integrity: walking from the entry's home slot must reach
    // slot i before any invalid slot ends the probe.
    bool reachable = false;
    std::size_t j = table.homeSlot(e.clue);
    for (std::size_t n = 0; n < table.bucketCount(); ++n) {
      if (j == i) {
        reachable = true;
        break;
      }
      if (!table.slotAt(j).valid) break;
      j = (j + 1) % table.bucketCount();
    }
    if (!reachable) {
      report.add("ClueTable", "probe-chain-broken",
                 e.clue.toString() + " in slot " + std::to_string(i) +
                     " is unreachable from home slot " +
                     std::to_string(table.homeSlot(e.clue)));
    }
    if (e.active) {
      detail::checkClueEntry<A>(e, t2, t1, engine, table.candidates(),
                                report);
    }
  }
  if (valid_slots != table.size()) {
    report.add("ClueTable", "size-mismatch",
               std::to_string(valid_slots) + " valid slots vs stored size " +
                   std::to_string(table.size()));
  }
  if (table.hasSelfClues()) {
    detail::checkSelfSlots<A>(table, t2, t2.root(), 0, 0, std::nullopt, engine,
                              report);
  }
  return report;
}

// Validates every active entry of an indexed clue table (§3.3.1 indexing
// technique). Slot placement is the sender's business (any slot may hold any
// clue), so only entry-level invariants apply.
template <typename A>
Report validate(const core::IndexedClueTable<A>& table,
                const trie::BinaryTrie<A>& t2,
                std::type_identity_t<const trie::BinaryTrie<A>*> t1 = nullptr,
                const lookup::LookupEngine<A>* engine = nullptr) {
  Report report;
  table.forEach([&](const core::ClueEntry<A>& e) {
    if (e.active) {
      detail::checkClueEntry<A>(e, t2, t1, engine, table.candidates(),
                                report);
    }
  });
  return report;
}

}  // namespace cluert::check
