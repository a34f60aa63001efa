// LookupEngine: the interface every base lookup method implements, including
// the hooks the distributed (clue-assisted) lookup of §3-§4 needs:
//
//   makeContinuation  — at clue-table construction time, build whatever
//                       per-clue state lets the method continue a search
//                       from the clue (the entry's Ptr, §3.1.1);
//   continueLookup    — at forwarding time, search only for matches strictly
//                       longer than the clue, using that state (§4);
//   walkBatch         — a batch's full lookups and continuations at once,
//                       the walk stage of CluePort's resolve. Patricia
//                       interleaves the walks so their cache misses
//                       overlap; the others run them one after another.
//
// The candidate list handed to makeContinuation encodes the clue mode:
// Simple passes every table prefix strictly extending the clue, Advance
// passes only the condition-C1 survivors (Definition 1) — the methods
// themselves are mode-agnostic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "ip/prefix.h"
#include "lookup/lookup_method.h"
#include "lookup/segment_table.h"
#include "mem/access_counter.h"
#include "trie/binary_trie.h"
#include "trie/patricia_trie.h"
#include "common/check.h"

namespace cluert::lookup {

// Per-clue continuation state. A tagged union in spirit: each engine fills
// in and reads only its own members. Stored inside the clue-table entry as
// the paper's Ptr field (plus, for the interval methods, the candidate
// records that share the entry's memory line, §4).
template <typename A>
struct Continuation {
  ip::Prefix<A> clue;

  // kRegular: vertex of the clue in the router's binary trie.
  const typename trie::BinaryTrie<A>::Node* trie_anchor = nullptr;

  // kPatricia: shallowest Patricia node whose prefix extends the clue.
  const typename trie::PatriciaTrie<A>::Node* patricia_anchor = nullptr;

  // kBinary / kMultiway: predecessor structure over the candidate set.
  std::shared_ptr<const SegmentTable<A>> candidates;
  // Candidate count (for the inline cache-line optimisation).
  std::uint32_t candidate_count = 0;

  // kLogW: candidate prefix lengths fall within (clue length, max_len].
  int max_len = 0;

  // kStride: deepest multibit-trie node the clue determines (type-erased:
  // only StrideTrieLookup reads it back) and its level.
  const void* stride_anchor = nullptr;
  int stride_depth = 0;
};

// One walk of a batch (LookupEngine::walkBatch): the full lookup of
// `address` when `cont` is null, else the continuation from `cont`. `cont`
// must stay valid and unchanged until walkBatch returns. The walk writes its
// answer to `match` (for a continuation: a match strictly longer than the
// clue, or nullopt) and, when the caller asks for them, its own charges, by
// region, to `accesses`.
template <typename A>
struct Walk {
  A address;
  const Continuation<A>* cont = nullptr;
  std::optional<trie::Match<A>> match;
  mem::LookupAccesses accesses{};
};

template <typename A>
class LookupEngine {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  virtual ~LookupEngine() = default;

  virtual Method method() const = 0;

  // Full (clue-less) best-matching-prefix lookup — the "Common" rows of §6.
  virtual std::optional<MatchT> lookup(const A& address,
                                       mem::AccessCounter& acc) const = 0;

  // Builds per-clue continuation state. `candidates` are the table prefixes
  // a continued search may still report (all strictly extend `clue`). Called
  // at clue-table construction / learning time (control plane).
  virtual Continuation<A> makeContinuation(
      const PrefixT& clue, std::span<const MatchT> candidates) const = 0;

  // Finds the best match strictly longer than the clue, or nullopt (caller
  // then uses the clue entry's FD). `neighbor`, when set, selects the
  // per-vertex Claim-1 pruning bits (Advance over trie-walk methods, §4).
  virtual std::optional<MatchT> continueLookup(
      const Continuation<A>& cont, const A& address,
      std::optional<NeighborIndex> neighbor,
      mem::AccessCounter& acc) const = 0;

  // Runs every walk of `walks`: the same results and the same `acc` charges
  // as one lookup() or continueLookup() per walk (`neighbor` as in
  // continueLookup; full lookups ignore it). With `per_walk`, each walk's
  // own charges also go to its `accesses`; without, `accesses` is not
  // written. The default runs the walks one after another; Patricia
  // interleaves them.
  virtual void walkBatch(std::span<Walk<A>> walks,
                         std::optional<NeighborIndex> neighbor, bool per_walk,
                         mem::AccessCounter& acc) const {
    const auto walk = [&](const Walk<A>& w, mem::AccessCounter& charged) {
      return w.cont == nullptr
                 ? lookup(w.address, charged)
                 : continueLookup(*w.cont, w.address, neighbor, charged);
    };
    if (!per_walk) {
      for (Walk<A>& w : walks) w.match = walk(w, acc);
      return;
    }
    for (Walk<A>& w : walks) {
      mem::AccessCounter own;
      w.match = walk(w, own);
      w.accesses = mem::lookupDelta(own, mem::AccessCounter{});
      acc += own;
    }
  }
};

}  // namespace cluert::lookup
