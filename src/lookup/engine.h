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
#include <unordered_map>
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

// Per-clue continuation state: the paper's Ptr field (§3.1.1), one anchor
// word and one 32-bit integer, which each engine reads in its own way:
//   Regular, Patricia  the anchor is the trie node the walk starts at;
//   Stride             the anchor is a multibit-trie node, `n` its depth;
//   LogW               no anchor, `n` is the longest candidate length;
//   Binary, Multiway   the anchor is the candidate set (a SegmentTable in the
//                      clue table's CandidateStore), `n` its size.
// Trivially copyable, so a clue entry holding one is too, and a walk can
// carry it by value.
struct Continuation {
  const void* anchor = nullptr;
  std::uint32_t n = 0;

  friend bool operator==(const Continuation&, const Continuation&) = default;
};

// The candidate sets (§4) that Binary and Multiway continuations anchor,
// owned by the one clue table whose entries hold those continuations (hash,
// indexed, multi-neighbour or MPLS label table). Overwriting an entry
// releases its set; a released set stays readable, and its storage is reused
// only after the owner calls reclaim(), at a point where no copy of the old
// entry (a §3.5 cache slot, a queued walk) can still reach it. An entry built
// into a store goes into one slot of that store's table.
template <typename A>
class CandidateStore {
 public:
  // Takes ownership of `set` and returns the anchor continuations carry.
  const SegmentTable<A>* add(SegmentTable<A> set) {
    std::unique_ptr<SegmentTable<A>> slot;
    if (free_.empty()) {
      slot = std::make_unique<SegmentTable<A>>(std::move(set));
    } else {
      slot = std::move(free_.back());
      free_.pop_back();
      *slot = std::move(set);
    }
    const SegmentTable<A>* anchor = slot.get();
    live_.emplace(anchor, std::move(slot));
    return anchor;
  }

  // Releases the set `anchor` names. A no-op for an anchor this store does
  // not hold: the other methods' anchors are trie nodes.
  void release(const void* anchor) {
    if (live_.empty() || anchor == nullptr) return;
    const auto it = live_.find(anchor);
    if (it == live_.end()) return;
    released_.push_back(std::move(it->second));
    live_.erase(it);
  }

  // Makes the storage of every released set reusable by add(). The data
  // plane calls it once per resolve, so the common case, nothing released,
  // is one compare and the move stays out of line.
  void reclaim() {
    if (!released_.empty()) reclaimReleased();
  }

  // Whether `anchor` names a set of this store that no release has retired.
  bool holds(const void* anchor) const { return live_.count(anchor) != 0; }

 private:
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  void reclaimReleased() {
    for (auto& set : released_) free_.push_back(std::move(set));
    released_.clear();
  }

  std::unordered_map<const void*, std::unique_ptr<SegmentTable<A>>> live_;
  std::vector<std::unique_ptr<SegmentTable<A>>> released_;
  std::vector<std::unique_ptr<SegmentTable<A>>> free_;
};

// The clue length of a walk that is a full lookup.
inline constexpr int kFullLookup = -1;

// One walk of a batch (LookupEngine::walkBatch): the full lookup of
// `address` when `clue_length` is kFullLookup, else the continuation `cont`
// below a clue of `clue_length` bits. Both ride by value, so the walk reads
// nothing of the clue entry it came from. The walk writes its answer to
// `match` (for a continuation: a match strictly longer than the clue, or
// nullopt) and, when the caller asks for them, its own charges, by region,
// to `accesses`. `prune` lets a continuation stop at the batch's Claim-1
// bits: set it for an entry Claim 1 governs (a carried clue's, under
// Advance); a full lookup and a self-clue's continuation (a Simple entry,
// core::kSelfClueBits) leave it clear and walk on.
template <typename A>
struct Walk {
  A address;
  int clue_length = kFullLookup;
  Continuation cont;
  std::optional<trie::Match<A>> match;
  mem::LookupAccesses accesses{};
  bool prune = false;
};

static_assert(sizeof(Walk<ip::Ip4Addr>) == 56,
              "the prune flag rides in the record's tail padding");

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
  // a continued search may still report (all strictly extend `clue`).
  // Binary and Multiway keep them, as a set in `store`, which must then be
  // non-null; the other methods read neither. Called at clue-table
  // construction / learning time (control plane).
  virtual Continuation makeContinuation(const PrefixT& clue,
                                        std::span<const MatchT> candidates,
                                        CandidateStore<A>* store) const = 0;

  // Finds the best match strictly longer than the clue (`clue_length` bits
  // long), or nullopt (caller then uses the clue entry's FD). `neighbor`,
  // when set, selects the per-vertex Claim-1 pruning bits (Advance over
  // trie-walk methods, §4).
  virtual std::optional<MatchT> continueLookup(
      const Continuation& cont, int clue_length, const A& address,
      std::optional<NeighborIndex> neighbor,
      mem::AccessCounter& acc) const = 0;

  // Runs every walk of `walks`: the same results and the same `acc` charges
  // as one lookup() or continueLookup() per walk (`neighbor` as in
  // continueLookup, for the walks with `prune` set; the others walk without
  // it). With `per_walk`, each walk's own charges also go to its `accesses`;
  // without, `accesses` is not written. The default runs the walks one
  // after another; Patricia interleaves them.
  //
  // Each call's answer goes straight into its walk's slot, and a walk's own
  // charges reach `acc` region by region: a merged temporary or a 16-byte
  // copy of the counter the call just wrote would wait for the call's
  // narrower stores to retire (CluePort::resolve has the rule).
  virtual void walkBatch(std::span<Walk<A>> walks,
                         std::optional<NeighborIndex> neighbor, bool per_walk,
                         mem::AccessCounter& acc) const {
    const auto walk = [&](Walk<A>& w, mem::AccessCounter& charged) {
      if (w.clue_length == kFullLookup) {
        w.match = lookup(w.address, charged);
      } else {
        w.match = continueLookup(w.cont, w.clue_length, w.address,
                                 w.prune ? neighbor : std::nullopt, charged);
      }
    };
    if (!per_walk) {
      for (Walk<A>& w : walks) walk(w, acc);
      return;
    }
    for (Walk<A>& w : walks) {
      mem::AccessCounter own;
      walk(w, own);
      w.accesses = mem::lookupDelta(own, mem::AccessCounter{});
      own.forEachNonZero(
          [&](mem::Region r, std::uint64_t n) { acc.add(r, n); });
    }
  }
};

}  // namespace cluert::lookup
