// The clues table (§3.1.1, §3.3): maps each clue a neighbor may send to its
// precomputed {FD, Ptr} pair.
//
// Two data-plane organisations, matching §3.3.1:
//  * HashClueTable    — "learning the hash table": open-addressed, the clue
//                       value is stored in the entry so a probe verifies it
//                       ("a check that can be done ... in one assembly
//                       instruction"); each probe costs one memory access.
//  * IndexedClueTable — "indexing technique": the sender enumerates its
//                       clues and ships a 16-bit index; exactly one access,
//                       no hash function, inherently robust to stale indices
//                       because the stored clue is still verified.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/clue_analyzer.h"
#include "ip/prefix.h"
#include "lookup/engine.h"
#include "lookup/swar_probe.h"
#include "mem/access_counter.h"
#include "mem/huge_pages.h"
#include "common/check.h"

namespace cluert::core {

// Precomputed probe start for HashClueTable: the home slot plus the 7-bit
// SWAR tag, both derived from one hash evaluation. The batched pipeline
// computes this once in its prepare phase, prefetches the slot AND the tag
// word, and resumes the probe from it in the resolve phase without hashing
// again. `slot` is only meaningful for the bucketCount() it was computed
// under (the caller re-derives on growth, see CluePort::probe).
struct ClueProbeHint {
  std::uint32_t slot = 0;
  std::uint8_t tag = 0;
};

// One clue table entry: the stored clue (for verification), the FD and the
// Ptr/continuation (§3.1.1 "Hash table fields"), packed to the size §3.5
// gives an entry and §4's "same cache line": 32 bytes for IPv4, so a probe
// reads one line, and 48 for IPv6. Trivially copyable: the §3.5 cache and a
// batch's queued walks copy what they need of it.
//
//  * The FD is a next hop and a length (kNoFd: no FD); its prefix is the
//    clue's first `fd_len` bits, since the FD is the best match at or above
//    the clue. A default-route FD is length 0, not kNoFd.
//  * One flags byte: `valid=false` marks a never-used slot; `active` is the
//    §3.4 marking ("a clue is never removed from a clues table (this
//    requires a special marking for clues that are not valid)") — an
//    inactive entry keeps its slot, so hash probe chains stay intact, but
//    is treated as a miss until recomputed; `ptr_empty` true means the FD is
//    the final decision, false that a case-3 search continues via `cont`;
//    `kase` and `claim1_pruned` are observability only: ptr_empty alone
//    cannot tell case 1 (vertex absent) from case 2 (Claim 1 / leaf), and
//    claim1_pruned marks a case 2 owed to Claim-1 pruning (see
//    ClueAnalysis). Neither is part of §3.5's wire entry.
//  * `cont` is the engine's continuation (lookup::Continuation); a Binary or
//    Multiway one anchors a candidate set in the owning table's store.
template <typename A>
struct ClueEntry {
  static constexpr std::uint8_t kNoFd = 0xFF;

  ip::Prefix<A> clue;
  NextHop fd_hop = kNoNextHop;
  std::uint8_t fd_len = kNoFd;
  bool valid : 1 = false;
  bool active : 1 = true;
  bool ptr_empty : 1 = true;
  ClueCase kase : 2 = ClueCase::kAbsent;
  bool claim1_pruned : 1 = false;
  lookup::Continuation cont;

  std::optional<trie::Match<A>> fd() const {
    if (fd_len == kNoFd) return std::nullopt;
    return trie::Match<A>{clue.truncated(fd_len), fd_hop};
  }

  // Stores `m`, whose prefix must be at or above the clue (set the clue
  // first).
  void setFd(const std::optional<trie::Match<A>>& m) {
    if (!m) {
      fd_hop = kNoNextHop;
      fd_len = kNoFd;
      return;
    }
    CLUERT_DCHECK(m->prefix.isPrefixOf(clue))
        << "FD " << m->prefix.toString() << " is not at or above clue "
        << clue.toString();
    fd_hop = m->next_hop;
    fd_len = static_cast<std::uint8_t>(m->prefix.length());
  }
};

static_assert(std::is_trivially_copyable_v<ClueEntry<ip::Ip4Addr>>);
static_assert(std::is_trivially_copyable_v<ClueEntry<ip::Ip6Addr>>);
static_assert(sizeof(ClueEntry<ip::Ip4Addr>) <= 32 &&
                  64 % sizeof(ClueEntry<ip::Ip4Addr>) == 0,
              "an IPv4 probe reads one cache line");
static_assert(sizeof(ClueEntry<ip::Ip6Addr>) <= 48);

// Approximate data-plane footprint of one entry (§3.5 sizes entries at three
// 4-byte fields: clue value, FD, Ptr).
inline constexpr std::size_t kClueEntryWireBytes = 12;

// Self-clues (§3.1, §5.3(b)): a packet that arrives without a clue takes the
// first kSelfClueBits bits of its own destination as its clue. Simple
// resolution is correct for any clue that is a prefix of the destination,
// so one Simple entry per /16, indexed by those bits, stands in for the walk
// from the root (HashClueTable's self slots).
inline constexpr int kSelfClueBits = 16;
inline constexpr std::size_t kSelfClueSlots = std::size_t{1}
                                              << kSelfClueBits;

inline std::size_t selfClueIndex(const ip::Ip4Addr& dest) {
  return dest.value() >> (ip::Ip4Addr::kBits - kSelfClueBits);
}
inline std::size_t selfClueIndex(const ip::Ip6Addr& dest) {
  return static_cast<std::size_t>(dest.hi() >> (64 - kSelfClueBits));
}

// The /16 clue of self slot `i`, the inverse of selfClueIndex.
template <typename A>
ip::Prefix<A> selfClue(std::size_t i) {
  if constexpr (std::is_same_v<A, ip::Ip4Addr>) {
    return ip::Prefix<A>(
        A(static_cast<std::uint32_t>(i << (A::kBits - kSelfClueBits))),
        kSelfClueBits);
  } else {
    return ip::Prefix<A>(A(std::uint64_t{i} << (64 - kSelfClueBits), 0),
                         kSelfClueBits);
  }
}

// ---------------------------------------------------------------------------
// HashClueTable
// ---------------------------------------------------------------------------
template <typename A>
class HashClueTable {
 public:
  using PrefixT = ip::Prefix<A>;
  using EntryT = ClueEntry<A>;

  // `expected` sizes the bucket array; load factor is kept near 25% so the
  // probe count stays close to the single access the paper assumes from a
  // near-perfect hash ("a perfect and efficient hashing function is
  // feasible" since the table changes rarely).
  explicit HashClueTable(std::size_t expected)
      : slots_(bucketCountFor(expected)),
        tags_(bucketCountFor(expected) + lookup::kSwarLanes, 0) {
    keys_.reserve(expected);
  }

  // Empties the table for a full rebuild over `expected` clues, as a fresh
  // HashClueTable(expected) would be, but keeps the self slots, stale until
  // their owner rebuilds what the new receiver table changed
  // (core::rebuildSelfCluesAfterReset) or every slot: a table rebuilt often
  // (a router of a few dozen routes rebuilds on most deltas) then rewrites
  // a few slots instead of mapping, constructing and filling 2 MiB.
  void reset(std::size_t expected) {
    mem::HugePageVector<EntryT> self = std::move(self_);
    *this = HashClueTable(expected);
    self_ = std::move(self);
    self_stale_ = !self_.empty();
  }

  // The slot a probe for `clue` starts at (what the src/check/ probe-chain
  // validator measures displacement from).
  std::size_t homeSlot(const PrefixT& clue) const { return slotOf(clue); }

  // Home slot + SWAR tag from one hash evaluation — what the batched
  // prepare phase stores per packet (see ClueProbeHint).
  ClueProbeHint hintFor(const PrefixT& clue) const {
    const std::size_t h = hashOf(clue);
    return ClueProbeHint{static_cast<std::uint32_t>(h & (slots_.size() - 1)),
                         lookup::swarTag(h)};
  }

  // Hints the hardware to pull a home slot toward the cache. Free in the
  // paper's accounting model (a prefetch is not a *dependent* reference —
  // it overlaps with other packets' work); the batched pipeline issues one
  // per packet across a batch before resolving any of them, which is where
  // the memory-level parallelism of a modern CPU comes from.
  void prefetchSlot(std::size_t slot) const { __builtin_prefetch(&slots_[slot]); }
  // The tag word a probe from `slot` reads first; one byte per slot, so the
  // whole 8-slot window rides one line.
  void prefetchTags(std::size_t slot) const { __builtin_prefetch(&tags_[slot]); }

  // Probes for `clue`. Returns nullptr on miss (the first never-used slot
  // ends the probe chain). Accounting: one kClueTable access per *entry*
  // actually compared, plus one for the empty slot that terminates a miss —
  // the SWAR tag word itself is free, like the §3.5 fast-memory cache (it
  // is 8 bytes per 8 slots, resident next to the probe window), so a chain
  // of tag-filtered collisions costs ~1 access where a plain open probe
  // charged one per slot.
  const EntryT* find(const PrefixT& clue, mem::AccessCounter& acc) const {
    return findFrom(hintFor(clue), clue, acc);
  }

  // Same probe, resumed from a precomputed hintFor(clue).
  const EntryT* findFrom(ClueProbeHint hint, const PrefixT& clue,
                         mem::AccessCounter& acc) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hint.slot;
    for (std::size_t probed = 0; probed < slots_.size();
         probed += lookup::kSwarLanes) {
      const std::uint64_t word = lookup::swarLoad(&tags_[i]);
      const std::uint64_t empty = lookup::swarZeroMask(word);
      std::uint64_t match = lookup::swarMatchMask(word, hint.tag);
      // Candidates past the first empty slot belong to other probe chains
      // (this clue's insert would have stopped at the empty slot).
      if (empty != 0) match &= lookup::swarBelowLowest(empty);
      while (match != 0) {
        const EntryT& e = slots_[(i + lookup::swarLane(match)) & mask];
        acc.add(mem::Region::kClueTable);
        CLUERT_DCHECK(e.valid) << "live tag over an invalid slot";
        if (e.clue == clue) return &e;
        match &= match - 1;  // one flag bit per lane: drops the lowest lane
      }
      if (empty != 0) {
        acc.add(mem::Region::kClueTable);  // the empty slot ending the chain
        return nullptr;
      }
      i = (i + lookup::kSwarLanes) & mask;
    }
    return nullptr;
  }

  // Inserts or overwrites; an overwrite releases the replaced entry's
  // candidate set (see candidates()). Control-plane operation (learning
  // §3.3.1 does the fill-in off the fast path); charges no accesses. Returns
  // false when the table is full.
  bool insert(EntryT entry) {
    CLUERT_CHECK(entry.valid) << "inserting an invalid clue entry";
    if (size_ * 2 >= slots_.size()) {
      if (!grow()) return false;
    }
    const std::size_t before = size_;
    if (!place(entry)) return false;
    if (size_ != before) keys_.push_back(entry.clue);
    return true;
  }

  // Control-plane access to an entry (no accesses charged); nullptr on miss.
  EntryT* findMutable(const PrefixT& clue) {
    std::size_t i = slotOf(clue);
    for (std::size_t n = 0; n < slots_.size(); ++n) {
      EntryT& e = slots_[i];
      if (!e.valid) return nullptr;
      if (e.clue == clue) return &e;
      i = (i + 1) % slots_.size();
    }
    return nullptr;
  }

  // §3.4 marking: deactivate/reactivate without disturbing probe chains.
  bool setActive(const PrefixT& clue, bool active) {
    EntryT* e = findMutable(clue);
    if (e == nullptr) return false;
    e->active = active;
    return true;
  }

  // Overwrites `slot`, an entry of this table (from findMutable,
  // forEachRelated or forEachMutable), with `entry` for the same clue, and
  // releases the replaced entry's candidate set.
  void assign(EntryT& slot, const EntryT& entry) {
    CLUERT_DCHECK(slot.clue == entry.clue)
        << "assign moves " << slot.clue.toString() << " off its probe chain";
    candidates_.release(slot.cont.anchor);
    slot = entry;
  }

  // The store of the candidate sets this table's Binary and Multiway
  // continuations anchor: build an entry into it (buildClueEntry's `store`)
  // before inserting the entry here. The owner calls its reclaim() where no
  // copy of a replaced entry (a §3.5 cache slot, a queued walk) can still
  // reach the released sets.
  lookup::CandidateStore<A>& candidates() { return candidates_; }
  const lookup::CandidateStore<A>& candidates() const { return candidates_; }

  std::size_t size() const { return size_; }
  std::size_t bucketCount() const { return slots_.size(); }

  // Raw slot access (valid or not), for the src/check/ probe-chain
  // validator. `i` must be < bucketCount().
  const EntryT& slotAt(std::size_t i) const { return slots_[i]; }

  // Approximate memory footprint at the paper's §3.5 entry size.
  std::size_t wireBytes() const { return slots_.size() * kClueEntryWireBytes; }

  // -- self-clue slots (kSelfClueBits) ---------------------------------------
  //
  // kSelfClueSlots Simple entries, slot i for the /16 selfClue<A>(i), kept
  // apart from the hashed entries: a sender's /16 clue is an Advance entry
  // under Advance, and Claim 1 holds only for the sender's own BMP. The
  // owner of the table builds them (core::buildSelfClues) and keeps them
  // current through core::followDelta; until then the table has none and a
  // clue-less packet walks from the root. Their candidate sets live in
  // candidates(), like the hashed entries'.
  bool hasSelfClues() const { return !self_.empty() && !self_stale_; }
  // Whether the table holds self slots at all, current or kept stale by
  // reset().
  bool keepsSelfSlots() const { return !self_.empty(); }

  // The self slot a clue-less packet to `dest` probes: one access, always,
  // as an indexed probe costs (the caller charges it). Requires
  // hasSelfClues().
  const EntryT* selfSlotOf(const A& dest) const {
    return &self_[selfClueIndex(dest)];
  }

  // Control plane: writes self slots [first, last) with `entry`, each under
  // its own clue, selfClue<A>(i), and releases the candidate set of every
  // entry it replaces, except while the slots are stale: the sets of the
  // slots reset() kept went with the old store, and releasing one could
  // free a new set allocated at the same address. So a rebuild after
  // reset() writes each slot at most once, and then marks the slots
  // current. The copy and the clue are stored slot by slot, never staged in
  // a per-slot temporary: a 32-byte copy of one just written field by field
  // would wait for those stores to retire, every slot.
  void assignSelf(std::size_t first, std::size_t last, const EntryT& entry) {
    if (self_.empty()) self_.assign(kSelfClueSlots, EntryT{});
    for (std::size_t i = first; i < last; ++i) {
      if (!self_stale_) candidates_.release(self_[i].cont.anchor);
      self_[i] = entry;
      self_[i].clue = selfClue<A>(i);
    }
  }
  // The owner has rebuilt every slot that reset() left stale.
  void markSelfCluesCurrent() { self_stale_ = false; }
  // `i` must be < kSelfClueSlots, with hasSelfClues().
  const EntryT& selfSlotAt(std::size_t i) const { return self_[i]; }

  // The self slots' footprint in memory: 2 MiB for IPv4, 3 MiB for IPv6.
  std::size_t selfBytes() const { return self_.size() * sizeof(EntryT); }

  void forEach(const std::function<void(const EntryT&)>& fn) const {
    for (const EntryT& e : slots_) {
      if (e.valid) fn(e);
    }
  }

  void forEachMutable(const std::function<void(EntryT&)>& fn) {
    for (EntryT& e : slots_) {
      if (e.valid) fn(e);
    }
  }

  // Visits each entry related to `p` — one is a prefix of the other —
  // once, in O(p.length() + related entries · log size) rather than a scan
  // of every slot: ancestors-or-self by one findMutable per length from 0
  // to p.length(), strict descendants from the sorted key index, which
  // holds them as the run [(p.addr(), p.length() + 1), p.rangeHigh()].
  // Inactive entries are visited too: they are still valid slots.
  template <typename Fn>
  void forEachRelated(const PrefixT& p, Fn&& fn) {
    for (int len = 0; len <= p.length(); ++len) {
      if (EntryT* e = findMutable(p.truncated(len))) fn(*e);
    }
    if (p.length() == PrefixT::kBits) return;
    mergeKeys();
    const A high = p.rangeHigh();
    for (auto it = std::lower_bound(keys_.begin(), keys_.end(),
                                    PrefixT(p.addr(), p.length() + 1));
         it != keys_.end() && it->addr() <= high; ++it) {
      EntryT* e = findMutable(*it);
      CLUERT_DCHECK(e != nullptr) << "indexed key " << it->toString()
                                  << " left the table";
      fn(*e);
    }
  }

 private:
  static std::size_t bucketCountFor(std::size_t expected) {
    std::size_t n = 16;
    while (n < expected * 4) n <<= 1;
    return n;
  }

  std::size_t hashOf(const PrefixT& clue) const {
    return std::hash<PrefixT>{}(clue);
  }

  std::size_t slotOf(const PrefixT& clue) const {
    return hashOf(clue) & (slots_.size() - 1);
  }

  // Tag writes mirror the first SWAR window past the end of the array so a
  // probe word loaded near the wrap point sees the wrapped slots (same trick
  // as F14/Swiss tables' cloned control bytes).
  void writeTag(std::size_t i, std::uint8_t tag) {
    tags_[i] = tag;
    if (i < lookup::kSwarLanes) tags_[slots_.size() + i] = tag;
  }

  // Stores `entry` in its probe chain: a fresh slot (size_ grows) or the
  // one already holding its clue. Does not grow the table and does not
  // touch the key index. False when the table is full.
  bool place(const EntryT& entry) {
    const std::size_t h = hashOf(entry.clue);
    std::size_t i = h & (slots_.size() - 1);
    for (std::size_t n = 0; n < slots_.size(); ++n) {
      EntryT& e = slots_[i];
      if (!e.valid) {
        e = entry;
        writeTag(i, lookup::swarTag(h));
        ++size_;
        return true;
      }
      if (e.clue == entry.clue) {
        candidates_.release(e.cont.anchor);
        e = entry;
        return true;
      }
      i = (i + 1) % slots_.size();
    }
    return false;
  }

  // Rehashes every entry into twice the slots. The keys are already in the
  // index, so they are placed, not inserted.
  bool grow() {
    mem::HugePageVector<EntryT> old = std::move(slots_);
    slots_.assign(old.size() * 2, EntryT{});
    tags_.assign(slots_.size() + lookup::kSwarLanes, 0);
    size_ = 0;
    for (const EntryT& e : old) {
      if (e.valid && !place(e)) return false;
    }
    return true;
  }

  // Sorts the keys appended since the last lookup and merges them into the
  // sorted run ahead of them. Each step runs only when needed: a table built
  // over a Fib's prefixes receives them in Prefix order already, so the
  // first lookup after the build costs one is_sorted pass. Keys are unique,
  // so an appended run that starts past the sorted run's last key follows
  // it as it is.
  void mergeKeys() {
    if (sorted_ == keys_.size()) return;
    const auto mid = keys_.begin() + static_cast<std::ptrdiff_t>(sorted_);
    if (!std::is_sorted(mid, keys_.end())) std::sort(mid, keys_.end());
    if (sorted_ != 0 && *mid < *std::prev(mid)) {
      std::inplace_merge(keys_.begin(), mid, keys_.end());
    }
    sorted_ = keys_.size();
  }

  // On 2 MiB pages once it reaches 2 MiB (mem/huge_pages.h): at internet
  // scale every probe would otherwise miss the TLB too.
  mem::HugePageVector<EntryT> slots_;
  // One byte per slot (+ kSwarLanes mirrored), 0 = never used; see
  // lookup/swar_probe.h for the encoding.
  std::vector<std::uint8_t> tags_;
  std::size_t size_ = 0;
  // Every key the table has held, for forEachRelated: keys never leave a
  // hash table (§3.4 marks them inactive instead), so the index only grows.
  // keys_[0, sorted_) is in Prefix order; insert appends past it.
  std::vector<PrefixT> keys_;
  std::size_t sorted_ = 0;
  // The self slots, empty until the first build; on 2 MiB pages. Stale:
  // kept by reset(), not yet rewritten.
  mem::HugePageVector<EntryT> self_;
  bool self_stale_ = false;
  lookup::CandidateStore<A> candidates_;
};

// ---------------------------------------------------------------------------
// IndexedClueTable
// ---------------------------------------------------------------------------
template <typename A>
class IndexedClueTable {
 public:
  using PrefixT = ip::Prefix<A>;
  using EntryT = ClueEntry<A>;

  explicit IndexedClueTable(std::size_t capacity) : slots_(capacity) {}

  // Batched-pipeline hint; see HashClueTable::prefetch.
  void prefetch(std::uint16_t index) const {
    if (index < slots_.size()) __builtin_prefetch(&slots_[index]);
  }

  // One access, always. Returns the slot; the caller must verify
  // `entry->valid && entry->clue == clue` (the §3.3.1 robustness check) and
  // treat a mismatch as a miss-and-relearn.
  const EntryT* at(std::uint16_t index, mem::AccessCounter& acc) const {
    acc.add(mem::Region::kClueTable);
    if (index >= slots_.size()) return nullptr;
    return &slots_[index];
  }

  // Overwrites slot `index` ("R2 updates this entry with s, the new clue,
  // overwriting whatever was there before"). An out-of-range index — a
  // corrupted or stale header — is ignored; the packet was already routed
  // by the miss path. Returns whether the slot was written.
  // The replaced entry's candidate set is released (see
  // HashClueTable::candidates()).
  bool put(std::uint16_t index, const EntryT& entry) {
    if (index >= slots_.size()) return false;
    candidates_.release(slots_[index].cont.anchor);
    slots_[index] = entry;
    return true;
  }

  // §3.4 marking by clue. A scan, not a probe: slots are keyed by the
  // sender's index, and a clue learned under a wrong index can sit in more
  // than one of them.
  bool setActive(const PrefixT& clue, bool active) {
    bool found = false;
    for (EntryT& e : slots_) {
      if (e.valid && e.clue == clue) {
        e.active = active;
        found = true;
      }
    }
    return found;
  }

  void forEach(const std::function<void(const EntryT&)>& fn) const {
    for (const EntryT& e : slots_) {
      if (e.valid) fn(e);
    }
  }

  void forEachMutable(const std::function<void(EntryT&)>& fn) {
    for (EntryT& e : slots_) {
      if (e.valid) fn(e);
    }
  }

  // As HashClueTable's.
  void assign(EntryT& slot, const EntryT& entry) {
    candidates_.release(slot.cont.anchor);
    slot = entry;
  }
  lookup::CandidateStore<A>& candidates() { return candidates_; }
  const lookup::CandidateStore<A>& candidates() const { return candidates_; }

  std::size_t capacity() const { return slots_.size(); }

 private:
  mem::HugePageVector<EntryT> slots_;  // as HashClueTable::slots_
  lookup::CandidateStore<A> candidates_;
};

}  // namespace cluert::core
