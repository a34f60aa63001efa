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
// Ptr/continuation (§3.1.1 "Hash table fields"). `ptr_empty` true means the
// FD is the final decision; false means a case-3 search continues via
// `cont`. `valid=false` marks a never-used slot (or an inactivated clue,
// §3.4 "a clue is never removed ... special marking for clues that are not
// valid").
template <typename A>
struct ClueEntry {
  ip::Prefix<A> clue;
  bool valid = false;
  // §3.4: "insisting that a clue is never removed from a clues table (this
  // requires a special marking for clues that are not valid)". An inactive
  // entry keeps its slot (hash probe chains stay intact) but is treated as
  // a miss until recomputed.
  bool active = true;
  std::optional<trie::Match<A>> fd;
  bool ptr_empty = true;
  lookup::Continuation<A> cont;
  // §3.1.2 classification the entry was built under, kept for observability:
  // ptr_empty alone cannot distinguish case 1 (vertex absent) from case 2
  // (Claim 1 / leaf). Not part of the wire entry (§3.5 sizing ignores it).
  ClueCase kase = ClueCase::kAbsent;
  // Case 2 via Claim-1 pruning specifically (see ClueAnalysis).
  bool claim1_pruned = false;
};

// Approximate data-plane footprint of one entry (§3.5 sizes entries at three
// 4-byte fields: clue value, FD, Ptr).
inline constexpr std::size_t kClueEntryWireBytes = 12;

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

  // Inserts or overwrites. Control-plane operation (learning §3.3.1 does the
  // fill-in off the fast path); charges no accesses. Returns false when the
  // table is full.
  bool insert(EntryT entry) {
    CLUERT_CHECK(entry.valid) << "inserting an invalid clue entry";
    if (size_ * 2 >= slots_.size()) {
      if (!grow()) return false;
    }
    const PrefixT clue = entry.clue;
    const std::size_t before = size_;
    if (!place(std::move(entry))) return false;
    if (size_ != before) keys_.push_back(clue);
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

  std::size_t size() const { return size_; }
  std::size_t bucketCount() const { return slots_.size(); }

  // Raw slot access (valid or not), for the src/check/ probe-chain
  // validator. `i` must be < bucketCount().
  const EntryT& slotAt(std::size_t i) const { return slots_[i]; }

  // Approximate memory footprint at the paper's §3.5 entry size.
  std::size_t wireBytes() const { return slots_.size() * kClueEntryWireBytes; }

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
  bool place(EntryT entry) {
    const std::size_t h = hashOf(entry.clue);
    std::size_t i = h & (slots_.size() - 1);
    for (std::size_t n = 0; n < slots_.size(); ++n) {
      EntryT& e = slots_[i];
      if (!e.valid) {
        e = std::move(entry);
        writeTag(i, lookup::swarTag(h));
        ++size_;
        return true;
      }
      if (e.clue == entry.clue) {
        e = std::move(entry);
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
    for (EntryT& e : old) {
      if (e.valid && !place(std::move(e))) return false;
    }
    return true;
  }

  // Sorts the keys appended since the last lookup and merges them into the
  // sorted run ahead of them.
  void mergeKeys() {
    if (sorted_ == keys_.size()) return;
    const auto mid = keys_.begin() + static_cast<std::ptrdiff_t>(sorted_);
    std::sort(mid, keys_.end());
    std::inplace_merge(keys_.begin(), mid, keys_.end());
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
  bool put(std::uint16_t index, EntryT entry) {
    if (index >= slots_.size()) return false;
    slots_[index] = std::move(entry);
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

  std::size_t capacity() const { return slots_.size(); }

 private:
  mem::HugePageVector<EntryT> slots_;  // as HashClueTable::slots_
};

}  // namespace cluert::core
