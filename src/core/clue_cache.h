// §3.5: "parts of the clues hash table can be cached and placed into the
// cache only if touched recently" — a small direct-mapped cache of clue
// entries held in fast (on-chip) memory. A cache hit serves the entry
// without touching DRAM at all, so the clue-table access itself disappears;
// a miss costs the normal probe plus a (free, off-path) fill.
//
// Staleness discipline: every slot is stamped with the generation it was
// filled under. Route updates (CluePort::refreshLocal/refreshNeighbor) and
// table-version swaps (CluePort::bindVersion) bump the generation, which
// invalidates the whole cache in O(1) — no slot walk on the update path, and
// a stale FD can never be served across a swap because the stamp comparison
// happens on every lookup.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/clue_table.h"

namespace cluert::core {

template <typename A>
class ClueCache {
 public:
  using PrefixT = ip::Prefix<A>;
  using EntryT = ClueEntry<A>;

  // Fast memory is small by definition (§3.5 budgets on-chip bytes, not
  // DRAM); a request beyond this many slots is clamped rather than honoured.
  // Also the overflow guard: rounding huge capacities to a power of two must
  // neither wrap nor attempt an absurd allocation.
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 16;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    double hitRate() const {
      const auto total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  // `capacity` is rounded up to a power of two and clamped to kMaxSlots;
  // 0 disables the cache (capacity() then reports 0, matching enabled()).
  explicit ClueCache(std::size_t capacity) {
    if (capacity == 0) return;
    const std::size_t n =
        capacity >= kMaxSlots ? kMaxSlots : std::bit_ceil(capacity);
    slots_.resize(n);
  }

  bool enabled() const { return !slots_.empty(); }
  std::size_t capacity() const { return slots_.size(); }

  // Fast-memory probe: charges nothing. Returns nullptr on miss; a slot
  // filled under an older generation is a miss (stale by definition).
  const EntryT* lookup(const PrefixT& clue) {
    if (slots_.empty()) return nullptr;
    Slot& s = slots_[slotOf(clue)];
    if (s.generation == generation_ && s.entry.valid && s.entry.clue == clue) {
      ++stats_.hits;
      return &s.entry;
    }
    ++stats_.misses;
    return nullptr;
  }

  // Installs (a copy of) the entry after a backing-table hit, stamped with
  // the current generation.
  void fill(const EntryT& entry) {
    if (slots_.empty()) return;
    Slot& s = slots_[slotOf(entry.clue)];
    s.generation = generation_;
    s.entry = entry;
  }

  // Drops everything — called when the backing table is recomputed (route
  // updates), the coarse but always-safe policy. O(1): the generation bump
  // orphans every filled slot.
  void clear() { ++generation_; }

  // Binds the cache to a published table version (epoch-versioned swaps,
  // src/rib/versioned_tables.h). Entries filled while another version was
  // bound are invalidated; rebinding the same version is free, so the
  // per-batch call costs one compare on the steady state.
  void setVersion(std::uint64_t version) {
    if (version == version_) return;
    version_ = version;
    ++generation_;
  }

  std::uint64_t generation() const { return generation_; }
  std::uint64_t version() const { return version_; }

  const Stats& stats() const { return stats_; }
  void resetStats() { stats_ = Stats{}; }

 private:
  struct Slot {
    // Slots start one generation behind, i.e. empty.
    std::uint64_t generation = std::numeric_limits<std::uint64_t>::max();
    EntryT entry;
  };

  std::size_t slotOf(const PrefixT& clue) const {
    return std::hash<PrefixT>{}(clue) & (slots_.size() - 1);
  }

  std::vector<Slot> slots_;
  std::uint64_t generation_ = 0;
  std::uint64_t version_ = 0;
  Stats stats_;
};

}  // namespace cluert::core
