// One pool per trie: the nodes of a BinaryTrie or PatriciaTrie (src/trie/),
// addressed by 32-bit index.
//
// The paper counts one memory access per trie node because a node is one
// record (§4 "Adapting Patricia"). Taken one by one from the heap, each node
// also pays malloc's header and lands wherever malloc puts it; here every
// node of one trie lives in the blocks of its one pool:
//  * blocks double from kFirstSlots, so a trie of ten prefixes stays at a few
//    KiB, and come from allocateHuge, so a 200k-route trie sits on 2 MiB
//    pages like the clue tables (mem/huge_pages.h);
//  * blocks never move while the pool lives, so a T* into a slot stays valid
//    until that slot is released, as a heap node stayed valid until freed;
//  * a released slot goes on a free stack kept beside the blocks, not in the
//    slot, and allocate() reuses it before taking a fresh one, so a trie
//    under churn does not grow its pool;
//  * ASan builds poison a slot from its release to its reuse, and a block's
//    never-used tail, so a read through a stale pointer is still reported
//    (use-after-poison), as a freed heap node was (use-after-free).
//
// An index names its block and its slot there: block << kSlotBits | slot.
// Resolving one is a shift, one load of the block's base from the pool
// object and an add, and a trie walk pays that on each step. A dense index
// would need a bit scan to find its block first: a few cycles more on every
// step, which a walk through a cache-resident trie feels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "mem/huge_pages.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define CLUERT_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define CLUERT_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define CLUERT_POOL_POISON(p, n) ((void)(p), (void)(n))
#define CLUERT_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace cluert::mem {

using PoolIndex = std::uint32_t;

template <typename T>
class NodePool {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "slots are reused and freed without running destructors");
  static_assert(alignof(T) <= kCacheLineBytes,
                "allocateHuge aligns to a cache line");

 public:
  using Index = PoolIndex;

  // Block b holds kFirstSlots << b slots.
  static constexpr int kFirstBlockLog2 = 5;
  static constexpr Index kFirstSlots = Index{1} << kFirstBlockLog2;

  NodePool() = default;
  ~NodePool() { releaseBlocks(); }

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;
  NodePool(NodePool&& other) noexcept { take(other); }
  NodePool& operator=(NodePool&& other) noexcept {
    if (this != &other) {
      releaseBlocks();
      take(other);
    }
    return *this;
  }

  // A value-initialised slot: a released one if any, else a fresh one.
  Index allocate() {
    Index i;
    if (!free_.empty()) {
      i = free_.back();
      free_.pop_back();
    } else {
      if (blocks_ == 0 || fill_ == blockSlots(blocks_ - 1)) grow();
      i = (Index(blocks_ - 1) << kSlotBits) | fill_++;
    }
    T* slot = &(*this)[i];
    CLUERT_POOL_UNPOISON(slot, sizeof(T));
    *slot = T{};
    return i;
  }

  // Returns slot `i` to the pool. Pointers into it dangle from here on.
  void release(Index i) {
    CLUERT_DCHECK(ordinal(i) < size())
        << "release of slot " << i << " never handed out";
    CLUERT_POOL_POISON(&(*this)[i], sizeof(T));
    free_.push_back(i);
  }

  T& operator[](Index i) { return base_[i >> kSlotBits][i & kSlotMask]; }
  const T& operator[](Index i) const {
    return base_[i >> kSlotBits][i & kSlotMask];
  }

  // Slots ever handed out, live or on the free stack.
  std::size_t size() const {
    return blocks_ == 0 ? 0 : blockStart(blocks_ - 1) + fill_;
  }
  // Slots handed out and not released.
  std::size_t live() const { return size() - free_.size(); }
  std::span<const Index> freeSlots() const { return free_; }
  std::size_t blockCount() const { return static_cast<std::size_t>(blocks_); }

  // Where slot `i` stands in the order slots were first handed out:
  // [0, size()) for a slot this pool handed out, size() for any other
  // index. The structural validator (check/trie_check.h) keys on it.
  std::size_t ordinal(Index i) const {
    const int b = static_cast<int>(i >> kSlotBits);
    const Index slot = i & kSlotMask;
    if (b >= blocks_ || slot >= (b == blocks_ - 1 ? fill_ : blockSlots(b))) {
      return size();
    }
    return blockStart(b) + slot;
  }

 private:
  // Block b's slots need 5 + b bits, so kSlotBits = 27 allows blocks
  // 0..22, up to 2^28 slots; the block number takes the top 5 bits.
  static constexpr int kSlotBits = 27;
  static constexpr Index kSlotMask = (Index{1} << kSlotBits) - 1;
  static constexpr int kMaxBlocks = kSlotBits - kFirstBlockLog2 + 1;

  static Index blockSlots(int b) { return kFirstSlots << b; }
  // Slots in the blocks before block b.
  static std::size_t blockStart(int b) {
    return (std::size_t{kFirstSlots} << b) - kFirstSlots;
  }

  void grow() {
    CLUERT_CHECK(blocks_ < kMaxBlocks)
        << "node pool exhausted its " << blockStart(kMaxBlocks) << " slots";
    const std::size_t bytes = std::size_t{blockSlots(blocks_)} * sizeof(T);
    base_[blocks_] = static_cast<T*>(allocateHuge(bytes));
    CLUERT_POOL_POISON(base_[blocks_], bytes);
    ++blocks_;
    fill_ = 0;
  }

  void releaseBlocks() noexcept {
    for (int b = 0; b < blocks_; ++b) {
      const std::size_t bytes = std::size_t{blockSlots(b)} * sizeof(T);
      CLUERT_POOL_UNPOISON(base_[b], bytes);
      deallocateHuge(base_[b], bytes);
    }
  }

  void take(NodePool& other) noexcept {
    for (int b = 0; b < kMaxBlocks; ++b) {
      base_[b] = std::exchange(other.base_[b], nullptr);
    }
    blocks_ = std::exchange(other.blocks_, 0);
    fill_ = std::exchange(other.fill_, 0);
    free_ = std::move(other.free_);
    other.free_.clear();
  }

  T* base_[kMaxBlocks] = {};
  int blocks_ = 0;
  Index fill_ = 0;  // slots handed out from the last block
  std::vector<Index> free_;
};

}  // namespace cluert::mem
