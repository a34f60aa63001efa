// Large, randomly probed arrays on 2 MiB pages.
//
// A clue table at internet scale is ~32 MiB of slots probed at random, one
// slot per packet. On 4 KiB pages nearly every probe also misses the TLB,
// and in a virtual machine with nested paging a TLB miss walks two page
// tables. allocateHuge() maps an array of kHugePageBytes or more on its own,
// 2 MiB-aligned, and asks the kernel for transparent huge pages
// (MADV_HUGEPAGE), so each probe's translation comes from one TLB entry per
// 2 MiB instead of per 4 KiB.
//
// The rule has no option:
//  * requests under kHugePageBytes take operator new (a huge page would be
//    mostly empty), aligned to a cache line, so a slot whose size divides
//    64 never straddles two lines;
//  * the mapped length is rounded to 4 KiB only, never to 2 MiB: the tail
//    past the last whole huge page stays on small pages, so the resident
//    size does not grow;
//  * where transparent huge pages are off, the kernel simply backs the
//    mapping with 4 KiB pages;
//  * a mapped array counts as one allocation in threadAllocs()
//    (alloc_hook.h), like one from operator new, so the pipeline's
//    steady_allocs still sees a table that grows while packets flow;
//  * sanitizer builds (CLUERT_ALLOC_HOOK_OFF, alloc_hook.h) take operator
//    new for every size, so redzones still cover the arrays.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace cluert::mem {

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;
inline constexpr std::size_t kSmallPageBytes = std::size_t{4} << 10;
inline constexpr std::size_t kCacheLineBytes = 64;

// True when requests of kHugePageBytes or more are mapped (every build but
// the sanitizer builds).
bool mapsHugePages();

// `bytes` of storage aligned to kCacheLineBytes (2 MiB when mapped). Throws std::bad_alloc on failure. Release with
// deallocateHuge and the same `bytes`.
void* allocateHuge(std::size_t bytes);
void deallocateHuge(void* p, std::size_t bytes) noexcept;

// A stateless allocator over allocateHuge, for the clue tables' slot arrays.
template <typename T>
struct HugePageAllocator {
  static_assert(alignof(T) <= kCacheLineBytes,
                "allocateHuge aligns to a cache line");
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(allocateHuge(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    deallocateHuge(p, n * sizeof(T));
  }

  friend bool operator==(const HugePageAllocator&,
                         const HugePageAllocator&) = default;
};

template <typename T>
using HugePageVector = std::vector<T, HugePageAllocator<T>>;

}  // namespace cluert::mem
