#include "mem/huge_pages.h"

#include <sys/mman.h>

#include <cstdint>

#include "mem/alloc_hook.h"

namespace cluert::mem {
namespace {

std::size_t roundUp(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

bool mapped(std::size_t bytes) {
  return mapsHugePages() && bytes >= kHugePageBytes;
}

}  // namespace

bool mapsHugePages() {
#if defined(CLUERT_ALLOC_HOOK_OFF)
  return false;
#else
  return true;
#endif
}

void* allocateHuge(std::size_t bytes) {
  if (!mapped(bytes)) {
    return ::operator new(bytes, std::align_val_t{kCacheLineBytes});
  }
  const std::size_t len = roundUp(bytes, kSmallPageBytes);
  // Over-map by one huge page and trim both ends, which leaves exactly `len`
  // bytes starting on a 2 MiB boundary.
  const std::size_t span = len + kHugePageBytes;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc{};
  countAllocation();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start = roundUp(base, kHugePageBytes);
  const std::size_t head = start - base;
  const std::size_t tail = span - head - len;
  if (head != 0) munmap(raw, head);
  if (tail != 0) munmap(reinterpret_cast<void*>(start + len), tail);
  auto* p = reinterpret_cast<void*>(start);
  // Advisory: where transparent huge pages are off this fails and the
  // mapping stays on 4 KiB pages, which is still a correct array.
  madvise(p, len, MADV_HUGEPAGE);
  return p;
}

void deallocateHuge(void* p, std::size_t bytes) noexcept {
  if (!mapped(bytes)) {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
    return;
  }
  munmap(p, roundUp(bytes, kSmallPageBytes));
}

}  // namespace cluert::mem
