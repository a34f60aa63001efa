// Global operator new/delete replacements that count per-thread allocations.
// See alloc_hook.h for the contract. Allocation-counting only — the
// underlying storage still comes from malloc/free, so behaviour (including
// alignment guarantees) is unchanged; the hook adds one thread-local
// increment per allocation.
#include "mem/alloc_hook.h"

#include <cstdlib>
#include <new>

namespace cluert::mem {
namespace {
// Trivially-initialized thread_local: no dynamic TLS constructor, so the
// increment inside operator new can never recurse into itself.
thread_local std::uint64_t t_allocs = 0;
}  // namespace

std::uint64_t threadAllocs() { return t_allocs; }

void countAllocation() { ++t_allocs; }

bool allocHookActive() {
#if defined(CLUERT_ALLOC_HOOK_OFF)
  return false;
#else
  return true;
#endif
}

}  // namespace cluert::mem

#if !defined(CLUERT_ALLOC_HOOK_OFF)

namespace {

void* countedAlloc(std::size_t size) {
  ++cluert::mem::t_allocs;
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* countedAlignedAlloc(std::size_t size, std::size_t align) {
  ++cluert::mem::t_allocs;
  if (size == 0) size = align;
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = countedAlloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size) {
  void* p = countedAlloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = countedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = countedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // !CLUERT_ALLOC_HOOK_OFF
