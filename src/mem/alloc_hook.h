// Counting allocator hook: the zero-allocation-steady-state enforcement
// point for the forwarding pipeline.
//
// The data plane's contract (DESIGN.md hot path) is that after warm-up the
// run loop performs NO heap allocation — every batch, ring slot, scratch
// array and cache was sized at construction. Contracts that are not enforced
// rot, so alloc_hook.cc replaces the global operator new/delete with
// versions that bump a thread-local counter; Pipeline::run snapshots the
// counter around its steady-state window and reports the delta as
// PipelineStats::steady_allocs, which the ci.sh throughput-smoke gate
// requires to be zero.
//
// The hook is compiled out under ASan/TSan/MSan (the sanitizer runtimes own
// malloc there, and interposing operator new would hide their bookkeeping);
// allocHookActive() tells callers whether the counter means anything, so a
// sanitizer build reports "hook inactive" rather than a vacuous zero.
#pragma once

#include <cstdint>

// Sanitizer builds: the sanitizer runtime interposes malloc and expects to
// own operator new as well, so the hook stays out of its way — and so does
// the huge-page allocator (huge_pages.h), whose arrays then come from
// operator new and keep their redzones.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(__SANITIZE_MEMORY__)
#define CLUERT_ALLOC_HOOK_OFF 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define CLUERT_ALLOC_HOOK_OFF 1
#endif
#endif

namespace cluert::mem {

// True when the counting operator new/delete replacements are compiled in
// (i.e. not a sanitizer build). When false, threadAllocs() stays 0 forever.
bool allocHookActive();

// Number of heap allocations (all operator-new family entry points, and the
// arrays huge_pages.h maps) made by THIS thread since it started. Monotonic;
// callers take deltas.
std::uint64_t threadAllocs();

// Counts one allocation that bypasses operator new (allocateHuge's mappings),
// so threadAllocs() — and with it the pipeline's steady_allocs — sees it.
void countAllocation();

}  // namespace cluert::mem
