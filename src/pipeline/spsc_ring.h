// Fixed-capacity single-producer / single-consumer ring queue. No
// production path uses it: pipeline shards resolve slices of the input and
// hand nothing between threads. It stays because perfbench replays the old
// feeder's batch assembly and handoff over it, and because the model
// checker (src/mc/harnesses.h) checks its orderings. Its API is the one
// that replay runs: zero-copy claim/publish on the producer side,
// front/release on the consumer side, and close/closed for end-of-stream.
//
// Classic Lamport ring with the two standard refinements:
//  * acquire/release atomics only (no CAS, no locks — wait-free on both
//    sides when a slot is available);
//  * each side keeps a cached copy of the *other* side's index, refreshed
//    only when the ring looks full/empty, so the common case touches one
//    shared cache line instead of two (the "batched index read" optimisation
//    from rigtorp/folly-style queues).
//
// The producer additionally gets a `close()` bit for end-of-stream: the
// consumer drains remaining items after observing it. Capacity is rounded
// up to a power of two; one slot is never sacrificed (full/empty are
// distinguished by index difference, indices increase monotonically and
// wrap via mask).
//
// The `Policy` parameter (common/sync_policy.h) routes every atomic through
// `Policy::template Atomic<T>`: production uses StdSyncPolicy (plain
// std::atomic, identical codegen to before), while src/mc/harnesses.h
// instantiates this very class with mc::ModelPolicy and enumerates its
// interleavings exhaustively within bounds. Every memory_order below is
// named explicitly (lint_cluert.py bans implicit seq_cst) and justified in
// the DESIGN.md §10 ordering table.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/sync_policy.h"

namespace cluert::pipeline {

template <typename T, typename Policy = sync::StdSyncPolicy>
class SpscRing {
 public:
  using AtomicSize = typename Policy::template Atomic<std::size_t>;
  using AtomicBool = typename Policy::template Atomic<bool>;

  // `capacity` is rounded up to a power of two, minimum 2.
  explicit SpscRing(std::size_t capacity) {
    std::size_t n = 2;
    while (n < capacity) n <<= 1;
    slots_.resize(n);
    mask_ = n - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  // -- producer side --------------------------------------------------------

  // Enqueue, step 1: the slot the next publish would hand over, or nullptr
  // when the ring is full (backpressure — the caller decides how to wait).
  // The producer writes into the slot in place (no staging copy) and then
  // calls publish().
  T* claim() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ == slots_.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ == slots_.size()) return nullptr;
    }
    return &slots_[tail & mask_];
  }

  // Enqueue, step 2: makes the claimed slot visible to the consumer. The
  // release store is the ring's one publication point: it hands the slot
  // contents to the consumer's acquire load of tail_ in front().
  void publish() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
#ifdef CLUERT_MC_MUTANT_RING_PUBLISH_RELAXED
    // Seeded mutant (tests/mc_mutant_test.cc only, never defined by any
    // production target): demotes the publish to relaxed so the model
    // checker can prove it detects the resulting unsynchronized slot
    // hand-off as a data race. See DESIGN.md §10.4.
    tail_.store(tail + 1, std::memory_order_relaxed);
#else
    tail_.store(tail + 1, std::memory_order_release);
#endif
  }

  // Marks end-of-stream. Items published before close() are guaranteed
  // visible to a consumer that observes closed(): the release store here
  // pairs with the acquire load in closed(), so "closed and front() still
  // empty" really means drained.
  void close() { closed_.store(true, std::memory_order_release); }

  // -- consumer side --------------------------------------------------------

  // Dequeue, step 1: the oldest unconsumed slot, or nullptr when the ring
  // is empty. The consumer processes it in place and then calls release().
  // A consumer that finds the ring empty checks closed() and then calls
  // front() once more: empty again after closed() means drained.
  T* front() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return nullptr;
    }
    return &slots_[head & mask_];
  }

  // Dequeue, step 2: returns the slot just processed to the producer.
  void release() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    head_.store(head + 1, std::memory_order_release);
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;

  // Producer-owned line: its index plus the cached view of the consumer's.
  alignas(64) AtomicSize tail_{0};
  std::size_t cached_head_ = 0;

  // Consumer-owned line.
  alignas(64) AtomicSize head_{0};
  std::size_t cached_tail_ = 0;

  alignas(64) AtomicBool closed_{false};
};

}  // namespace cluert::pipeline
