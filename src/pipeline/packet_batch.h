// PacketBatch: the unit of work flowing through the forwarding pipeline.
//
// Software routers do not forward one packet at a time: per-packet costs
// (queue synchronisation, indirect calls, cold caches) are amortised over a
// *batch* — a small frame of packet descriptors that moves through the
// pipeline as one unit, the same trick DPDK-style frameworks use. A batch is
// also the window over which the lookup layer overlaps memory accesses
// (CluePort::processBatch and its LookupEngine::walkBatch): with 32 packets
// in hand, 32 clue-table lines, and then 32 trie walks' next nodes, can be in
// flight from DRAM at once, which is how the paper's "one memory access per
// packet" turns into line-rate forwarding on a general-purpose CPU.
//
// Layout is structure-of-arrays: destinations, clues and stream positions
// live in three separate cache-line-aligned arrays rather than interleaved
// per-packet structs. The worker hands dests()/clues() spans STRAIGHT to
// CluePort::processBatch — no per-packet gather copy on the hot path — and
// the prepare loop streams through densely packed same-typed values instead
// of striding over padded slots.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "common/types.h"
#include "core/clue.h"
#include "common/check.h"

namespace cluert::pipeline {

// Hard upper bound on packets per batch (the pipeline's configurable
// batch_size must be <= this). 64 keeps a frame around 2 KB and matches
// CluePort::kMaxProcessBatch, the window its staged resolve interleaves.
inline constexpr std::size_t kMaxBatch = 64;

// The default — 32 packets is the sweet spot batching literature converges
// on: large enough to hide a DRAM round-trip behind the batch, small enough
// not to blow per-worker latency or L1 residency.
inline constexpr std::size_t kDefaultBatch = 32;

// A fixed-capacity inline frame of packets in SoA layout. Value-semantic so
// it can ride an SPSC ring by move/copy, but copying transfers only the
// *occupied* prefix of each array — a batch of 1 costs one element's copy
// per array, not kMaxBatch.
//
// Stream positions are 32-bit: a single run() streams at most 2^32 packets,
// which Pipeline::run checks at the rim. Half the seq footprint per slot is
// what keeps the whole frame within two cache lines per array.
template <typename A>
class alignas(64) PacketBatch {
 public:
  PacketBatch() = default;

  PacketBatch(const PacketBatch& other) { assignFrom(other); }
  PacketBatch& operator=(const PacketBatch& other) {
    assignFrom(other);
    return *this;
  }
  PacketBatch(PacketBatch&& other) noexcept { assignFrom(other); }
  PacketBatch& operator=(PacketBatch&& other) noexcept {
    assignFrom(other);
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push(const A& dest, const core::ClueField& clue, std::uint32_t seq) {
    CLUERT_DCHECK(size_ < kMaxBatch) << "batch overflow";
    dests_[size_] = dest;
    clues_[size_] = clue;
    seqs_[size_] = seq;
    ++size_;
  }

  void clear() { size_ = 0; }

  // The occupied prefixes, in the exact span types CluePort::processBatch
  // consumes — the worker resolves the ring slot in place.
  std::span<const A> dests() const { return {dests_.data(), size_}; }
  std::span<const core::ClueField> clues() const {
    return {clues_.data(), size_};
  }
  std::span<const std::uint32_t> seqs() const { return {seqs_.data(), size_}; }

  const A& dest(std::size_t i) const {
    CLUERT_DCHECK(i < size_) << "slot " << i << " of " << size_;
    return dests_[i];
  }
  const core::ClueField& clue(std::size_t i) const {
    CLUERT_DCHECK(i < size_) << "slot " << i << " of " << size_;
    return clues_[i];
  }
  std::uint32_t seq(std::size_t i) const {
    CLUERT_DCHECK(i < size_) << "slot " << i << " of " << size_;
    return seqs_[i];
  }

 private:
  void assignFrom(const PacketBatch& other) {
    size_ = other.size_;
    std::copy(other.dests_.begin(), other.dests_.begin() + size_,
              dests_.begin());
    std::copy(other.clues_.begin(), other.clues_.begin() + size_,
              clues_.begin());
    std::copy(other.seqs_.begin(), other.seqs_.begin() + size_, seqs_.begin());
  }

  alignas(64) std::array<A, kMaxBatch> dests_;
  alignas(64) std::array<core::ClueField, kMaxBatch> clues_;
  alignas(64) std::array<std::uint32_t, kMaxBatch> seqs_;
  std::uint32_t size_ = 0;
};

}  // namespace cluert::pipeline
