// The per-batch resolve step shared by every data plane that runs behind
// rib::VersionedTables — the in-process pipeline Worker (worker.h) and the
// netio datapath (src/netio/datapath.h), which feeds batches from UDP
// sockets instead of slices of an input array.
//
// Contract (what Worker::resolveBatch does for every batch):
//   * pin ONE table version for the whole batch (ReadGuard held across the
//     resolve), so a batch never observes a half-applied delta;
//   * rebind the port to that version's suite/clue-table/neighbor-trie —
//     O(1), and the §3.5 cache generation-flushes itself on a seq change;
//   * run the batched CluePort path (interleaved prefetch and all);
//   * count version changes so callers can report how often the data plane
//     actually observed a swap.
//
// The `under_guard` callback runs after the resolve while the pin is still
// held — the hook the netio datapath's and the topology harness's
// differential oracles use to compare every port result against brute-force
// BMP over the pinned version's local table (a check after the guard dropped
// could race a swap).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "core/distributed_lookup.h"
#include "rib/versioned_tables.h"

namespace cluert::pipeline {

template <typename A>
class PinnedResolver {
 public:
  using PortT = core::CluePort<A>;

  PinnedResolver(std::unique_ptr<PortT> port, std::size_t worker_id)
      : id_(worker_id), port_(std::move(port)) {}

  PortT& port() { return *port_; }
  const PortT& port() const { return *port_; }

  // Attaches the epoch-versioned table source (control-plane, before the
  // first resolve). Null detaches: the port must then be bound statically.
  void bindVersions(rib::VersionedTables<A>* versions) {
    CLUERT_CHECK(versions == nullptr ||
                 port_->options().neighbor_index == rib::kVersionNeighbor)
        << "a version-bound port walks with the versions' neighbor index "
        << rib::kVersionNeighbor << ", not "
        << port_->options().neighbor_index;
    versions_ = versions;
  }

  std::uint64_t versionChanges() const { return version_changes_; }
  void resetVersionChanges() { version_changes_ = 0; }

  // Resolves one batch; returns the pinned sequence number (0 when
  // unversioned). `under_guard(const rib::TableVersion<A>*)` is invoked —
  // with null for unversioned resolvers — after processBatch and before the
  // guard drops.
  template <typename Fn>
  std::uint64_t resolve(std::span<const A> dests,
                        std::span<const core::ClueField> clues,
                        std::span<typename PortT::Result> results,
                        mem::AccessCounter& acc, Fn&& under_guard) {
    typename rib::VersionedTables<A>::ReadGuard guard;
    std::uint64_t seq = 0;
    const rib::TableVersion<A>* version = nullptr;
    if (versions_ != nullptr) {
      guard = versions_->pin(id_);
      seq = guard->seq;
      if (seq != last_seq_) {
        last_seq_ = seq;
        ++version_changes_;
      }
      port_->bindVersion(seq, *guard->suite, guard->clues,
                         rib::senderTrie(*guard));
      version = &*guard;
    }
    port_->processBatch(dests, clues, results, acc);
    under_guard(version);
    return seq;
  }

 private:
  std::size_t id_;
  std::unique_ptr<PortT> port_;
  rib::VersionedTables<A>* versions_ = nullptr;
  std::uint64_t last_seq_ = 0;
  std::uint64_t version_changes_ = 0;
};

}  // namespace cluert::pipeline
