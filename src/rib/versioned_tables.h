// Epoch-versioned table publication: the control-plane/data-plane split that
// lets route updates run while pipeline workers keep forwarding (the
// dynamics the paper's §3.4 assumes but never spells out).
//
// Scheme (left-right double buffering + epoch-based reclamation):
//
//   * Two TableVersion buffers. One is *live* — reachable through an atomic
//     pointer, immutable by contract, read by every worker. The other is the
//     *shadow*, owned exclusively by the updater thread.
//   * publishLocal()/publishNeighbor() apply a FibDelta to the shadow
//     (incrementally — one engine rebuild per batch, not per route — or via
//     full rebuild past the churn threshold), stamp a fresh sequence number,
//     and swap the live pointer. The retired buffer then waits out a grace
//     period, is validated against the invariant checkers in debug builds,
//     and finally catches up by replaying the same delta — becoming the next
//     shadow. Steady-state cost per publish is O(delta + affected clue
//     entries), never O(two full tables).
//   * Workers pin a version per PacketBatch with pin(worker): the per-worker
//     epoch counter goes odd (pinned) before the live pointer is read, and
//     even again when the ReadGuard drops. The grace period waits only for
//     slots that were odd at swap time to *change* — readers that pinned the
//     new version never block the updater.
//
// The pin/swap/grace handshake itself lives in rib/epoch.h
// (EpochPublication): the same protocol code is instantiated here for
// production and in src/mc/harnesses.h under the model checker, which
// enumerates its interleavings exhaustively within bounds — see the
// memory-ordering rationale table in DESIGN.md §10.
//
// Correctness across swaps for in-flight clues (the Simple-analysis
// argument, spelled out in DESIGN.md §7): a packet's clue was computed
// against *some* sender table, but every entry of a published version is
// derived purely from that version's receiver table; for any clue that is a
// prefix of the destination, Simple analysis yields exactly
// BMP_receiver(dest), so a clue that straddles a swap is never wrong —
// merely a version older or newer than the sender intended, each
// self-consistent. Advance adds Claim-1 pruning against the sender's table,
// which is only safe when the sender's view is the one the clue was built
// from — so under *sender*-side churn with in-flight packets, run Simple.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "check/clue_check.h"
#include "check/fib_check.h"
#include "check/report.h"
#include "check/trie_check.h"
#include "common/check.h"
#include "common/clock.h"
#include "core/clue_table.h"
#include "core/distributed_lookup.h"
#include "lookup/factory.h"
#include "obs/hooks.h"
#include "rib/epoch.h"
#include "rib/fib.h"
#include "rib/fib_diff.h"

namespace cluert::rib {

// One immutable-once-published snapshot of everything a data-plane worker
// reads: the receiver's lookup structures, the clue table derived from them,
// and the sender's prefix view. Only Advance reads that view as a trie
// (Claim 1), so only an Advance version builds `neighbor_trie`; under Simple
// it stays empty and the entries are built without it.
//
// Cache-line aligned: the double-buffered versions (buf_[2] below) are read
// concurrently by every worker while the retired buffer is being rebuilt —
// alignment guarantees the writer's buffer never shares a line with the
// live one (no false sharing between the updater and the data plane).
template <typename A>
struct alignas(64) TableVersion {
  std::uint64_t seq = 0;
  Fib<A> local;     // receiver table this version was built from
  Fib<A> neighbor;  // sender table (the clue universe)
  trie::BinaryTrie<A> neighbor_trie;
  std::unique_ptr<lookup::LookupSuite<A>> suite;
  core::HashClueTable<A> clues{0};
  lookup::Method method = lookup::Method::kPatricia;
  lookup::ClueMode mode = lookup::ClueMode::kSimple;
};

// The Claim-1 neighbor index of every version: one clue table serves one
// sender, so an Advance version annotates its suite for neighbor 0, the
// index every port bound to it must walk with (PinnedResolver checks it).
inline constexpr NeighborIndex kVersionNeighbor = 0;

// The sender view Claim 1 consults: the trie under Advance, none under
// Simple.
template <typename A>
const trie::BinaryTrie<A>* senderTrie(const TableVersion<A>& v) {
  return v.mode == lookup::ClueMode::kAdvance ? &v.neighbor_trie : nullptr;
}

// Re-derives every invariant of a version from scratch: FIB well-formedness,
// FIB <-> trie agreement, trie structure, and field-by-field clue-entry
// consistency (FD/Ptr/Claim-1, probe chains, continuation anchors — the
// anchor checks are what catch a stale engine pointer surviving a rebuild).
// Run on every *retired* version in debug builds before its buffer is
// reused, so a publication bug is caught one swap after it happens.
template <typename A>
check::Report validateVersion(const TableVersion<A>& v) {
  check::Report report = check::validate(v.local);
  report.merge(check::validateConsistent(v.local, v.suite->binaryTrie()));
  report.merge(check::validate(v.suite->binaryTrie()));
  report.merge(check::validate(v.suite->patricia()));
  report.merge(check::validate(v.clues, v.suite->binaryTrie(),
                               senderTrie(v), &v.suite->engine(v.method)));
  return report;
}

template <typename A>
class VersionedTables {
 public:
  using PrefixT = ip::Prefix<A>;
  using EntryT = typename Fib<A>::EntryT;

  // Upper bound on concurrently pinning workers (one padded epoch slot
  // each); a hard CLUERT_CHECK, not a silent truncation.
  using EpochT = EpochPublication<TableVersion<A>>;
  static constexpr std::size_t kMaxEpochWorkers = EpochT::kMaxWorkers;

  struct Options {
    lookup::Method method = lookup::Method::kPatricia;
    lookup::ClueMode mode = lookup::ClueMode::kSimple;
    // Deltas touching more than this fraction of the receiver table fall
    // back to a full rebuild: past that point re-deriving everything is
    // cheaper than patching, and it sheds accumulated §3.4-inactive slots.
    double full_rebuild_fraction = 0.25;
    // Run validateVersion() on every retired version (defaults on in debug
    // builds, off in NDEBUG — it re-derives every clue entry).
#ifdef NDEBUG
    bool validate_retired = false;
#else
    bool validate_retired = true;
#endif
    obs::MetricRegistry* registry = nullptr;
    // Runs on the updater thread immediately after each swap, with the
    // just-published (live, immutable) version. This is the hook the churn
    // oracle uses to record expected next hops per sequence number.
    std::function<void(const TableVersion<A>&)> on_publish;
  };

  // Builds both buffers from the initial tables (clue entries precomputed
  // for the sender's full prefix universe, §3.3.2) and publishes seq 1.
  VersionedTables(const Fib<A>& local, const Fib<A>& neighbor,
                  const Options& options)
      : options_(options) {
    if (options_.registry != nullptr) {
      churn_obs_ = obs::ChurnObs::bind(*options_.registry);
    }
    for (auto& buf : buf_) {
      buildFull(buf, local, neighbor, FibDelta<A>{});
      buf.seq = 1;
    }
    epoch_.storeLive(&buf_[0]);
    shadow_ = 1;
    seq_ = 1;
    if (churn_obs_.enabled()) churn_obs_.live_seq->set(1.0);
  }

  VersionedTables(const VersionedTables&) = delete;
  VersionedTables& operator=(const VersionedTables&) = delete;

  // -- data plane (any worker thread) ---------------------------------------

  // Holds one pinned version; the updater's grace period cannot complete
  // while a guard from an earlier swap is alive. Scope it to one
  // PacketBatch: pin, resolve the whole batch against *guard, drop.
  // The guard (and the pin protocol) is EpochPublication's — rib/epoch.h.
  using ReadGuard = typename EpochT::ReadGuard;

  ReadGuard pin(std::size_t worker) { return epoch_.pin(worker); }

  std::uint64_t liveSeq() const { return epoch_.loadLive()->seq; }

  // -- control plane (the single updater thread) ----------------------------

  // Applies a receiver-side delta and publishes the next version. Returns
  // the new sequence number (unchanged when the delta is empty).
  std::uint64_t publishLocal(const FibDelta<A>& d) {
    if (d.empty()) return seq_;
    return publishWith([&](TableVersion<A>& v) { return applyLocal(v, d); });
  }

  // Sender-side counterpart: maintains the neighbor view and the §3.4
  // markings (withdrawn clues go inactive, probe chains intact; announced
  // clues get fresh entries).
  std::uint64_t publishNeighbor(const FibDelta<A>& d) {
    if (d.empty()) return seq_;
    return publishWith([&](TableVersion<A>& v) { return applyNeighbor(v, d); });
  }

  // Control-plane peek at the live version. Safe from the updater thread
  // (only it can retire the pointee) or any thread while no publisher runs.
  const TableVersion<A>& liveVersion() const { return *epoch_.loadLive(); }

  std::uint64_t swaps() const { return swaps_; }
  std::uint64_t fullRebuilds() const { return full_rebuilds_; }

 private:
  // The one publication cycle every update goes through. `apply` mutates a
  // buffer and reports whether it took the full-rebuild path.
  template <typename ApplyFn>
  std::uint64_t publishWith(ApplyFn&& apply) {
    TableVersion<A>& next = buf_[shadow_];
    const std::uint64_t t0 = steadyNs();
    const bool full = apply(next);
    next.seq = ++seq_;
    const std::uint64_t t1 = steadyNs();

    TableVersion<A>* retired = epoch_.exchangeLive(&next);
    shadow_ ^= 1;
    ++swaps_;
    if (full) ++full_rebuilds_;
    if (options_.on_publish) options_.on_publish(next);

    epoch_.waitForReaders();
    const std::uint64_t t2 = steadyNs();

    if (options_.validate_retired) {
      const check::Report report = validateVersion(*retired);
      CLUERT_CHECK(report.ok())
          << "retired version " << retired->seq
          << " failed validation:\n" << report.toString();
      if (churn_obs_.enabled()) churn_obs_.retired_validated->inc();
    }
    // Catch the retired buffer up: replaying the identical apply against the
    // identical predecessor state lands it in the identical state — the two
    // buffers advance in lockstep, one publish apart.
    apply(*retired);
    retired->seq = next.seq;

    if (churn_obs_.enabled()) {
      churn_obs_.swaps->inc();
      if (full) churn_obs_.full_rebuilds->inc();
      churn_obs_.live_seq->set(static_cast<double>(next.seq));
      churn_obs_.apply_ns->observe(t1 - t0);
      churn_obs_.grace_ns->observe(t2 - t1);
    }
    return next.seq;
  }

  // `local_delta` turns the receiver table `v` was built over into `local`
  // (empty for a sender-side rebuild): the self slots it keeps rebuild only
  // what that changed, and what the new suite's anchors replace.
  void buildFull(TableVersion<A>& v, const Fib<A>& local,
                 const Fib<A>& neighbor, const FibDelta<A>& local_delta) {
    v.method = options_.method;
    v.mode = options_.mode;
    v.local = local;
    v.neighbor = neighbor;
    if (v.mode == lookup::ClueMode::kAdvance) {
      v.neighbor_trie = neighbor.buildTrie();
    }
    const auto entries = local.entries();
    // Materialise only the engine this version serves: every engine in the
    // suite's mask is reconstructed per publish, and a versioned table is
    // pinned to one method for its lifetime — the others would be rebuilt
    // on every delta and read never.
    lookup::SuiteOptions sopt;
    sopt.methods = lookup::methodBit(options_.method);
    v.suite = std::make_unique<lookup::LookupSuite<A>>(
        std::vector<EntryT>{entries.begin(), entries.end()}, sopt);
    if (v.mode == lookup::ClueMode::kAdvance) {
      v.suite->annotateNeighbor(kVersionNeighbor, v.neighbor_trie);
    }
    // Fresh clue table over the sender's prefix universe. §3.4-inactive
    // entries are *dropped* here, not carried over: a missing entry is a
    // miss, and a miss routes correctly via the common lookup. The self
    // slots (core::kSelfClueBits) are the receiver's alone, kept across the
    // reset.
    const bool kept = v.clues.keepsSelfSlots();
    v.clues.reset(neighbor.size() + 16);
    for (const PrefixT& c : neighbor.prefixes()) {
      v.clues.insert(core::buildClueEntry<A>(*v.suite, senderTrie(v),
                                             v.method, v.mode, c,
                                             &v.clues.candidates()));
    }
    if (kept) {
      core::rebuildSelfCluesAfterReset(v.clues, *v.suite, v.method,
                                       local_delta);
    } else {
      core::buildSelfClues(v.clues, *v.suite, v.method);
    }
  }

  bool wantsFullRebuild(const TableVersion<A>& v,
                        const FibDelta<A>& d) const {
    const double threshold =
        options_.full_rebuild_fraction *
        static_cast<double>(v.local.size() > 0 ? v.local.size() : 1);
    return static_cast<double>(d.size()) > threshold;
  }

  // Receiver-side apply. Returns true when it took the full-rebuild path.
  bool applyLocal(TableVersion<A>& v, const FibDelta<A>& d) {
    if (wantsFullRebuild(v, d)) {
      Fib<A> local = v.local;
      applyDelta(local, d);
      buildFull(v, local, v.neighbor, d);
      return true;
    }
    applyDelta(v.local, d);
    // One engine rebuild for the whole batch, then the one refresh rule.
    v.suite->applyRouteDelta(d.removed, d.upserts());
    core::followDelta(v.clues, d, core::DeltaSide::kLocal, *v.suite,
                      senderTrie(v), v.method, v.mode);
    // `v` is unpublished or past its grace period: no worker reads it, and a
    // worker's §3.5 cache copies of its entries are stamped with an older
    // sequence number, so released candidate sets are unreachable.
    v.clues.candidates().reclaim();
    return false;
  }

  // Sender-side apply: update the neighbor view (under Advance also its trie
  // and the Claim-1 continue bits on the suite's tries — in place, so engine
  // anchors stay valid), then the one refresh rule marks, installs and
  // refreshes.
  bool applyNeighbor(TableVersion<A>& v, const FibDelta<A>& d) {
    if (wantsFullRebuild(v, d)) {
      Fib<A> neighbor = v.neighbor;
      applyDelta(neighbor, d);
      buildFull(v, v.local, neighbor, FibDelta<A>{});
      return true;
    }
    applyDelta(v.neighbor, d);
    if (v.mode == lookup::ClueMode::kAdvance) {
      applyDelta(v.neighbor_trie, d);
      v.suite->annotateNeighbor(kVersionNeighbor, v.neighbor_trie);
    }
    core::followDelta(v.clues, d, core::DeltaSide::kNeighbor, *v.suite,
                      senderTrie(v), v.method, v.mode);
    v.clues.candidates().reclaim();  // as in applyLocal
    return false;
  }

  Options options_;
  TableVersion<A> buf_[2];
  EpochT epoch_;
  std::size_t shadow_ = 1;       // updater-owned buffer index
  std::uint64_t seq_ = 0;        // updater-owned sequence counter
  std::uint64_t swaps_ = 0;
  std::uint64_t full_rebuilds_ = 0;
  obs::ChurnObs churn_obs_;
};

using VersionedTables4 = VersionedTables<ip::Ip4Addr>;

}  // namespace cluert::rib
