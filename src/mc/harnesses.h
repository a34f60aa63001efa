// Bounded model-checking harnesses over the *production* concurrency cores.
//
// Each harness is a small closed scenario (2–3 model threads, a handful of
// operations) instantiating the very templates the program runs —
// rib::EpochPublication behind VersionedTables, and pipeline::SpscRing as
// perfbench's feeder replay drives it — with mc::ModelPolicy, so the
// checker enumerates interleavings of the shipped algorithms, not of a
// transcription. The checked invariants are the ones DESIGN.md §10 states:
//
//   * ring: no lost items, no duplicated items, FIFO order, and close()
//     really means drained, over the claim/publish/front/release/close API
//     that perfbench's replay runs;
//   * epoch: a reader never observes a retired version being rewritten
//     (that is a data race on the payload Vars), and the updater's grace
//     wait always terminates (a lost wakeup would be reported as a hang).
//
// Every harness is parameterised by Policy so tests can re-run it with a
// WeakenedPolicy mutant and assert the checker *finds* the violation the
// demoted ordering was preventing. harnessRegistry() exposes the named set
// (correct + mutants) for tests and tools/mc_run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mc/atomic.h"
#include "mc/model.h"
#include "pipeline/spsc_ring.h"
#include "rib/epoch.h"

namespace cluert::mc {

// -- ring: zero-copy transfer, close and drain ------------------------------

// The producer claims and publishes 1..kItems through a capacity-2 ring,
// then closes it. Two items fill the ring without wrapping it, so the
// producer never finds it full and never re-reads head_: claim()'s acquire
// and release()'s store go unchecked at this bound (three items exhaust in
// ~795k executions, twice the test budget). The consumer is
// perfbench's replayHandoff loop: front(); when that is empty, closed(),
// then front() once more, and an empty ring after closed() is the end of
// the stream. FIFO + no loss + no dup, and close()/closed() form a checked
// release/acquire pair: were either demoted, the consumer could see the
// close yet read a stale tail_, and exit with items still in the ring.
template <typename Policy>
void ringZeroCopyHarness(Context& ctx) {
  constexpr int kItems = 2;
  pipeline::SpscRing<Var<std::uint64_t>, Policy> ring(2);
  const int producer = ctx.spawn([&ring]() {
    for (int i = 1; i <= kItems; ++i) {
      Var<std::uint64_t>* slot = nullptr;
      while ((slot = ring.claim()) == nullptr) {
        if (abandoned()) return;
      }
      slot->set(static_cast<std::uint64_t>(i));
      ring.publish();
    }
    ring.close();
  });
  std::uint64_t got[kItems] = {};
  int n_got = 0;
  const int consumer = ctx.spawn([&ring, &got, &n_got]() {
    for (;;) {
      if (abandoned()) return;
      Var<std::uint64_t>* slot = ring.front();
      if (slot == nullptr) {
        if (!ring.closed()) continue;
        slot = ring.front();
        if (slot == nullptr) break;
      }
      if (n_got < kItems) got[n_got] = slot->get();
      ++n_got;
      ring.release();
    }
  });
  ctx.join(producer);
  ctx.join(consumer);
  ctx.check(n_got == kItems, "ring drained " + std::to_string(n_got) +
                                 " of " + std::to_string(kItems) +
                                 " items before closed()");
  for (int i = 0; i < kItems; ++i) {
    ctx.check(got[i] == static_cast<std::uint64_t>(i + 1),
              "ring delivered item " + std::to_string(got[i]) +
                  " at position " + std::to_string(i) +
                  " (lost/duplicated/reordered)");
  }
}

// -- epoch: publish / pin / grace -------------------------------------------

// One reader pinning and reading the live payload, one updater doing the
// full VersionedTables publish cycle: write the spare buffer, swap it live,
// wait out the grace period, then rewrite the retired buffer (the catch-up
// write that makes the two buffers converge). The invariants fall out of
// the instrumentation itself:
//   * "no read of a retired version" == the catch-up set() must not race
//     the reader's get() — a violated grace period IS a data race here;
//   * "no grace-wait hang" == waitForReaders() must terminate — a lost
//     unpin wakeup would park the updater forever and be reported as hang.
template <typename Policy>
void epochPublishHarness(Context& ctx) {
  struct Payload {
    Var<std::uint64_t> val;
  };
  Payload buf[2];
  buf[0].val.set(1);
  buf[1].val.set(0);
  rib::EpochPublication<Payload, 2, Policy> epoch;
  epoch.storeLive(&buf[0]);

  const int reader = ctx.spawn([&epoch, &ctx]() {
    auto guard = epoch.pin(0);
    const std::uint64_t v = guard->val.get();
    ctx.check(v == 1 || v == 2,
              "reader observed half-written payload " + std::to_string(v));
  });
  const int updater = ctx.spawn([&epoch, &buf]() {
    buf[1].val.set(2);  // prepare the spare buffer (not yet live)
    Payload* retired = epoch.exchangeLive(&buf[1]);
    epoch.waitForReaders();
    // Catch-up write: races with the reader's get() iff grace was broken.
    retired->val.set(3);
  });
  ctx.join(reader);
  ctx.join(updater);
  ctx.check(buf[0].val.get() == 3, "catch-up write lost");
}

// -- registry ----------------------------------------------------------------

struct NamedHarness {
  std::string name;
  Harness fn;
  // Mutant harnesses (weakened orderings) are *expected* to produce a
  // violation; the correct ones must pass exhaustively.
  bool expect_violation;
  std::string note;
};

inline const std::vector<NamedHarness>& harnessRegistry() {
  using WeakSc = WeakenedPolicy<Weaken::kSeqCstToRelaxed>;
  using WeakRel = WeakenedPolicy<Weaken::kReleaseToRelaxed>;
  using WeakAcq = WeakenedPolicy<Weaken::kAcquireToRelaxed>;
  static const std::vector<NamedHarness> kRegistry = {
      {"ring_zero_copy", ringZeroCopyHarness<ModelPolicy>, false,
       "SPSC claim/publish + front/release, close and drain: FIFO, no loss"},
      {"epoch_publish", epochPublishHarness<ModelPolicy>, false,
       "pin/publish/grace/catch-up over EpochPublication"},
      {"ring_zero_copy_weak_release", ringZeroCopyHarness<WeakRel>, true,
       "mutant: publish/head stores demoted to relaxed -> slot hand-off race"},
      {"ring_zero_copy_weak_acquire", ringZeroCopyHarness<WeakAcq>, true,
       "mutant: index loads demoted to relaxed -> slot hand-off race"},
      {"epoch_publish_weak_sc", epochPublishHarness<WeakSc>, true,
       "mutant: SB pair demoted to relaxed -> grace period broken"},
      {"epoch_publish_weak_release", epochPublishHarness<WeakRel>, true,
       "mutant: unpin demoted to relaxed -> catch-up write races reader"},
  };
  return kRegistry;
}

}  // namespace cluert::mc
