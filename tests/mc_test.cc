// Model-checker regression suite (DESIGN.md §10).
//
// Three layers:
//   * exhaustive passes: the correct-ordering harnesses must complete their
//     bounded search with zero violations — that completion IS the proof
//     the shipped orderings are sufficient within the bounds;
//   * mutants found: every weakened-ordering harness must
//     produce a violation with a replayable schedule — the checker's
//     ability to find these is what makes the passes above meaningful;
//   * replay round-trips: a violation's schedule, fed back through
//     replay(), must reproduce the same violation deterministically. The
//     schedules are re-derived per run rather than hard-coded: the choice
//     strings are stable for a fixed checker version but deliberately not
//     part of the public contract.
//
// The fiber switches carry ASan's start/finish_switch_fiber annotations
// (src/mc/model.cc), so the suite runs under ASan and UBSan. TSan has a
// separate fiber API the checker does not implement, so the suite skips
// there — and exploring interleavings with a cooperative scheduler under
// TSan would be meaningless anyway (one OS thread, no real races).

#include <string>

#include <gtest/gtest.h>

#include "mc/harnesses.h"
#include "mc/model.h"

namespace cluert::mc {
namespace {

#if defined(__SANITIZE_THREAD__)
#define CLUERT_MC_SKIP() \
  GTEST_SKIP() << "mc fibers lack TSan fiber-API annotations"
#else
#define CLUERT_MC_SKIP() (void)0
#endif

const NamedHarness& harnessByName(const std::string& name) {
  for (const NamedHarness& h : harnessRegistry()) {
    if (h.name == name) return h;
  }
  ADD_FAILURE() << "no harness named " << name;
  static NamedHarness dummy;
  return dummy;
}

Options boundedOptions() {
  Options opt;
  opt.max_executions = 400000;
  return opt;
}

// --- exhaustive passes ------------------------------------------------------

void expectExhaustivePass(const std::string& name) {
  const NamedHarness& h = harnessByName(name);
  ASSERT_FALSE(h.expect_violation) << name << " is a mutant harness";
  const Result r = explore(h.fn, boundedOptions());
  EXPECT_FALSE(r.found_violation)
      << name << " violated: " << r.violation.message << "\nschedule "
      << r.violation.schedule << "\n"
      << r.violation.trace;
  EXPECT_TRUE(r.complete) << name << " did not exhaust its bounded frontier: "
                          << r.summary();
}

TEST(Mc, RingZeroCopyExhaustive) {
  CLUERT_MC_SKIP();
  expectExhaustivePass("ring_zero_copy");
}

TEST(Mc, EpochPublishExhaustive) {
  CLUERT_MC_SKIP();
  expectExhaustivePass("epoch_publish");
}

// --- mutants found + replay round-trips -------------------------------------

// Explores a harness that is expected to fail, then replays the recorded
// schedule and checks the violation reproduces. Returns the schedule so
// individual tests can assert extra properties.
std::string expectViolationAndReplay(const std::string& name) {
  const NamedHarness& h = harnessByName(name);
  EXPECT_TRUE(h.expect_violation) << name << " is not a mutant harness";
  const Result r = explore(h.fn, boundedOptions());
  EXPECT_TRUE(r.found_violation) << name << " found nothing: " << r.summary();
  if (!r.found_violation) return "";
  EXPECT_FALSE(r.violation.schedule.empty());
  EXPECT_FALSE(r.violation.message.empty());

  const Result replayed = replay(h.fn, r.violation.schedule);
  EXPECT_TRUE(replayed.found_violation)
      << name << ": schedule " << r.violation.schedule
      << " did not reproduce on replay";
  if (replayed.found_violation) {
    EXPECT_EQ(replayed.violation.message, r.violation.message)
        << name << ": replay reproduced a different violation";
    // The replayed trace is the human-readable counterexample; it must
    // actually narrate an interleaving.
    EXPECT_FALSE(replayed.violation.trace.empty());
  }
  return r.violation.schedule;
}

TEST(Mc, WeakReleaseRingMutantFound) {
  CLUERT_MC_SKIP();
  expectViolationAndReplay("ring_zero_copy_weak_release");
}

TEST(Mc, WeakAcquireRingMutantFound) {
  CLUERT_MC_SKIP();
  expectViolationAndReplay("ring_zero_copy_weak_acquire");
}

// The epoch SB pair demoted to relaxed: the reader's pin can be reordered
// after the updater's live-pointer check, breaking the grace period. The
// violation manifests as a data race between the catch-up write and the
// reader's payload read.
TEST(Mc, WeakSeqCstEpochMutantFound) {
  CLUERT_MC_SKIP();
  const std::string schedule =
      expectViolationAndReplay("epoch_publish_weak_sc");
  if (schedule.empty()) return;
  const Result r = replay(harnessByName("epoch_publish_weak_sc").fn, schedule);
  ASSERT_TRUE(r.found_violation);
  EXPECT_NE(r.violation.message.find("race"), std::string::npos)
      << "expected a data-race violation, got: " << r.violation.message;
}

TEST(Mc, WeakReleaseEpochMutantFound) {
  CLUERT_MC_SKIP();
  expectViolationAndReplay("epoch_publish_weak_release");
}

// --- checker plumbing -------------------------------------------------------

// A deliberately failing check reports the harness's message (under the
// standard "harness check failed" prefix) and both execution artifacts
// (schedule + trace).
TEST(Mc, CheckFailureCarriesScheduleAndTrace) {
  CLUERT_MC_SKIP();
  const Harness h = [](Context& ctx) {
    ctx.check(false, "intentional failure");
  };
  const Result r = explore(h);
  ASSERT_TRUE(r.found_violation);
  EXPECT_EQ(r.violation.message, "harness check failed: intentional failure");
  EXPECT_FALSE(r.violation.schedule.empty());
  EXPECT_FALSE(r.violation.trace.empty());
}

// A genuine lost wakeup — a spin on a flag nobody ever sets — must be
// reported as a hang, not explored forever and not run forever by the
// fairness probe. (The probe exists for the inverse case: a loop whose
// exit condition is already satisfied by the values it re-reads must NOT
// be called a hang; Mc.SatisfiedSpinIsNotAHang below covers that side.)
TEST(Mc, GenuineHangIsReported) {
  CLUERT_MC_SKIP();
  const Harness h = [](Context& ctx) {
    Atomic<int> flag(0);
    const int t = ctx.spawn([&flag]() {
      while (flag.load(std::memory_order_acquire) == 0) {
        if (abandoned()) return;
      }
    });
    ctx.join(t);
  };
  const Result r = explore(h);
  ASSERT_TRUE(r.found_violation);
  EXPECT_NE(r.violation.message.find("hang"), std::string::npos)
      << "expected a hang verdict, got: " << r.violation.message;
  EXPECT_FALSE(r.violation.schedule.empty());
}

// The fairness probe's other side: a thread that re-reads one value nobody
// stores parks after kFutileThreshold futile loads, which leaves every live
// thread blocked. That is only a hang candidate — the spin exits on a local
// count, so under the probe's fair schedule it finishes, and the search
// must complete with no violation.
TEST(Mc, SatisfiedSpinIsNotAHang) {
  CLUERT_MC_SKIP();
  const Harness h = [](Context& ctx) {
    Atomic<int> flag(0);
    const int t = ctx.spawn([&flag]() {
      int reads = 0;
      while (flag.load(std::memory_order_acquire) == 0 &&
             ++reads < 2 * kFutileThreshold) {
        if (abandoned()) return;
      }
    });
    ctx.join(t);
  };
  const Result r = explore(h);
  EXPECT_FALSE(r.found_violation)
      << r.violation.message << "\nschedule " << r.violation.schedule;
  EXPECT_TRUE(r.complete) << r.summary();
}

// A single-threaded harness has exactly one interleaving.
TEST(Mc, SingleThreadedIsOneExecution) {
  CLUERT_MC_SKIP();
  const Harness h = [](Context& ctx) { ctx.check(true, "trivially fine"); };
  const Result r = explore(h);
  EXPECT_FALSE(r.found_violation);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.executions, 1);
}

// Replaying a syntactically valid schedule against the *wrong* harness (or
// a stale schedule after a harness change) must degrade gracefully — run
// some execution to completion, not crash or hang.
TEST(Mc, ReplayWithMismatchedScheduleDegrades) {
  CLUERT_MC_SKIP();
  const Result r = replay(harnessByName("ring_zero_copy").fn,
                          "mc1:s0,s0,s0,v0,s0,s0,s0,s0,s0,s0");
  EXPECT_FALSE(r.found_violation) << r.violation.message;
  EXPECT_EQ(r.executions, 1);
}

// A choice number with a stray byte is no schedule: it is reported, not
// read as the number before the byte.
TEST(Mc, ReplayRejectsMalformedChoiceNumbers) {
  CLUERT_MC_SKIP();
  for (const char* bad : {"mc1:s0x", "mc1:s0,s1y", "mc1:v-1", "mc1:s"}) {
    const Result r = replay(harnessByName("ring_zero_copy").fn, bad);
    EXPECT_TRUE(r.found_violation) << bad;
    EXPECT_NE(r.violation.message.find("unparseable schedule string"),
              std::string::npos)
        << bad << ": " << r.violation.message;
    EXPECT_EQ(r.executions, 0) << bad;
  }
}

// The smoke configuration used by ci.sh gate 8: a time budget must stop the
// search promptly and mark the result as budget-hit rather than complete.
TEST(Mc, TimeBudgetStopsSearch) {
  CLUERT_MC_SKIP();
  Options opt;
  opt.time_budget_ms = 50;
  opt.preemption_bound = 64;  // blow up the frontier so the budget matters
  const Result r = explore(harnessByName("ring_zero_copy").fn, opt);
  EXPECT_FALSE(r.found_violation) << r.violation.message;
  // Either the budget fired, or the machine raced through the whole
  // frontier inside 50 ms — both are acceptable; what must not happen is an
  // unbounded run (the test completing at all checks that).
  EXPECT_TRUE(r.hit_time_budget || r.complete) << r.summary();
}

}  // namespace
}  // namespace cluert::mc
