// Seeded-mutant proof for the model checker (DESIGN.md §10).
//
// This file is the only translation unit ever compiled with
// CLUERT_MC_MUTANT_RING_PUBLISH_RELAXED (set by its dedicated CMake target,
// cluert_mc_mutant_tests) — the macro demotes SpscRing::publish()'s
// release store to relaxed *in the production source itself*, the textual
// equivalent of a developer deleting the fence. The WeakenedPolicy mutants
// in mc_test.cc exercise the same class of bug through the shim; this one
// proves the instrumentation pipeline catches an edit to the shipped code,
// end to end: production header -> mc::Atomic -> scheduler -> violation
// with a replayable schedule.

#ifndef CLUERT_MC_MUTANT_RING_PUBLISH_RELAXED
#error "this test must be compiled with CLUERT_MC_MUTANT_RING_PUBLISH_RELAXED"
#endif

#include <string>

#include <gtest/gtest.h>

#include "mc/harnesses.h"
#include "mc/model.h"

namespace cluert::mc {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CLUERT_MC_SKIP() \
  GTEST_SKIP() << "mc fibers are not sanitizer-clean (swapcontext)"
#else
#define CLUERT_MC_SKIP() (void)0
#endif

// The zero-copy harness — correct orderings everywhere *except* the
// macro-demoted publish — must now fail: the consumer's acquire of tail_
// no longer synchronizes with the producer's slot write, so the hand-off
// is a data race on the slot Var. The counterexample must replay.
TEST(McMutant, SeededMutantCaughtOnZeroCopyPath) {
  CLUERT_MC_SKIP();
  Options opt;
  opt.max_executions = 400000;
  const Result r = explore(ringZeroCopyHarness<ModelPolicy>, opt);
  ASSERT_TRUE(r.found_violation)
      << "checker missed the seeded mutant on claim/publish: " << r.summary();
  EXPECT_NE(r.violation.message.find("race"), std::string::npos)
      << "expected a data race on the slot hand-off, got: "
      << r.violation.message;
  ASSERT_FALSE(r.violation.schedule.empty());

  const Result replayed =
      replay(ringZeroCopyHarness<ModelPolicy>, r.violation.schedule);
  EXPECT_TRUE(replayed.found_violation)
      << "schedule " << r.violation.schedule << " did not reproduce";
  if (replayed.found_violation) {
    EXPECT_EQ(replayed.violation.message, r.violation.message);
  }
}

}  // namespace
}  // namespace cluert::mc
