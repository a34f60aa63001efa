// A stateless (re-execution based) model checker for the lock-free cores.
//
// What it is: a cooperative scheduler plus an instrumented-atomics model
// (mc/atomic.h) that together enumerate thread interleavings of small
// bounded harnesses (mc/harnesses.h) over the *production* SpscRing and
// EpochPublication code — the same templates VersionedTables and
// perfbench's feeder replay instantiate, parameterised by mc::ModelPolicy
// instead of sync::StdSyncPolicy.
//
// Execution model (operational, relacy-style — DESIGN.md §10 documents the
// exact guarantees and deliberate approximations):
//
//   * Harness "threads" are ucontext fibers multiplexed on the calling OS
//     thread; only one ever runs, and every instrumented atomic access is a
//     scheduling point: the fiber announces the operation and parks, the
//     explorer picks who performs next. DFS over these choices, replayable
//     by a recorded choice string.
//   * Weak memory is modelled per atomic as a store history plus vector
//     clocks: a load may read any store not superseded for the loading
//     thread by happens-before, read coherence, or (for seq_cst ops) the
//     latest seq_cst store — *which* store it reads is itself a DFS choice
//     point. Release stores carry a clock that acquire loads join; RMWs
//     read the newest store and continue release sequences.
//   * Non-atomic data (mc::Var) is not a scheduling point at all: accesses
//     are checked purely against the clocks — two conflicting accesses
//     without a happens-before edge are a data race, reported with the
//     schedule that produced them. This is what catches a demoted
//     release/acquire pair: the ring slot hand-off or the retired-buffer
//     catch-up writes become racy the moment the pairing breaks.
//   * Pruning: sleep sets (a branch already explored from a choice point
//     puts that thread to sleep in sibling branches until a dependent
//     operation wakes it) and a preemption bound (switching away from a
//     runnable thread costs budget; cooperative switches are free).
//   * Progress: a thread that keeps re-reading stores it has already seen
//     is eventually forced to the newest eligible store, and parks entirely
//     when nothing newer exists — so spin loops (grace wait, ring
//     backpressure) stay finite. An all-parked state is only a hang
//     *candidate*: a fairness probe then runs the remainder under a fair
//     choice-free schedule (checks still live), so a loop whose exit
//     condition is already satisfied finishes normally, and only a set of
//     threads that spin without any store/spawn/finish is reported as a
//     real livelock/lost-wakeup hang.
//
// Counterexamples serialize as schedule strings ("mc1:s0,s1,v1,...") that
// replay() turns back into a full per-operation trace; tests/mc_test.cc
// commits them as Mc.* regressions.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cluert::mc {

inline constexpr int kMaxThreads = 4;

// Consecutive loads with no new store observed before a spinning thread is
// (a) forced to the newest eligible store, then (b) parked until anyone
// stores. Kept small: each futile spin iteration is a scheduling point, so
// the threshold multiplies the DFS fan-out of every polling loop. Soundness
// does not depend on the value — parking only defers a thread that provably
// cannot observe progress, and any store re-enables it.
inline constexpr int kFutileThreshold = 4;

using Clock = std::array<std::uint32_t, kMaxThreads>;

enum class OpKind : std::uint8_t {
  kThreadStart,  // fiber exists; scheduling it runs user code to the 1st op
  kLoad,
  kStore,
  kRmw,
  kJoin,
};

// What a parked fiber is about to do — the explorer's full knowledge of the
// frontier, used for enabledness, sleep-set dependency tests and traces.
struct PendingOp {
  OpKind kind = OpKind::kThreadStart;
  const void* obj = nullptr;
  int order = 0;  // std::memory_order as int
  int join_target = -1;
};

struct Violation {
  std::string message;
  std::string schedule;  // replayable choice string
  std::string trace;     // human-readable op-by-op interleaving
};

struct Options {
  // Preemptions allowed per execution (switching away from a still-enabled
  // thread); cooperative switches are free. The classic observation that
  // most concurrency bugs need very few preemptions is what makes bounded
  // search useful — raise it to widen coverage at exponential cost.
  int preemption_bound = 4;
  long max_executions = 2'000'000;
  long time_budget_ms = 0;   // 0 = unbounded; smoke runs set it
};

// Steps per execution; exceeding it truncates the path.
inline constexpr long kMaxSteps = 20'000;

struct Result {
  bool found_violation = false;
  Violation violation;
  // True when the DFS frontier was exhausted with no violation: every
  // interleaving within (preemption bound, step bound) was checked.
  bool complete = false;
  long executions = 0;
  long sleep_pruned = 0;   // branches cut by sleep sets
  long truncated = 0;      // executions that hit kMaxSteps
  bool hit_execution_cap = false;
  bool hit_time_budget = false;
  std::string summary() const;
};

class Scheduler;

// The only API a harness body sees besides mc::Atomic / mc::Var.
class Context {
 public:
  explicit Context(Scheduler* s) : s_(s) {}
  // Starts a new model thread running `fn`; returns its id. The child's
  // clock inherits the parent's (spawn is a happens-before edge).
  int spawn(std::function<void()> fn);
  // Blocks until thread `tid` finished; joins its clock (happens-before).
  void join(int tid);
  // Harness invariant. Failure records a violation with the current
  // schedule + trace and unwinds the execution.
  void check(bool cond, const std::string& msg);

 private:
  Scheduler* s_;
};

using Harness = std::function<void(Context&)>;

// Explores all interleavings of `harness` within bounds.
Result explore(const Harness& harness, const Options& options = {});

// Re-runs exactly one execution following `schedule` (a Violation::schedule
// or any prefix-compatible choice string) and returns its outcome with a
// full trace — the replay side of "counterexamples are regression tests".
Result replay(const Harness& harness, const std::string& schedule,
              const Options& options = {});

// True while the current execution is being abandoned (violation already
// recorded elsewhere, prune, step cap). Harness spin loops whose progress
// depends on a *sibling* thread must poll this and bail out — an aborted
// partner never produces/consumes again, so the loop would otherwise spin
// forever during cleanup. Production-internal spins don't need it: their
// partners' RAII cleanup (e.g. ReadGuard unpin) still runs with real
// effects in ghost mode.
bool abandoned();

// --- internal: the instrumentation surface used by mc/atomic.h -----------

namespace detail {

Scheduler* current();

// Atomic accesses (scheduling points). `mo` is std::memory_order as int.
std::uint64_t atomicInit(const void* obj, std::uint64_t value);
void atomicDestroy(const void* obj);
std::uint64_t atomicLoad(const void* obj, int mo);
void atomicStore(const void* obj, int mo, std::uint64_t value);
// RMW: reads the newest store, applies `fn(old) -> new`, returns old.
std::uint64_t atomicRmw(const void* obj, int mo,
                        const std::function<std::uint64_t(std::uint64_t)>& fn);

// Non-atomic accesses (race-checked, not scheduling points).
void varInit(const void* obj);
void varDestroy(const void* obj);
void varRead(const void* obj);
void varWrite(const void* obj);

}  // namespace detail

}  // namespace cluert::mc
