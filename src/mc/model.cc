// Scheduler + explorer implementation. See model.h for the model; DESIGN.md
// §10 for scope and approximations.
#include "mc/model.h"

#include <ucontext.h>

// ASan must be told about every fiber-stack switch: without the
// start/finish_switch_fiber pairs its instrumentation (redzone poisoning,
// fake stacks, the __asan_handle_no_return walk during `throw`) treats the
// heap-allocated fiber stacks as corrupt and aborts with a bogus
// stack-buffer-overflow. With them the checker is ASan-clean.
#if defined(__SANITIZE_ADDRESS__)
#define CLUERT_MC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CLUERT_MC_ASAN 1
#endif
#endif
#if defined(CLUERT_MC_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <unordered_map>

#include "common/check.h"
#include "common/text.h"

namespace cluert::mc {
namespace {

// Thrown to unwind a fiber whose execution is being abandoned (violation
// found elsewhere, sleep-set prune, step cap). Never escapes the trampoline.
struct McAbort {};

const char* orderName(int mo) {
  switch (static_cast<std::memory_order>(mo)) {
    case std::memory_order_relaxed: return "relaxed";
    case std::memory_order_consume: return "consume";
    case std::memory_order_acquire: return "acquire";
    case std::memory_order_release: return "release";
    case std::memory_order_acq_rel: return "acq_rel";
    case std::memory_order_seq_cst: return "seq_cst";
  }
  return "?";
}

bool isAcquireLike(int mo) {
  return mo == static_cast<int>(std::memory_order_acquire) ||
         mo == static_cast<int>(std::memory_order_acq_rel) ||
         mo == static_cast<int>(std::memory_order_seq_cst);
}

bool isReleaseLike(int mo) {
  return mo == static_cast<int>(std::memory_order_release) ||
         mo == static_cast<int>(std::memory_order_acq_rel) ||
         mo == static_cast<int>(std::memory_order_seq_cst);
}

bool isSeqCst(int mo) {
  return mo == static_cast<int>(std::memory_order_seq_cst);
}

void mergeClock(Clock& into, const Clock& from) {
  for (int i = 0; i < kMaxThreads; ++i) {
    into[i] = std::max(into[i], from[i]);
  }
}

}  // namespace

// ---------------------------------------------------------------------------

class Scheduler {
 public:
  // One store in an atomic's modification order. `stamp_own` is the storing
  // thread's own clock component at the store: rec happens-before thread T
  // iff T.clock[rec.thread] >= rec.stamp_own.
  struct StoreRec {
    std::uint64_t value = 0;
    int thread = 0;
    std::uint32_t stamp_own = 0;
    Clock release_clock{};  // meaningful iff has_release
    bool has_release = false;
  };

  struct AtomicState {
    int id = 0;  // a<id> in traces, creation order
    std::vector<StoreRec> hist;
    int last_sc_store = 0;  // index of newest seq_cst store (0 = init)
    std::array<int, kMaxThreads> max_read{};  // read-coherence floor
    bool alive = true;
  };

  struct VarState {
    int id = 0;  // v<id> in traces
    int w_thread = 0;
    std::uint32_t w_time = 0;
    std::array<std::uint32_t, kMaxThreads> r_time{};
    bool alive = true;
  };

  enum class FiberState : std::uint8_t { kUnused, kRunnable, kFinished };

  struct Fiber {
    ucontext_t ctx{};
    std::unique_ptr<char[]> stack;
    void* fake_stack = nullptr;  // ASan fake-stack handle across switches
    std::function<void()> fn;
    FiberState state = FiberState::kUnused;
    PendingOp pending;
    Clock clock{};
    // Futile-spin tracking: consecutive loads that observed nothing new
    // without an intervening store. At kFutileThreshold the next repeat
    // load is forced to the newest eligible store; with nothing newer the
    // fiber parks until anyone stores.
    int futile = 0;
    bool parked = false;
    long park_store_count = 0;
    // Distinct atomics this fiber has loaded — the polling set a spin loop
    // cycles through. Parking is only sound when NONE of them has a store
    // the fiber hasn't read yet (otherwise the forced-newest read of that
    // store is the progress the park would wrongly suppress).
    std::vector<const void*> read_objs;
  };

  struct Choice {
    bool is_sched = false;
    int chosen = 0;             // index into alts
    std::vector<int> alts;      // fiber ids (sched) or store indices (value)
    unsigned sleep = 0;         // sched: sleep-set bitmask on entry
    const void* obj = nullptr;  // value: which atomic (replay sanity check)
  };

  static constexpr std::size_t kStackSize = 256 * 1024;

  explicit Scheduler(const Harness& harness, const Options& opt)
      : harness_(harness), opt_(opt) {}

  // --- exploration driver --------------------------------------------------

  Result explore() {
    const auto t0 = std::chrono::steady_clock::now();
    Result r;
    for (;;) {
      if (opt_.time_budget_ms > 0) {
        const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        if (ms >= opt_.time_budget_ms) {
          r.hit_time_budget = true;
          break;
        }
      }
      if (r.executions >= opt_.max_executions) {
        r.hit_execution_cap = true;
        break;
      }
      runOnce();
      ++r.executions;
      if (abort_reason_ == AbortReason::kPrune) ++r.sleep_pruned;
      if (abort_reason_ == AbortReason::kTruncate) ++r.truncated;
      if (abort_reason_ == AbortReason::kViolation) {
        r.found_violation = true;
        r.violation = violation_;
        return r;
      }
      if (!backtrack()) {
        r.complete = true;
        return r;
      }
    }
    return r;
  }

  Result replaySchedule(const std::string& schedule) {
    Result r;
    if (!parseSchedule(schedule)) {
      r.found_violation = true;
      r.violation.message = "unparseable schedule string: " + schedule;
      return r;
    }
    replay_only_ = true;
    runOnce();
    r.executions = 1;
    if (abort_reason_ == AbortReason::kViolation) {
      r.found_violation = true;
      r.violation = violation_;
    } else {
      // A clean replay still reports its trace so tests can assert on it.
      r.violation.trace = trace_.str();
      r.violation.schedule = formatSchedule();
    }
    return r;
  }

  // --- fiber-side entry points (called from mc/atomic.h via detail::) ------

  std::uint64_t atomicInit(const void* obj, std::uint64_t value) {
    // Construction is not a scheduling point: the object cannot be shared
    // yet. Visibility to later-spawned threads flows through the spawn edge.
    AtomicState& a = atomics_[obj];
    a.id = next_atomic_id_++;
    a.hist.clear();
    a.last_sc_store = 0;
    a.max_read.fill(0);
    a.alive = true;
    StoreRec init;
    init.value = value;
    init.thread = current_;
    init.stamp_own = current_ >= 0 ? fibers_[current_].clock[current_] : 0;
    a.hist.push_back(init);
    return value;
  }

  void atomicDestroy(const void* obj) {
    auto it = atomics_.find(obj);
    if (it != atomics_.end()) it->second.alive = false;
  }

  std::uint64_t atomicLoad(const void* obj, int mo) {
    if (fair_ && !ghost()) {
      fibers_[current_].pending = PendingOp{OpKind::kLoad, obj, mo, -1};
      fairYield();
    } else if (!ghost()) {
      park(PendingOp{OpKind::kLoad, obj, mo, -1});
    }
    if (ghost()) return ghostLoad(obj);
    AtomicState& a = state(obj);
    Fiber& f = fibers_[current_];
    if (std::find(f.read_objs.begin(), f.read_objs.end(), obj) ==
        f.read_objs.end()) {
      f.read_objs.push_back(obj);
    }
    tick();
    // Floor below which stores are no longer readable by this thread.
    int floor = a.max_read[current_];
    for (int i = static_cast<int>(a.hist.size()) - 1; i > floor; --i) {
      if (f.clock[a.hist[i].thread] >= a.hist[i].stamp_own) {
        floor = i;
        break;
      }
    }
    if (isSeqCst(mo)) floor = std::max(floor, a.last_sc_store);
    const int top = static_cast<int>(a.hist.size()) - 1;
    int idx = top;
    if (fair_) {
      // Fairness probe: choice-free, always the newest store. fair_ may
      // have flipped while this fiber sat in park(), so this is checked
      // here and not only at entry.
      idx = top;
    } else if (floor < top) {
      if (f.futile >= kFutileThreshold) {
        // Progress forcing: a spinning thread eventually observes the
        // newest store instead of branching on stale ones forever.
        idx = top;
      } else {
        std::vector<int> alts;
        for (int i = top; i >= floor; --i) alts.push_back(i);  // newest first
        idx = alts[valueChoice(alts, obj)];
      }
    } else {
      idx = floor;
    }
    const StoreRec& rec = a.hist[idx];
    const bool progressed = idx > a.max_read[current_];
    a.max_read[current_] = std::max(a.max_read[current_], idx);
    if (rec.has_release && isAcquireLike(mo)) {
      mergeClock(f.clock, rec.release_clock);
    }
    if (progressed) {
      f.futile = 0;
    } else {
      ++f.futile;
    }
    traceOp("load", obj, mo, rec.value, idx);
    return rec.value;
  }

  void atomicStore(const void* obj, int mo, std::uint64_t value) {
    if (fair_ && !ghost()) {
      fibers_[current_].pending = PendingOp{OpKind::kStore, obj, mo, -1};
      fairYield();
    } else if (!ghost()) {
      park(PendingOp{OpKind::kStore, obj, mo, -1});
    }
    if (ghost()) return ghostStore(obj, value);
    AtomicState& a = state(obj);
    Fiber& f = fibers_[current_];
    tick();
    StoreRec rec;
    rec.value = value;
    rec.thread = current_;
    rec.stamp_own = f.clock[current_];
    if (isReleaseLike(mo)) {
      rec.has_release = true;
      rec.release_clock = f.clock;
    }
    a.hist.push_back(rec);
    const int idx = static_cast<int>(a.hist.size()) - 1;
    if (isSeqCst(mo)) a.last_sc_store = idx;
    a.max_read[current_] = idx;
    f.futile = 0;
    ++store_count_;
    traceOp("store", obj, mo, value, idx);
  }

  std::uint64_t atomicRmw(
      const void* obj, int mo,
      const std::function<std::uint64_t(std::uint64_t)>& fn) {
    if (fair_ && !ghost()) {
      fibers_[current_].pending = PendingOp{OpKind::kRmw, obj, mo, -1};
      fairYield();
    } else if (!ghost()) {
      park(PendingOp{OpKind::kRmw, obj, mo, -1});
    }
    if (ghost()) return ghostRmw(obj, fn);
    AtomicState& a = state(obj);
    Fiber& f = fibers_[current_];
    tick();
    // An RMW reads the newest store in modification order, always.
    const StoreRec& old = a.hist.back();
    const std::uint64_t old_value = old.value;
    if (old.has_release && isAcquireLike(mo)) {
      mergeClock(f.clock, old.release_clock);
    }
    StoreRec rec;
    rec.value = fn(old_value);
    rec.thread = current_;
    rec.stamp_own = f.clock[current_];
    // Release-sequence continuation: an RMW in the middle of a release
    // sequence keeps the head's release clock visible to later acquirers.
    if (isReleaseLike(mo) || old.has_release) {
      rec.has_release = true;
      if (old.has_release) rec.release_clock = old.release_clock;
      if (isReleaseLike(mo)) mergeClock(rec.release_clock, f.clock);
    }
    a.hist.push_back(rec);
    const int idx = static_cast<int>(a.hist.size()) - 1;
    if (isSeqCst(mo)) a.last_sc_store = idx;
    a.max_read[current_] = idx;
    f.futile = 0;
    ++store_count_;
    traceOp("rmw", obj, mo, rec.value, idx);
    return old_value;
  }

  void varInit(const void* obj) {
    VarState& v = vars_[obj];
    v.id = next_var_id_++;
    v.w_thread = current_ >= 0 ? current_ : 0;
    v.w_time = current_ >= 0 ? fibers_[current_].clock[current_] : 0;
    v.r_time.fill(0);
    v.alive = true;
  }

  void varDestroy(const void* obj) {
    auto it = vars_.find(obj);
    if (it != vars_.end()) it->second.alive = false;
  }

  void varRead(const void* obj) {
    if (ghost()) return;
    VarState& v = varState(obj);
    Fiber& f = fibers_[current_];
    if (v.w_thread != current_ && f.clock[v.w_thread] < v.w_time) {
      failHere("data race: T" + std::to_string(current_) + " reads v" +
               std::to_string(v.id) + " unordered with T" +
               std::to_string(v.w_thread) + "'s write");
      return;
    }
    v.r_time[current_] = ++f.clock[current_];
  }

  void varWrite(const void* obj) {
    if (ghost()) return;
    VarState& v = varState(obj);
    Fiber& f = fibers_[current_];
    if (v.w_thread != current_ && f.clock[v.w_thread] < v.w_time) {
      failHere("data race: T" + std::to_string(current_) + " writes v" +
               std::to_string(v.id) + " unordered with T" +
               std::to_string(v.w_thread) + "'s write");
      return;
    }
    for (int t = 0; t < kMaxThreads; ++t) {
      if (t != current_ && f.clock[t] < v.r_time[t]) {
        failHere("data race: T" + std::to_string(current_) + " writes v" +
                 std::to_string(v.id) + " unordered with T" +
                 std::to_string(t) + "'s read");
        return;
      }
    }
    v.w_thread = current_;
    v.w_time = ++f.clock[current_];
  }

  int spawn(std::function<void()> fn) {
    CLUERT_CHECK(current_ >= 0) << "mc::spawn outside an execution";
    int tid = -1;
    for (int i = 0; i < kMaxThreads; ++i) {
      if (fibers_[i].state == FiberState::kUnused) {
        tid = i;
        break;
      }
    }
    CLUERT_CHECK(tid >= 0) << "mc harness exceeds kMaxThreads=" << kMaxThreads;
    Fiber& child = fibers_[tid];
    child.fn = std::move(fn);
    child.state = FiberState::kRunnable;
    child.pending = PendingOp{};  // kThreadStart
    child.clock = fibers_[current_].clock;  // spawn edge
    child.futile = 0;
    child.parked = false;
    child.read_objs.clear();
    tick();
    ++child.clock[tid];
    prepareFiber(tid);
    // A spawn can unblock futile spinners (and is progress for the fairness
    // probe's quiet-sweep accounting) just like a store.
    ++store_count_;
    trace("spawn T" + std::to_string(tid));
    return tid;
  }

  void join(int tid) {
    if (ghost()) {
      // The joiner's scope may own objects (the ring, the epoch) that the
      // target is still touching; even while abandoning an execution, join
      // must not return before the target finished.
      while (fibers_[tid].state != FiberState::kFinished) ghostYield();
      return;
    }
    if (fair_) {
      fibers_[current_].pending = PendingOp{OpKind::kJoin, nullptr, 0, tid};
      while (fibers_[tid].state != FiberState::kFinished && !ghost()) {
        fairYield();
      }
    } else {
      park(PendingOp{OpKind::kJoin, nullptr, 0, tid});
    }
    if (ghost()) {
      // The execution was abandoned while we were waiting here; the
      // enabledness guarantee no longer holds, so wait out the target
      // explicitly before letting the joiner's scope unwind.
      while (fibers_[tid].state != FiberState::kFinished) ghostYield();
      return;
    }
    // Scheduled only once the target finished (enabledness check, both in
    // DFS and in the fairness probe's sweep).
    tick();
    mergeClock(fibers_[current_].clock, fibers_[tid].clock);
    trace("join T" + std::to_string(tid));
  }

  void check(bool cond, const std::string& msg) {
    if (ghost()) return;
    if (!cond) failHere("harness check failed: " + msg);
  }

  // See mc::abandoned(). Yields first so cleanup round-robin keeps turning
  // even when a loop's only instrumented op is the poll itself.
  bool abandonedNow() {
    if (abort_reason_ == AbortReason::kNone) return false;
    ghostYield();
    return abort_reason_ != AbortReason::kNone;
  }

  void runCurrentFiber() {
    Fiber& f = fibers_[current_];
    try {
      f.fn();
    } catch (const McAbort&) {
      // Execution abandoned; just finish unwinding this fiber.
    }
    f.state = FiberState::kFinished;
    ++store_count_;  // finishing can unblock joiners and futile spinners
    trace("T" + std::to_string(current_) + " exits");
    switchToMainDying(f);
  }

 private:
  enum class AbortReason : std::uint8_t {
    kNone,
    kViolation,
    kPrune,
    kTruncate,
  };

  // --- one execution -------------------------------------------------------

  void runOnce() {
    abort_reason_ = AbortReason::kNone;
    pos_ = 0;
    cur_sleep_ = 0;
    preempts_ = 0;
    steps_ = 0;
    store_count_ = 0;
    fair_ = false;
    running_before_ = -1;
    next_atomic_id_ = 0;
    next_var_id_ = 0;
    atomics_.clear();
    vars_.clear();
    trace_.str(std::string());
    for (Fiber& f : fibers_) f.state = FiberState::kUnused;

    // Fiber 0 is the harness body itself.
    Fiber& main_fiber = fibers_[0];
    main_fiber.fn = [this]() {
      Context ctx(this);
      harness_(ctx);
    };
    main_fiber.state = FiberState::kRunnable;
    main_fiber.pending = PendingOp{};
    main_fiber.clock = Clock{};
    main_fiber.clock[0] = 1;
    main_fiber.futile = 0;
    main_fiber.parked = false;
    main_fiber.read_objs.clear();
    current_ = 0;
    prepareFiber(0);

    for (;;) {
      std::vector<int> enabled = enabledFibers();
      if (enabled.empty()) {
        if (anyLive()) {
          if (abort_reason_ == AbortReason::kNone) {
            if (allBlockedInJoin()) {
              fail("deadlock: every live thread is blocked in join()");
            } else {
              fairProbe();
            }
          }
          // The probe may have run the execution to natural completion —
          // only a still-live fiber set needs the ghost sweep (and only
          // that path may mark the execution pruned).
          if (anyLive()) abortAll();
        }
        break;
      }
      const int t = scheduleChoice(enabled);
      if (t < 0) {  // sleep-set dead end, or replay prefix exhausted
        abortAll();
        break;
      }
      if (++steps_ > kMaxSteps && abort_reason_ == AbortReason::kNone) {
        abort_reason_ = AbortReason::kTruncate;
        abortAll();
        break;
      }
      resume(t);
      if (abort_reason_ != AbortReason::kNone) {
        abortAll();
        break;
      }
      running_before_ = t;
    }
    current_ = -1;
  }

  void resume(int t) {
    // Wake sleeping threads whose pending op depends on what t does next —
    // the sibling branch they represent is no longer redundant.
    const PendingOp& op = fibers_[t].pending;
    for (int u = 0; u < kMaxThreads; ++u) {
      if ((cur_sleep_ >> u) & 1u) {
        if (dependent(op, fibers_[u].pending)) cur_sleep_ &= ~(1u << u);
      }
    }
    current_ = t;
    switchToFiber(t);
    current_ = -1;
  }

  // Round-robin every still-live fiber in ghost mode until all finish, so
  // their stacks (and the C++ objects on them) are clean before the next
  // execution reuses them. Ghost semantics are SC with real effects, so the
  // production algorithms terminate under this fair schedule.
  void abortAll() {
    if (abort_reason_ == AbortReason::kNone) abort_reason_ = AbortReason::kPrune;
    long sweeps = 0;
    for (;;) {
      bool any_live = false;
      for (int i = 0; i < kMaxThreads; ++i) {
        if (fibers_[i].state != FiberState::kRunnable) continue;
        any_live = true;
        current_ = i;
        switchToFiber(i);
        current_ = -1;
      }
      if (!any_live) break;
      if (++sweeps >= 1'000'000) {
        // A fiber is spinning on state nobody will ever change — usually
        // the very hang the violation below describes. The stacks cannot
        // be reclaimed without running the loop dry, so surface the
        // counterexample before giving up instead of dying silently.
        std::fprintf(stderr,
                     "mc: abandoned execution failed to terminate under "
                     "ghost scheduling.\n  violation: %s\n  schedule: %s\n",
                     violation_.message.c_str(), violation_.schedule.c_str());
        CLUERT_CHECK(false) << "mc: unreclaimable hung execution";
      }
    }
  }

  bool allBlockedInJoin() const {
    for (const Fiber& f : fibers_) {
      if (f.state != FiberState::kRunnable) continue;
      if (f.pending.kind != OpKind::kJoin) return false;
    }
    return true;
  }

  // Consecutive full probe sweeps in which no fiber stored, spawned or
  // finished before the hang verdict. Must exceed the longest run of loads
  // any loop body performs between two exits/stores — a polling loop whose
  // exit condition is already satisfied still needs a handful of reads to
  // notice. 64 is far above any loop in the checked cores and still costs
  // microseconds.
  static constexpr long kFairQuietSweeps = 64;

  // Futile parking has a blind spot: it equates "this load cannot observe a
  // new value" with "this thread cannot progress", but a loop's exit
  // condition may already be satisfied by the values it keeps re-reading
  // (e.g. a drained ring whose closed flag the consumer has already seen).
  // So an all-parked state is only a hang *candidate*. This probe runs the
  // remainder of the execution under a fair, choice-free schedule —
  // round-robin, every load forced to the newest store, invariant and race
  // checks still live — which any real scheduler would eventually provide.
  // A loop that can make progress does, and the execution completes
  // normally; a genuine lost wakeup keeps every fiber load-spinning without
  // a single store/spawn/finish, which confirms the hang. The probe adds no
  // choice points, so replaying the recorded prefix reproduces its outcome
  // deterministically.
  void fairProbe() {
    fair_ = true;
    for (Fiber& f : fibers_) {
      if (f.state == FiberState::kRunnable) {
        f.parked = false;
        f.futile = 0;
      }
    }
    long quiet_sweeps = 0;
    while (abort_reason_ == AbortReason::kNone) {
      bool resumed_any = false;
      const long progress_before = store_count_;
      for (int i = 0; i < kMaxThreads; ++i) {
        if (abort_reason_ != AbortReason::kNone) break;
        Fiber& f = fibers_[i];
        if (f.state != FiberState::kRunnable) continue;
        if (f.pending.kind == OpKind::kJoin &&
            fibers_[f.pending.join_target].state != FiberState::kFinished) {
          continue;  // blocked join; its target may finish this sweep
        }
        resumed_any = true;
        current_ = i;
        switchToFiber(i);
        current_ = -1;
      }
      if (!resumed_any) {
        if (anyLive()) {
          fail("deadlock: every live thread is blocked in join()");
        }
        break;  // all finished
      }
      if (store_count_ == progress_before) {
        if (++quiet_sweeps >= kFairQuietSweeps) {
          fail(
              "hang: every live thread is spinning on loads that can never "
              "observe a new value (lost wakeup / livelock)");
          break;
        }
      } else {
        quiet_sweeps = 0;
      }
    }
    fair_ = false;
  }

  // --- scheduling ----------------------------------------------------------

  std::vector<int> enabledFibers() {
    std::vector<int> out;
    for (int i = 0; i < kMaxThreads; ++i) {
      Fiber& f = fibers_[i];
      if (f.state != FiberState::kRunnable) continue;
      if (f.pending.kind == OpKind::kJoin &&
          fibers_[f.pending.join_target].state != FiberState::kFinished) {
        continue;
      }
      if (f.parked) {
        if (store_count_ == f.park_store_count) continue;
        f.parked = false;  // something was stored since; spin may progress
        f.futile = 0;
      }
      out.push_back(i);
    }
    return out;
  }

  bool anyLive() const {
    for (const Fiber& f : fibers_) {
      if (f.state == FiberState::kRunnable) return true;
    }
    return false;
  }

  int scheduleChoice(const std::vector<int>& enabled) {
    if (pos_ < prescribed_) {
      Choice& c = path_[pos_];
      // Divergence from the prescribed path (kind mismatch or a thread
      // that is no longer enabled) means a committed schedule no longer
      // matches the harness — in replay mode abandon the remaining prefix
      // and finish cooperatively; in DFS any divergence is a checker bug.
      if (!c.is_sched) {
        CLUERT_CHECK(replay_only_)
            << "mc replay diverged: expected sched choice";
        prescribed_ = pos_;
        return enabled[0];
      }
      ++pos_;
      cur_sleep_ = c.sleep;
      const int t = c.alts[c.chosen];
      if (std::find(enabled.begin(), enabled.end(), t) == enabled.end()) {
        CLUERT_CHECK(replay_only_) << "mc replay diverged: T" << t
                                   << " not enabled at step " << pos_;
        return enabled[0];
      }
      accountPreemption(t, enabled);
      return t;
    }
    if (replay_only_) return enabled[0];  // past-prefix: run cooperatively
    Choice c;
    c.is_sched = true;
    c.sleep = cur_sleep_;
    // Prefer continuing the running thread (free); preemptions cost budget.
    const bool can_continue =
        running_before_ >= 0 &&
        std::find(enabled.begin(), enabled.end(), running_before_) !=
            enabled.end();
    auto asleep = [this](int t) { return ((cur_sleep_ >> t) & 1u) != 0; };
    if (can_continue && !asleep(running_before_)) {
      c.alts.push_back(running_before_);
    }
    if (!can_continue || preempts_ < opt_.preemption_bound) {
      for (int t : enabled) {
        if (t == running_before_ || asleep(t)) continue;
        c.alts.push_back(t);
      }
    }
    if (c.alts.empty()) return -1;  // everything enabled is asleep: prune
    c.chosen = 0;
    path_.push_back(c);
    prescribed_ = path_.size();
    ++pos_;
    const int t = c.alts[0];
    accountPreemption(t, enabled);
    return t;
  }

  void accountPreemption(int t, const std::vector<int>& enabled) {
    if (running_before_ >= 0 && t != running_before_ &&
        std::find(enabled.begin(), enabled.end(), running_before_) !=
            enabled.end()) {
      ++preempts_;
    }
  }

  int valueChoice(const std::vector<int>& alts, const void* obj) {
    if (pos_ < prescribed_) {
      Choice& c = path_[pos_];
      if (c.is_sched) {  // kind mismatch: stale schedule (see scheduleChoice)
        CLUERT_CHECK(replay_only_)
            << "mc replay diverged: expected value choice";
        prescribed_ = pos_;
        return 0;
      }
      ++pos_;
      if (c.chosen < static_cast<int>(alts.size())) return c.chosen;
      return 0;  // edited-prefix drift; degrade to newest
    }
    if (replay_only_) return 0;
    Choice c;
    c.is_sched = false;
    c.alts = alts;
    c.obj = obj;
    c.chosen = 0;
    path_.push_back(c);
    prescribed_ = path_.size();
    ++pos_;
    return 0;
  }

  // Advance the deepest choice point with an unexplored sibling; returns
  // false when the whole tree is exhausted.
  bool backtrack() {
    while (!path_.empty()) {
      Choice& c = path_.back();
      if (c.is_sched && c.chosen + 1 < static_cast<int>(c.alts.size())) {
        // Sleep-set rule: the branch just explored goes to sleep in its
        // siblings until a dependent op wakes it.
        c.sleep |= 1u << c.alts[c.chosen];
        ++c.chosen;
        prescribed_ = path_.size();
        return true;
      }
      if (!c.is_sched && c.chosen + 1 < static_cast<int>(c.alts.size())) {
        ++c.chosen;
        prescribed_ = path_.size();
        return true;
      }
      path_.pop_back();
    }
    return false;
  }

  static bool dependent(const PendingOp& a, const PendingOp& b) {
    if (a.kind == OpKind::kJoin || b.kind == OpKind::kJoin) return true;
    if (a.kind == OpKind::kThreadStart || b.kind == OpKind::kThreadStart) {
      return true;  // conservative: a fresh thread's first real op is unknown
    }
    if (a.obj != b.obj) return false;
    return a.kind != OpKind::kLoad || b.kind != OpKind::kLoad;
  }

  // --- fiber plumbing ------------------------------------------------------

  static void trampoline();

  // The three stack transitions, each wrapped in the sanitizer fiber
  // annotations (no-ops outside ASan builds):
  //   * main -> fiber: every resume (DFS, abortAll sweep, fairness probe);
  //   * fiber -> main: park/ghostYield/fairYield, resumed later;
  //   * fiber -> main, dying: the fiber never runs again, so its ASan fake
  //     stack is destroyed (nullptr save) before the final switch.
  void switchToFiber(int t) {
    Fiber& f = fibers_[t];
#if defined(CLUERT_MC_ASAN)
    __sanitizer_start_switch_fiber(&main_fake_stack_, f.stack.get(),
                                   kStackSize);
#endif
    swapcontext(&main_ctx_, &f.ctx);
#if defined(CLUERT_MC_ASAN)
    __sanitizer_finish_switch_fiber(main_fake_stack_, nullptr, nullptr);
#endif
  }

  void switchToMain(Fiber& f) {
#if defined(CLUERT_MC_ASAN)
    __sanitizer_start_switch_fiber(&f.fake_stack, main_stack_bottom_,
                                   main_stack_size_);
#endif
    swapcontext(&f.ctx, &main_ctx_);
#if defined(CLUERT_MC_ASAN)
    __sanitizer_finish_switch_fiber(f.fake_stack, &main_stack_bottom_,
                                    &main_stack_size_);
#endif
  }

  void switchToMainDying(Fiber& f) {
#if defined(CLUERT_MC_ASAN)
    __sanitizer_start_switch_fiber(nullptr, main_stack_bottom_,
                                   main_stack_size_);
#endif
    swapcontext(&f.ctx, &main_ctx_);
  }

  // Called on fiber entry (trampoline) and when a fiber resumes from
  // switchToMain: records the bounds of the stack we came from, which on
  // first entry is the real OS thread stack main_ctx_ runs on.
  void finishSwitchIntoFiber(void* fake_stack_save) {
#if defined(CLUERT_MC_ASAN)
    __sanitizer_finish_switch_fiber(fake_stack_save, &main_stack_bottom_,
                                    &main_stack_size_);
#else
    (void)fake_stack_save;
#endif
  }

  void prepareFiber(int tid) {
    Fiber& f = fibers_[tid];
    if (!f.stack) f.stack = std::make_unique<char[]>(kStackSize);
    getcontext(&f.ctx);
    f.ctx.uc_stack.ss_sp = f.stack.get();
    f.ctx.uc_stack.ss_size = kStackSize;
    f.ctx.uc_link = &main_ctx_;
    makecontext(&f.ctx, &Scheduler::trampoline, 0);
  }

  // Announce the next op and hand control to the explorer. On return the
  // explorer has selected this fiber to perform exactly that op (or the
  // execution is being abandoned — the caller re-checks ghost()).
  void park(PendingOp op) {
    Fiber& f = fibers_[current_];
    if (f.futile >= kFutileThreshold && op.kind == OpKind::kLoad &&
        !anythingUnread(f, op.obj)) {
      // This spin made no progress, and no object the fiber polls has a
      // store it hasn't read: stop offering it to the scheduler until
      // someone stores (or report a hang if nobody ever can).
      f.parked = true;
      f.park_store_count = store_count_;
    }
    f.pending = op;
    switchToMain(f);
  }

  // True when some atomic this fiber polls (its read set plus the object it
  // is about to load) carries a store the fiber has not read yet — i.e. a
  // futile-looking spin can still be forced forward.
  bool anythingUnread(const Fiber& f, const void* about_to_read) {
    const int tid = static_cast<int>(&f - fibers_.data());
    auto has_unread = [this, tid](const void* obj) {
      auto it = atomics_.find(obj);
      if (it == atomics_.end() || !it->second.alive) return false;
      return static_cast<int>(it->second.hist.size()) - 1 >
             it->second.max_read[tid];
    };
    if (has_unread(about_to_read)) return true;
    for (const void* obj : f.read_objs) {
      if (has_unread(obj)) return true;
    }
    return false;
  }

  // Ghost mode: the execution is being abandoned (violation recorded,
  // sleep-set prune, step cap) or a fiber is unwinding. Instrumented ops
  // switch to choice-free sequentially-consistent semantics — real effects
  // so every loop still terminates, but no choice points, no race checks,
  // and crucially no exceptions: abandonment must traverse production
  // noexcept destructors (ReadGuard::~ReadGuard parks via fetch_add), so
  // fibers run to natural completion instead of being unwound forcibly.
  bool ghost() const {
    return current_ < 0 || abort_reason_ != AbortReason::kNone ||
           std::uncaught_exceptions() > 0;
  }

  // Cooperative yield inside the fairness probe: hand control back to
  // fairProbe()'s round-robin sweep so every live fiber advances one op at
  // a time. Distinct from park() in that no choice is recorded and no
  // futile-parking applies.
  void fairYield() {
    if (current_ < 0 || std::uncaught_exceptions() > 0) return;
    switchToMain(fibers_[current_]);
  }

  // Cooperative yield inside ghost mode so abortAll() can round-robin the
  // remaining fibers (a spinning producer still needs its consumer to run).
  // Never swaps while an exception is in flight on this fiber.
  void ghostYield() {
    if (current_ < 0 || std::uncaught_exceptions() > 0) return;
    switchToMain(fibers_[current_]);
  }

  std::uint64_t ghostLoad(const void* obj) {
    ghostYield();
    auto it = atomics_.find(obj);
    return it == atomics_.end() || it->second.hist.empty()
               ? 0
               : it->second.hist.back().value;
  }

  void ghostStore(const void* obj, std::uint64_t value) {
    ghostYield();
    auto it = atomics_.find(obj);
    if (it == atomics_.end()) return;
    StoreRec rec;
    rec.value = value;
    rec.thread = current_ >= 0 ? current_ : 0;
    it->second.hist.push_back(rec);
  }

  std::uint64_t ghostRmw(const void* obj,
                         const std::function<std::uint64_t(std::uint64_t)>& fn) {
    ghostYield();
    auto it = atomics_.find(obj);
    if (it == atomics_.end() || it->second.hist.empty()) return 0;
    const std::uint64_t old = it->second.hist.back().value;
    StoreRec rec;
    rec.value = fn(old);
    rec.thread = current_ >= 0 ? current_ : 0;
    it->second.hist.push_back(rec);
    return old;
  }

  AtomicState& state(const void* obj) {
    auto it = atomics_.find(obj);
    CLUERT_CHECK(it != atomics_.end() && it->second.alive)
        << "mc::Atomic used outside its registered lifetime";
    return it->second;
  }

  VarState& varState(const void* obj) {
    auto it = vars_.find(obj);
    CLUERT_CHECK(it != vars_.end() && it->second.alive)
        << "mc::Var used outside its registered lifetime";
    return it->second;
  }

  void tick() { ++fibers_[current_].clock[current_]; }

  // --- failure + reporting -------------------------------------------------

  void fail(const std::string& msg) {
    if (abort_reason_ != AbortReason::kNone) return;
    abort_reason_ = AbortReason::kViolation;
    violation_.message = msg;
    violation_.schedule = formatSchedule();
    violation_.trace = trace_.str();
  }

  // Failure raised from a running fiber: record, then unwind self.
  void failHere(const std::string& msg) {
    trace("T" + std::to_string(current_) + " !! " + msg);
    fail(msg);
    throw McAbort{};
  }

  std::string formatSchedule() const {
    std::string out = "mc1:";
    for (std::size_t i = 0; i < pos_ && i < path_.size(); ++i) {
      const Choice& c = path_[i];
      if (i > 0) out += ',';
      if (c.is_sched) {
        out += 's' + std::to_string(c.alts[c.chosen]);
      } else {
        out += 'v' + std::to_string(c.chosen);
      }
    }
    return out;
  }

  bool parseSchedule(const std::string& schedule) {
    if (schedule.rfind("mc1:", 0) != 0) return false;
    path_.clear();
    std::string body = schedule.substr(4);
    std::stringstream ss(body);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (tok.size() < 2 || (tok[0] != 's' && tok[0] != 'v')) return false;
      const auto n = parseNumber<int>(std::string_view(tok).substr(1));
      if (!n) return false;
      Choice c;
      c.is_sched = tok[0] == 's';
      if (c.is_sched) {
        // Replay stores the *fiber id*; wrap it as a one-alt choice.
        c.alts = {*n};
        c.chosen = 0;
      } else {
        c.chosen = *n;
      }
      path_.push_back(c);
    }
    prescribed_ = path_.size();
    return true;
  }

  void traceOp(const char* what, const void* obj, int mo, std::uint64_t value,
               int idx) {
    const AtomicState& a = atomics_[obj];
    trace_ << "T" << current_ << " a" << a.id << "." << what << "("
           << orderName(mo) << ") = " << value << " [#" << idx << "]\n";
  }

  void trace(const std::string& line) {
    trace_ << line << "\n";
  }

  // --- state ---------------------------------------------------------------

  const Harness& harness_;
  Options opt_;

  std::array<Fiber, kMaxThreads> fibers_;
  ucontext_t main_ctx_{};
  // ASan fiber-annotation state for the explorer's own (OS thread) stack:
  // the fake-stack handle saved while a fiber runs, and the bounds learned
  // from the first finish_switch on a fiber (unused outside ASan builds).
  [[maybe_unused]] void* main_fake_stack_ = nullptr;
  [[maybe_unused]] const void* main_stack_bottom_ = nullptr;
  [[maybe_unused]] std::size_t main_stack_size_ = 0;
  int current_ = -1;
  int running_before_ = -1;

  std::vector<Choice> path_;
  std::size_t prescribed_ = 0;
  std::size_t pos_ = 0;
  unsigned cur_sleep_ = 0;
  int preempts_ = 0;
  long steps_ = 0;
  long store_count_ = 0;
  bool replay_only_ = false;
  // True while fairProbe() is driving the execution (choice-free fair
  // schedule); instrumented ops switch from park() to fairYield().
  bool fair_ = false;

  std::unordered_map<const void*, AtomicState> atomics_;
  std::unordered_map<const void*, VarState> vars_;
  int next_atomic_id_ = 0;
  int next_var_id_ = 0;

  AbortReason abort_reason_ = AbortReason::kNone;
  Violation violation_;
  std::ostringstream trace_;
};

namespace {
Scheduler* g_current = nullptr;  // exploration is single-OS-threaded
}

void Scheduler::trampoline() {
  // First entry onto this fiber stack: no fake stack was saved for it
  // (nullptr), and the bounds reported back are the main thread's stack.
  g_current->finishSwitchIntoFiber(nullptr);
  g_current->runCurrentFiber();
}

// ---------------------------------------------------------------------------

int Context::spawn(std::function<void()> fn) { return s_->spawn(std::move(fn)); }
void Context::join(int tid) { s_->join(tid); }
void Context::check(bool cond, const std::string& msg) { s_->check(cond, msg); }

std::string Result::summary() const {
  std::ostringstream os;
  if (found_violation) {
    os << "VIOLATION after " << executions << " executions: "
       << violation.message << "\n  schedule: " << violation.schedule;
  } else if (complete) {
    os << "complete: " << executions << " executions, " << sleep_pruned
       << " sleep-pruned, " << truncated << " truncated, no violation";
  } else {
    os << "bounded: " << executions << " executions ("
       << (hit_time_budget ? "time budget" : "execution cap")
       << "), no violation";
  }
  return os.str();
}

Result explore(const Harness& harness, const Options& options) {
  CLUERT_CHECK(g_current == nullptr) << "nested mc exploration";
  Scheduler s(harness, options);
  g_current = &s;
  Result r = s.explore();
  g_current = nullptr;
  return r;
}

Result replay(const Harness& harness, const std::string& schedule,
              const Options& options) {
  CLUERT_CHECK(g_current == nullptr) << "nested mc exploration";
  Scheduler s(harness, options);
  g_current = &s;
  Result r = s.replaySchedule(schedule);
  g_current = nullptr;
  return r;
}

bool abandoned() {
  return g_current != nullptr && g_current->abandonedNow();
}

namespace detail {

Scheduler* current() { return g_current; }

std::uint64_t atomicInit(const void* obj, std::uint64_t value) {
  CLUERT_CHECK(g_current != nullptr) << "mc::Atomic outside an exploration";
  return g_current->atomicInit(obj, value);
}
void atomicDestroy(const void* obj) {
  if (g_current != nullptr) g_current->atomicDestroy(obj);
}
std::uint64_t atomicLoad(const void* obj, int mo) {
  return g_current->atomicLoad(obj, mo);
}
void atomicStore(const void* obj, int mo, std::uint64_t value) {
  g_current->atomicStore(obj, mo, value);
}
std::uint64_t atomicRmw(const void* obj, int mo,
                        const std::function<std::uint64_t(std::uint64_t)>& fn) {
  return g_current->atomicRmw(obj, mo, fn);
}
void varInit(const void* obj) {
  CLUERT_CHECK(g_current != nullptr) << "mc::Var outside an exploration";
  g_current->varInit(obj);
}
void varDestroy(const void* obj) {
  if (g_current != nullptr) g_current->varDestroy(obj);
}
void varRead(const void* obj) { g_current->varRead(obj); }
void varWrite(const void* obj) { g_current->varWrite(obj); }

}  // namespace detail

}  // namespace cluert::mc
