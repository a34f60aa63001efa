// Command-line driver for the in-tree model checker (src/mc/). Runs the
// named harnesses from src/mc/harnesses.h and reports counterexamples as
// replayable schedule strings.
//
//   mc_run --list                  enumerate harnesses
//   mc_run [name...]               explore the named harnesses (default all)
//   mc_run --smoke <ms>            time-boxed sweep over all harnesses; used
//                                  by tools/ci.sh gate 8. Mutant harnesses
//                                  must still produce their violation within
//                                  the budget; correct ones must simply not
//                                  violate (completeness is not required
//                                  under a time budget).
//   mc_run --replay <name> <sched> re-run one schedule with a full trace
//
// Exit status: 0 when every harness behaved as expected (violation iff the
// registry expects one), 1 otherwise, and 2 with the usage text for an
// unknown flag or a count that is not a number.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/text.h"
#include "mc/harnesses.h"

namespace {

using cluert::mc::NamedHarness;
using cluert::mc::Options;
using cluert::mc::Result;

int usage() {
  std::fprintf(stderr,
               "usage: mc_run [--list] [--smoke MS] [--max-executions N]\n"
               "              [--preemption-bound N] [-v] [name...]\n"
               "       mc_run --replay NAME SCHEDULE\n");
  return 2;
}

// Reads `*out` from argv[++i]; false when it is not a T.
template <typename T>
bool numberArg(char** argv, int& i, T* out) {
  const auto v = cluert::parseNumber<T>(argv[++i]);
  if (v) *out = *v;
  return v.has_value();
}

const NamedHarness* find(const std::string& name) {
  for (const NamedHarness& h : cluert::mc::harnessRegistry()) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// Returns true when the harness behaved as the registry expects.
bool runOne(const NamedHarness& h, const Options& opt, bool verbose) {
  const Result r = cluert::mc::explore(h.fn, opt);
  const bool ok = r.found_violation == h.expect_violation;
  std::printf("%-32s %-4s %s\n", h.name.c_str(), ok ? "ok" : "FAIL",
              r.summary().c_str());
  if (verbose && r.found_violation) {
    std::printf("--- trace ---\n%s-------------\n", r.violation.trace.c_str());
  }
  if (!ok && !r.found_violation) {
    std::printf("  expected a violation (%s) but none was found\n",
                h.note.c_str());
  }
  if (!ok && r.found_violation) {
    std::printf("  unexpected violation; replay with:\n"
                "    mc_run --replay %s '%s'\n",
                h.name.c_str(), r.violation.schedule.c_str());
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const auto& registry = cluert::mc::harnessRegistry();
  Options opt;
  bool verbose = false;
  std::string replay_name;
  std::string replay_schedule;
  std::vector<std::string> names;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const NamedHarness& h : registry) {
        std::printf("%-32s %s%s\n", h.name.c_str(), h.note.c_str(),
                    h.expect_violation ? " [expects violation]" : "");
      }
      return 0;
    } else if (arg == "--smoke" && i + 1 < argc) {
      if (!numberArg(argv, i, &opt.time_budget_ms)) return usage();
    } else if (arg == "--max-executions" && i + 1 < argc) {
      if (!numberArg(argv, i, &opt.max_executions)) return usage();
    } else if (arg == "--preemption-bound" && i + 1 < argc) {
      if (!numberArg(argv, i, &opt.preemption_bound)) return usage();
    } else if (arg == "--replay" && i + 2 < argc) {
      replay_name = argv[++i];
      replay_schedule = argv[++i];
    } else if (arg == "-v" || arg == "--verbose") {
      verbose = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage();
    } else {
      names.push_back(arg);
    }
  }

  if (!replay_name.empty()) {
    const NamedHarness* h = find(replay_name);
    if (h == nullptr) {
      std::fprintf(stderr, "no harness named %s\n", replay_name.c_str());
      return 2;
    }
    const Result r = cluert::mc::replay(h->fn, replay_schedule);
    std::printf("%s\n--- trace ---\n%s-------------\n",
                r.found_violation ? r.violation.message.c_str()
                                  : "no violation on this schedule",
                r.violation.trace.c_str());
    return 0;
  }

  bool all_ok = true;
  for (const NamedHarness& h : registry) {
    if (!names.empty() &&
        std::find(names.begin(), names.end(), h.name) == names.end()) {
      continue;
    }
    all_ok = runOne(h, opt, verbose) && all_ok;
  }
  return all_ok ? 0 : 1;
}
