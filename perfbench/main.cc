// perfbench: the cluert benchmark. One workload per process:
//
//   perfbench --workload <wire_loopback|mem_hot|mem_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--git-sha <sha>]
//             [--source-sha1 <digest>]
//
// Prints provenance ("info" lines), every metric by name with its unit
// ("metric" end-to-end, "layer" per-layer), and last one JSON line:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
// with --trace 0, the per-layer ones with --trace 1. Exits 1 when any output
// failed verification, 2 on bad arguments or an over-budget workload.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <wire_loopback|mem_hot|mem_churn> "
               "--seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--source-sha1 <digest>]\n");
  return 2;
}

struct Workload {
  const char* name;
  std::size_t min_nproc;  // fewer cores cannot hold the workload's threads
  std::size_t (*busy_threads)(std::size_t nproc);
  void (*run)(const Args&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"wire_loopback", 3, wireBusyThreads, runWire},
    {"mem_hot", 2, memHotBusyThreads, runMemHot},
    {"mem_churn", 3, memChurnBusyThreads, runMemChurn},
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string git_sha = "none";
  std::string source_sha1 = "none";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
      have_seconds = args.seconds >= 1;
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      have_trace = args.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-sha1") {
      source_sha1 = value;
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (args.workload == c.name) w = &c;
  }
  if (w == nullptr || !have_seed || !have_seconds || !have_trace ||
      argc % 2 == 0) {
    return usage();
  }

  args.nproc = std::thread::hardware_concurrency();
  const std::size_t busy = w->busy_threads(args.nproc);
  if (args.nproc < w->min_nproc || busy > args.nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %zu busy threads on %zu cores; "
                 "refusing to oversubscribe\n",
                 w->name, busy, args.nproc);
    return 2;
  }

  Report report;
  declareLayers(report);
  report.info("workload", args.workload);
  report.info("seed", std::to_string(args.seed));
  report.info("seconds", std::to_string(args.seconds));
  report.info("trace", args.trace ? "1" : "0");
  report.info("nproc", std::to_string(args.nproc));
  report.info("busy_threads", std::to_string(busy));
  report.info("git_sha", git_sha);
  report.info("source_sha1", source_sha1);

  const std::uint64_t t0 = nowNs();
  const double cpu0 = processCpuSeconds();
  w->run(args, report);
  report.info("process_cpu_s", std::to_string(processCpuSeconds() - cpu0));
  report.info("wall_s", std::to_string(secondsSince(t0)));
  report.print(args.trace);
  return report.correct() ? 0 : 1;
}
