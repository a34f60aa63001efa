// The three workloads of the cluert benchmark (README.md). Each runs in its
// own process, fills a Report, and returns 0 when it measured; correctness
// failures are counted in the Report, not returned.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t nproc = 1;
};

// Threads that compute for the whole timed window. The load budget: never
// more than nproc of them (README.md, "Load budget").
std::size_t memHotBusyThreads(std::size_t nproc);
std::size_t memChurnBusyThreads(std::size_t nproc);
std::size_t wireBusyThreads(std::size_t nproc);

void runMemHot(const Args& args, Report& report);
void runMemChurn(const Args& args, Report& report);
void runWire(const Args& args, Report& report);

}  // namespace perfbench
