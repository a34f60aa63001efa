// The one steady clock: monotonic nanoseconds, the timebase of every span,
// flight-recorder event, event-loop tick and publish timing. CLOCK_MONOTONIC
// is system-wide on Linux, so daemons on one host share it
// (tools/trace_merge.py relies on that across hops).
#pragma once

#include <chrono>
#include <cstdint>

namespace cluert {

inline std::uint64_t steadyNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace cluert
