// Export layer: turns metric snapshots and sampled spans into the two
// interchange formats the tooling around this repo speaks.
//
//  * Prometheus text exposition — for scraping / tools/metrics_diff.py
//    perf gating. One # HELP / # TYPE block per family, histograms as
//    cumulative le-buckets with _sum and _count.
//  * JSONL — one JSON object per PacketSpan, from the daemon's /trace
//    endpoint and from Pipeline::drainSpans() alike; jq-friendly, and
//    tools/trace_merge.py renders any set of such streams as one
//    chrome://tracing timeline.
#pragma once

#include <span>
#include <string>

#include "obs/metrics.h"
#include "obs/span.h"

namespace cluert::obs {

// Prometheus text exposition format (version 0.0.4).
std::string toPrometheus(const MetricSnapshot& snapshot);

// One JSON object per span, newline separated — the /trace admin endpoint
// body and tools/trace_merge.py input. `router` labels the emitting daemon
// or pipeline; the 128-bit trace id renders as 32 hex digits so the merge
// tool can join hops textually.
std::string spansToJsonl(std::span<const PacketSpan> spans,
                         const std::string& router);

}  // namespace cluert::obs
