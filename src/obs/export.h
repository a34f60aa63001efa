// Export layer: turns metric snapshots and trace rings into the three
// interchange formats the tooling around this repo speaks.
//
//  * Prometheus text exposition — for scraping / tools/metrics_diff.py
//    perf gating. One # HELP / # TYPE block per family, histograms as
//    cumulative le-buckets with _sum and _count.
//  * JSONL — one JSON object per TraceEvent, for ad-hoc jq analysis of the
//    per-lookup distributions (§6 style).
//  * chrome://tracing JSON — per-worker timelines (batch spans + sampled
//    lookup events) loadable in Perfetto / chrome://tracing.
#pragma once

#include <span>
#include <string>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace cluert::obs {

// Prometheus text exposition format (version 0.0.4).
std::string toPrometheus(const MetricSnapshot& snapshot);

// One compact JSON object per event, newline separated.
std::string toJsonl(std::span<const TraceEvent> events);

// One JSON object per hop-span, newline separated — the /trace admin
// endpoint body and tools/trace_merge.py input. `router` labels the
// emitting daemon; the 128-bit trace id renders as 32 hex digits so the
// merge tool can join hops textually.
std::string spansToJsonl(std::span<const PacketSpan> spans,
                         const std::string& router);

// chrome://tracing "JSON object format": {"traceEvents": [...]}. Batch
// spans and sampled lookups both become complete ("X") events on tid =
// worker — a lookup spans its resolve call's window, so it nests inside its
// batch; lookups carry outcome/clue/access args. Workers get thread_name
// metadata. `process_name` labels the pid row in the UI.
std::string toChromeTrace(std::span<const TraceEvent> events,
                          std::span<const SpanEvent> spans,
                          const std::string& process_name = "cluert");

// Convenience: write `content` to `path`, returning false (and leaving a
// partial file possibly behind) on I/O failure.
bool writeFile(const std::string& path, const std::string& content);

}  // namespace cluert::obs
