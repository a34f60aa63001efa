#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace cluert::obs {

namespace {

// Prometheus label values escape backslash, double quote and newline.
std::string escapeLabel(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// {a="x",b="y"} with an optional extra label appended (histogram `le`).
std::string labelBlock(const Labels& labels, const std::string& extra_key = "",
                       const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + escapeLabel(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + extra_value + "\"";
  }
  out += "}";
  return out;
}

const char* kindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

std::string fmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

std::string toPrometheus(const MetricSnapshot& snapshot) {
  std::ostringstream out;
  std::string last_family;
  for (const MetricSample& s : snapshot.samples) {
    if (s.desc.name != last_family) {
      last_family = s.desc.name;
      out << "# HELP " << s.desc.name << " " << s.desc.help << "\n";
      out << "# TYPE " << s.desc.name << " " << kindName(s.desc.kind) << "\n";
    }
    switch (s.desc.kind) {
      case MetricKind::kCounter:
        out << s.desc.name << labelBlock(s.desc.labels) << " "
            << s.counter_value << "\n";
        break;
      case MetricKind::kGauge:
        out << s.desc.name << labelBlock(s.desc.labels) << " "
            << fmtDouble(s.gauge_value) << "\n";
        break;
      case MetricKind::kHistogram: {
        // Buckets are cumulative and sparse-rendered: every non-empty bucket
        // plus +Inf, which Prometheus requires and which always equals
        // _count.
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
          cum += s.hist.counts[b];
          if (s.hist.counts[b] == 0 && b + 1 < kHistogramBuckets) continue;
          const std::string le =
              b + 1 < kHistogramBuckets
                  ? std::to_string(histogramBucketBound(b))
                  : "+Inf";
          out << s.desc.name << "_bucket"
              << labelBlock(s.desc.labels, "le", le) << " " << cum << "\n";
        }
        out << s.desc.name << "_sum" << labelBlock(s.desc.labels) << " "
            << s.hist.sum << "\n";
        out << s.desc.name << "_count" << labelBlock(s.desc.labels) << " "
            << s.hist.count << "\n";
        break;
      }
    }
  }
  return out.str();
}

std::string spansToJsonl(std::span<const PacketSpan> spans,
                         const std::string& router) {
  std::ostringstream out;
  for (const PacketSpan& s : spans) {
    char id[33];
    std::snprintf(id, sizeof(id), "%016" PRIx64 "%016" PRIx64, s.trace_hi,
                  s.trace_lo);
    char dest[16];
    std::snprintf(dest, sizeof(dest), "%u.%u.%u.%u", (s.dest >> 24) & 0xff,
                  (s.dest >> 16) & 0xff, (s.dest >> 8) & 0xff, s.dest & 0xff);
    out << "{\"trace_id\":\"" << id << "\",\"hop\":"
        << static_cast<unsigned>(s.hop) << ",\"router\":\"" << router
        << "\",\"router_id\":" << s.router_id << ",\"worker\":" << s.worker
        << ",\"src_id\":" << s.src_id << ",\"dest\":\"" << dest
        << "\",\"origin_ns\":" << s.origin_ns << ",\"rx_ns\":" << s.rx_ns
        << ",\"decode_ns\":" << s.decode_ns
        << ",\"lookup_start_ns\":" << s.lookup_start_ns
        << ",\"lookup_end_ns\":" << s.lookup_end_ns
        << ",\"tx_ns\":" << s.tx_ns
        << ",\"clue_len\":" << static_cast<int>(s.clue_len)
        << ",\"outcome\":\"" << outcomeName(s.outcome)
        << "\",\"claim1_skip\":" << (s.claim1_skip ? "true" : "false")
        << ",\"search_failed\":" << (s.search_failed ? "true" : "false")
        << ",\"verdict\":\"" << spanVerdictName(s.verdict)
        << "\",\"accesses\":{";
    bool first = true;
    for (std::size_t r = 0; r < s.accesses.size(); ++r) {
      if (s.accesses[r] == 0) continue;
      if (!first) out << ",";
      first = false;
      out << "\"" << mem::regionName(static_cast<mem::Region>(r)) << "\":"
          << s.accesses[r];
    }
    out << "},\"total_accesses\":" << s.accessTotal() << "}\n";
  }
  return out.str();
}

}  // namespace cluert::obs
