// Shared machinery for the experiment binaries: the §6 methodology
// (destination sampling, the 15-way method comparison) and table printing.
#pragma once

#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/text.h"
#include "core/distributed_lookup.h"
#include "rib/snapshot.h"

// Baked in by bench/CMakeLists.txt at configure time (git rev-parse); the
// fallback covers tarball builds with no .git directory.
#ifndef CLUERT_GIT_SHA
#define CLUERT_GIT_SHA "unknown"
#endif

namespace cluert::bench {

// Bump when the shape of any BENCH_*.json artifact changes incompatibly, so
// downstream comparators (tools/metrics_diff.py and whatever reads the perf
// trajectory across PRs) can refuse to diff mismatched layouts instead of
// silently comparing apples to oranges.
inline constexpr int kBenchSchemaVersion = 1;

// Minimal streaming JSON writer shared by the experiment binaries. Every
// document opens with the same provenance header — bench name, schema
// version, git SHA — which is the point of centralising it: artifacts from
// different benches and different commits stay self-identifying.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  // Opens the root object and stamps the provenance header. Hostname and
  // CPU count identify the machine behind a number — a pps regression that
  // is really "ran on the small box" should be visible from the artifact
  // alone.
  void beginDocument(std::string_view bench) {
    beginObject();
    field("bench", bench);
    field("schema_version", static_cast<std::uint64_t>(kBenchSchemaVersion));
    field("git_sha", std::string_view(CLUERT_GIT_SHA));
    char host[256] = {};
    if (::gethostname(host, sizeof host - 1) != 0) {
      std::snprintf(host, sizeof host, "unknown");
    }
    field("hostname", std::string_view(host));
    field("cpus", static_cast<std::uint64_t>(
                      std::thread::hardware_concurrency()));
  }
  void endDocument() {
    endObject();
    out_ << "\n";
  }

  void beginObject() {
    item();
    out_ << "{";
    stack_.push_back(true);
  }
  void endObject() {
    stack_.pop_back();
    newlineIndent();
    out_ << "}";
  }
  void beginArray(std::string_view k) {
    key(k);
    item();
    out_ << "[";
    stack_.push_back(true);
  }
  void endArray() {
    stack_.pop_back();
    newlineIndent();
    out_ << "]";
  }

  void key(std::string_view k) {
    item();
    quoted(k);
    out_ << ": ";
    pending_value_ = true;
  }

  void value(std::string_view v) {
    item();
    quoted(v);
  }
  void value(const char* v) { value(std::string_view(v)); }
  void value(bool v) {
    item();
    out_ << (v ? "true" : "false");
  }
  void value(double v) {
    item();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ << buf;
  }
  void value(std::uint64_t v) {
    item();
    out_ << v;
  }
  void value(int v) {
    item();
    out_ << v;
  }

  template <typename T>
  void field(std::string_view k, T v) {
    key(k);
    value(v);
  }

 private:
  // Comma/indent bookkeeping: called before every emitted item. A value that
  // directly follows its key stays on the key's line.
  void item() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (stack_.empty()) return;  // root
    if (!stack_.back()) out_ << ",";
    stack_.back() = false;
    newlineIndent();
  }
  void newlineIndent() {
    out_ << "\n";
    for (std::size_t i = 0; i < stack_.size(); ++i) out_ << "  ";
  }
  void quoted(std::string_view s) {
    out_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << c;
    }
    out_ << '"';
  }

  std::ostream& out_;
  std::vector<bool> stack_;  // per open scope: "no item emitted yet"
  bool pending_value_ = false;
};

using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;

// §6: "A random destination is chosen, and its BMP in R1 is computed. Then
// we verified that this BMP is a vertex in the trie of R2, and if so the
// processing of that packet at R2 was carried out."
//
// Our synthetic tables cover a small slice of the 2^32 space (the 1999
// route-server tables covered most of it), so uniform draws would rarely
// have a BMP at all; we therefore bias destinations toward covered space —
// the per-method *relative* costs are unaffected (documented in
// EXPERIMENTS.md).
inline std::vector<A> paperDestinations(const rib::Fib4& sender,
                                        const trie::BinaryTrie4& t1,
                                        const trie::BinaryTrie4& t2, Rng& rng,
                                        std::size_t count) {
  std::vector<A> out;
  out.reserve(count);
  mem::AccessCounter scratch;
  const auto entries = sender.entries();
  std::size_t attempts = 0;
  const std::size_t max_attempts = count * 200 + 10'000;
  while (out.size() < count && ++attempts < max_attempts) {
    A dest(rng.u32());
    if (!entries.empty() && !rng.chance(0.1)) {
      const auto& p = entries[rng.index(entries.size())].prefix;
      dest = p.addr();
      for (int b = p.length(); b < 32; ++b) {
        dest = dest.withBit(b, static_cast<unsigned>(rng.u32() & 1));
      }
    }
    const auto bmp = t1.lookup(dest, scratch);
    if (!bmp) continue;
    if (t2.findVertex(bmp->prefix) == nullptr) continue;  // §6 filter
    out.push_back(dest);
  }
  return out;
}

// Average data-plane accesses for the 15 combinations of §6 Tables 4-9:
// {Common, Simple, Advance} x one column per method.
template <std::size_t N = lookup::kAllMethods.size()>
struct FifteenWay {
  std::array<lookup::Method, N> methods = {};
  // [mode][method]: mode 0 = Common, 1 = Simple, 2 = Advance.
  double avg[3][N] = {};
  std::size_t destinations = 0;
};

// Runs the §6 grid over `methods` (the paper's five, or kExtendedMethods
// for E17's sixth column) for packets flowing sender -> receiver.
template <typename Addr, std::size_t N = lookup::kAllMethods.size()>
FifteenWay<N> runFifteenWay(
    const rib::Fib<Addr>& sender, const rib::Fib<Addr>& receiver,
    const std::vector<Addr>& dests, const trie::BinaryTrie<Addr>& t1,
    const std::array<lookup::Method, N>& methods = lookup::kAllMethods) {
  FifteenWay<N> out;
  out.methods = methods;
  out.destinations = dests.size();
  if (dests.empty()) return out;

  // Precompute each destination's clue (the sender's BMP) once.
  mem::AccessCounter scratch;
  std::vector<core::ClueField> clues(dests.size());
  for (std::size_t i = 0; i < dests.size(); ++i) {
    const auto bmp = t1.lookup(dests[i], scratch);
    clues[i] = bmp ? core::ClueField::of(bmp->prefix.length())
                   : core::ClueField::none();
  }
  const std::vector<ip::Prefix<Addr>> clue_universe = sender.prefixes();

  // One suite serves all cells: the engines are immutable, Simple ports
  // ignore the Claim-1 bits, and the Advance annotation (neighbor index 0
  // against t1) is idempotent. Ports are built and torn down per cell to
  // bound peak memory on the 60k-prefix tables.
  lookup::LookupSuite<Addr> suite(
      {receiver.entries().begin(), receiver.entries().end()});

  for (std::size_t mi = 0; mi < N; ++mi) {
    const lookup::Method method = methods[mi];
    // Common: the plain engine.
    {
      mem::AccessCounter acc;
      for (const Addr& d : dests) suite.engine(method).lookup(d, acc);
      out.avg[0][mi] = static_cast<double>(acc.total()) /
                       static_cast<double>(dests.size());
    }
    // Simple and Advance: a precomputed clue port each.
    for (int mode_i = 1; mode_i <= 2; ++mode_i) {
      typename core::CluePort<Addr>::Options opt;
      opt.method = method;
      opt.mode = mode_i == 1 ? lookup::ClueMode::kSimple
                             : lookup::ClueMode::kAdvance;
      opt.learn = false;
      opt.expected_clues = clue_universe.size() + 16;
      core::CluePort<Addr> port(suite, &t1, opt);
      port.precompute(clue_universe);
      mem::AccessCounter acc;
      for (std::size_t i = 0; i < dests.size(); ++i) {
        port.process(dests[i], clues[i], acc);
      }
      out.avg[mode_i][mi] = static_cast<double>(acc.total()) /
                            static_cast<double>(dests.size());
    }
  }
  return out;
}

// The grid: a Mode column, then one column per method.
template <std::size_t N>
void printFifteenWayTable(const FifteenWay<N>& r) {
  std::printf("%-10s", "Mode");
  for (const auto m : r.methods) {
    std::printf("%10s", std::string(lookup::methodName(m)).c_str());
  }
  std::printf("\n");
  const char* modes[3] = {"Common", "Simple", "Advance"};
  for (int mode = 0; mode < 3; ++mode) {
    std::printf("%-10s", modes[mode]);
    for (std::size_t mi = 0; mi < N; ++mi) {
      std::printf("%10.2f", r.avg[mode][mi]);
    }
    std::printf("\n");
  }
}

inline void printFifteenWay(const std::string& title, const FifteenWay<>& r) {
  std::printf("\n== %s (%zu destinations) ==\n", title.c_str(),
              r.destinations);
  printFifteenWayTable(r);
}

// Scale used by the heavyweight snapshot benches. 1.0 reproduces the paper's
// table sizes; override with CLUERT_BENCH_SCALE for quick runs. Here and in
// benchDestinations, a malformed or out-of-range value keeps the default.
inline double benchScale() {
  if (const char* s = std::getenv("CLUERT_BENCH_SCALE")) {
    const auto v = parseNumber<double>(s);
    if (v && *v > 0.0 && *v <= 1.0) return *v;
  }
  return 1.0;
}

inline std::size_t benchDestinations() {
  if (const char* s = std::getenv("CLUERT_BENCH_DESTS")) {
    const auto v = parseNumber<std::size_t>(s);
    if (v && *v > 0) return *v;
  }
  return 10'000;  // the paper's sample size
}

}  // namespace cluert::bench
