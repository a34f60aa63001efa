// sim_run — drive the deterministic scenario simulator (DESIGN.md §8).
//
// Usage:
//   sim_run sweep [options]
//       Generate seed-numbered scenarios and run each through the full
//       differential matrix ({methods} x {Simple,Advance} x {hash,indexed}
//       against the brute-force oracle). Exits nonzero on any mismatch or
//       invariant violation. On failure, --shrink minimises the scenario
//       and --save <dir> persists it as a .scn corpus file.
//   sim_run replay <file-or-dir>...
//       Replay corpus files (dispatching ipv4/ipv6 by header) through the
//       same matrix. Exits nonzero if any replay fails — the red test a
//       shrunk repro stays until its bug is fixed.
//   sim_run show <file>
//       Parse a corpus file and print its shape.
//   sim_run gen <seed> <ipv4|ipv6> <out.scn> [packets]
//       Materialise one generated scenario as a corpus file (seed corpus
//       entries are checked in this way, so replays never depend on the
//       generator staying bit-identical).
//   sim_run topo-gen <seed> <out.scn>
//       Materialise one generated *topology* scenario (cluert-topo header;
//       replay and show dispatch on it like any other corpus file).
//   sim_run topo-shrink <in.scn> <out.scn> --require <predicate>
//       ddmin-shrink a topology scenario while it keeps satisfying the
//       named predicate: `stale-convergence` (stale clues classified during
//       a convergence window, Advance mode, strict-clean) or
//       `withdraw-race` (a withdraw whose transient drops or stale-clues
//       traffic, strict-clean).
//
// Sweep options:
//   --seeds N        number of seeds to run            (default 20)
//   --seed-base B    first seed                        (default 1)
//   --packets N      packets per scenario              (default 600)
//   --family F       ipv4 | ipv6 | both                (default both)
//   --no-faults      genuine clues only
//   --no-churn       static tables, no mid-stream swaps
//   --no-validate    skip the src/check/ validators at publishes (fast
//                    mode for million-packet sweeps)
//   --shrink         minimise the first failing scenario
//   --save DIR       write the (shrunk) failing scenario under DIR
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/text.h"
#include "sim/sim.h"
#include "topo/harness.h"
#include "topo/scenario.h"

namespace {

using namespace cluert;

struct SweepArgs {
  std::size_t seeds = 20;
  std::uint64_t seed_base = 1;
  std::size_t packets = 600;
  bool ipv4 = true;
  bool ipv6 = true;
  bool faults = true;
  bool churn = true;
  bool validate = true;
  bool shrink = false;
  std::string save_dir;
};

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sim_run sweep [--seeds N] [--seed-base B] [--packets N]\n"
               "                [--family ipv4|ipv6|both] [--no-faults]\n"
               "                [--no-churn] [--no-validate] [--shrink]\n"
               "                [--save DIR]\n"
               "  sim_run replay <file-or-dir>...\n"
               "  sim_run show <file>\n"
               "  sim_run gen <seed> <ipv4|ipv6> <out.scn> [packets]\n"
               "  sim_run topo-gen <seed> <out.scn>\n"
               "  sim_run topo-shrink <in.scn> <out.scn> --require "
               "stale-convergence|withdraw-race\n");
  return 2;
}

struct Totals {
  std::uint64_t generated = 0;
  std::uint64_t processed = 0;
  std::uint64_t checked = 0;
  std::uint64_t faults = 0;
  std::uint64_t publishes = 0;

  void add(const sim::RunResult& r) {
    generated += r.generated_packets;
    processed += r.packets_processed;
    checked += r.strict_checked;
    faults += r.faults_injected;
    publishes += r.publishes;
  }

  void print() const {
    std::printf(
        "total: %llu generated packets, %llu processed, %llu oracle-checked, "
        "%llu faults, %llu publishes\n",
        static_cast<unsigned long long>(generated),
        static_cast<unsigned long long>(processed),
        static_cast<unsigned long long>(checked),
        static_cast<unsigned long long>(faults),
        static_cast<unsigned long long>(publishes));
  }
};

void printFailure(const char* what, const sim::RunResult& r) {
  std::printf("FAIL %s: %s\n", what, r.summary().c_str());
  for (const auto& m : r.mismatches) {
    std::printf("  mismatch pkt %zu %s: %s\n", m.packet,
                sim::configName(m.config).c_str(), m.detail.c_str());
  }
  if (!r.check_report.ok()) {
    std::printf("%s", r.check_report.toString().c_str());
  }
}

// Runs one seed for one address family; on failure optionally shrinks and
// saves the repro. Returns true when the seed is clean.
template <typename A>
bool runSeed(std::uint64_t seed, const SweepArgs& args, Totals& totals) {
  sim::GenOptions gen;
  gen.packets = args.packets;
  gen.faults = args.faults;
  gen.churn = args.churn;
  sim::RunOptions<A> ropt;
  ropt.validate_publishes = args.validate;

  const auto scenario = sim::generateScenario<A>(seed, gen);
  const auto result = sim::runScenario(scenario, ropt);
  totals.add(result);
  if (result.ok()) return true;

  const std::string tag = std::string(sim::detail::familyTag<A>()) + " seed " +
                          std::to_string(seed);
  printFailure(tag.c_str(), result);

  sim::Scenario<A> repro = scenario;
  if (args.shrink) {
    const sim::FailPredicate<A> fails = [&](const sim::Scenario<A>& c) {
      return !sim::runScenario(c, ropt).ok();
    };
    sim::ShrinkStats stats;
    repro = sim::shrinkScenario(scenario, fails, {}, &stats);
    std::printf(
        "shrunk to %zu sender / %zu receiver / %zu churn / %zu packets "
        "(%zu evals, %zu rounds)\n",
        repro.sender.size(), repro.receiver.size(), repro.churn.size(),
        repro.packets.size(), stats.evals, stats.rounds);
  }
  if (!args.save_dir.empty()) {
    const std::string path = args.save_dir + "/repro-" +
                             std::string(sim::detail::familyTag<A>()) +
                             "-seed" + std::to_string(seed) + ".scn";
    if (writeFile(path, sim::serializeScenario(repro))) {
      std::printf("saved repro to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  return false;
}

// Reads `*out` from the flag value that follows argv[i]; false, after
// saying so, when the value is missing or is not a T.
template <typename T>
bool numberArg(int argc, char** argv, int& i, T* out) {
  const char* flag = argv[i];
  const auto v = i + 1 < argc ? parseNumber<T>(argv[++i]) : std::nullopt;
  if (!v) {
    std::fprintf(stderr, "%s needs a number\n", flag);
    return false;
  }
  *out = *v;
  return true;
}

int cmdSweep(int argc, char** argv) {
  SweepArgs args;
  for (int i = 2; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--seeds") {
      if (!numberArg(argc, argv, i, &args.seeds)) return usage();
    } else if (a == "--seed-base") {
      if (!numberArg(argc, argv, i, &args.seed_base)) return usage();
    } else if (a == "--packets") {
      if (!numberArg(argc, argv, i, &args.packets)) return usage();
    } else if (a == "--family") {
      const std::string_view v = i + 1 < argc ? argv[++i] : "";
      if (v != "ipv4" && v != "ipv6" && v != "both") return usage();
      args.ipv4 = v != "ipv6";
      args.ipv6 = v != "ipv4";
    } else if (a == "--no-faults") {
      args.faults = false;
    } else if (a == "--no-churn") {
      args.churn = false;
    } else if (a == "--no-validate") {
      args.validate = false;
    } else if (a == "--shrink") {
      args.shrink = true;
    } else if (a == "--save") {
      if (i + 1 >= argc) return usage();
      args.save_dir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return usage();
    }
  }

  Totals totals;
  std::size_t bad = 0;
  for (std::uint64_t k = 0; k < args.seeds; ++k) {
    const std::uint64_t seed = args.seed_base + k;
    if (args.ipv4 && !runSeed<ip::Ip4Addr>(seed, args, totals)) ++bad;
    if (args.ipv6 && !runSeed<ip::Ip6Addr>(seed, args, totals)) ++bad;
  }
  totals.print();
  if (bad != 0) {
    std::printf("%zu failing seed runs\n", bad);
    return 1;
  }
  std::printf("all %zu seeds clean\n", args.seeds);
  return 0;
}

template <typename A>
bool replayOne(const std::string& path, const std::string& text,
               Totals& totals) {
  const auto scenario = sim::parseScenario<A>(text);
  if (!scenario) {
    std::fprintf(stderr, "malformed scenario file %s\n", path.c_str());
    return false;
  }
  const auto result = sim::runScenario(*scenario, sim::RunOptions<A>{});
  totals.add(result);
  if (result.ok()) {
    std::printf("ok   %s (%s)\n", path.c_str(), result.summary().c_str());
    return true;
  }
  printFailure(path.c_str(), result);
  return false;
}

bool replayTopo(const std::string& path, const std::string& text) {
  const auto scenario = topo::parseTopoScenario(text);
  if (!scenario) {
    std::fprintf(stderr, "malformed topology scenario file %s\n", path.c_str());
    return false;
  }
  const topo::HarnessStats stats = topo::runTopoScenario(*scenario);
  if (stats.ok()) {
    std::printf("ok   %s (%s)\n", path.c_str(), stats.summary().c_str());
    return true;
  }
  std::printf("FAIL %s: %s\n", path.c_str(), stats.summary().c_str());
  if (!stats.first_mismatch.empty()) {
    std::printf("  %s\n", stats.first_mismatch.c_str());
  }
  if (!stats.check_report.ok()) {
    std::printf("%s", stats.check_report.toString().c_str());
  }
  return false;
}

int cmdReplay(int argc, char** argv) {
  if (argc < 3) return usage();
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const auto listed = sim::listCorpusFiles(argv[i]);
    if (listed.empty()) {
      files.emplace_back(argv[i]);  // not a directory: a single file
    } else {
      files.insert(files.end(), listed.begin(), listed.end());
    }
  }
  Totals totals;
  std::size_t bad = 0;
  for (const auto& path : files) {
    const auto text = readFile(path);
    if (!text) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      ++bad;
      continue;
    }
    const auto family = sim::scenarioFamily(*text);
    bool ok = false;
    if (family == "ipv4") {
      ok = replayOne<ip::Ip4Addr>(path, *text, totals);
    } else if (family == "ipv6") {
      ok = replayOne<ip::Ip6Addr>(path, *text, totals);
    } else if (family == "topo4") {
      ok = replayTopo(path, *text);
    } else {
      std::fprintf(stderr, "unknown scenario family in %s\n", path.c_str());
    }
    if (!ok) ++bad;
  }
  totals.print();
  if (bad != 0) {
    std::printf("%zu failing replays\n", bad);
    return 1;
  }
  std::printf("all %zu corpus files clean\n", files.size());
  return 0;
}

template <typename A>
void showScenario(const sim::Scenario<A>& s) {
  std::printf(
      "seed %llu: sender=%zu receiver=%zu churn=%zu packets=%zu faults=%zu\n",
      static_cast<unsigned long long>(s.seed), s.sender.size(),
      s.receiver.size(), s.churn.size(), s.packets.size(), s.faultCount());
  for (const auto& step : s.churn) {
    std::printf("  churn @%zu %s: -%zu +%zu ~%zu\n", step.after_packet,
                step.neighbor ? "neighbor" : "local", step.delta.removed.size(),
                step.delta.added.size(), step.delta.rerouted.size());
  }
}

int cmdShow(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto text = readFile(argv[2]);
  if (!text) {
    std::fprintf(stderr, "cannot read %s\n", argv[2]);
    return 1;
  }
  const auto family = sim::scenarioFamily(*text);
  if (family == "ipv4") {
    const auto s = sim::parseScenario<ip::Ip4Addr>(*text);
    if (!s) {
      std::fprintf(stderr, "malformed scenario file %s\n", argv[2]);
      return 1;
    }
    showScenario(*s);
  } else if (family == "ipv6") {
    const auto s = sim::parseScenario<ip::Ip6Addr>(*text);
    if (!s) {
      std::fprintf(stderr, "malformed scenario file %s\n", argv[2]);
      return 1;
    }
    showScenario(*s);
  } else if (family == "topo4") {
    const auto s = topo::parseTopoScenario(*text);
    if (!s) {
      std::fprintf(stderr, "malformed topology scenario file %s\n", argv[2]);
      return 1;
    }
    std::printf(
        "topo seed %llu: %s n=%zu %s/%s ticks=%d originate=%zu events=%zu "
        "packets=%zu\n",
        static_cast<unsigned long long>(s->seed),
        std::string(topo::shapeName(s->shape)).c_str(), s->nodes,
        std::string(lookup::methodName(s->method)).c_str(),
        std::string(lookup::clueModeName(s->mode)).c_str(), s->ticks,
        s->originate.size(), s->events.size(), s->packets.size());
    for (const auto& e : s->events) {
      if (e.kind == topo::TopoEventKind::kLinkDown ||
          e.kind == topo::TopoEventKind::kLinkUp) {
        std::printf("  @%d %s %u %u\n", e.tick,
                    std::string(topo::topoEventName(e.kind)).c_str(), e.a,
                    e.b);
      } else {
        std::printf("  @%d %s %u %s\n", e.tick,
                    std::string(topo::topoEventName(e.kind)).c_str(), e.a,
                    e.prefix.toString().c_str());
      }
    }
  } else {
    std::fprintf(stderr, "unknown scenario family in %s\n", argv[2]);
    return 1;
  }
  return 0;
}

template <typename A>
int genOne(std::uint64_t seed, const char* path, std::size_t packets) {
  sim::GenOptions gen;
  gen.packets = packets;
  const auto s = sim::generateScenario<A>(seed, gen);
  if (!writeFile(path, sim::serializeScenario(s))) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::printf("wrote %s: ", path);
  showScenario(s);
  return 0;
}

int cmdGen(int argc, char** argv) {
  if (argc < 5) return usage();
  const auto seed = parseNumber<std::uint64_t>(argv[2]);
  const auto packets =
      argc > 5 ? parseNumber<std::size_t>(argv[5]) : std::size_t{200};
  if (!seed || !packets) return usage();
  if (std::strcmp(argv[3], "ipv4") == 0) {
    return genOne<ip::Ip4Addr>(*seed, argv[4], *packets);
  }
  if (std::strcmp(argv[3], "ipv6") == 0) {
    return genOne<ip::Ip6Addr>(*seed, argv[4], *packets);
  }
  return usage();
}

int cmdTopoGen(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto seed = parseNumber<std::uint64_t>(argv[2]);
  if (!seed) return usage();
  const topo::TopoScenario s = topo::generateTopoScenario(*seed);
  if (!writeFile(argv[3], topo::serializeTopoScenario(s))) {
    std::fprintf(stderr, "cannot write %s\n", argv[3]);
    return 1;
  }
  const topo::HarnessStats stats = topo::runTopoScenario(s);
  std::printf("wrote %s: %s n=%zu ticks=%d events=%zu packets=%zu\n  %s\n",
              argv[3], std::string(topo::shapeName(s.shape)).c_str(), s.nodes,
              s.ticks, s.events.size(), s.packets.size(),
              stats.summary().c_str());
  return stats.ok() ? 0 : 1;
}

// The named corpus-hunt predicates. Both require a strict-clean run: the
// repros pin down *classified* transients, not oracle failures — the
// CorpusReplay gate keeps replaying them green.
topo::TopoFailPredicate topoPredicate(std::string_view name) {
  if (name == "stale-convergence") {
    return [](const topo::TopoScenario& s) {
      if (s.mode != lookup::ClueMode::kAdvance) return false;
      const topo::HarnessStats st = topo::runTopoScenario(s);
      return st.ok() && st.stale_during_flap > 0;
    };
  }
  if (name == "withdraw-race") {
    return [](const topo::TopoScenario& s) {
      const topo::HarnessStats st = topo::runTopoScenario(s);
      return st.ok() && st.stale_during_withdraw > 0;
    };
  }
  return nullptr;
}

int cmdTopoShrink(int argc, char** argv) {
  if (argc < 6 || std::strcmp(argv[4], "--require") != 0) return usage();
  const auto text = readFile(argv[2]);
  if (!text) {
    std::fprintf(stderr, "cannot read %s\n", argv[2]);
    return 1;
  }
  const auto scenario = topo::parseTopoScenario(*text);
  if (!scenario) {
    std::fprintf(stderr, "malformed topology scenario file %s\n", argv[2]);
    return 1;
  }
  const topo::TopoFailPredicate fails = topoPredicate(argv[5]);
  if (!fails) {
    std::fprintf(stderr, "unknown predicate %s\n", argv[5]);
    return usage();
  }
  if (!fails(*scenario)) {
    std::fprintf(stderr, "%s does not satisfy predicate %s\n", argv[2],
                 argv[5]);
    return 1;
  }
  sim::ShrinkStats stats;
  const topo::TopoScenario small =
      topo::shrinkTopoScenario(*scenario, fails, {}, &stats);
  if (!writeFile(argv[3], topo::serializeTopoScenario(small))) {
    std::fprintf(stderr, "cannot write %s\n", argv[3]);
    return 1;
  }
  std::printf(
      "shrunk to %zu originate / %zu events / %zu packets / %d ticks "
      "(%zu evals, %zu rounds) -> %s\n",
      small.originate.size(), small.events.size(), small.packets.size(),
      small.ticks, stats.evals, stats.rounds, argv[3]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "sweep") == 0) return cmdSweep(argc, argv);
  if (std::strcmp(argv[1], "replay") == 0) return cmdReplay(argc, argv);
  if (std::strcmp(argv[1], "show") == 0) return cmdShow(argc, argv);
  if (std::strcmp(argv[1], "gen") == 0) return cmdGen(argc, argv);
  if (std::strcmp(argv[1], "topo-gen") == 0) return cmdTopoGen(argc, argv);
  if (std::strcmp(argv[1], "topo-shrink") == 0) {
    return cmdTopoShrink(argc, argv);
  }
  return usage();
}
