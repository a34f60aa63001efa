// Replays every committed corpus scenario (tests/corpus/*.scn) through the
// full differential matrix. A shrunk repro checked in while its bug was
// alive keeps failing here until the bug is fixed — and stays forever as a
// regression test (regression-stride-anchor.scn is the first: a stride
// continuation anchor dangling across an engine rebuild).
//
// The corpus directory is baked in at configure time (CLUERT_CORPUS_DIR);
// the suite is skipped, not failed, when the directory is missing — a
// build from an exported source tarball still runs.
#include <gtest/gtest.h>

#include "sim/sim.h"
#include "topo/harness.h"
#include "topo/scenario.h"

namespace cluert {
namespace {

#ifndef CLUERT_CORPUS_DIR
#define CLUERT_CORPUS_DIR "tests/corpus"
#endif

template <typename A>
void replayFile(const std::string& path, const std::string& text) {
  const auto scenario = sim::parseScenario<A>(text);
  ASSERT_TRUE(scenario.has_value()) << "malformed corpus file " << path;
  const auto result = sim::runScenario(*scenario, sim::RunOptions<A>{});
  EXPECT_TRUE(result.ok()) << path << ": " << result.summary();
  for (const auto& m : result.mismatches) {
    ADD_FAILURE() << path << " pkt " << m.packet << " "
                  << sim::configName(m.config) << ": " << m.detail;
  }
  if (!result.check_report.ok()) {
    ADD_FAILURE() << path << " invariants:\n"
                  << result.check_report.toString();
  }
}

// Topology scenarios replay through the multi-router harness: strict-clean
// with every publish validated, same as `sim_run replay`.
void replayTopoFile(const std::string& path, const std::string& text) {
  const auto scenario = topo::parseTopoScenario(text);
  ASSERT_TRUE(scenario.has_value()) << "malformed topology corpus " << path;
  const topo::HarnessStats stats = topo::runTopoScenario(*scenario);
  EXPECT_TRUE(stats.ok()) << path << ": " << stats.summary() << "\n"
                          << stats.first_mismatch;
  if (!stats.check_report.ok()) {
    ADD_FAILURE() << path << " invariants:\n" << stats.check_report.toString();
  }
}

TEST(CorpusReplay, AllScenarioFilesClean) {
  const auto files = sim::listCorpusFiles(CLUERT_CORPUS_DIR);
  if (files.empty()) {
    GTEST_SKIP() << "no corpus directory at " << CLUERT_CORPUS_DIR;
  }
  for (const auto& path : files) {
    SCOPED_TRACE(path);
    const auto text = readFile(path);
    ASSERT_TRUE(text.has_value()) << "cannot read " << path;
    const auto family = sim::scenarioFamily(*text);
    if (family == "ipv4") {
      replayFile<ip::Ip4Addr>(path, *text);
    } else if (family == "ipv6") {
      replayFile<ip::Ip6Addr>(path, *text);
    } else if (family == "topo4") {
      replayTopoFile(path, *text);
    } else {
      ADD_FAILURE() << "unknown scenario family in " << path;
    }
  }
}

// The corpus format itself: a parsed file must serialize back to the exact
// bytes it came from (modulo nothing — the writer is the canonical form),
// so shrunk repros never drift when re-saved.
TEST(CorpusReplay, SerializationIsStable) {
  const auto files = sim::listCorpusFiles(CLUERT_CORPUS_DIR);
  if (files.empty()) {
    GTEST_SKIP() << "no corpus directory at " << CLUERT_CORPUS_DIR;
  }
  for (const auto& path : files) {
    SCOPED_TRACE(path);
    const auto text = readFile(path);
    ASSERT_TRUE(text.has_value());
    const auto family = sim::scenarioFamily(*text);
    if (family == "topo4") {
      const auto s = topo::parseTopoScenario(*text);
      ASSERT_TRUE(s.has_value());
      EXPECT_EQ(topo::serializeTopoScenario(*s), *text);
    } else if (family == "ipv4") {
      const auto s = sim::parseScenario<ip::Ip4Addr>(*text);
      ASSERT_TRUE(s.has_value());
      EXPECT_EQ(sim::serializeScenario(*s), *text);
    } else {
      const auto s = sim::parseScenario<ip::Ip6Addr>(*text);
      ASSERT_TRUE(s.has_value());
      EXPECT_EQ(sim::serializeScenario(*s), *text);
    }
  }
}

}  // namespace
}  // namespace cluert
