// Umbrella header for the scenario simulator (DESIGN.md §8):
//
//   auto s = cluert::sim::generateScenario<ip::Ip4Addr>(seed);
//   auto r = cluert::sim::runScenario(s);
//   if (!r.ok()) {
//     auto small = cluert::sim::shrinkScenario(s, pred);
//     cluert::writeFile("tests/corpus/repro.scn",
//                       cluert::sim::serializeScenario(small));
//   }
#pragma once

#include "sim/corpus.h"   // IWYU pragma: export
#include "sim/runner.h"   // IWYU pragma: export
#include "sim/scenario.h" // IWYU pragma: export
#include "sim/shrink.h"   // IWYU pragma: export
