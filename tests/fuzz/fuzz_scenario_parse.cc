// Fuzz target: the corpus scenario parser (sim::parseScenario) — the one
// parser in the tree that reads files an external tool (or a person editing
// a shrunk repro) may have mangled. Arbitrary text must parse-or-reject
// without crashing; an accepted scenario must hold no kNoNextHop route and
// hit the serialize/parse fixpoint the CorpusReplay suite relies on.
#include <cstdio>
#include <cstdlib>

#include "fuzz_util.h"
#include "sim/corpus.h"

namespace cluert {
namespace {

template <typename A>
void oneFamily(const std::string& text) {
  const auto s = sim::parseScenario<A>(text);
  if (!s) return;
  const auto holdsNoRoute = [](const std::vector<trie::Match<A>>& entries) {
    for (const auto& e : entries) {
      if (e.next_hop == kNoNextHop) return true;
    }
    return false;
  };
  bool no_route = holdsNoRoute(s->sender) || holdsNoRoute(s->receiver);
  for (const auto& step : s->churn) {
    no_route = no_route || holdsNoRoute(step.delta.added) ||
               holdsNoRoute(step.delta.rerouted);
  }
  if (no_route) {
    std::fprintf(stderr, "accepted a route to kNoNextHop (no route)\n");
    std::abort();
  }
  const std::string canon = sim::serializeScenario(*s);
  const auto again = sim::parseScenario<A>(canon);
  if (!again) {
    std::fprintf(stderr, "canonical scenario failed to re-parse\n");
    std::abort();
  }
  if (sim::serializeScenario(*again) != canon) {
    std::fprintf(stderr, "scenario serialization is not a fixpoint\n");
    std::abort();
  }
}

}  // namespace
}  // namespace cluert

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  cluert::fuzz::ByteReader in(data, size);
  // Bias toward the grammar: half the runs graft fuzz bytes after a valid
  // header line so the section parsers see traffic too.
  std::string text;
  if (in.boolean()) {
    text = in.boolean() ? "cluert-scenario v1 ipv4\n" : "cluert-scenario v1 ipv6\n";
  }
  text += in.str(2048);
  cluert::oneFamily<cluert::ip::Ip4Addr>(text);
  cluert::oneFamily<cluert::ip::Ip6Addr>(text);
  return 0;
}
