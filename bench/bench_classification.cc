// Experiment E13 — the §7 extension: packet classification with clues.
// "The clue being added to the packet is the filter by which the packet is
// classified at a router ... any filter that both routers have and that
// intersects the clue-filter can be discarded by R2 without any processing."
//
// Compares, over a distributed firewall/QoS policy: a full linear scan, the
// hierarchical-trie classifier, and the clue-restricted classifier, for a
// range of policy sizes and local-only rule fractions.
#include "filter/clue_classifier.h"
#include "filter/rule_gen.h"

#include "bench_util.h"

int main() {
  using namespace cluert;
  using A = ip::Ip4Addr;

  std::printf("Sec. 7 extension: packet classification with clues\n");
  std::printf("(avg memory accesses per classified packet at the receiving "
              "router)\n\n");
  std::printf("%8s %10s %10s %14s %10s %12s %14s\n", "Rules", "Local-only",
              "Linear", "Hierarchical", "Clue", "EmptyClues", "MeanCands");

  Rng rng(4242);
  for (const std::size_t count : {500u, 2000u, 8000u}) {
    for (const std::size_t local_only : {count / 20, count / 5}) {
      const auto r1_rules = filter::generateRules(rng, count);
      const auto r2_rules = filter::deriveNeighborRules(
          r1_rules, rng, 0.95, local_only, 0.5,
          static_cast<filter::RuleId>(count * 10));
      filter::LinearClassifier<A> r1(r1_rules);
      filter::LinearClassifier<A> lin(r2_rules);
      filter::HierarchicalClassifier<A> hier(r2_rules);
      filter::ClueClassifier<A> clued(r2_rules, r1_rules);

      mem::AccessCounter scratch;
      mem::AccessCounter lin_acc, hier_acc, clue_acc;
      std::size_t n = 0;
      for (int i = 0; i < 3000; ++i) {
        const auto [src, dst] = filter::randomHeader(r1_rules, rng);
        const auto f = r1.classify(src, dst, scratch);
        if (!f) continue;
        lin.classify(src, dst, lin_acc);
        hier.classify(src, dst, hier_acc);
        clued.classify(f->id, src, dst, clue_acc);
        ++n;
      }
      const double dn = static_cast<double>(n);
      std::printf("%8zu %10zu %10.1f %14.1f %10.2f %10.1f%% %14.2f\n", count,
                  local_only, static_cast<double>(lin_acc.total()) / dn,
                  static_cast<double>(hier_acc.total()) / dn,
                  static_cast<double>(clue_acc.total()) / dn,
                  100.0 * static_cast<double>(clued.emptyCandidateClues()) /
                      static_cast<double>(clued.clueCount()),
                  clued.meanCandidates());
    }
  }
  std::printf(
      "\nShape check: the clue-restricted classifier sits near the 1-access\n"
      "floor (like the IP-lookup case), because shared higher-priority\n"
      "filters are discarded exactly as Claim 1 discards shared prefixes.\n");
  return 0;
}
