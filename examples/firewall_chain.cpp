// firewall_chain: the §7 generalization — classification with clues.
//
// Two firewalls along a path share most of a distributed policy. The first
// one classifies a packet and attaches the matched rule's id as the clue;
// the second starts its classification "at the restricted domain of the
// clue-filter", discarding every shared higher-priority filter exactly as
// Claim 1 discards shared prefixes.
//
//   ./build/examples/firewall_chain
#include <cstdio>

#include "filter/clue_classifier.h"
#include "filter/rule_gen.h"

using namespace cluert;

int main() {
  using A = ip::Ip4Addr;
  const auto p = [](const char* t) { return *ip::Prefix4::parse(t); };
  const auto addr = [](const char* t) { return *A::parse(t); };

  // A small shared policy (id doubles as the global priority).
  const auto mk = [&](filter::RuleId id, const char* src, const char* dst,
                      filter::Action action) {
    filter::FilterRule4 r;
    r.id = id;
    r.priority = static_cast<int>(id);
    r.src = p(src);
    r.dst = p(dst);
    r.action = action;
    return r;
  };
  const auto allow_web = mk(10, "0.0.0.0/0", "198.51.0.0/16", 1);
  const auto block_bad = mk(20, "203.0.113.0/24", "198.51.0.0/16", 0);
  const auto dmz_only = mk(30, "0.0.0.0/0", "198.51.100.0/24", 2);

  // FW1 carries the full policy; FW2 additionally polices its local DMZ
  // with a rule FW1 has never heard of.
  const auto local_qos = mk(40, "0.0.0.0/0", "198.51.100.128/25", 3);
  const std::vector<filter::FilterRule4> fw1{allow_web, block_bad, dmz_only};
  const std::vector<filter::FilterRule4> fw2{allow_web, block_bad, dmz_only,
                                             local_qos};

  filter::LinearClassifier<A> fw1_cls(fw1);
  filter::LinearClassifier<A> fw2_full(fw2);
  filter::ClueClassifier<A> fw2_clued(fw2, fw1);

  std::printf("Distributed policy: FW1 (3 rules) -> FW2 (4 rules, one "
              "local)\n\n");
  const auto run = [&](const char* src_t, const char* dst_t) {
    const A src = addr(src_t);
    const A dst = addr(dst_t);
    mem::AccessCounter a1;
    const auto f = fw1_cls.classify(src, dst, a1);
    mem::AccessCounter full_acc, clue_acc;
    const auto full = fw2_full.classify(src, dst, full_acc);
    const auto clued = f ? fw2_clued.classify(f->id, src, dst, clue_acc)
                         : fw2_clued.classifyNoClue(src, dst, clue_acc);
    std::printf("%-16s -> %-16s  FW1 rule %-3d  FW2 rule %-3d (clue-assisted "
                "%-3d)  accesses: full %llu, clued %llu\n",
                src_t, dst_t, f ? static_cast<int>(f->id) : -1,
                full ? static_cast<int>(full->id) : -1,
                clued ? static_cast<int>(clued->id) : -1,
                static_cast<unsigned long long>(full_acc.total()),
                static_cast<unsigned long long>(clue_acc.total()));
  };

  run("192.0.2.7", "198.51.7.7");        // plain web traffic
  run("203.0.113.9", "198.51.7.7");      // blocked source
  run("192.0.2.7", "198.51.100.10");     // DMZ rule wins at both
  run("192.0.2.7", "198.51.100.200");    // FW2's local rule refines the DMZ

  // The same mechanics at scale.
  Rng rng(11);
  const auto big1 = filter::generateRules(rng, 3000);
  const auto big2 = filter::deriveNeighborRules(big1, rng, 0.95, 200, 0.5,
                                                100'000);
  filter::LinearClassifier<A> b1(big1);
  filter::LinearClassifier<A> b2_full(big2);
  filter::ClueClassifier<A> b2(big2, big1);
  mem::AccessCounter scratch, full_acc, clue_acc;
  std::size_t n = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto [src, dst] = filter::randomHeader(big1, rng);
    const auto f = b1.classify(src, dst, scratch);
    if (!f) continue;
    b2_full.classify(src, dst, full_acc);
    b2.classify(f->id, src, dst, clue_acc);
    ++n;
  }
  std::printf("\n3000-rule policy, %zu classified packets at FW2:\n", n);
  std::printf("  full linear classification: %8.1f accesses/packet\n",
              static_cast<double>(full_acc.total()) / static_cast<double>(n));
  std::printf("  clue-assisted (Sec. 7):     %8.2f accesses/packet\n",
              static_cast<double>(clue_acc.total()) / static_cast<double>(n));
  std::printf("  clue rules with empty candidate sets: %.1f%%\n",
              100.0 * static_cast<double>(b2.emptyCandidateClues()) /
                  static_cast<double>(b2.clueCount()));
  return 0;
}
