// Experiment E17 — extended method: the 8-bit multibit (stride) trie, the
// paper's related-work direction "(2) go over the address in different
// jumps [24]", slotted into the 15-way comparison as a sixth column. The
// point: even against a 4-access-worst-case structure, the clue scheme
// still wins — and composes with it.
#include "bench_util.h"

int main() {
  using namespace cluert;
  const double scale = bench::benchScale();
  const auto set = rib::makePaperSnapshots(/*seed=*/1999, scale);
  const auto& sender = set.byName("AT&T-1");
  const auto& receiver = set.byName("AT&T-2");
  const auto t1 = sender.buildTrie();
  const auto t2 = receiver.buildTrie();

  Rng rng(1717);
  const auto dests = bench::paperDestinations(sender, t1, t2, rng,
                                              bench::benchDestinations());
  std::printf("Extended comparison incl. the 8-bit stride trie "
              "(AT&T-1 -> AT&T-2, %zu destinations, scale %.2f)\n\n",
              dests.size(), scale);
  bench::printFifteenWayTable(bench::runFifteenWay(
      sender, receiver, dests, t1, lookup::kExtendedMethods));

  const lookup::StrideTrieLookup<bench::A> stride(t2);
  std::printf(
      "\nStride trie: %zu nodes x 256 slots (the classic space-for-accesses\n"
      "trade); the clue scheme reaches the same ~1 access with a 60k-entry\n"
      "hash table instead.\n",
      stride.nodeCount());
  return 0;
}
