// Experiment E9 — the §6 IPv6 scaling claim: "the presented scheme is
// expected to give similar performances in IPv6 while the Log W technique
// does not scale as good" (and bit-by-bit methods degrade with W = 128).
//
// Same 15-way methodology as Tables 4-9, on 128-bit tables with an
// IPv6-style length distribution.
#include "bench_util.h"

namespace {

using namespace cluert;
using A6 = ip::Ip6Addr;
using Match6 = trie::Match<A6>;

std::vector<A6> destinations(const std::vector<Match6>& sender,
                             const trie::BinaryTrie<A6>& t1,
                             const trie::BinaryTrie<A6>& t2, Rng& rng,
                             std::size_t count) {
  std::vector<A6> out;
  mem::AccessCounter scratch;
  std::size_t attempts = 0;
  while (out.size() < count && ++attempts < count * 100) {
    A6 dest(rng.u64(), rng.u64());
    if (!sender.empty() && !rng.chance(0.1)) {
      const auto& p = sender[rng.index(sender.size())].prefix;
      dest = p.addr();
      for (int b = p.length(); b < 128; ++b) {
        dest = dest.withBit(b, static_cast<unsigned>(rng.u32() & 1));
      }
    }
    const auto bmp = t1.lookup(dest, scratch);
    if (!bmp) continue;
    if (t2.findVertex(bmp->prefix) == nullptr) continue;
    out.push_back(dest);
  }
  return out;
}

}  // namespace

int main() {
  const std::size_t table_size = static_cast<std::size_t>(
      20'000 * bench::benchScale());
  Rng rng(6666);
  rib::GenOptions<A6> gopt;
  gopt.size = std::max<std::size_t>(table_size, 500);
  gopt.histogram = rib::internetLengths6();
  gopt.subprefix_fraction = 0.15;
  const auto sender_fib = rib::TableGen<A6>::generate(rng, gopt);
  rib::NeighborOptions<A6> nopt;
  nopt.shared = sender_fib.size() * 9 / 10;
  nopt.fresh = sender_fib.size() / 50;
  nopt.fresh_extension_fraction = 0.3;
  const auto receiver_fib =
      rib::TableGen<A6>::deriveNeighbor(sender_fib, rng, nopt);

  const auto t1 = sender_fib.buildTrie();
  const auto t2 = receiver_fib.buildTrie();

  const std::vector<Match6> sender_entries(sender_fib.entries().begin(),
                                           sender_fib.entries().end());
  const auto dests = destinations(sender_entries, t1, t2, rng,
                                  bench::benchDestinations() / 2);

  std::printf("IPv6 (W=128) scaling: %zu-prefix neighbor tables, %zu "
              "destinations\n\n", sender_fib.size(), dests.size());
  bench::printFifteenWayTable(
      bench::runFifteenWay(sender_fib, receiver_fib, dests, t1));
  std::printf(
      "\nShape check: the Common Regular column grows toward O(W=128) while\n"
      "Advance stays at ~1 access — the clue scheme's cost is independent of\n"
      "the address width, unlike the trie walks (and LogW's extra probe).\n");
  return 0;
}
