// cluert_eval — run the paper's §6 evaluation on arbitrary forwarding
// tables.
//
// Usage:
//   cluert_eval gen <prefix-count> <out.fib> [seed]
//       Generate a realistic synthetic table and write it as text
//       ("prefix next_hop" per line).
//   cluert_eval neighbor <in.fib> <out.fib> <shared> <fresh> [seed]
//       Derive a neighboring router's table from an existing one.
//   cluert_eval eval <sender.fib> <receiver.fib> [destinations]
//       Print the 15-way {Common,Simple,Advance} x {5 methods} table of
//       average memory accesses, plus the Claim-1 statistics, for packets
//       flowing sender -> receiver.
//   cluert_eval stats <table.fib>
//       Print size and prefix-length histogram of a table.
//
// FIB files use the same format Fib4::serialize emits, so tables exported
// from real routers can be converted and fed in directly. A count or seed
// that is not a number is a usage error (exit 2).
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "common/text.h"
#include "core/shaping.h"
#include "rib/table_gen.h"

namespace {

using namespace cluert;
using A = ip::Ip4Addr;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  cluert_eval gen <count> <out.fib> [seed]\n"
               "  cluert_eval neighbor <in.fib> <out.fib> <shared> <fresh> "
               "[seed]\n"
               "  cluert_eval eval <sender.fib> <receiver.fib> [dests]\n"
               "  cluert_eval stats <table.fib>\n");
  return 2;
}

// Exit status 1 for a route file that is missing or malformed.
int cannotRead(const char* path) {
  std::fprintf(stderr, "cannot read a FIB from %s\n", path);
  return 1;
}

int cannotWrite(const char* path) {
  std::fprintf(stderr, "cannot write %s\n", path);
  return 1;
}

int cmdGen(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto count = parseNumber<std::size_t>(argv[2]);
  const auto seed =
      argc > 4 ? parseNumber<std::uint64_t>(argv[4]) : std::uint64_t{1};
  if (!count || !seed) return usage();
  Rng rng(*seed);
  rib::GenOptions<A> opt;
  opt.size = *count;
  opt.histogram = rib::internetLengths1999();
  const auto fib = rib::TableGen<A>::generate(rng, opt);
  if (!writeFile(argv[3], fib.serialize())) return cannotWrite(argv[3]);
  std::printf("wrote %zu prefixes to %s\n", fib.size(), argv[3]);
  return 0;
}

int cmdNeighbor(int argc, char** argv) {
  if (argc < 6) return usage();
  const auto shared = parseNumber<std::size_t>(argv[4]);
  const auto fresh = parseNumber<std::size_t>(argv[5]);
  const auto seed =
      argc > 6 ? parseNumber<std::uint64_t>(argv[6]) : std::uint64_t{1};
  if (!shared || !fresh || !seed) return usage();
  const auto text = readFile(argv[2]);
  const auto base = text ? rib::Fib4::parse(*text) : std::nullopt;
  if (!base) return cannotRead(argv[2]);
  rib::NeighborOptions<A> opt;
  opt.shared = *shared;
  opt.fresh = *fresh;
  Rng rng(*seed);
  const auto fib = rib::TableGen<A>::deriveNeighbor(*base, rng, opt);
  if (!writeFile(argv[3], fib.serialize())) return cannotWrite(argv[3]);
  std::printf("wrote %zu prefixes to %s (%zu shared with %s)\n", fib.size(),
              argv[3], base->intersectionSize(fib), argv[2]);
  return 0;
}

int cmdStats(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto text = readFile(argv[2]);
  const auto fib = text ? rib::Fib4::parse(*text) : std::nullopt;
  if (!fib) return cannotRead(argv[2]);
  std::size_t by_len[33] = {};
  for (const auto& e : fib->entries()) ++by_len[e.prefix.length()];
  std::printf("%s: %zu prefixes\n", argv[2], fib->size());
  for (int len = 0; len <= 32; ++len) {
    if (by_len[len] == 0) continue;
    std::printf("  /%-2d %8zu  %5.1f%%\n", len, by_len[len],
                100.0 * static_cast<double>(by_len[len]) /
                    static_cast<double>(fib->size()));
  }
  return 0;
}

int cmdEval(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto dest_count =
      argc > 4 ? parseNumber<std::size_t>(argv[4]) : std::size_t{10'000};
  if (!dest_count) return usage();
  const auto sender_text = readFile(argv[2]);
  const auto sender =
      sender_text ? rib::Fib4::parse(*sender_text) : std::nullopt;
  if (!sender) return cannotRead(argv[2]);
  const auto receiver_text = readFile(argv[3]);
  const auto receiver =
      receiver_text ? rib::Fib4::parse(*receiver_text) : std::nullopt;
  if (!receiver) return cannotRead(argv[3]);

  const auto t1 = sender->buildTrie();
  const auto t2 = receiver->buildTrie();

  // Claim-1 statistics (the Table 2 regime).
  const auto clues = sender->prefixes();
  const std::size_t bad = core::countProblematicClues(t1, t2, clues);
  std::printf("sender %zu prefixes, receiver %zu, intersection %zu\n",
              sender->size(), receiver->size(),
              sender->intersectionSize(*receiver));
  std::printf("problematic clues: %zu / %zu (%.2f%%)\n", bad, clues.size(),
              100.0 * static_cast<double>(bad) /
                  static_cast<double>(clues.size()));

  // Destinations and the 15 cells per the §6 methodology (bench_util.h).
  Rng rng(4711);
  const auto dests =
      bench::paperDestinations(*sender, t1, t2, rng, *dest_count);
  bench::printFifteenWay("average memory accesses",
                         bench::runFifteenWay(*sender, *receiver, dests, t1));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "gen") == 0) return cmdGen(argc, argv);
  if (std::strcmp(argv[1], "neighbor") == 0) return cmdNeighbor(argc, argv);
  if (std::strcmp(argv[1], "eval") == 0) return cmdEval(argc, argv);
  if (std::strcmp(argv[1], "stats") == 0) return cmdStats(argc, argv);
  return usage();
}
