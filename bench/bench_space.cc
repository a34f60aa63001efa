// Experiment E6 — reproduces the §3.5 space analysis: "pessimistically about
// 60,000 entries ... about 500K-600K byte", plus the Advance observation
// that fewer than 10% of entries need the Ptr field, and the SDRAM
// cache-line packing (two entries per 32-byte line). A second table sets the
// implementation beside the model: sizeof(ClueEntry) and the slot bytes of
// the hash table an Advance port over Patricia builds for each pair. A third
// gives the receiver's two tries beside them: node count, node bytes (one
// pool slot per node, mem/node_pool.h) and bytes per prefix.
#include "bench_util.h"

namespace {

template <typename Trie>
void printTrieRow(std::string_view receiver, const char* name,
                  const Trie& t) {
  const std::size_t bytes = t.nodeCount() * sizeof(typename Trie::Node);
  std::printf("%-10s %-9s %9zu %9zu %12zu %12.1f\n",
              std::string(receiver).c_str(), name, t.prefixCount(),
              t.nodeCount(), bytes,
              static_cast<double>(bytes) /
                  static_cast<double>(t.prefixCount()));
}

}  // namespace

int main() {
  using namespace cluert;
  const double scale = bench::benchScale();
  const auto set = rib::makePaperSnapshots(/*seed=*/1999, scale);

  std::printf("Sec. 3.5: clue table space requirements (scale %.2f)\n\n",
              scale);
  std::printf("%-10s %-10s %9s %10s %11s %12s %10s\n", "Sender", "Receiver",
              "Clues", "NeedPtr", "PtrShare", "TableBytes", "KB");

  for (const auto& pair : rib::paperPairs()) {
    const auto& sender = set.byName(pair.sender);
    const auto& receiver = set.byName(pair.receiver);
    const auto t1 = sender.buildTrie();
    const auto t2 = receiver.buildTrie();
    const core::ClueAnalyzer<bench::A> analyzer(t2, &t1);

    std::size_t need_ptr = 0;
    const auto clues = sender.prefixes();
    for (const auto& c : clues) {
      if (analyzer.analyzeAdvance(c).kase == core::ClueCase::kSearch) {
        ++need_ptr;
      }
    }
    // §3.5 accounting: every entry stores clue value + FD (8 bytes), the
    // problematic ones also a 4-byte Ptr.
    const std::size_t bytes =
        clues.size() * 8 + need_ptr * 4;
    std::printf("%-10s %-10s %9zu %10zu %10.2f%% %12zu %9.1fK\n",
                std::string(pair.sender).c_str(),
                std::string(pair.receiver).c_str(), clues.size(), need_ptr,
                100.0 * static_cast<double>(need_ptr) /
                    static_cast<double>(clues.size()),
                bytes, static_cast<double>(bytes) / 1024.0);
  }

  std::printf(
      "\nImplementation beside the model: every slot of the built hash table\n"
      "holds one %zu-byte ClueEntry (the model: %zu bytes per clue); beside\n"
      "it, the table's %zu self slots, one Simple entry per /16 for the\n"
      "packets that arrive without a clue (SelfBytes, not in xModel)\n\n",
      sizeof(core::ClueEntry<bench::A>), core::kClueEntryWireBytes,
      core::kSelfClueSlots);
  std::printf("%-10s %-10s %9s %12s %10s %9s %12s %10s %10s\n", "Sender",
              "Receiver", "Clues", "ModelBytes", "EntryBytes", "Slots",
              "SlotBytes", "xModel", "SelfBytes");
  for (const auto& pair : rib::paperPairs()) {
    const auto& sender = set.byName(pair.sender);
    const auto& receiver = set.byName(pair.receiver);
    const auto t1 = sender.buildTrie();
    lookup::SuiteOptions sopt;
    sopt.methods = lookup::methodBit(lookup::Method::kPatricia);
    const auto entries = receiver.entries();
    lookup::LookupSuite<bench::A> suite(
        std::vector<trie::Match<bench::A>>(entries.begin(), entries.end()),
        sopt);
    suite.annotateNeighbor(0, t1);
    const auto clues = sender.prefixes();
    core::HashClueTable<bench::A> table(clues.size());
    for (const auto& c : clues) {
      table.insert(core::buildClueEntry(suite, &t1, lookup::Method::kPatricia,
                                        lookup::ClueMode::kAdvance, c,
                                        &table.candidates()));
    }
    core::buildSelfClues(table, suite, lookup::Method::kPatricia);
    const std::size_t model = clues.size() * core::kClueEntryWireBytes;
    const std::size_t slot_bytes =
        table.bucketCount() * sizeof(core::ClueEntry<bench::A>);
    std::printf("%-10s %-10s %9zu %12zu %10zu %9zu %12zu %9.1fx %10zu\n",
                std::string(pair.sender).c_str(),
                std::string(pair.receiver).c_str(), clues.size(), model,
                sizeof(core::ClueEntry<bench::A>), table.bucketCount(),
                slot_bytes,
                static_cast<double>(slot_bytes) / static_cast<double>(model),
                table.selfBytes());
  }

  std::printf(
      "\nThe receiver's tries: each node is one %zu-byte slot of its trie's "
      "pool\n\n",
      sizeof(trie::PatriciaTrie<bench::A>::Node));
  std::printf("%-10s %-9s %9s %9s %12s %12s\n", "Receiver", "Trie",
              "Prefixes", "Nodes", "NodeBytes", "BytesPerPfx");
  for (const auto& pair : rib::paperPairs()) {
    const auto binary = set.byName(pair.receiver).buildTrie();
    printTrieRow(pair.receiver, "Binary", binary);
    printTrieRow(pair.receiver, "Patricia",
                 trie::PatriciaTrie<bench::A>::fromBinaryTrie(binary));
  }

  std::printf(
      "\nPessimistic bound of Sec. 3.5: 60,000 entries x 3 4-byte fields =\n"
      "%zu bytes (~703K); with <10%% needing Ptr the practical figure is\n"
      "~500-600K, matching the paper.\n",
      std::size_t{60'000} * 12);

  std::printf(
      "\nSDRAM line packing: %u-byte lines hold %u entries each -> a 60,000\n"
      "entry table spans %llu lines, and fetching one entry fetches its\n"
      "neighbor for free.\n",
      mem::kSdramLine.lineBytes(), mem::kSdramLine.entriesPerLine(),
      static_cast<unsigned long long>(mem::kSdramLine.linesFor(60'000)));

  // The inline-candidate optimisation (§4): with candidate sets small enough
  // to ride the clue entry's line, case-3 continuations become free for the
  // interval methods.
  const auto& sender = set.byName("MAE-East");
  const auto& receiver = set.byName("MAE-West");
  const auto t1 = sender.buildTrie();
  const auto t2 = receiver.buildTrie();
  const core::ClueAnalyzer<bench::A> analyzer(t2, &t1);
  std::size_t small = 0, total_problematic = 0;
  for (const auto& c : sender.prefixes()) {
    const auto a = analyzer.analyzeAdvance(c);
    if (a.kase != core::ClueCase::kSearch) continue;
    ++total_problematic;
    if (a.candidates.size() <= 2) ++small;
  }
  if (total_problematic > 0) {
    std::printf(
        "\nMAE-East -> MAE-West: %zu of %zu problematic clues (%.1f%%) have\n"
        "<=2 candidates and fit in the entry's cache line (Sec. 4).\n",
        small, total_problematic,
        100.0 * static_cast<double>(small) /
            static_cast<double>(total_problematic));
  }
  return 0;
}
