#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/clue.h"
#include "core/clue_table.h"
#include "core/distributed_lookup.h"
#include "test_util.h"

namespace cluert::core {
namespace {

using testutil::p4;
using A = ip::Ip4Addr;
using Table = HashClueTable<A>;
using Indexed = IndexedClueTable<A>;
using Entry = ClueEntry<A>;

Entry entryFor(const ip::Prefix4& clue, NextHop nh) {
  Entry e;
  e.clue = clue;
  e.valid = true;
  e.fd = trie::Match<A>{clue, nh};
  e.ptr_empty = true;
  return e;
}

TEST(HashClueTable, FindMissOnEmpty) {
  Table t(64);
  mem::AccessCounter acc;
  EXPECT_EQ(t.find(p4("10.0.0.0/8"), acc), nullptr);
  EXPECT_GE(acc.count(mem::Region::kClueTable), 1u);
}

TEST(HashClueTable, InsertThenFind) {
  Table t(64);
  ASSERT_TRUE(t.insert(entryFor(p4("10.0.0.0/8"), 3)));
  mem::AccessCounter acc;
  const Entry* e = t.find(p4("10.0.0.0/8"), acc);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->fd->next_hop, 3u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(HashClueTable, SameAddressDifferentLengthAreDistinctClues) {
  Table t(64);
  t.insert(entryFor(p4("10.0.0.0/8"), 1));
  t.insert(entryFor(p4("10.0.0.0/16"), 2));
  mem::AccessCounter acc;
  EXPECT_EQ(t.find(p4("10.0.0.0/8"), acc)->fd->next_hop, 1u);
  EXPECT_EQ(t.find(p4("10.0.0.0/16"), acc)->fd->next_hop, 2u);
}

TEST(HashClueTable, OverwriteKeepsSize) {
  Table t(64);
  t.insert(entryFor(p4("10.0.0.0/8"), 1));
  t.insert(entryFor(p4("10.0.0.0/8"), 9));
  EXPECT_EQ(t.size(), 1u);
  mem::AccessCounter acc;
  EXPECT_EQ(t.find(p4("10.0.0.0/8"), acc)->fd->next_hop, 9u);
}

TEST(HashClueTable, GrowsBeyondInitialCapacity) {
  Table t(4);
  Rng rng(1);
  std::vector<ip::Prefix4> clues;
  for (int i = 0; i < 500; ++i) {
    const ip::Prefix4 p(A(rng.u32()), 24);
    if (std::find(clues.begin(), clues.end(), p) != clues.end()) continue;
    clues.push_back(p);
    ASSERT_TRUE(t.insert(entryFor(p, static_cast<NextHop>(i))));
  }
  EXPECT_EQ(t.size(), clues.size());
  mem::AccessCounter acc;
  for (const auto& c : clues) {
    ASSERT_NE(t.find(c, acc), nullptr) << c.toString();
  }
}

TEST(HashClueTable, ProbeCountStaysNearOne) {
  // §6: "the average number of memory references in our scheme is close to
  // 1" — the hash table's load factor keeps probes short.
  Table t(4096);
  Rng rng(2);
  std::vector<ip::Prefix4> clues;
  for (int i = 0; i < 4096; ++i) {
    const ip::Prefix4 p(A(rng.u32()), static_cast<int>(rng.uniform(8, 28)));
    clues.push_back(p);
    t.insert(entryFor(p, 1));
  }
  mem::AccessCounter acc;
  for (const auto& c : clues) t.find(c, acc);
  const double avg = static_cast<double>(acc.total()) /
                     static_cast<double>(clues.size());
  EXPECT_LT(avg, 1.4);
  EXPECT_GE(avg, 1.0);
}

TEST(HashClueTable, ForEachVisitsAllValid) {
  Table t(64);
  t.insert(entryFor(p4("10.0.0.0/8"), 1));
  t.insert(entryFor(p4("11.0.0.0/8"), 2));
  std::size_t n = 0;
  t.forEach([&](const Entry&) { ++n; });
  EXPECT_EQ(n, 2u);
}

TEST(HashClueTable, WireBytesTracksBuckets) {
  Table t(100);
  EXPECT_EQ(t.wireBytes(), t.bucketCount() * kClueEntryWireBytes);
}

// forEachRelated answers from the key index what a scan of every slot with
// related() answers. Clue sets cut from a few base addresses (so keys nest),
// with /0 and /32 keys, inactive entries, overwrites and several grows, and
// lookups between inserts so the index merges an unsorted tail: every query
// visits exactly the entries the scan finds, each once.
TEST(HashClueTable, ForEachRelatedMatchesAScan) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Table t(4);
    const std::size_t initial_buckets = t.bucketCount();
    std::vector<A> bases;
    for (int b = 0; b < 6; ++b) bases.push_back(A(rng.u32()));
    const auto randomPrefix = [&] {
      const A addr = rng.chance(0.2) ? A(rng.u32())
                                     : bases[rng.index(bases.size())];
      return ip::Prefix4(addr, static_cast<int>(rng.uniform(0, 32)));
    };
    const auto expectMatchesScan = [&](const ip::Prefix4& p) {
      std::vector<const Entry*> want;
      t.forEachMutable([&](Entry& e) {
        if (related(e.clue, p)) want.push_back(&e);
      });
      std::vector<const Entry*> got;
      t.forEachRelated(p, [&](Entry& e) { got.push_back(&e); });
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
          << p.toString() << ": an entry visited twice";
      EXPECT_EQ(got, want) << p.toString();
    };

    ASSERT_TRUE(t.insert(entryFor(ip::Prefix4(), 0)));
    ASSERT_TRUE(t.insert(entryFor(ip::Prefix4(bases[0], 32), 1)));
    for (int i = 0; i < 400; ++i) {
      const ip::Prefix4 p = randomPrefix();
      ASSERT_TRUE(t.insert(entryFor(p, static_cast<NextHop>(i))));
      if (rng.chance(0.2)) t.setActive(p, false);
      if (i % 37 == 0) expectMatchesScan(randomPrefix());
    }
    EXPECT_GE(t.bucketCount(), 4 * initial_buckets) << "fewer than two grows";
    for (int q = 0; q < 300; ++q) expectMatchesScan(randomPrefix());
    expectMatchesScan(ip::Prefix4());
    expectMatchesScan(ip::Prefix4(bases[0], 32));
    expectMatchesScan(ip::Prefix4(A(rng.u32()), 32));
  }
}

// ---------------------------------------------------------------------------
// IndexedClueTable (§3.3.1 indexing technique)
// ---------------------------------------------------------------------------

TEST(IndexedClueTable, ExactlyOneAccessPerProbe) {
  Indexed t(256);
  t.put(7, entryFor(p4("10.0.0.0/8"), 1));
  mem::AccessCounter acc;
  const Entry* e = t.at(7, acc);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->valid);
  EXPECT_EQ(acc.total(), 1u);
}

TEST(IndexedClueTable, UnusedSlotIsInvalid) {
  Indexed t(256);
  mem::AccessCounter acc;
  const Entry* e = t.at(9, acc);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->valid);
}

TEST(IndexedClueTable, OutOfRangeIndexIsNull) {
  Indexed t(16);
  mem::AccessCounter acc;
  EXPECT_EQ(t.at(16, acc), nullptr);
  EXPECT_EQ(acc.total(), 1u);  // the probe still cost an access
}

TEST(IndexedClueTable, RobustnessCheckDetectsStaleIndex) {
  // The sender renumbered; the receiver's slot holds a different clue. The
  // stored-clue comparison (§3.3.1) catches it.
  Indexed t(256);
  t.put(3, entryFor(p4("10.0.0.0/8"), 1));
  mem::AccessCounter acc;
  const Entry* e = t.at(3, acc);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->clue == p4("99.0.0.0/8"));  // mismatch -> treat as miss
  // Overwrite with the new clue, as the paper prescribes.
  t.put(3, entryFor(p4("99.0.0.0/8"), 2));
  const Entry* e2 = t.at(3, acc);
  EXPECT_TRUE(e2->clue == p4("99.0.0.0/8"));
}

TEST(ClueIndexerLike, ClueFieldEncoding) {
  // 5 bits suffice for IPv4 lengths, 7 for IPv6 (paper, abstract).
  EXPECT_EQ(clueHeaderBits(32), 5);
  EXPECT_EQ(clueHeaderBits(128), 7);
  const auto f = ClueField::of(16);
  EXPECT_TRUE(f.present);
  const auto p = cluePrefix(*A::parse("192.114.0.5"), f);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->toString(), "192.114.0.0/16");
  EXPECT_FALSE(cluePrefix(*A::parse("1.2.3.4"), ClueField::none()));
}

TEST(ClueIndexerLike, IndexedFieldCarriesIndex) {
  const auto f = ClueField::indexed(24, 77);
  EXPECT_TRUE(f.present);
  ASSERT_TRUE(f.index.has_value());
  EXPECT_EQ(*f.index, 77);
}

// ---------------------------------------------------------------------------
// SWAR tag probing
// ---------------------------------------------------------------------------

TEST(SwarProbe, TagNeverCollidesWithEmpty) {
  // Tags have the 0x80 marker bit set, so no hash can produce the 0x00
  // empty-slot sentinel — the property the whole word-probe rests on.
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(lookup::swarTag(rng.u64()), 0);
    EXPECT_EQ(lookup::swarTag(rng.u64()) & 0x80, 0x80);
  }
}

TEST(SwarProbe, MaskHelpersFindLanes) {
  const std::uint8_t tags[8] = {0x81, 0x00, 0x81, 0xD2, 0x00, 0x81, 0xFF, 0};
  const std::uint64_t word = lookup::swarLoad(tags);
  const std::uint64_t empty = lookup::swarZeroMask(word);
  // Lowest empty lane is index 1.
  EXPECT_EQ(lookup::swarLane(empty), 1u);
  std::uint64_t match = lookup::swarMatchMask(word, 0x81);
  EXPECT_EQ(lookup::swarLane(match), 0u);  // first 0x81 is lane 0
  match &= lookup::swarBelowLowest(empty);
  // Below the lowest empty lane only lane 0 matches — lanes 2 and 5 are
  // past the probe's termination point and must be discarded.
  EXPECT_EQ(match, lookup::swarMatchMask(word, 0x81) & 0xFF);
}

TEST(HashClueTable, HintedProbeFindsEveryEntryAndTerminatesMisses) {
  Table t(64);
  Rng rng(9);
  std::vector<ip::Prefix4> clues;
  for (int i = 0; i < 48; ++i) {
    const ip::Prefix4 p(A(rng.u32()), 24);
    if (std::find(clues.begin(), clues.end(), p) != clues.end()) continue;
    clues.push_back(p);
    ASSERT_TRUE(t.insert(entryFor(p, static_cast<NextHop>(i))));
  }
  for (const auto& c : clues) {
    mem::AccessCounter acc;
    const auto hint = t.hintFor(c);
    const Entry* e = t.findFrom(hint, c, acc);
    ASSERT_NE(e, nullptr) << c.toString();
    EXPECT_EQ(e->clue, c);
    EXPECT_GE(acc.count(mem::Region::kClueTable), 1u);
  }
  // Misses: the probe stops at the first genuinely empty lane and charges
  // the access that discovered it.
  std::size_t misses = 0;
  for (int i = 0; misses < 32 && i < 1000; ++i) {
    const ip::Prefix4 p(A(rng.u32()), 20);
    if (std::find(clues.begin(), clues.end(), p) != clues.end()) continue;
    ++misses;
    mem::AccessCounter acc;
    EXPECT_EQ(t.findFrom(t.hintFor(p), p, acc), nullptr);
    EXPECT_GE(acc.count(mem::Region::kClueTable), 1u);
  }
}

TEST(HashClueTable, DenseTableStillResolvesThroughWrappedTagWords) {
  // Push the load factor high enough that probes cross SWAR word
  // boundaries and the mirrored tail tags (the cloned first kSwarLanes
  // bytes) get exercised at the wrap.
  Table t(4);
  Rng rng(12);
  std::vector<ip::Prefix4> clues;
  while (clues.size() < 300) {
    const ip::Prefix4 p(A(rng.u32()), static_cast<int>(rng.uniform(9, 30)));
    if (std::find(clues.begin(), clues.end(), p) != clues.end()) continue;
    clues.push_back(p);
    ASSERT_TRUE(t.insert(entryFor(p, 1)));
  }
  mem::AccessCounter acc;
  for (const auto& c : clues) {
    ASSERT_NE(t.find(c, acc), nullptr) << c.toString();
  }
}

// The AnonHugePages line of the /proc/self/smaps mapping holding `p`.
std::string anonHugePagesOf(const void* p) {
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    char dash = 0;
    std::istringstream head(line);
    if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
      inside = lo <= at && at < hi;
    } else if (inside && line.rfind("AnonHugePages:", 0) == 0) {
      return line;
    }
  }
  return "no AnonHugePages line";
}

// A table sized like the churn benchmark's (200k clues: 2^20 slots, over
// 100 MiB, so its slots are mapped on huge pages outside sanitizer builds):
// every slot starts value-initialized, and the entries survive a grow()
// into a fresh mapping and a move of the table.
TEST(HashClueTable, InternetScaleSlotsSurviveGrowAndMove) {
  Table t(200'000);
  ASSERT_EQ(t.bucketCount(), std::size_t{1} << 20);
  for (std::size_t i = 0; i < t.bucketCount(); ++i) {
    const Entry& e = t.slotAt(i);
    ASSERT_FALSE(e.valid) << "slot " << i;
    ASSERT_TRUE(e.active) << "slot " << i;
    ASSERT_TRUE(e.ptr_empty) << "slot " << i;
    ASSERT_FALSE(e.fd.has_value()) << "slot " << i;
    ASSERT_EQ(e.clue, ip::Prefix4{}) << "slot " << i;
    ASSERT_EQ(e.cont.patricia_anchor, nullptr) << "slot " << i;
    ASSERT_EQ(e.cont.candidates, nullptr) << "slot " << i;
  }
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(thp, mode);
  if (!mode.empty() && mode.find("[never]") == std::string::npos) {
    std::cout << "[ INFO     ] " << t.bucketCount() << " slots ("
              << t.bucketCount() * sizeof(Entry) / (1 << 20)
              << " MiB), THP " << mode << ": "
              << anonHugePagesOf(&t.slotAt(0)) << "\n";
  }

  // Fill to the grow threshold (half the slots) and one past it.
  const std::size_t n = t.bucketCount() / 2 + 1;
  const auto clueOf = [](std::size_t i) {
    return ip::Prefix4(A(static_cast<std::uint32_t>(i) << 8), 24);
  };
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.insert(entryFor(clueOf(i), static_cast<NextHop>(i))));
  }
  ASSERT_EQ(t.bucketCount(), std::size_t{1} << 21) << "the table never grew";
  const Table moved = std::move(t);
  EXPECT_EQ(moved.size(), n);
  std::size_t valid = 0;
  for (std::size_t i = 0; i < moved.bucketCount(); ++i) {
    valid += moved.slotAt(i).valid ? 1 : 0;
  }
  EXPECT_EQ(valid, n);
  mem::AccessCounter acc;
  for (std::size_t i = 0; i < n; i += 997) {
    const Entry* e = moved.find(clueOf(i), acc);
    ASSERT_NE(e, nullptr) << "clue " << i;
    EXPECT_EQ(e->fd->next_hop, static_cast<NextHop>(i));
  }
}

}  // namespace
}  // namespace cluert::core
