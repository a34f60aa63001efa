#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "mem/access_counter.h"
#include "mem/alloc_hook.h"
#include "mem/huge_pages.h"
#include "mem/node_pool.h"
#include "test_util.h"
#include "trie/binary_trie.h"
#include "trie/patricia_trie.h"

namespace cluert::mem {
namespace {

TEST(AccessCounter, StartsAtZero) {
  AccessCounter c;
  EXPECT_EQ(c.total(), 0u);
  EXPECT_EQ(c.count(Region::kTrieNode), 0u);
}

TEST(AccessCounter, AccumulatesPerRegion) {
  AccessCounter c;
  c.add(Region::kTrieNode);
  c.add(Region::kTrieNode, 4);
  c.add(Region::kClueTable);
  EXPECT_EQ(c.count(Region::kTrieNode), 5u);
  EXPECT_EQ(c.count(Region::kClueTable), 1u);
  EXPECT_EQ(c.total(), 6u);
}

TEST(AccessCounter, ResetClears) {
  AccessCounter c;
  c.add(Region::kLengthHash, 3);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(AccessCounter, DeltaArithmetic) {
  AccessCounter a;
  a.add(Region::kTrieNode, 10);
  AccessCounter snapshot = a;
  a.add(Region::kTrieNode, 2);
  a.add(Region::kClueTable, 1);
  const LookupAccesses d = lookupDelta(a, snapshot);
  EXPECT_EQ(d[static_cast<std::size_t>(Region::kTrieNode)], 2u);
  EXPECT_EQ(d[static_cast<std::size_t>(Region::kClueTable)], 1u);
  EXPECT_EQ(d[static_cast<std::size_t>(Region::kFibEntry)], 0u);
  EXPECT_EQ(accessTotal(d), 3u);
  // One lookup's record saturates per region rather than wrapping.
  a.add(Region::kTrieNode, 0x20000);
  EXPECT_EQ(lookupDelta(a, snapshot)[static_cast<std::size_t>(
                Region::kTrieNode)],
            0xffffu);
}

TEST(AccessCounter, PlusEqualsMerges) {
  AccessCounter a;
  AccessCounter b;
  a.add(Region::kTrieNode, 2);
  b.add(Region::kTrieNode, 3);
  b.add(Region::kFibEntry, 1);
  a += b;
  EXPECT_EQ(a.count(Region::kTrieNode), 5u);
  EXPECT_EQ(a.count(Region::kFibEntry), 1u);
}

TEST(RegionNames, AllDistinctAndNamed) {
  for (std::size_t i = 0; i < AccessCounter::kRegions; ++i) {
    const auto name = regionName(static_cast<Region>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
  }
}

TEST(AccessCounter, ForEachNonZeroVisitsExactlyTheNonZeroRegions) {
  AccessCounter c;
  c.add(Region::kClueTable, 2);
  c.add(Region::kFibEntry, 5);
  std::size_t visits = 0;
  std::uint64_t sum = 0;
  c.forEachNonZero([&](Region r, std::uint64_t n) {
    ++visits;
    sum += n;
    EXPECT_TRUE(r == Region::kClueTable || r == Region::kFibEntry);
  });
  EXPECT_EQ(visits, 2u);
  EXPECT_EQ(sum, c.total());
}

TEST(AccessCounter, ForEachNonZeroOnEmptyVisitsNothing) {
  AccessCounter c;
  c.forEachNonZero([](Region, std::uint64_t) { FAIL(); });
}

TEST(AccessCounter, ToStringListsRegionsAndTotal) {
  AccessCounter c;
  EXPECT_EQ(c.toString(), "(empty)");
  c.add(Region::kClueTable, 2);
  c.add(Region::kTrieNode, 5);
  EXPECT_EQ(c.toString(), "clue-table=2 trie-node=5 (total 7)");
}

TEST(CacheLineModel, EntriesPerLine) {
  EXPECT_EQ(kSdramLine.entriesPerLine(), 2u);  // §3.5: two clue entries/line
  EXPECT_EQ(CacheLineModel(32, 8).entriesPerLine(), 4u);
  EXPECT_EQ(CacheLineModel(32, 40).entriesPerLine(), 1u);  // never zero
}

TEST(CacheLineModel, LinesForRoundsUp) {
  const CacheLineModel m(32, 16);
  EXPECT_EQ(m.linesFor(0), 0u);
  EXPECT_EQ(m.linesFor(1), 1u);
  EXPECT_EQ(m.linesFor(2), 1u);
  EXPECT_EQ(m.linesFor(3), 2u);
  EXPECT_EQ(m.linesFor(7), 4u);
}

TEST(AllocHook, CountsThisThreadsHeapAllocations) {
  if (!allocHookActive()) {
    GTEST_SKIP() << "counting alloc hook compiled out (sanitizer build)";
  }
  const std::uint64_t before = threadAllocs();
  auto* p = new std::uint64_t(42);
  const std::uint64_t after = threadAllocs();
  EXPECT_GT(after, before);
  delete p;
  EXPECT_EQ(threadAllocs(), after);  // frees are not allocations
}

// The [start, end) of this process's mapping that contains `p`, read from
// /proc/self/maps; {0, 0} when none does.
std::pair<std::uintptr_t, std::uintptr_t> mappingOf(const void* p) {
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx", &lo, &hi) == 2 && lo <= at &&
        at < hi) {
      return {lo, hi};
    }
  }
  return {0, 0};
}

TEST(HugePages, LargeRequestIsMappedAlignedAndRoundedToSmallPages) {
  if (!mapsHugePages()) {
    GTEST_SKIP() << "sanitizer build: every request takes operator new";
  }
  for (const std::size_t bytes :
       {kHugePageBytes, kHugePageBytes + 100, 3 * kHugePageBytes + 4096}) {
    SCOPED_TRACE(std::to_string(bytes) + " bytes");
    const std::uint64_t allocs = threadAllocs();
    void* p = allocateHuge(bytes);
    // Counted like any heap allocation, so steady_allocs sees it.
    EXPECT_EQ(threadAllocs(), allocs + 1);
    const auto start = reinterpret_cast<std::uintptr_t>(p);
    EXPECT_EQ(start % kHugePageBytes, 0u);
    // The mapping ends at the request rounded up to 4 KiB, not to 2 MiB: the
    // trimmed tail leaves a hole right after it, so nothing merges there.
    const auto [lo, hi] = mappingOf(p);
    EXPECT_LE(lo, start);
    EXPECT_EQ(hi - start, (bytes + kSmallPageBytes - 1) / kSmallPageBytes *
                              kSmallPageBytes);
    static_cast<char*>(p)[bytes - 1] = 1;  // the whole request is writable
    deallocateHuge(p, bytes);
    EXPECT_EQ(mappingOf(p).second, 0u) << "still mapped after release";
  }
}

TEST(HugePages, SmallRequestTakesOperatorNew) {
  const std::uint64_t allocs = threadAllocs();
  void* p = allocateHuge(kHugePageBytes - 1);
  if (allocHookActive()) EXPECT_EQ(threadAllocs(), allocs + 1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                __STDCPP_DEFAULT_NEW_ALIGNMENT__,
            0u);
  static_cast<char*>(p)[kHugePageBytes - 2] = 1;
  deallocateHuge(p, kHugePageBytes - 1);
}

// A stand-in for a trie node: the pool needs only a trivially copyable T.
struct Slot {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

TEST(NodePool, AddressesStayPutWhileThePoolGrows) {
  NodePool<Slot> pool;
  std::vector<const Slot*> addresses;
  std::vector<PoolIndex> indices;
  for (std::uint64_t n = 0; n < 5000; ++n) {
    const PoolIndex i = pool.allocate();
    ASSERT_EQ(pool.ordinal(i), n) << "a fresh pool hands out slots in order";
    pool[i].a = n;
    indices.push_back(i);
    addresses.push_back(&pool[i]);
  }
  // 32 + 64 + ... + 4096 slots: the pool doubled seven times.
  EXPECT_EQ(pool.blockCount(), 8u);
  EXPECT_EQ(pool.size(), 5000u);
  for (std::size_t n = 0; n < 5000; ++n) {
    EXPECT_EQ(&pool[indices[n]], addresses[n]);
    EXPECT_EQ(pool[indices[n]].a, n);
  }
  // Moving the pool moves the blocks' ownership, not the slots.
  const NodePool<Slot> moved = std::move(pool);
  EXPECT_EQ(&moved[indices.back()], addresses.back());
  EXPECT_EQ(moved.live(), 5000u);
}

TEST(NodePool, ReleasedSlotIsReusedFirst) {
  NodePool<Slot> pool;
  pool.allocate();
  const PoolIndex b = pool.allocate();
  pool.allocate();
  pool[b].a = 7;
  pool.release(b);
  EXPECT_EQ(pool.live(), 2u);
  const PoolIndex again = pool.allocate();
  EXPECT_EQ(again, b);
  EXPECT_EQ(pool[again].a, 0u) << "a reused slot is value-initialised";
  EXPECT_EQ(pool.size(), 3u) << "no fresh slot was taken";
}

// Erasing and re-inserting the same prefixes recycles the released slots:
// neither trie's pool takes a fresh slot, let alone a new block.
TEST(NodePool, TrieChurnKeepsThePoolSize) {
  Rng rng(23);
  const auto entries = testutil::randomTable4(rng, 1000);
  trie::BinaryTrie4 binary;
  trie::PatriciaTrie4 patricia;
  for (const auto& e : entries) {
    binary.insert(e.prefix, e.next_hop);
    patricia.insert(e.prefix, e.next_hop);
  }
  const std::size_t binary_blocks = binary.pool().blockCount();
  const std::size_t binary_slots = binary.pool().size();
  const std::size_t patricia_blocks = patricia.pool().blockCount();
  const std::size_t patricia_slots = patricia.pool().size();
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (const auto& e : entries) {
      ASSERT_TRUE(binary.erase(e.prefix));
      ASSERT_TRUE(patricia.erase(e.prefix));
    }
    ASSERT_EQ(binary.nodeCount(), 1u);
    ASSERT_EQ(patricia.nodeCount(), 1u);
    for (const auto& e : entries) {
      binary.insert(e.prefix, e.next_hop);
      patricia.insert(e.prefix, e.next_hop);
    }
  }
  EXPECT_EQ(binary.pool().blockCount(), binary_blocks);
  EXPECT_EQ(binary.pool().size(), binary_slots);
  EXPECT_EQ(patricia.pool().blockCount(), patricia_blocks);
  EXPECT_EQ(patricia.pool().size(), patricia_slots);
  EXPECT_EQ(binary.prefixCount(), entries.size());
  EXPECT_EQ(patricia.prefixCount(), entries.size());
}

// A walk through a stale anchor reads a released slot; ASan must still say
// so, as it did when the slot was a freed heap node.
TEST(NodePoolDeathTest, ReadingAReleasedTrieVertexIsReported) {
#if !defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "released slots are poisoned in ASan builds only";
#else
  trie::BinaryTrie4 t;
  t.insert(testutil::p4("10.1.2.0/24"), 1);
  const auto* stale = t.findVertex(testutil::p4("10.1.2.0/24"));
  ASSERT_NE(stale, nullptr);
  ASSERT_TRUE(t.erase(testutil::p4("10.1.2.0/24")));
  EXPECT_DEATH(
      {
        volatile bool marked = stale->marked;
        (void)marked;
      },
      "use-after-poison");
#endif
}

}  // namespace
}  // namespace cluert::mem
