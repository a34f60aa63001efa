// Shared helpers for the test suite: small random tables and convenience
// builders. The brute-force reference BMP is check::bruteForceBmp.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/fib_check.h"
#include "common/random.h"
#include "core/clue_table.h"
#include "ip/prefix.h"
#include "rib/fib.h"
#include "rib/table_gen.h"
#include "trie/binary_trie.h"

namespace cluert::testutil {

// A small random IPv4 table with realistic shape.
inline std::vector<trie::Match<ip::Ip4Addr>> randomTable4(Rng& rng,
                                                          std::size_t size) {
  rib::GenOptions<ip::Ip4Addr> opt;
  opt.size = size;
  opt.histogram = rib::internetLengths1999();
  opt.subprefix_fraction = 0.35;  // dense nesting stresses the clue logic
  const auto fib = rib::TableGen<ip::Ip4Addr>::generate(rng, opt);
  return {fib.entries().begin(), fib.entries().end()};
}

inline std::vector<trie::Match<ip::Ip6Addr>> randomTable6(Rng& rng,
                                                          std::size_t size) {
  rib::GenOptions<ip::Ip6Addr> opt;
  opt.size = size;
  opt.histogram = rib::internetLengths6();
  opt.subprefix_fraction = 0.35;
  const auto fib = rib::TableGen<ip::Ip6Addr>::generate(rng, opt);
  return {fib.entries().begin(), fib.entries().end()};
}

// A "neighboring" table: keeps most of `base`, drops some entries, adds some
// fresh ones (including extensions — the problematic-clue makers).
template <typename A>
std::vector<trie::Match<A>> neighborOf(
    const std::vector<trie::Match<A>>& base, Rng& rng, double keep = 0.8,
    std::size_t fresh = 20, double fresh_ext = 0.5) {
  rib::Fib<A> base_fib{std::vector<trie::Match<A>>(base)};
  rib::NeighborOptions<A> opt;
  opt.shared = static_cast<std::size_t>(static_cast<double>(base.size()) * keep);
  opt.fresh = fresh;
  opt.fresh_extension_fraction = fresh_ext;
  const auto fib =
      rib::TableGen<A>::deriveNeighbor(base_fib, rng, opt);
  return {fib.entries().begin(), fib.entries().end()};
}

inline ip::Ip4Addr randomAddr4(Rng& rng) { return ip::Ip4Addr(rng.u32()); }

inline ip::Ip6Addr randomAddr6(Rng& rng) {
  return ip::Ip6Addr(rng.u64(), rng.u64());
}

// An address that matches some prefix of the table (biased sampling: pure
// uniform addresses mostly miss small tables).
template <typename A, typename DrawFn>
A coveredAddress(const std::vector<trie::Match<A>>& entries, Rng& rng,
                 const DrawFn& draw) {
  if (entries.empty() || rng.chance(0.2)) return draw(rng);
  const auto& p = entries[rng.index(entries.size())].prefix;
  A a = p.addr();
  for (int b = p.length(); b < A::kBits; ++b) {
    a = a.withBit(b, static_cast<unsigned>(rng.u32() & 1));
  }
  return a;
}

inline ip::Prefix4 p4(const std::string& text) {
  const auto p = ip::Prefix4::parse(text);
  if (!p) throw std::runtime_error("bad prefix literal: " + text);
  return *p;
}

inline ip::Ip4Addr a4(const std::string& text) {
  const auto a = ip::Ip4Addr::parse(text);
  if (!a) throw std::runtime_error("bad address literal: " + text);
  return *a;
}

// `got` is `want` field for field. A Binary or Multiway candidate set is
// compared by content: the two live in different stores. Another method's
// anchor, a node of the suite the entry was built over, is compared by
// address only when both entries were built over one suite (`same_suite`);
// otherwise check::validate is what holds it to its suite.
template <typename A>
::testing::AssertionResult sameClueEntry(const core::ClueEntry<A>& got,
                                         const core::ClueEntry<A>& want,
                                         lookup::Method method,
                                         bool same_suite = true) {
  const auto differs = [&](const char* what) {
    return ::testing::AssertionFailure()
           << got.clue.toString() << " vs " << want.clue.toString() << ": "
           << what << " differs";
  };
  if (got.clue != want.clue || got.valid != want.valid ||
      got.active != want.active) {
    return differs("the slot");
  }
  if (got.fd() != want.fd()) return differs("the FD");
  if (got.ptr_empty != want.ptr_empty || got.kase != want.kase ||
      got.claim1_pruned != want.claim1_pruned) {
    return differs("the case");
  }
  if (got.cont.n != want.cont.n ||
      (got.cont.anchor == nullptr) != (want.cont.anchor == nullptr)) {
    return differs("the continuation");
  }
  if (method != lookup::Method::kBinary &&
      method != lookup::Method::kMultiway) {
    return !same_suite || got.cont == want.cont
               ? ::testing::AssertionSuccess()
               : differs("the continuation");
  }
  if (got.cont.anchor == nullptr) return ::testing::AssertionSuccess();
  const auto segments = [](const core::ClueEntry<A>& e) {
    return static_cast<const lookup::SegmentTable<A>*>(e.cont.anchor)
        ->segments();
  };
  const auto g = segments(got);
  const auto w = segments(want);
  if (g.size() != w.size()) return differs("the candidate set");
  for (std::size_t k = 0; k < g.size(); ++k) {
    if (g[k].start != w[k].start || g[k].has_match != w[k].has_match ||
        (g[k].has_match && g[k].match != w[k].match)) {
      return differs("the candidate set");
    }
  }
  return ::testing::AssertionSuccess();
}

// `got` holds what `want` holds, two clue tables that followed equal
// deltas or were built over equal tables, each over its own suite: the
// hashed entries by key, both ways, and the self slots slot by slot.
template <typename A>
void expectSameClueTables(const core::HashClueTable<A>& got,
                          const core::HashClueTable<A>& want,
                          lookup::Method method) {
  mem::AccessCounter scratch;
  ASSERT_EQ(got.size(), want.size());
  got.forEach([&](const core::ClueEntry<A>& e) {
    const auto* w = want.find(e.clue, scratch);
    ASSERT_NE(w, nullptr) << e.clue.toString() << " missing from `want`";
    EXPECT_TRUE(sameClueEntry(e, *w, method, false));
  });
  want.forEach([&](const core::ClueEntry<A>& e) {
    EXPECT_NE(got.find(e.clue, scratch), nullptr)
        << e.clue.toString() << " missing from `got`";
  });
  ASSERT_TRUE(got.hasSelfClues());
  ASSERT_TRUE(want.hasSelfClues());
  for (std::size_t i = 0; i < core::kSelfClueSlots; ++i) {
    ASSERT_TRUE(sameClueEntry(got.selfSlotAt(i), want.selfSlotAt(i), method,
                              false))
        << "self slot " << i;
  }
}

}  // namespace cluert::testutil
