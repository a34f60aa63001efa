// Fuzz target: FibDelta apply (structure-aware). Two tables are decoded
// from the input bytes; the invariant is the diff/apply round trip —
// applyDelta(a, diff(a, b)) must reproduce b exactly — plus delta
// canonicalisation (sorted, disjoint sections) on whatever diff emits.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "fuzz_util.h"
#include "rib/fib_diff.h"

namespace cluert {
namespace {

using A = ip::Ip4Addr;

// Fib preserves insertion order (applyDelta appends), so table equality is
// by sorted content, not by serialize() bytes.
std::vector<trie::Match<A>> canonical(const rib::Fib<A>& fib) {
  std::vector<trie::Match<A>> v{fib.entries().begin(), fib.entries().end()};
  std::ranges::sort(v, {}, &trie::Match<A>::prefix);
  return v;
}

bool sameTable(const rib::Fib<A>& x, const rib::Fib<A>& y) {
  const auto cx = canonical(x);
  const auto cy = canonical(y);
  if (cx.size() != cy.size()) return false;
  for (std::size_t i = 0; i < cx.size(); ++i) {
    if (!(cx[i].prefix == cy[i].prefix) || cx[i].next_hop != cy[i].next_hop) {
      return false;
    }
  }
  return true;
}

rib::Fib<A> drawTable(fuzz::ByteReader& in, std::size_t max_entries) {
  std::vector<trie::Match<A>> entries;
  const std::size_t n = in.below(static_cast<std::uint32_t>(max_entries + 1));
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const A addr(in.u32());
    const int len = static_cast<int>(in.below(A::kBits + 1));
    entries.push_back(trie::Match<A>{ip::Prefix<A>(addr, len),
                                     static_cast<NextHop>(in.u8())});
  }
  return rib::Fib<A>{std::move(entries)};
}

}  // namespace
}  // namespace cluert

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace cluert;
  fuzz::ByteReader in(data, size);
  const auto a = drawTable(in, 48);
  const auto b = drawTable(in, 48);

  const auto d = rib::diff(a, b);

  // Sections must be canonically sorted and free of duplicates.
  for (std::size_t i = 1; i < d.removed.size(); ++i) {
    if (!(d.removed[i - 1] < d.removed[i])) {
      std::fprintf(stderr, "diff.removed not strictly sorted\n");
      std::abort();
    }
  }
  for (std::size_t i = 1; i < d.added.size(); ++i) {
    if (!(d.added[i - 1].prefix < d.added[i].prefix)) {
      std::fprintf(stderr, "diff.added not strictly sorted\n");
      std::abort();
    }
  }

  rib::Fib<ip::Ip4Addr> replay = a;
  rib::applyDelta(replay, d);
  if (!sameTable(replay, b)) {
    std::fprintf(stderr,
                 "applyDelta(a, diff(a,b)) != b (a=%zu b=%zu delta=%zu/%zu/%zu)\n",
                 a.size(), b.size(), d.removed.size(), d.added.size(),
                 d.rerouted.size());
    std::abort();
  }

  // Empty diff iff identical tables.
  if (sameTable(a, b) != d.empty()) {
    std::fprintf(stderr, "diff emptiness disagrees with table equality\n");
    std::abort();
  }
  return 0;
}
