// Fuzz target: FIB snapshot loading (rib::Fib::parse — the text format
// cluert_eval reads router table exports in). Arbitrary input must
// parse-or-reject cleanly; an accepted table must hold no kNoNextHop route
// and serialize to a canonical form that re-parses to the same table
// (fixpoint after one round).
#include <cstdio>
#include <cstdlib>

#include "fuzz_util.h"
#include "rib/fib.h"

namespace cluert {
namespace {

template <typename A>
void oneFamily(const std::string& text) {
  const auto fib = rib::Fib<A>::parse(text);
  if (!fib) return;
  for (const auto& e : fib->entries()) {
    if (e.next_hop == kNoNextHop) {
      std::fprintf(stderr, "accepted a route to kNoNextHop (no route)\n");
      std::abort();
    }
  }
  const std::string canon = fib->serialize();
  const auto again = rib::Fib<A>::parse(canon);
  if (!again) {
    std::fprintf(stderr, "canonical form failed to re-parse\n");
    std::abort();
  }
  if (again->serialize() != canon) {
    std::fprintf(stderr, "serialization is not a fixpoint\n");
    std::abort();
  }
  // The parsed table must be internally consistent enough to build a trie.
  trie::BinaryTrie<A> t = fib->buildTrie();
  if (fib->size() > 0 && t.prefixCount() == 0) {
    std::fprintf(stderr, "non-empty table built an empty trie\n");
    std::abort();
  }
}

}  // namespace
}  // namespace cluert

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  cluert::fuzz::ByteReader in(data, size);
  const std::string text = in.str(4096);
  cluert::oneFamily<cluert::ip::Ip4Addr>(text);
  cluert::oneFamily<cluert::ip::Ip6Addr>(text);
  return 0;
}
