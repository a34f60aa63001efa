// Robustness and configuration-grid properties: the transparency invariant
// must survive every table organisation (hash / indexed / cached) and
// arbitrarily corrupted clue headers.
#include <gtest/gtest.h>

#include "core/distributed_lookup.h"
#include "test_util.h"

namespace cluert {
namespace {

using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;
using core::ClueField;
using core::CluePort;
using lookup::ClueMode;
using lookup::LookupSuite;
using lookup::Method;

struct ConfigCase {
  bool indexed;
  std::size_t cache_entries;
  ClueMode mode;
};

class ConfigGridTest : public ::testing::TestWithParam<ConfigCase> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfigGridTest,
    ::testing::Values(ConfigCase{false, 0, ClueMode::kSimple},
                      ConfigCase{false, 0, ClueMode::kAdvance},
                      ConfigCase{false, 128, ClueMode::kSimple},
                      ConfigCase{false, 128, ClueMode::kAdvance},
                      ConfigCase{true, 0, ClueMode::kSimple},
                      ConfigCase{true, 0, ClueMode::kAdvance}),
    [](const auto& info) {
      std::string name = info.param.indexed ? "Indexed" : "Hashed";
      if (info.param.cache_entries > 0) name += "Cached";
      name += std::string(lookup::clueModeName(info.param.mode));
      return name;
    });

TEST_P(ConfigGridTest, TransparencyAcrossTableOrganisations) {
  const auto param = GetParam();
  Rng rng(606 + (param.indexed ? 1 : 0) + param.cache_entries);
  const auto sender = testutil::randomTable4(rng, 250);
  const auto receiver = testutil::neighborOf(sender, rng, 0.8, 40, 0.5);
  trie::BinaryTrie<A> t1;
  for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
  LookupSuite<A> suite(receiver);
  typename CluePort<A>::Options opt;
  opt.method = Method::kPatricia;
  opt.mode = param.mode;
  opt.indexed = param.indexed;
  opt.indexed_capacity = 4096;
  opt.cache_entries = param.cache_entries;
  CluePort<A> port(suite, &t1, opt);
  core::ClueIndexer<A> indexer;

  mem::AccessCounter scratch;
  for (int i = 0; i < 500; ++i) {
    const auto dest = testutil::coveredAddress<A>(sender, rng,
                                                  testutil::randomAddr4);
    const auto bmp = t1.lookup(dest, scratch);
    ClueField field = ClueField::none();
    if (bmp) {
      if (param.indexed) {
        const auto idx = indexer.indexOf(bmp->prefix);
        field = idx ? ClueField::indexed(bmp->prefix.length(), *idx)
                    : ClueField::of(bmp->prefix.length());
      } else {
        field = ClueField::of(bmp->prefix.length());
      }
    }
    mem::AccessCounter acc;
    const auto r = port.process(dest, field, acc);
    const auto expect = check::bruteForceBmp(receiver, dest);
    ASSERT_EQ(expect.has_value(), r.match.has_value()) << dest.toString();
    if (expect) ASSERT_EQ(expect->prefix, r.match->prefix);
  }
}

// Corrupted headers: random clue lengths (including invalid ones) and
// random indices must never crash nor misroute a Simple receiver — the clue
// reconstructed from the destination is always some prefix of it, and index
// mismatches are caught by the stored-clue check (§3.3.1 robustness).
TEST(CorruptedHeaders, SimpleReceiverNeverMisroutes) {
  Rng rng(707);
  const auto sender = testutil::randomTable4(rng, 150);
  const auto receiver = testutil::neighborOf(sender, rng, 0.8, 25, 0.5);
  trie::BinaryTrie<A> t1;
  for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
  LookupSuite<A> suite(receiver);
  typename CluePort<A>::Options opt;
  opt.method = Method::kPatricia;
  opt.mode = ClueMode::kSimple;
  opt.indexed = true;
  opt.indexed_capacity = 256;
  CluePort<A> port(suite, &t1, opt);

  for (int i = 0; i < 2000; ++i) {
    const auto dest = testutil::coveredAddress<A>(receiver, rng,
                                                  testutil::randomAddr4);
    ClueField field;
    field.present = rng.chance(0.9);
    field.length = static_cast<std::uint8_t>(rng.uniform(0, 255));  // junk
    if (rng.chance(0.5)) {
      field.index = static_cast<std::uint16_t>(rng.uniform(0, 65535));
    }
    mem::AccessCounter acc;
    const auto r = port.process(dest, field, acc);
    const auto expect = check::bruteForceBmp(receiver, dest);
    ASSERT_EQ(expect.has_value(), r.match.has_value())
        << dest.toString() << " len " << int(field.length);
    if (expect) ASSERT_EQ(expect->prefix, r.match->prefix);
  }
}

TEST(CorruptedHeaders, HashedSimpleReceiverSurvivesJunkLengths) {
  Rng rng(708);
  const auto receiver = testutil::randomTable4(rng, 100);
  trie::BinaryTrie<A> t1;  // empty neighbor view
  LookupSuite<A> suite(receiver);
  typename CluePort<A>::Options opt;
  opt.method = Method::kRegular;
  opt.mode = ClueMode::kSimple;
  CluePort<A> port(suite, &t1, opt);
  for (int i = 0; i < 1000; ++i) {
    const auto dest = testutil::coveredAddress<A>(receiver, rng,
                                                  testutil::randomAddr4);
    ClueField field;
    field.present = true;
    field.length = static_cast<std::uint8_t>(rng.uniform(0, 64));
    mem::AccessCounter acc;
    const auto r = port.process(dest, field, acc);
    const auto expect = check::bruteForceBmp(receiver, dest);
    ASSERT_EQ(expect.has_value(), r.match.has_value());
    if (expect) ASSERT_EQ(expect->prefix, r.match->prefix);
  }
}

// IPv6 port of the corrupted-header properties. The wire encoding is 7 bits
// (lengths 1..128 stored as length-1, clue.h), so the boundaries worth
// pinning are 1 (shortest encodable), 64 (half the address), and 128 (whole
// address); anything above W decodes as clue-absent via cluePrefix.
TEST(CorruptedHeaders, Ipv6SimpleReceiverSurvivesBoundaryLengths) {
  using A6 = ip::Ip6Addr;
  Rng rng(709);
  const auto sender = testutil::randomTable6(rng, 120);
  const auto receiver = testutil::neighborOf(sender, rng, 0.8, 25, 0.5);
  trie::BinaryTrie<A6> t1;
  for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
  LookupSuite<A6> suite(receiver);
  typename CluePort<A6>::Options opt;
  opt.method = Method::kPatricia;
  opt.mode = ClueMode::kSimple;
  opt.indexed = true;
  opt.indexed_capacity = 256;
  CluePort<A6> port(suite, &t1, opt);

  constexpr std::uint8_t kBoundary[] = {1, 63, 64, 65, 127, 128};
  for (int i = 0; i < 400; ++i) {
    const auto dest = testutil::coveredAddress<A6>(receiver, rng,
                                                   testutil::randomAddr6);
    for (const std::uint8_t len : kBoundary) {
      ClueField field;
      field.present = true;
      field.length = len;
      if (rng.chance(0.5)) {
        field.index = static_cast<std::uint16_t>(rng.uniform(0, 65535));
      }
      mem::AccessCounter acc;
      const auto r = port.process(dest, field, acc);
      const auto expect = check::bruteForceBmp(receiver, dest);
      ASSERT_EQ(expect.has_value(), r.match.has_value())
          << dest.toString() << " len " << int(len);
      if (expect) {
        ASSERT_EQ(expect->prefix, r.match->prefix)
            << dest.toString() << " len " << int(len);
      }
    }
  }
}

// Every 8-bit junk encoding 0..255: values in [1, 128] reconstruct a genuine
// prefix of the destination (safe under Simple by construction), 0 and
// values above 128 must decode as clue-absent — never a crash, never a wrong
// next hop.
TEST(CorruptedHeaders, Ipv6JunkEncodingsNeverMisroute) {
  using A6 = ip::Ip6Addr;
  Rng rng(710);
  const auto receiver = testutil::randomTable6(rng, 80);
  trie::BinaryTrie<A6> t1;  // empty neighbor view
  LookupSuite<A6> suite(receiver);
  typename CluePort<A6>::Options opt;
  opt.method = Method::kRegular;
  opt.mode = ClueMode::kSimple;
  CluePort<A6> port(suite, &t1, opt);

  for (int i = 0; i < 16; ++i) {
    const auto dest = testutil::coveredAddress<A6>(receiver, rng,
                                                   testutil::randomAddr6);
    const auto expect = check::bruteForceBmp(receiver, dest);
    for (int len = 0; len <= 255; ++len) {
      ClueField field;
      field.present = true;
      field.length = static_cast<std::uint8_t>(len);
      mem::AccessCounter acc;
      const auto r = port.process(dest, field, acc);
      ASSERT_EQ(expect.has_value(), r.match.has_value())
          << dest.toString() << " len " << len;
      if (expect) {
        ASSERT_EQ(expect->prefix, r.match->prefix)
            << dest.toString() << " len " << len;
      }
    }
  }
}

}  // namespace
}  // namespace cluert
