// Forwarding information base: the flat (prefix -> next hop) table a router
// builds its lookup structures from, plus the set operations the paper's
// Tables 1 and 3 report on.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "ip/prefix.h"
#include "trie/binary_trie.h"

namespace cluert::rib {

template <typename A>
class Fib {
 public:
  using PrefixT = ip::Prefix<A>;
  using EntryT = trie::Match<A>;

  Fib() = default;
  explicit Fib(std::vector<EntryT> entries) : entries_(std::move(entries)) {
    normalize();
  }

  // Adds or replaces a route.
  void add(const PrefixT& prefix, NextHop next_hop) {
    for (EntryT& e : entries_) {
      if (e.prefix == prefix) {
        e.next_hop = next_hop;
        return;
      }
    }
    entries_.push_back(EntryT{prefix, next_hop});
  }

  // Withdraws a route. Returns false when the prefix was not present.
  bool remove(const PrefixT& prefix) {
    const auto it =
        std::find_if(entries_.begin(), entries_.end(),
                     [&](const EntryT& e) { return e.prefix == prefix; });
    if (it == entries_.end()) return false;
    entries_.erase(it);
    return true;
  }

  std::span<const EntryT> entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  bool contains(const PrefixT& prefix) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const EntryT& e) { return e.prefix == prefix; });
  }

  // The control/data-plane trie for this table.
  trie::BinaryTrie<A> buildTrie() const {
    trie::BinaryTrie<A> t;
    for (const EntryT& e : entries_) t.insert(e.prefix, e.next_hop);
    return t;
  }

  // All prefixes (the clue universe of this router as a *sender*).
  std::vector<PrefixT> prefixes() const {
    std::vector<PrefixT> out;
    out.reserve(entries_.size());
    for (const EntryT& e : entries_) out.push_back(e.prefix);
    return out;
  }

  // |this ∩ other| counted over prefix sets (Table 3, "the total number of
  // prefixes of one router that also appear in the other").
  std::size_t intersectionSize(const Fib& other) const {
    std::unordered_set<PrefixT> mine;
    mine.reserve(entries_.size() * 2);
    for (const EntryT& e : entries_) mine.insert(e.prefix);
    std::size_t n = 0;
    for (const EntryT& e : other.entries_) n += mine.count(e.prefix);
    return n;
  }

  // One "prefix next_hop" line per entry.
  std::string serialize() const {
    std::ostringstream os;
    for (const EntryT& e : entries_) {
      os << e.prefix.toString() << ' ' << e.next_hop << '\n';
    }
    return os.str();
  }

  static std::optional<Fib> parse(std::string_view text) {
    Fib fib;
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string_view::npos) eol = text.size();
      const std::string_view line = text.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.empty()) continue;
      const auto space = line.find(' ');
      if (space == std::string_view::npos) return std::nullopt;
      const auto prefix = PrefixT::parse(line.substr(0, space));
      if (!prefix) return std::nullopt;
      NextHop nh = 0;
      for (char c : line.substr(space + 1)) {
        if (c < '0' || c > '9') return std::nullopt;
        nh = nh * 10 + static_cast<NextHop>(c - '0');
      }
      fib.entries_.push_back(EntryT{*prefix, nh});
    }
    fib.normalize();
    return fib;
  }

 private:
  // Deduplicates (last writer wins) and orders by prefix.
  void normalize() {
    std::ranges::stable_sort(entries_, {}, &EntryT::prefix);
    // Keep the last occurrence of duplicate prefixes.
    std::vector<EntryT> out;
    out.reserve(entries_.size());
    for (const EntryT& e : entries_) {
      if (!out.empty() && out.back().prefix == e.prefix) {
        out.back() = e;
      } else {
        out.push_back(e);
      }
    }
    entries_ = std::move(out);
  }

  std::vector<EntryT> entries_;
};

using Fib4 = Fib<ip::Ip4Addr>;
using Fib6 = Fib<ip::Ip6Addr>;

}  // namespace cluert::rib
