// Corpus persistence for scenarios (DESIGN.md §8 "Corpus workflow").
//
// A corpus file is a line-oriented text serialization of one Scenario —
// the format every shrunk repro is written in, and what the CorpusReplay
// ctest and `sim_run --replay` read back. The format is versioned; parsers
// reject unknown versions rather than guessing.
//
//   cluert-scenario v1 ipv4
//   seed 12345
//   sender <n>        then n lines "prefix next_hop" (rib::Fib::parseEntry)
//   receiver <n>      then n lines "prefix next_hop"
//   churn <n>         then per step:
//     <local|neighbor> <after_packet> <removed> <added> <rerouted>
//     ... removed prefixes, added entries, rerouted entries, one per line
//   packets <n>       then n lines "dest fault aux"
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/text.h"
#include "sim/scenario.h"

namespace cluert::sim {

std::optional<Fault> faultFromName(std::string_view name);

// Family tag for dispatching a file to the right parser instantiation
// ("ipv4", "ipv6", or empty when the header is unreadable).
std::string_view scenarioFamily(std::string_view text);

// Sorted list of corpus files (extension .scn) under `dir`; empty if the
// directory does not exist.
std::vector<std::string> listCorpusFiles(const std::string& dir);

namespace detail {

template <typename A>
constexpr std::string_view familyTag() {
  return A::kBits == 32 ? "ipv4" : "ipv6";
}

// In the corpus's own order: a Fib would sort and deduplicate them.
template <typename A>
void putEntries(std::ostringstream& os,
                const std::vector<trie::Match<A>>& entries) {
  for (const auto& e : entries) rib::Fib<A>::writeEntry(os, e);
}

}  // namespace detail

template <typename A>
std::string serializeScenario(const Scenario<A>& s) {
  std::ostringstream os;
  os << "cluert-scenario v1 " << detail::familyTag<A>() << '\n';
  os << "seed " << s.seed << '\n';
  os << "sender " << s.sender.size() << '\n';
  detail::putEntries(os, s.sender);
  os << "receiver " << s.receiver.size() << '\n';
  detail::putEntries(os, s.receiver);
  os << "churn " << s.churn.size() << '\n';
  for (const auto& step : s.churn) {
    os << (step.neighbor ? "neighbor" : "local") << ' ' << step.after_packet
       << ' ' << step.delta.removed.size() << ' ' << step.delta.added.size()
       << ' ' << step.delta.rerouted.size() << '\n';
    for (const auto& p : step.delta.removed) os << p.toString() << '\n';
    detail::putEntries(os, step.delta.added);
    detail::putEntries(os, step.delta.rerouted);
  }
  os << "packets " << s.packets.size() << '\n';
  for (const auto& p : s.packets) {
    os << p.dest.toString() << ' ' << faultName(p.fault) << ' ' << p.aux
       << '\n';
  }
  return os.str();
}

template <typename A>
std::optional<Scenario<A>> parseScenario(std::string_view text) {
  LineReader in(text);

  const auto header = in.next();
  if (!header) return std::nullopt;
  {
    const auto f = fields(*header);
    if (f.size() != 3 || f[0] != "cluert-scenario" || f[1] != "v1" ||
        f[2] != detail::familyTag<A>()) {
      return std::nullopt;
    }
  }

  Scenario<A> s;
  const auto expectCount = [&](std::string_view key)
      -> std::optional<std::size_t> {
    const auto line = in.next();
    if (!line) return std::nullopt;
    const auto f = fields(*line);
    if (f.size() != 2 || f[0] != key) return std::nullopt;
    const auto n = parseNumber<std::size_t>(f[1]);
    if (!n || *n > (1u << 24)) return std::nullopt;  // sanity bound
    return n;
  };
  const auto readEntries =
      [&](std::size_t n, std::vector<trie::Match<A>>& out) -> bool {
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto line = in.next();
      if (!line) return false;
      const auto e = rib::Fib<A>::parseEntry(*line);
      if (!e) return false;
      out.push_back(*e);
    }
    return true;
  };

  {
    const auto line = in.next();
    if (!line) return std::nullopt;
    const auto f = fields(*line);
    if (f.size() != 2 || f[0] != "seed") return std::nullopt;
    const auto seed = parseNumber<std::uint64_t>(f[1]);
    if (!seed) return std::nullopt;
    s.seed = *seed;
  }

  const auto n_sender = expectCount("sender");
  if (!n_sender || !readEntries(*n_sender, s.sender)) return std::nullopt;
  const auto n_receiver = expectCount("receiver");
  if (!n_receiver || !readEntries(*n_receiver, s.receiver)) {
    return std::nullopt;
  }

  const auto n_churn = expectCount("churn");
  if (!n_churn) return std::nullopt;
  for (std::size_t i = 0; i < *n_churn; ++i) {
    const auto line = in.next();
    if (!line) return std::nullopt;
    const auto f = fields(*line);
    if (f.size() != 5) return std::nullopt;
    ChurnStep<A> step;
    if (f[0] == "neighbor") {
      step.neighbor = true;
    } else if (f[0] != "local") {
      return std::nullopt;
    }
    const auto after = parseNumber<std::size_t>(f[1]);
    const auto nr = parseNumber<std::size_t>(f[2]);
    const auto na = parseNumber<std::size_t>(f[3]);
    const auto nu = parseNumber<std::size_t>(f[4]);
    if (!after || !nr || !na || !nu || *nr > (1u << 20) || *na > (1u << 20) ||
        *nu > (1u << 20)) {
      return std::nullopt;
    }
    step.after_packet = *after;
    step.delta.removed.reserve(*nr);
    for (std::size_t k = 0; k < *nr; ++k) {
      const auto pl = in.next();
      if (!pl) return std::nullopt;
      const auto p = ip::Prefix<A>::parse(*pl);
      if (!p) return std::nullopt;
      step.delta.removed.push_back(*p);
    }
    if (!readEntries(*na, step.delta.added)) return std::nullopt;
    if (!readEntries(*nu, step.delta.rerouted)) return std::nullopt;
    s.churn.push_back(std::move(step));
  }

  const auto n_packets = expectCount("packets");
  if (!n_packets) return std::nullopt;
  s.packets.reserve(*n_packets);
  for (std::size_t i = 0; i < *n_packets; ++i) {
    const auto line = in.next();
    if (!line) return std::nullopt;
    const auto f = fields(*line);
    if (f.size() != 3) return std::nullopt;
    const auto dest = A::parse(f[0]);
    const auto fault = faultFromName(f[1]);
    const auto aux = parseNumber<std::uint32_t>(f[2]);
    if (!dest || !fault || !aux) return std::nullopt;
    s.packets.push_back(SimPacket<A>{*dest, *fault, *aux});
  }
  return s;
}

}  // namespace cluert::sim
