// The differential oracle runner (DESIGN.md §8): replays one Scenario
// through every requested {Method} × {Simple, Advance} × {hash, indexed}
// configuration and asserts byte-identical next hops against a brute-force
// BMP oracle, with the src/check/ structural validators run at every
// published version (the initial build and after each churn step).
//
// The oracle is computed once per (packet, table-version) — all configs
// share the same churn schedule, so the expected answer sequence is a pure
// function of the scenario — then each config replays the stream
// independently: fresh suite, fresh clue table, learning enabled, faults
// materialised per packet from the scenario's deterministic aux draws.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/validate.h"
#include "core/distributed_lookup.h"
#include "sim/scenario.h"

namespace cluert::sim {

template <typename A>
struct RunOptions {
  std::uint32_t methods = lookup::kAllMethodsMask;  // lookup::methodBit mask
  bool simple = true;
  bool advance = true;
  bool hash = true;
  bool indexed = true;
  // Run the structural validators (trie, Patricia equivalence, clue table)
  // at every published version of every config. O(entries²)-ish; the CLI
  // turns it off for the million-packet sweeps.
  bool validate_publishes = true;
  // §3.5 cache entries per port (0 disables; a nonzero value exercises the
  // cache-invalidation-across-refresh paths).
  std::size_t cache_entries = 64;
  std::size_t max_mismatches = 8;  // stop a config after this many
  // Test hook: corrupts a freshly built port before any packet runs (the
  // shrinker tests seed a deliberately broken engine through this).
  std::function<void(core::CluePort<A>&)> sabotage;
};

struct SimConfig {
  lookup::Method method;
  lookup::ClueMode mode;
  bool indexed = false;
};

inline std::string configName(const SimConfig& c) {
  std::string name(lookup::methodName(c.method));
  name += '/';
  name += lookup::clueModeName(c.mode);
  name += c.indexed ? "/indexed" : "/hash";
  return name;
}

struct Mismatch {
  std::size_t packet = 0;
  SimConfig config;
  Fault fault = Fault::kNone;
  std::string detail;  // dest, expected vs got
};

struct RunResult {
  std::uint64_t generated_packets = 0;  // |scenario.packets|
  std::uint64_t packets_processed = 0;  // summed over configs
  std::uint64_t strict_checked = 0;     // oracle-asserted packet runs
  std::uint64_t faults_injected = 0;    // per generated stream
  std::uint64_t publishes = 0;          // churn steps applied, over configs
  std::uint64_t configs = 0;
  std::vector<Mismatch> mismatches;
  check::Report check_report;  // validator findings at published versions

  bool ok() const { return mismatches.empty() && check_report.ok(); }

  std::string summary() const {
    std::string s = std::to_string(configs) + " configs, " +
                    std::to_string(generated_packets) + " generated packets, " +
                    std::to_string(packets_processed) + " processed, " +
                    std::to_string(strict_checked) + " oracle-checked, " +
                    std::to_string(faults_injected) + " faults, " +
                    std::to_string(mismatches.size()) + " mismatches, " +
                    std::to_string(check_report.size()) +
                    " invariant violations";
    return s;
  }
};

namespace detail {

template <typename A>
std::string describe(const std::optional<trie::Match<A>>& m) {
  if (!m) return "(none)";
  return m->prefix.toString() + "->" + std::to_string(m->next_hop);
}

// Expected oracle answer per packet index: walks the stream once, applying
// local churn to a mirrored Fib at the scenario's publish points. Neighbor
// churn never changes the receiver's BMPs.
template <typename A>
std::vector<std::optional<trie::Match<A>>> oracleRow(const Scenario<A>& s) {
  std::vector<std::optional<trie::Match<A>>> expected;
  expected.reserve(s.packets.size());
  rib::Fib<A> recv{std::vector<trie::Match<A>>(s.receiver)};
  std::size_t next_step = 0;
  for (std::size_t i = 0; i < s.packets.size(); ++i) {
    while (next_step < s.churn.size() &&
           s.churn[next_step].after_packet <= i) {
      if (!s.churn[next_step].neighbor) {
        rib::applyDelta(recv, s.churn[next_step].delta);
      }
      ++next_step;
    }
    expected.push_back(
        check::bruteForceBmp(recv.entries(), s.packets[i].dest));
  }
  return expected;
}

// Materialises the clue header one packet carries under `fault`, given the
// sender's current and initial tries. `indexer` non-null selects the
// indexing technique (§3.3.1): genuine clues ship their enumerated index;
// length-corrupting faults keep the GENUINE clue's index, modelling a header
// whose length bits were damaged in flight while the index still names the
// sender's entry — the stored-clue verification must catch the skew.
template <typename A>
core::ClueField makeField(const SimPacket<A>& p,
                          const trie::BinaryTrie<A>& t1,
                          const trie::BinaryTrie<A>& t1_initial,
                          core::ClueIndexer<A>* indexer,
                          mem::AccessCounter& scratch) {
  using core::ClueField;
  const auto genuine = t1.lookup(p.dest, scratch);
  const auto withIndex = [&](ClueField f) {
    if (indexer != nullptr && f.present && genuine) {
      if (const auto idx = indexer->indexOf(
              ip::Prefix<A>(p.dest, genuine->prefix.length()))) {
        f.index = *idx;
      }
    }
    return f;
  };
  switch (p.fault) {
    case Fault::kNone:
      return withIndex(genuine ? ClueField::of(genuine->prefix.length())
                               : ClueField::none());
    case Fault::kNoClue:
      return ClueField::none();
    case Fault::kTruncated: {
      if (!genuine) return ClueField::none();
      const int len = 1 + static_cast<int>(
                              p.aux % static_cast<std::uint32_t>(
                                          genuine->prefix.length()));
      return withIndex(ClueField::of(len));
    }
    case Fault::kJunk: {
      ClueField f;
      f.present = true;
      f.length = static_cast<std::uint8_t>(p.aux & 0xff);
      return withIndex(f);
    }
    case Fault::kStale: {
      const auto old = t1_initial.lookup(p.dest, scratch);
      return withIndex(old ? ClueField::of(old->prefix.length())
                           : ClueField::none());
    }
    case Fault::kWrongIndex: {
      ClueField f = genuine ? ClueField::of(genuine->prefix.length())
                            : ClueField::none();
      if (indexer != nullptr && f.present) {
        f.index = static_cast<std::uint16_t>(p.aux & 0xffff);
      }
      return f;
    }
  }
  return ClueField::none();
}

}  // namespace detail

// Structural validation of one config's live state: trie, Patricia
// equivalence, and the clue table checked field-by-field against a fresh
// re-analysis (t1 only for Advance, matching the validator's mode switch).
template <typename A>
check::Report validateConfigState(const lookup::LookupSuite<A>& suite,
                                  const core::CluePort<A>& port,
                                  const trie::BinaryTrie<A>* t1_for_advance) {
  check::Report report;
  report.merge(check::validate(suite.binaryTrie()));
  report.merge(check::validateEquivalent(suite.binaryTrie(),
                                         suite.patricia()));
  report.merge(check::validate(port.hashTable(), suite.binaryTrie(),
                               t1_for_advance, &suite.patricia()));
  if (port.options().indexed) {
    report.merge(check::validate(port.indexedTable(), suite.binaryTrie(),
                                 t1_for_advance, &suite.patricia()));
  }
  return report;
}

template <typename A>
RunResult runScenario(const Scenario<A>& s, const RunOptions<A>& opt = {}) {
  RunResult result;
  result.generated_packets = s.packets.size();
  result.faults_injected = s.faultCount();

  const auto expected = detail::oracleRow(s);

  trie::BinaryTrie<A> t1_initial;
  for (const auto& e : s.sender) t1_initial.insert(e.prefix, e.next_hop);
  std::vector<ip::Prefix<A>> sender_clues;
  sender_clues.reserve(s.sender.size());
  for (const auto& e : s.sender) sender_clues.push_back(e.prefix);

  std::vector<SimConfig> configs;
  for (const lookup::Method m : lookup::kExtendedMethods) {
    if ((opt.methods & lookup::methodBit(m)) == 0) continue;
    for (const lookup::ClueMode mode :
         {lookup::ClueMode::kSimple, lookup::ClueMode::kAdvance}) {
      if (mode == lookup::ClueMode::kSimple && !opt.simple) continue;
      if (mode == lookup::ClueMode::kAdvance && !opt.advance) continue;
      for (const bool indexed : {false, true}) {
        if (indexed ? !opt.indexed : !opt.hash) continue;
        configs.push_back({m, mode, indexed});
      }
    }
  }
  result.configs = configs.size();

  for (const SimConfig& cfg : configs) {
    // Fresh world per config: suite over the receiver table (only this
    // config's engine materialised), mutable sender trie, learning port.
    lookup::SuiteOptions sopt;
    sopt.methods = lookup::methodBit(cfg.method);
    lookup::LookupSuite<A> suite(s.receiver, sopt);
    trie::BinaryTrie<A> t1;
    for (const auto& e : s.sender) t1.insert(e.prefix, e.next_hop);

    const bool advance = cfg.mode == lookup::ClueMode::kAdvance;
    typename core::CluePort<A>::Options popt;
    popt.method = cfg.method;
    popt.mode = cfg.mode;
    popt.indexed = cfg.indexed;
    popt.cache_entries = opt.cache_entries;
    popt.expected_clues = s.sender.size() + 16;
    core::CluePort<A> port(suite, advance ? &t1 : nullptr, popt);

    core::ClueIndexer<A> indexer;
    if (cfg.indexed) {
      port.precomputeIndexed(sender_clues, indexer);
    } else {
      port.precompute(sender_clues);
    }
    if (opt.sabotage) opt.sabotage(port);

    const trie::BinaryTrie<A>* t1_check = advance ? &t1 : nullptr;
    if (opt.validate_publishes) {
      result.check_report.merge(validateConfigState(suite, port, t1_check));
    }

    mem::AccessCounter acc;
    std::size_t next_step = 0;
    std::size_t config_mismatches = 0;
    for (std::size_t i = 0; i < s.packets.size(); ++i) {
      // Mid-stream version swaps: apply every delta scheduled before i.
      while (next_step < s.churn.size() &&
             s.churn[next_step].after_packet <= i) {
        const ChurnStep<A>& step = s.churn[next_step];
        ++next_step;
        ++result.publishes;
        if (step.neighbor) {
          rib::applyDelta(t1, step.delta);
          port.refreshNeighbor(step.delta);
        } else {
          suite.applyRouteDelta(step.delta.removed, step.delta.upserts());
          port.refreshLocal(step.delta);
        }
        if (opt.validate_publishes) {
          result.check_report.merge(
              validateConfigState(suite, port, t1_check));
        }
      }

      const SimPacket<A>& p = s.packets[i];
      const core::ClueField field = detail::makeField(
          p, t1, t1_initial, cfg.indexed ? &indexer : nullptr, acc);
      const auto r = port.process(p.dest, field, acc);
      ++result.packets_processed;

      if (!oracleStrict(p.fault, cfg.mode)) continue;
      ++result.strict_checked;
      const auto& want = expected[i];
      const bool agree =
          want.has_value() == r.match.has_value() &&
          (!want || (want->prefix == r.match->prefix &&
                     want->next_hop == r.match->next_hop));
      if (agree) continue;
      Mismatch m;
      m.packet = i;
      m.config = cfg;
      m.fault = p.fault;
      m.detail = "dest " + p.dest.toString() + " fault " +
                 std::string(faultName(p.fault)) + ": expected " +
                 detail::describe<A>(want) + " got " +
                 detail::describe<A>(r.match);
      result.mismatches.push_back(std::move(m));
      if (++config_mismatches >= opt.max_mismatches) break;
    }
  }
  return result;
}

}  // namespace cluert::sim
