// Experiment E16 — route dynamics: the clue machinery under a converging
// routing protocol (§3.3.2 "construct and update the clues table" from the
// routing algorithm, §3.4 "minimizes the overhead due to topological
// changes").
//
// The topo harness's RIP (src/topo/rip.h) converges over a 12-router ring
// with chords 0-6 and 3-9. Router 5 forwards traffic arriving from router 4:
// its suite is built from fibOf(5), and its clue table from clueViewOf(5, 4),
// the prefix view 4's own updates carry (§3.3.2: the clues ride on "the
// information they exchange in the routing algorithm"). Three links fail and
// router 10 withdraws 10 of its prefixes; after each event the bench ticks
// until converged() and then until the view holds exactly fibOf(4)'s
// prefixes (converged() checks routes, not views), applies both sides'
// deltas, and reports RIP messages, ticks, route and view changes, and the
// data-plane cost.
//
// Exits 1 when a stage reads above 1.05 accesses/packet or an event takes
// more than RipOptions::convergenceBound() ticks, the view wait included
// (tools/ci.sh gate 10).
#include <algorithm>
#include <string>
#include <utility>

#include "core/distributed_lookup.h"
#include "rib/fib_diff.h"
#include "topo/rip.h"

#include "bench_util.h"

int main() {
  using namespace cluert;
  using A = ip::Ip4Addr;
  using MatchT = trie::Match<A>;
  constexpr RouterId kSender = 4;
  constexpr RouterId kReceiver = 5;
  constexpr double kMaxAccesses = 1.05;

  constexpr std::size_t kN = 12;
  topo::Topology ring = topo::buildTopology(topo::Shape::kRing, kN, 0);
  ring.links.push_back({0, 6});
  ring.links.push_back({3, 9});
  std::sort(ring.links.begin(), ring.links.end(),
            [](const topo::Link& x, const topo::Link& y) {
              return std::pair(x.a, x.b) < std::pair(y.a, y.b);
            });
  topo::RipNetwork rip(std::move(ring), topo::RipOptions{});
  Rng rng(77);
  std::vector<std::vector<ip::Prefix4>> originated(kN);
  for (RouterId r = 0; r < kN; ++r) {
    for (int k = 0; k < 40; ++k) {
      originated[r].push_back(ip::Prefix4(
          ip::Ip4Addr(rng.u32()), static_cast<int>(rng.uniform(12, 24))));
      rip.originate(r, originated[r].back());
    }
  }

  bool failed = false;
  const int bound = rip.options().convergenceBound();
  // Ticks until the routes converge and the receiver's view of the sender
  // holds exactly the sender's prefixes; fails the run past the bound.
  const auto settle = [&]() {
    int ticks = 0;
    while (ticks <= bound && !rip.converged()) {
      rip.tick();
      ++ticks;
    }
    while (ticks <= bound && rip.clueViewOf(kReceiver, kSender).prefixes() !=
                                 rip.fibOf(kSender).prefixes()) {
      rip.tick();
      ++ticks;
    }
    if (ticks > bound) {
      std::printf("!! not settled within convergenceBound() = %d ticks\n",
                  bound);
      failed = true;
    }
    return ticks;
  };
  const int initial_ticks = settle();
  std::printf("Initial convergence: %llu RIP messages in %d ticks, %zu "
              "routers, %zu-prefix FIBs\n",
              static_cast<unsigned long long>(rip.messagesSent()),
              initial_ticks, kN, rip.fibOf(0).size());

  // Clue pair: routers 4 (sender) -> 5 (receiver).
  rib::Fib4 receiver_fib = rip.fibOf(kReceiver);
  rib::Fib4 view = rip.clueViewOf(kReceiver, kSender);
  trie::BinaryTrie<A> t1 = view.buildTrie();
  lookup::LookupSuite<A> suite(std::vector<MatchT>(
      receiver_fib.entries().begin(), receiver_fib.entries().end()));
  typename core::CluePort<A>::Options opt;
  opt.method = lookup::Method::kPatricia;
  opt.mode = lookup::ClueMode::kAdvance;
  core::CluePort<A> port(suite, &t1, opt);
  port.precompute(view.prefixes());

  // 2000 packets under the sender's prefixes, each stamped with the
  // sender's BMP length as its clue.
  const auto measure = [&](const char* label) {
    const rib::Fib4 sender_fib = rip.fibOf(kSender);
    const trie::BinaryTrie<A> sender_trie = sender_fib.buildTrie();
    mem::AccessCounter scratch, acc;
    std::size_t n = 0;
    Rng wrng(123);
    for (int i = 0; i < 2000; ++i) {
      const auto& entries = sender_fib.entries();
      const auto& p = entries[wrng.index(entries.size())].prefix;
      ip::Ip4Addr dest = p.addr();
      for (int b = p.length(); b < 32; ++b) {
        dest = dest.withBit(b, static_cast<unsigned>(wrng.u32() & 1));
      }
      const auto bmp = sender_trie.lookup(dest, scratch);
      if (!bmp) continue;
      port.process(dest, core::ClueField::of(bmp->prefix.length()), acc);
      ++n;
    }
    const double per_packet =
        static_cast<double>(acc.total()) / static_cast<double>(n);
    std::printf("%-34s %8.3f accesses/packet (%zu packets)\n", label,
                per_packet, n);
    if (per_packet > kMaxAccesses) {
      std::printf("!! above %.2f accesses/packet\n", kMaxAccesses);
      failed = true;
    }
  };
  measure("steady state");

  // Three link failures, then router 10 withdraws the first 10 prefixes it
  // originated: no failure in this ring removes a prefix from the sender's
  // view, so only the withdrawal gives refreshNeighbor a non-empty delta.
  const auto event = [&](const std::string& label, const auto& apply) {
    const auto msgs_before = rip.messagesSent();
    apply();
    const int ticks = settle();

    const rib::Fib4 new_receiver = rip.fibOf(kReceiver);
    const auto receiver_delta = rib::diff(receiver_fib, new_receiver);
    suite.applyRouteDelta(receiver_delta.removed, receiver_delta.upserts());
    port.refreshLocal(receiver_delta);

    const rib::Fib4 new_view = rip.clueViewOf(kReceiver, kSender);
    const auto view_delta = rib::diff(view, new_view);
    rib::applyDelta(t1, view_delta);
    port.refreshNeighbor(view_delta);

    receiver_fib = new_receiver;
    view = new_view;
    std::printf("\n%s: %llu RIP messages in %d ticks, %zu receiver route "
                "changes, %zu clue-view changes\n",
                label.c_str(),
                static_cast<unsigned long long>(rip.messagesSent() -
                                                msgs_before),
                ticks, receiver_delta.size(), view_delta.size());
    measure("after reconvergence");
  };
  for (const auto& [a, b] :
       {std::pair<RouterId, RouterId>{0, 6}, {2, 3}, {8, 9}}) {
    event("link " + std::to_string(a) + "-" + std::to_string(b) + " failed",
          [&] { rip.setLink(a, b, false); });
  }
  event("router 10 withdrew 10 prefixes", [&] {
    for (int k = 0; k < 10; ++k) rip.withdraw(10, originated[10][k]);
  });

  std::printf(
      "\nShape check: the clue table follows the routing protocol's own\n"
      "updates; the data-plane cost stays at ~1 access throughout\n"
      "(Sec. 3.4's 'minimizes the overhead due to topological changes').\n");
  return failed ? 1 : 0;
}
