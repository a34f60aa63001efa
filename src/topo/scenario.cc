#include "topo/scenario.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/random.h"
#include "common/text.h"

namespace cluert::topo {

namespace {

constexpr std::size_t kMaxNodes = 64;
constexpr int kMaxTicks = 1 << 20;
constexpr std::uint32_t kMaxBurst = 1 << 16;

// Keeps timelines canonical: stable sort by tick only, preserving the
// written order of same-tick lines so parse-serialize is a byte fixpoint.
void sortByTick(TopoScenario& s) {
  std::stable_sort(
      s.events.begin(), s.events.end(),
      [](const TopoEvent& l, const TopoEvent& r) { return l.tick < r.tick; });
  std::stable_sort(s.packets.begin(), s.packets.end(),
                   [](const TopoPacket& l, const TopoPacket& r) {
                     return l.tick < r.tick;
                   });
}

}  // namespace

std::string_view topoEventName(TopoEventKind k) {
  switch (k) {
    case TopoEventKind::kLinkDown:
      return "link-down";
    case TopoEventKind::kLinkUp:
      return "link-up";
    case TopoEventKind::kAdvertise:
      return "advertise";
    case TopoEventKind::kWithdraw:
      return "withdraw";
  }
  return "?";
}

std::optional<TopoEventKind> topoEventFromName(std::string_view name) {
  for (const TopoEventKind k :
       {TopoEventKind::kLinkDown, TopoEventKind::kLinkUp,
        TopoEventKind::kAdvertise, TopoEventKind::kWithdraw}) {
    if (topoEventName(k) == name) return k;
  }
  return std::nullopt;
}

std::string serializeTopoScenario(const TopoScenario& s) {
  std::ostringstream os;
  os << "cluert-topo v1 ipv4\n";
  os << "seed " << s.seed << '\n';
  os << "topology " << shapeName(s.shape) << ' ' << s.nodes << '\n';
  os << "mode "
     << (s.mode == lookup::ClueMode::kSimple ? "simple" : "advance") << '\n';
  os << "method " << lookup::methodName(s.method) << '\n';
  os << "ticks " << s.ticks << '\n';
  os << "originate " << s.originate.size() << '\n';
  for (const TopoOriginate& o : s.originate) {
    os << o.router << ' ' << o.prefix.toString() << '\n';
  }
  os << "events " << s.events.size() << '\n';
  for (const TopoEvent& e : s.events) {
    os << e.tick << ' ' << topoEventName(e.kind) << ' ' << e.a << ' ';
    if (e.kind == TopoEventKind::kLinkDown ||
        e.kind == TopoEventKind::kLinkUp) {
      os << e.b << '\n';
    } else {
      os << e.prefix.toString() << '\n';
    }
  }
  os << "packets " << s.packets.size() << '\n';
  for (const TopoPacket& p : s.packets) {
    os << p.tick << ' ' << p.src << ' ' << p.dest.toString() << ' ' << p.count
       << '\n';
  }
  return os.str();
}

std::optional<TopoScenario> parseTopoScenario(std::string_view text) {
  LineReader in(text);

  const auto header = in.next();
  if (!header) return std::nullopt;
  {
    const auto f = fields(*header);
    if (f.size() != 3 || f[0] != "cluert-topo" || f[1] != "v1" ||
        f[2] != "ipv4") {
      return std::nullopt;
    }
  }

  TopoScenario s;
  const auto keyed = [&](std::string_view key, std::size_t nfields)
      -> std::optional<std::vector<std::string_view>> {
    const auto line = in.next();
    if (!line) return std::nullopt;
    const auto f = fields(*line);
    if (f.size() != nfields || f[0] != key) return std::nullopt;
    return f;
  };

  {
    const auto f = keyed("seed", 2);
    if (!f) return std::nullopt;
    const auto seed = parseNumber<std::uint64_t>((*f)[1]);
    if (!seed) return std::nullopt;
    s.seed = *seed;
  }
  {
    const auto f = keyed("topology", 3);
    if (!f) return std::nullopt;
    const auto shape = shapeFromName((*f)[1]);
    const auto nodes = parseNumber<std::size_t>((*f)[2]);
    if (!shape || !nodes || *nodes < 2 || *nodes > kMaxNodes) {
      return std::nullopt;
    }
    s.shape = *shape;
    s.nodes = *nodes;
  }
  {
    const auto f = keyed("mode", 2);
    if (!f) return std::nullopt;
    const auto m = lookup::clueModeFromName((*f)[1]);
    if (!m) return std::nullopt;
    s.mode = *m;
  }
  {
    const auto f = keyed("method", 2);
    if (!f) return std::nullopt;
    const auto m = lookup::methodFromName((*f)[1]);
    if (!m) return std::nullopt;
    s.method = *m;
  }
  {
    const auto f = keyed("ticks", 2);
    if (!f) return std::nullopt;
    const auto t = parseNumber<int>((*f)[1]);
    if (!t || *t > kMaxTicks) return std::nullopt;
    s.ticks = *t;
  }

  const auto count = [&](std::string_view key) -> std::optional<std::size_t> {
    const auto f = keyed(key, 2);
    if (!f) return std::nullopt;
    const auto n = parseNumber<std::size_t>((*f)[1]);
    if (!n || *n > (1u << 20)) return std::nullopt;
    return n;
  };
  const auto router = [&](std::string_view tok) -> std::optional<RouterId> {
    const auto r = parseNumber<RouterId>(tok);
    if (!r || *r >= s.nodes) return std::nullopt;
    return r;
  };
  const auto tickOf = [&](std::string_view tok) -> std::optional<int> {
    const auto t = parseNumber<int>(tok);
    if (!t || *t > kMaxTicks) return std::nullopt;
    return t;
  };

  const auto n_orig = count("originate");
  if (!n_orig) return std::nullopt;
  for (std::size_t i = 0; i < *n_orig; ++i) {
    const auto line = in.next();
    if (!line) return std::nullopt;
    const auto f = fields(*line);
    if (f.size() != 2) return std::nullopt;
    const auto r = router(f[0]);
    const auto p = Prefix4::parse(f[1]);
    if (!r || !p) return std::nullopt;
    s.originate.push_back(TopoOriginate{*r, *p});
  }

  const auto n_events = count("events");
  if (!n_events) return std::nullopt;
  for (std::size_t i = 0; i < *n_events; ++i) {
    const auto line = in.next();
    if (!line) return std::nullopt;
    const auto f = fields(*line);
    if (f.size() != 4) return std::nullopt;
    TopoEvent e;
    const auto t = tickOf(f[0]);
    const auto kind = topoEventFromName(f[1]);
    const auto a = router(f[2]);
    if (!t || !kind || !a) return std::nullopt;
    e.tick = *t;
    e.kind = *kind;
    e.a = *a;
    if (*kind == TopoEventKind::kLinkDown || *kind == TopoEventKind::kLinkUp) {
      const auto b = router(f[3]);
      if (!b) return std::nullopt;
      e.b = *b;
    } else {
      const auto p = Prefix4::parse(f[3]);
      if (!p) return std::nullopt;
      e.prefix = *p;
    }
    s.events.push_back(e);
  }

  const auto n_packets = count("packets");
  if (!n_packets) return std::nullopt;
  for (std::size_t i = 0; i < *n_packets; ++i) {
    const auto line = in.next();
    if (!line) return std::nullopt;
    const auto f = fields(*line);
    if (f.size() != 4) return std::nullopt;
    const auto t = tickOf(f[0]);
    const auto src = router(f[1]);
    const auto dest = Addr4::parse(f[2]);
    const auto n = parseNumber<std::uint32_t>(f[3]);
    if (!t || !src || !dest || !n || *n == 0 || *n > kMaxBurst) {
      return std::nullopt;
    }
    s.packets.push_back(TopoPacket{*t, *src, *dest, *n});
  }
  if (in.next().has_value()) return std::nullopt;  // trailing garbage
  sortByTick(s);
  return s;
}

TopoScenario generateTopoScenario(std::uint64_t seed) {
  Rng rng(Rng::splitMix64(seed) ^ 0x70905ce11a12ULL);
  TopoScenario s;
  s.seed = seed;
  s.nodes = 3 + rng.index(6);  // 3..8
  for (;;) {
    s.shape = static_cast<Shape>(rng.index(kShapeCount));
    if (s.shape != Shape::kFatTree || s.nodes >= 6) break;
  }
  s.mode = rng.chance(0.5) ? lookup::ClueMode::kAdvance
                           : lookup::ClueMode::kSimple;
  s.method = lookup::kExtendedMethods[rng.index(lookup::kMethodCount)];
  s.ticks = 80 + static_cast<int>(rng.index(120));

  // Per-router address block 10.<r+1>.0.0/16 plus a few narrower prefixes
  // inside it — neighboring tables overlap in structure the way the
  // paper's neighborhood-similarity argument wants.
  for (RouterId r = 0; r < s.nodes; ++r) {
    const std::uint32_t base = (10u << 24) | ((r + 1u) << 16);
    s.originate.push_back(TopoOriginate{r, Prefix4(Addr4(base), 16)});
    const std::size_t subs = rng.index(3);
    for (std::size_t k = 0; k < subs; ++k) {
      const int len = 18 + static_cast<int>(rng.index(9));  // /18../26
      const std::uint32_t sub =
          base | (static_cast<std::uint32_t>(rng.u64()) & 0x0000ffffu);
      s.originate.push_back(TopoOriginate{r, Prefix4(Addr4(sub), len)});
    }
  }

  const Topology topo = s.topology();
  const auto randomLink = [&]() -> const Link& {
    return topo.links[rng.index(topo.links.size())];
  };

  // Link flaps: down now, back up a few ticks later (sometimes never —
  // the run ends with the link dark).
  const std::size_t flaps = 1 + rng.index(4);
  for (std::size_t k = 0; k < flaps; ++k) {
    const Link& l = randomLink();
    const int t0 = static_cast<int>(rng.index(
        static_cast<std::size_t>(std::max(1, s.ticks - 20))));
    s.events.push_back(
        TopoEvent{t0, TopoEventKind::kLinkDown, l.a, l.b, Prefix4()});
    if (rng.chance(0.8)) {
      const int t1 = t0 + 4 + static_cast<int>(rng.index(24));
      s.events.push_back(
          TopoEvent{std::min(t1, s.ticks - 1), TopoEventKind::kLinkUp, l.a,
                    l.b, Prefix4()});
    }
  }

  // Advertise/withdraw churn on fresh prefixes.
  const std::size_t churn = rng.index(3);
  for (std::size_t k = 0; k < churn; ++k) {
    const RouterId r = static_cast<RouterId>(rng.index(s.nodes));
    const std::uint32_t base =
        (10u << 24) | ((r + 1u) << 16) | (0xc000u + (k << 8));
    const Prefix4 p(Addr4(base), 24);
    const int t0 = static_cast<int>(
        rng.index(static_cast<std::size_t>(std::max(1, s.ticks - 30))));
    s.events.push_back(
        TopoEvent{t0, TopoEventKind::kAdvertise, r, 0, p});
    if (rng.chance(0.7)) {
      const int t1 = t0 + 2 + static_cast<int>(rng.index(20));
      s.events.push_back(TopoEvent{std::min(t1, s.ticks - 1),
                                   TopoEventKind::kWithdraw, r, 0, p});
    }
  }

  // Packet bursts, mostly into originated space (deeper than the prefix so
  // BMP has work to do), occasionally anywhere.
  const std::size_t bursts = 20 + rng.index(60);
  for (std::size_t k = 0; k < bursts; ++k) {
    TopoPacket p;
    p.tick = static_cast<int>(rng.index(static_cast<std::size_t>(s.ticks)));
    p.src = static_cast<RouterId>(rng.index(s.nodes));
    if (rng.chance(0.9)) {
      const TopoOriginate& o = s.originate[rng.index(s.originate.size())];
      const std::uint32_t lo_bits =
          Addr4::kBits == o.prefix.length()
              ? 0u
              : static_cast<std::uint32_t>(rng.u64()) >> o.prefix.length();
      p.dest = Addr4(o.prefix.addr().value() | lo_bits);
    } else {
      p.dest = Addr4(static_cast<std::uint32_t>(rng.u64()));
    }
    p.count = 1 + static_cast<std::uint32_t>(rng.index(8));
    s.packets.push_back(p);
  }
  sortByTick(s);
  return s;
}

TopoScenario shrinkTopoScenario(TopoScenario failing,
                                const TopoFailPredicate& fails,
                                const sim::ShrinkOptions& opt,
                                sim::ShrinkStats* stats_out) {
  sim::ShrinkStats stats;
  for (std::size_t round = 0; round < opt.max_rounds; ++round) {
    stats.rounds = round + 1;
    bool progress = false;

    progress |= sim::detail::chunkShrink(
        failing, fails,
        [](TopoScenario& s) -> auto& { return s.packets; }, stats, opt);
    progress |= sim::detail::chunkShrink(
        failing, fails,
        [](TopoScenario& s) -> auto& { return s.events; }, stats, opt);
    progress |= sim::detail::chunkShrink(
        failing, fails,
        [](TopoScenario& s) -> auto& { return s.originate; }, stats, opt);

    // Collapse burst counts and pull timelines toward tick 0.
    for (std::size_t i = 0; i < failing.packets.size(); ++i) {
      progress |= sim::detail::tryMutation(
          failing, fails,
          [i](TopoScenario& s) {
            if (s.packets[i].count == 1) return false;
            s.packets[i].count = 1;
            return true;
          },
          stats, opt);
      for (int attempt = 0; attempt < 2; ++attempt) {
        progress |= sim::detail::tryMutation(
            failing, fails,
            [i, attempt](TopoScenario& s) {
              int& t = s.packets[i].tick;
              const int target = attempt == 0 ? 0 : t / 2;
              if (t == target) return false;
              t = target;
              sortByTick(s);
              return true;
            },
            stats, opt);
      }
      // Zero trailing destination bits for readability.
      for (const int keep : {8, 16, 24}) {
        progress |= sim::detail::tryMutation(
            failing, fails,
            [i, keep](TopoScenario& s) {
              const Addr4 cut = Prefix4(s.packets[i].dest, keep).addr();
              if (cut == s.packets[i].dest) return false;
              s.packets[i].dest = cut;
              return true;
            },
            stats, opt);
      }
    }
    for (std::size_t i = 0; i < failing.events.size(); ++i) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        progress |= sim::detail::tryMutation(
            failing, fails,
            [i, attempt](TopoScenario& s) {
              int& t = s.events[i].tick;
              const int target = attempt == 0 ? 0 : t / 2;
              if (t == target) return false;
              t = target;
              sortByTick(s);
              return true;
            },
            stats, opt);
      }
    }

    // Trim the run to just past the last scheduled activity.
    progress |= sim::detail::tryMutation(
        failing, fails,
        [](TopoScenario& s) {
          int last = 0;
          for (const auto& e : s.events) last = std::max(last, e.tick);
          for (const auto& p : s.packets) last = std::max(last, p.tick);
          const int target = last + 4;
          if (s.ticks <= target) return false;
          s.ticks = target;
          return true;
        },
        stats, opt);

    if (!progress || stats.evals >= opt.max_evals) break;
  }
  if (stats_out != nullptr) *stats_out = stats;
  return failing;
}

}  // namespace cluert::topo
