#include "netio/config.h"

#include "common/text.h"

namespace cluert::netio {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

// [A-Za-z0-9._-]+: the name is printed unescaped into the JSON bodies of
// /status, /trace and /debug/flight.
bool validName(std::string_view s) {
  for (const char ch : s) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '.' || ch == '_' ||
                    ch == '-';
    if (!ok) return false;
  }
  return !s.empty();
}

}  // namespace

std::optional<Config> parseConfig(std::string_view text, std::string* error) {
  Config c;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + what;
    }
    return std::nullopt;
  };
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) return fail("expected key = value");
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view val = trim(line.substr(eq + 1));
    if (key.empty() || val.empty()) return fail("empty key or value");

    if (key == "name") {
      if (!validName(val)) return fail("name must match [A-Za-z0-9._-]+");
      c.name = std::string(val);
    } else if (key == "router_id") {
      const auto v = parseNumber<std::uint16_t>(val);
      if (!v) return fail("bad router_id");
      c.router_id = *v;
    } else if (key == "listen" || key == "admin") {
      const auto a = SockAddr::parse(val);
      if (!a) return fail("bad address (want ip:port)");
      (key == "listen" ? c.listen : c.admin) = *a;
    } else if (key == "routes") {
      c.routes = std::string(val);
    } else if (key == "neighbor_routes") {
      c.neighbor_routes = std::string(val);
    } else if (key == "method") {
      const auto m = lookup::methodFromName(val);
      if (!m) return fail("unknown method");
      c.method = *m;
    } else if (key == "mode") {
      const auto m = lookup::clueModeFromName(val);
      if (!m) return fail("mode must be simple or advance");
      c.mode = *m;
    } else if (key == "workers") {
      const auto v = parseNumber<std::size_t>(val);
      if (!v || *v == 0 || *v > 32) return fail("bad workers");
      c.workers = *v;
    } else if (key == "cache_entries") {
      const auto v = parseNumber<std::size_t>(val);
      if (!v) return fail("bad cache_entries");
      c.cache_entries = *v;
    } else if (key == "oracle") {
      if (val != "0" && val != "1") return fail("oracle must be 0 or 1");
      c.oracle = val == "1";
    } else if (key == "drain_ms") {
      const auto v = parseNumber<std::uint32_t>(val);
      if (!v || *v > 60000) return fail("bad drain_ms");
      c.drain_ms = *v;
    } else if (key == "rcvbuf") {
      const auto v = parseNumber<int>(val);
      if (!v || *v > (1 << 30)) return fail("bad rcvbuf");
      c.rcvbuf = *v;
    } else if (key == "metrics_out") {
      c.metrics_out = std::string(val);
    } else if (key == "trace_sample") {
      const auto v = parseNumber<std::uint32_t>(val);
      if (!v || *v > 1000000000) return fail("bad trace_sample");
      c.trace_sample = *v;
    } else if (key == "flight_out") {
      c.flight_out = std::string(val);
    } else if (key == "peer.default") {
      const auto a = SockAddr::parse(val);
      if (!a) return fail("bad peer address");
      c.default_peer = *a;
    } else if (key.size() > 5 && key.substr(0, 5) == "peer.") {
      const auto nh = parseNextHop(key.substr(5));
      if (!nh) return fail("bad peer key");
      const auto a = SockAddr::parse(val);
      if (!a) return fail("bad peer address");
      c.peers[*nh] = *a;
    } else {
      return fail("unknown key '" + std::string(key) + "'");
    }
  }
  line_no = 0;  // config-level (not line-level) complaints below
  if (c.routes.empty()) return fail("missing required key 'routes'");
  if (c.mode == lookup::ClueMode::kAdvance && c.neighbor_routes.empty()) {
    return fail("mode advance requires neighbor_routes");
  }
  return c;
}

std::optional<Config> loadConfig(const std::string& path, std::string* error) {
  const auto text = readFile(path);
  if (!text) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return parseConfig(*text, error);
}

}  // namespace cluert::netio
