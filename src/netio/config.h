// cluertd's configuration: a flat `key = value` file (#-comments, blank
// lines ignored). Example — hop B of a three-router line A→B→C:
//
//   name            = hopB
//   router_id       = 2
//   listen          = 127.0.0.1:9002    # UDP data plane
//   admin           = 127.0.0.1:9102    # TCP admin plane
//   routes          = B.routes          # this router's FIB (rib::Fib text)
//   neighbor_routes = A.routes          # upstream's FIB (Advance mode)
//   peer.default    = 127.0.0.1:9003    # where re-emitted packets go
//   method          = Patricia
//   mode            = advance
//   workers         = 1
//   oracle          = 1                 # differential-check every packet
//
// `peer.<next_hop>` pins one FIB next-hop id to a distinct peer endpoint;
// `peer.default` catches the rest. A routed packet whose next hop has no
// peer is *delivered*: this router is the last clue-speaking hop for it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/types.h"
#include "lookup/lookup_method.h"
#include "netio/socket.h"

namespace cluert::netio {

struct Config {
  std::string name = "cluertd";  // [A-Za-z0-9._-]+ (JSON-safe)
  std::uint16_t router_id = 0;
  SockAddr listen;            // UDP data plane (port 0 = kernel-assigned)
  SockAddr admin;             // TCP admin plane (port 0 = kernel-assigned)
  std::string routes;         // path to this router's Fib (required)
  std::string neighbor_routes;  // path to the upstream Fib ("" = derive none)
  std::map<NextHop, SockAddr> peers;
  std::optional<SockAddr> default_peer;
  lookup::Method method = lookup::Method::kPatricia;
  lookup::ClueMode mode = lookup::ClueMode::kSimple;
  std::size_t workers = 1;
  std::size_t cache_entries = 0;
  bool oracle = false;        // per-packet brute-force BMP check
  std::uint32_t drain_ms = 500;  // shutdown: max time draining accepted work
  int rcvbuf = 1 << 20;
  std::string metrics_out;    // write a final .prom snapshot here on exit
  // Distributed tracing (DESIGN.md §11): 0 disables; N samples every Nth
  // untraced ingress packet per shard and stamps it with a trace context.
  // Packets arriving already-traced always propagate regardless.
  std::uint32_t trace_sample = 0;
  // SIGQUIT flight-recorder dump destination ("" = the daemon's stderr).
  std::string flight_out;
};

// Parses config text. On failure returns nullopt and sets *error to a
// line-numbered message.
std::optional<Config> parseConfig(std::string_view text, std::string* error);

// Convenience: read + parse a file.
std::optional<Config> loadConfig(const std::string& path, std::string* error);

}  // namespace cluert::netio
