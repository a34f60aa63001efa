#!/usr/bin/env bash
# topo_run.sh — spin up a line topology of cluertd daemons on loopback,
# inject clue-tagged traffic at one end, and assert end-to-end behavior:
#
#   injector → hop1 → hop2 → ... → hopN → collector
#
# Each hop runs the clue protocol: it looks the packet up at a pinned table
# version (differential oracle on), re-stamps its own BMP as the clue, and
# forwards. Hop 1 also samples 1-in-8 packets into the distributed tracer;
# downstream hops propagate the trace context. The script asserts:
#   * the collector received every injected packet, all decoding cleanly;
#   * zero oracle mismatches on every hop (/status);
#   * per-hop case-1 lookups > 0 and live per-peer rx/tx counters
#     (tools/metrics_diff.py --require-nonzero on the /metrics scrape);
#   * every hop moved more than one datagram per receive call and per send
#     call (netio_{rx,tx}_packets_total over netio_{rx,tx}_syscalls_total):
#     a silent fall-back to one datagram per syscall — a failed GSO probe, a
#     dropped control message — fails here instead of only running slower;
#   * the merged /trace scrapes contain >=1 complete trace covering every
#     hop with monotone timestamps and per-hop latency percentiles
#     (tools/trace_merge.py --require-hops);
#   * SIGQUIT makes every daemon dump a parseable flight-recorder JSON and
#     keep running;
#   * every daemon exits 0 on SIGTERM (bounded drain, no crash).
#
# --topology star|ring swaps the line for a multi-peer shape (same clue
# datapath, different wiring) and gates on per-peer counter conservation:
# for every directed link a→b the sender's netio_peer_tx_packets_total
# {peer=...} must equal the receiver's netio_peer_rx_packets_total{src=...}.
#   * star: 3 leaves fan in to a hub (distinct tables via the neighbor
#     chain); the hub egresses to the collector. Exercises multi-source rx
#     accounting under concurrent injectors' clues.
#   * ring: 5 nodes, ring-shortest forwarding over one shared prefix
#     universe (wire_play gen --ring); each node's own blocks egress to the
#     collector via peer.<self>. Exercises per-next-hop egress choice.
# The trace and flight-recorder gates are line-only (hop 1 is the tracer).
#
# Usage:
#   tools/topo_run.sh [--smoke]           # 3 hops, 10k packets (CI gate 7)
#   tools/topo_run.sh --hops N --count M [--mode simple|advance] \
#                     [--method Patricia] [--size S] [--seed X] [--keep] \
#                     [--topology line|star|ring]
set -u

cd "$(dirname "$0")/.." || exit 1
ROOT=$(pwd)
BUILD=${BUILD_DIR:-build}
CLUERTD="$ROOT/$BUILD/src/cluertd"
WIRE_PLAY="$ROOT/$BUILD/tools/wire_play"
METRICS_DIFF="$ROOT/tools/metrics_diff.py"

HOPS=3
COUNT=10000
MODE=advance
METHOD=Patricia
SIZE=4000
SEED=7
KEEP=0
TOPOLOGY=line
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) HOPS=3; COUNT=10000 ;;
    --hops) HOPS=$2; shift ;;
    --count) COUNT=$2; shift ;;
    --mode) MODE=$2; shift ;;
    --method) METHOD=$2; shift ;;
    --size) SIZE=$2; shift ;;
    --seed) SEED=$2; shift ;;
    --keep) KEEP=1 ;;
    --topology) TOPOLOGY=$2; shift ;;
    *) echo "topo_run: unknown option $1" >&2; exit 2 ;;
  esac
  shift
done
case "$TOPOLOGY" in
  line|star|ring) ;;
  *) echo "topo_run: unknown --topology $TOPOLOGY" >&2; exit 2 ;;
esac

for bin in "$CLUERTD" "$WIRE_PLAY"; do
  if [ ! -x "$bin" ]; then
    echo "topo_run: missing $bin (build the '$BUILD' tree first)" >&2
    exit 1
  fi
done

DIR=$(mktemp -d /tmp/topo_run.XXXXXX)
PIDS=""
cleanup() {
  for pid in $PIDS; do kill -KILL "$pid" 2>/dev/null; done
  [ "$KEEP" = 1 ] && echo "topo_run: artifacts kept in $DIR" || rm -rf "$DIR"
}
trap cleanup EXIT

fail() { echo "topo_run: FAIL: $*" >&2; exit 1; }

# Ports: a random base well above the ephemeral floor collision zone.
BASE=$(( (RANDOM % 2000) + 21000 ))
data_port() { echo $((BASE + $1)); }
admin_port() { echo $((BASE + 100 + $1)); }
COLLECT_PORT=$((BASE + 99))

# Shared by every topology: wait for a daemon's admin plane, scrape
# status+metrics with the baseline per-node gates, drain everything with
# SIGTERM and require exit 0.
wait_healthz() { # name admin_port
  local ok=0
  for _ in $(seq 1 50); do
    if "$WIRE_PLAY" get "127.0.0.1:$2" /healthz >/dev/null 2>&1; then
      ok=1; break
    fi
    sleep 0.1
  done
  [ "$ok" = 1 ] || { cat "$DIR/$1.log" >&2; fail "$1 did not start"; }
}
scrape_node() { # name admin_port case_regex
  "$WIRE_PLAY" get "127.0.0.1:$2" /status > "$DIR/$1.status.json" \
    || fail "$1 /status"
  "$WIRE_PLAY" get "127.0.0.1:$2" /metrics > "$DIR/$1.prom" \
    || fail "$1 /metrics"
  grep -q '"oracle_mismatches":0,' "$DIR/$1.status.json" \
    || fail "$1 reported oracle mismatches: $(cat "$DIR/$1.status.json")"
  python3 "$METRICS_DIFF" --require-nonzero "$3" "$DIR/$1.prom" \
    || fail "$1: no clue-path lookups matching $3"
  python3 "$METRICS_DIFF" --require-nonzero 'netio_peer_rx_packets_total' \
    "$DIR/$1.prom" || fail "$1: per-peer rx counters dead"
  python3 "$METRICS_DIFF" --require-nonzero 'netio_peer_tx_packets_total' \
    "$DIR/$1.prom" || fail "$1: per-peer tx counters dead"
}
drain_all() {
  for pid in $PIDS; do kill -TERM "$pid" 2>/dev/null; done
  local rc_all=0 rc
  for pid in $PIDS; do
    wait "$pid"
    rc=$?
    [ "$rc" = 0 ] || { echo "topo_run: pid $pid exit $rc" >&2; rc_all=1; }
  done
  PIDS=""
  [ "$rc_all" = 0 ] || fail "unclean shutdown"
}
# datagrams_per_syscall PROMFILE: prints rx and tx datagrams per syscall from
# one /metrics scrape (summed across shards); fails unless both exceed 1.
datagrams_per_syscall() {
  python3 - "$1" <<'PYEOF'
import re, sys
line = re.compile(r'^netio_(rx|tx)_(packets|syscalls)_total(\{[^}]*\})?\s+(\S+)$')
tot = {}
for ln in open(sys.argv[1]):
    m = line.match(ln.strip())
    if m:
        key = (m.group(1), m.group(2))
        tot[key] = tot.get(key, 0.0) + float(m.group(4))
bad, parts = False, []
for d in ("rx", "tx"):
    pkts, calls = tot.get((d, "packets"), 0.0), tot.get((d, "syscalls"), 0.0)
    per = pkts / calls if calls else 0.0
    parts.append(f"{d} {pkts:.0f}/{calls:.0f} = {per:.1f} datagrams/syscall")
    bad = bad or not per > 1
print(", ".join(parts))
sys.exit(1 if bad else 0)
PYEOF
}
# conservation EDGE...: each EDGE is "senderfile:peerLabel=receiverfile:srcLabel
# =what" — sum the sender's tx{peer="peerLabel"} and the receiver's
# rx{src="srcLabel"} series (across shards) and require exact equality.
# UDP on loopback does not reorder or drop under these rates, so any skew is
# an accounting bug, which is the point of the gate.
conservation() {
  python3 - "$DIR" "$@" <<'PYEOF'
import re, sys
d = sys.argv[1]
line = re.compile(r'^(\w+)(\{[^}]*\})?\s+([0-9.eE+-]+)$')
def series(path, metric, label_kv):
    total, seen = 0.0, False
    for ln in open(f"{d}/{path}"):
        m = line.match(ln.strip())
        if not m or m.group(1) != metric:
            continue
        if label_kv not in (m.group(2) or ""):
            continue
        total += float(m.group(3)); seen = True
    return total, seen
bad = False
for edge in sys.argv[2:]:
    spec, what = edge.rsplit("=", 1)
    tx_spec, rx_spec = spec.split("=")
    tx_file, peer = tx_spec.split(":")
    rx_file, src = rx_spec.split(":")
    tx, tx_seen = series(tx_file, "netio_peer_tx_packets_total",
                         f'peer="{peer}"')
    rx, rx_seen = series(rx_file, "netio_peer_rx_packets_total",
                         f'src="{src}"')
    if not (tx_seen and rx_seen and tx == rx and tx > 0):
        print(f"conservation violated on {what}: "
              f"{tx_file} tx[peer={peer}]={tx if tx_seen else 'absent'} vs "
              f"{rx_file} rx[src={src}]={rx if rx_seen else 'absent'}")
        bad = True
    else:
        print(f"conserved {what}: {int(tx)} packets")
sys.exit(1 if bad else 0)
PYEOF
}

if [ "$TOPOLOGY" != line ]; then
  # shellcheck disable=SC1090
  . "$ROOT/tools/topo_run_shapes.sh"
  if [ "$TOPOLOGY" = star ]; then run_star; else run_ring; fi
  exit 0
fi

echo "topo_run: $HOPS hops, $COUNT packets, mode=$MODE method=$METHOD (base port $BASE)"

# 1. Tables: a neighbor-derived chain (inj.routes is hop1's neighbor).
"$WIRE_PLAY" gen --out "$DIR" --hops "$HOPS" --size "$SIZE" --seed "$SEED" \
  || fail "table generation"

# 2. Configs + daemons. hopK forwards everything to hop(K+1); the last hop
#    forwards to the collector.
for k in $(seq 1 "$HOPS"); do
  if [ "$k" = "$HOPS" ]; then
    next_port=$COLLECT_PORT
  else
    next_port=$(data_port $((k + 1)))
  fi
  {
    echo "name = hop$k"
    echo "router_id = $k"
    echo "listen = 127.0.0.1:$(data_port "$k")"
    echo "admin = 127.0.0.1:$(admin_port "$k")"
    echo "routes = $DIR/hop$k.routes"
    if [ "$k" = 1 ]; then
      echo "neighbor_routes = $DIR/inj.routes"
    else
      echo "neighbor_routes = $DIR/hop$((k - 1)).routes"
    fi
    echo "peer.default = 127.0.0.1:$next_port"
    echo "method = $METHOD"
    echo "mode = $MODE"
    echo "oracle = 1"
    echo "drain_ms = 2000"
    # Hop 1 is the ingress tracer; the rest only propagate contexts they
    # receive, so every complete trace spans the full line.
    [ "$k" = 1 ] && echo "trace_sample = 8"
    echo "flight_out = $DIR/hop$k.flight.json"
  } > "$DIR/hop$k.conf"
  "$CLUERTD" --config "$DIR/hop$k.conf" > "$DIR/hop$k.log" 2>&1 &
  PIDS="$PIDS $!"
done

# Wait until every admin plane answers.
for k in $(seq 1 "$HOPS"); do
  ok=0
  for _ in $(seq 1 50); do
    if "$WIRE_PLAY" get "127.0.0.1:$(admin_port "$k")" /healthz \
        >/dev/null 2>&1; then
      ok=1; break
    fi
    sleep 0.1
  done
  [ "$ok" = 1 ] || { cat "$DIR/hop$k.log" >&2; fail "hop$k did not start"; }
done

# 3. Collector at the end of the line, then inject at the head.
"$WIRE_PLAY" collect --listen "127.0.0.1:$COLLECT_PORT" --expect "$COUNT" \
  --timeout-ms 60000 --out "$DIR/collect.txt" > /dev/null 2>&1 &
COLLECT_PID=$!
PIDS="$PIDS $COLLECT_PID"
sleep 0.2

TABLES="$DIR/inj.routes"
for k in $(seq 1 "$HOPS"); do TABLES="$TABLES,$DIR/hop$k.routes"; done
"$WIRE_PLAY" inject --to "127.0.0.1:$(data_port 1)" --tables "$TABLES" \
  --count "$COUNT" --seed "$SEED" --src-id 0 --pps 15000 \
  || fail "injection"

wait "$COLLECT_PID"
COLLECT_RC=$?
PIDS=$(echo "$PIDS" | sed "s/ $COLLECT_PID//")
cat "$DIR/collect.txt"
[ "$COLLECT_RC" = 0 ] || fail "collector: $(cat "$DIR/collect.txt")"

# 4. Per-hop assertions from the admin plane.
for k in $(seq 1 "$HOPS"); do
  addr="127.0.0.1:$(admin_port "$k")"
  "$WIRE_PLAY" get "$addr" /status > "$DIR/hop$k.status.json" \
    || fail "hop$k /status"
  "$WIRE_PLAY" get "$addr" /metrics > "$DIR/hop$k.prom" \
    || fail "hop$k /metrics"
  grep -q '"oracle_mismatches":0,' "$DIR/hop$k.status.json" \
    || fail "hop$k reported oracle mismatches: $(cat "$DIR/hop$k.status.json")"
  python3 "$METRICS_DIFF" --require-nonzero 'lookup_case_total\{case="1"\}' \
    "$DIR/hop$k.prom" || fail "hop$k: no case-1 lookups"
  python3 "$METRICS_DIFF" --require-nonzero 'netio_peer_rx_packets_total' \
    "$DIR/hop$k.prom" || fail "hop$k: per-peer rx counters dead"
  python3 "$METRICS_DIFF" --require-nonzero 'netio_peer_tx_packets_total' \
    "$DIR/hop$k.prom" || fail "hop$k: per-peer tx counters dead"
  per_syscall=$(datagrams_per_syscall "$DIR/hop$k.prom") \
    || fail "hop$k: batching not live ($per_syscall)"
  grep -q '"pinned_seq":\[' "$DIR/hop$k.status.json" \
    || fail "hop$k /status missing pinned_seq"
  grep -q '"peers_tx":\[' "$DIR/hop$k.status.json" \
    || fail "hop$k /status missing peers_tx"
  spans=$(sed -n 's/.*"trace_spans_recorded":\([0-9]*\),.*/\1/p' \
    "$DIR/hop$k.status.json")
  [ -n "$spans" ] && [ "$spans" -gt 0 ] \
    || fail "hop$k recorded no trace spans"
  rx=$(sed -n 's/.*"rx_packets":\([0-9]*\),.*/\1/p' "$DIR/hop$k.status.json")
  echo "topo_run: hop$k ok (rx=$rx, spans=$spans; $per_syscall)"
done

# 5. Distributed-tracing gate: drain every hop's /trace, merge the streams,
#    and require a complete trace across the whole line with latency stats.
TRACE_MERGE="$ROOT/tools/trace_merge.py"
TRACE_FILES=""
for k in $(seq 1 "$HOPS"); do
  "$WIRE_PLAY" get "127.0.0.1:$(admin_port "$k")" /trace \
    > "$DIR/hop$k.trace.jsonl" || fail "hop$k /trace"
  TRACE_FILES="$TRACE_FILES $DIR/hop$k.trace.jsonl"
done
# shellcheck disable=SC2086  # word-splitting the file list is intended
python3 "$TRACE_MERGE" $TRACE_FILES --require-hops "$HOPS" \
  --out "$DIR/trace.json" || fail "no complete $HOPS-hop trace merged"
python3 - "$DIR/trace.json" "$HOPS" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
stats = doc['stats']
for h in range(int(sys.argv[2])):
    d = stats['per_hop'][str(h)]
    assert 0 < d['p50_ns'] <= d['p99_ns'], (h, d)
e = stats['end_to_end']
assert 0 < e['p50_ns'] <= e['p99_ns'], e
PYEOF
[ $? = 0 ] || fail "merged trace lacks per-hop/end-to-end latency stats"
echo "topo_run: trace gate ok ($(sed -n 's/.*"traces_complete": \([0-9]*\).*/\1/p' "$DIR/trace.json" | head -1) complete traces)"

# 6. Flight recorder: SIGQUIT is dump-and-continue — every daemon must
#    write a parseable dump and still answer /healthz afterwards.
for pid in $PIDS; do kill -QUIT "$pid" 2>/dev/null; done
for k in $(seq 1 "$HOPS"); do
  # Poll until the dump exists AND parses (the write is not atomic).
  ok=0
  for _ in $(seq 1 50); do
    if [ -s "$DIR/hop$k.flight.json" ] && python3 -c \
        'import json,sys; json.load(open(sys.argv[1]))' \
        "$DIR/hop$k.flight.json" 2>/dev/null; then
      ok=1; break
    fi
    sleep 0.1
  done
  [ "$ok" = 1 ] || fail "hop$k wrote no parseable flight dump on SIGQUIT"
  python3 - "$DIR/hop$k.flight.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc['rings'], 'dump has no rings'
assert any(r['events'] for r in doc['rings']), 'dump has no events'
PYEOF
  [ $? = 0 ] || fail "hop$k flight dump did not parse"
  "$WIRE_PLAY" get "127.0.0.1:$(admin_port "$k")" /healthz >/dev/null 2>&1 \
    || fail "hop$k died after SIGQUIT"
done
echo "topo_run: flight gate ok (SIGQUIT dumped, daemons alive)"

# 7. Graceful shutdown: SIGTERM each daemon, require exit 0 (clean drain).
for pid in $PIDS; do kill -TERM "$pid" 2>/dev/null; done
RC_ALL=0
for pid in $PIDS; do
  wait "$pid"
  rc=$?
  [ "$rc" = 0 ] || { echo "topo_run: pid $pid exit $rc" >&2; RC_ALL=1; }
done
PIDS=""
[ "$RC_ALL" = 0 ] || fail "unclean shutdown"

echo "topo_run: PASS ($HOPS hops, $COUNT packets end-to-end, 0 oracle mismatches)"
