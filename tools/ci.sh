#!/usr/bin/env bash
# End-to-end verification gate. Runs, in order:
#
#   1. warning-free build   cmake -DCLUERT_WERROR=ON (-Wall -Wextra
#                           -Wpedantic -Werror) + full ctest suite
#   2. clang-tidy           tools/run_tidy.sh (skips with a notice when
#                           clang-tidy is not installed)
#   3. sanitizer matrix     tools/run_sanitizers.sh (thread, address,
#                           undefined over the concurrent + Check + Obs
#                           suites)
#   4. metrics tooling      tools/metrics_diff.py --self-test (the Prometheus
#                           snapshot comparator that gates perf regressions)
#                           and tools/trace_merge.py --self-test (the one
#                           chrome renderer of sampled spans)
#   5. churn smoke          bench_churn --smoke: route updates published from
#                           an updater thread while 4 workers forward, every
#                           packet checked against a per-version oracle; then
#                           metrics_diff.py --require-nonzero asserts the
#                           rib_version_* swap counters actually moved
#   6. sim + fuzz + coverage  corpus replay through the differential oracle
#                           (tools/sim_run replay tests/corpus), a bounded
#                           fuzz smoke (30s per target, graceful skip when
#                           the tree cannot build fuzzers), and the line
#                           coverage gate (tools/run_coverage.sh --check)
#   7. wire topology smoke  cluertd on the wire: tools/topo_run.sh --smoke
#                           drives a 3-daemon line topology on loopback
#                           (10k packets end-to-end, differential oracle on
#                           every hop, clean SIGTERM drain), then
#                           metrics_diff.py --require-nonzero asserts the
#                           per-peer netio counters moved
#   8. concurrency contracts  tools/lint_cluert.py (--self-test, then the
#                           project lint rules over src/) and a time-bounded
#                           model-checker smoke (tools/mc_run --smoke) over
#                           the SpscRing/Epoch harness registry. The clang
#                           thread-safety analysis (-Wthread-safety) rides
#                           gate 1 automatically when the compiler is clang;
#                           on gcc hosts that check is a documented no-op
#                           (the annotations compile to nothing).
#   9. throughput smoke     bench_throughput --smoke: a fixed deterministic
#                           sharded run (2w/b32, clamp off: the caller
#                           resolves the first half of the stream and one
#                           spawned shard the second) that fails on any
#                           sharded-vs-sequential output divergence or any
#                           heap allocation in the steady-state window;
#                           then metrics_diff.py gates its accesses/packet
#                           against the committed baseline, pins
#                           steady_allocs at 0 and shard imbalance under an
#                           absolute ceiling (--max: the baseline values sit
#                           at/below --min-base, where a relative diff would
#                           skip; slices differ by at most one packet, so
#                           the imbalance reads 1.0), and asserts the
#                           counting alloc hook was actually compiled in. Then
#                           examples/pipeline_throughput (exits 1 on an
#                           output or case/packet mismatch, or when the
#                           lookup_accesses histogram's count is not the
#                           packet count or its sum not the merged access
#                           total) runs in a
#                           temporary directory and trace_merge.py
#                           --require-hops 1 merges the pipeline spans it
#                           wrote.
#  10. multi-router topology  the control-plane suite: sim_run replays the
#                           topo4 corpus (RIP convergence transients caught
#                           by the per-hop oracle, gate already rides 6 via
#                           `sim_run replay tests/corpus`), bench_topo
#                           --smoke runs a 5-node ring flap storm with
#                           per-publish validation and zero-strict-mismatch
#                           gating, metrics_diff.py --require-nonzero
#                           asserts the storm actually forwarded, flapped,
#                           and reconverged, the full bench_topo run in a
#                           temporary directory must reproduce the committed
#                           BENCH_topo.json in every field but its
#                           provenance (git_sha, hostname, cpus) — the
#                           artifact has no timing fields, so any other
#                           difference is a behaviour change — and
#                           topo_run.sh drives the star and ring daemon
#                           topologies with per-peer counter conservation.
#                           Last, bench_convergence (E16: a receiver's clue
#                           table following RIP's own updates through three
#                           link failures and a withdrawal) exits 1 if any
#                           stage reads above 1.05 accesses/packet or an
#                           event takes more than convergenceBound() ticks.
#
# Exits nonzero on the first finding. This is what "CI green" means for this
# repo; see README "Lint and sanitizer gates".
#
# Usage: tools/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "=== [1/10] -Werror build + full test suite ==="
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCLUERT_WERROR=ON
cmake --build build-ci -j"$(nproc)"
ctest --test-dir build-ci --output-on-failure

echo "=== [2/10] clang-tidy ==="
tools/run_tidy.sh build-ci

echo "=== [3/10] sanitizer matrix ==="
tools/run_sanitizers.sh

echo "=== [4/10] metrics tooling self-test ==="
python3 tools/metrics_diff.py --self-test
python3 tools/trace_merge.py --self-test

echo "=== [5/10] churn smoke (update-under-traffic oracle) ==="
cmake --build build-ci -j"$(nproc)" --target bench_churn
(cd build-ci && ./bench/bench_churn --smoke)
python3 tools/metrics_diff.py \
  --require-nonzero 'rib_version_(swaps_total|live_seq)' \
  build-ci/BENCH_churn.prom

echo "=== [6/10] corpus replay + fuzz smoke + coverage gate ==="
cmake --build build-ci -j"$(nproc)" --target sim_run
build-ci/tools/sim_run replay tests/corpus

# Bounded fuzz smoke: each target runs a random stream for at most 30s. A
# timeout (exit 124) is a pass — the bound exists to cap gate time, not to
# demand the stream finishes; any crash/abort still fails the gate.
if cmake -B build-fuzz-ci -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
     -DCLUERT_FUZZ=ON >/dev/null; then
  cmake --build build-fuzz-ci -j"$(nproc)" \
    --target fuzz_clue_header fuzz_wire_header fuzz_prefix_decode fuzz_snapshot_load \
             fuzz_fib_delta fuzz_scenario_parse
  # Flag dialect depends on how the tree was configured: a libFuzzer build
  # takes -runs=, the standalone driver takes --rand.
  if grep -q '^CLUERT_HAVE_LIBFUZZER:INTERNAL=1' build-fuzz-ci/CMakeCache.txt; then
    SMOKE_ARGS=(-runs=200000 -seed=1 -max_len=512)
  else
    SMOKE_ARGS=(--rand 200000 --seed 1 --max-len 512)
  fi
  for fuzzer in build-fuzz-ci/tests/fuzz/fuzz_*; do
    [[ -x "$fuzzer" ]] || continue
    echo "--- fuzz smoke: $(basename "$fuzzer")"
    rc=0
    timeout 30 "$fuzzer" "${SMOKE_ARGS[@]}" >/dev/null 2>&1 || rc=$?
    if [[ $rc -ne 0 && $rc -ne 124 ]]; then
      echo "fuzz smoke FAILED: $fuzzer (exit $rc)" >&2
      exit "$rc"
    fi
  done
else
  echo "fuzz smoke: CLUERT_FUZZ configure failed; skipping" >&2
fi

tools/run_coverage.sh --check

echo "=== [7/10] wire topology smoke (cluertd line topology) ==="
cmake --build build-ci -j"$(nproc)" --target cluertd wire_play
# topo_run asserts delivery, zero oracle mismatches, nonzero case-1 and
# per-peer netio_peer_{rx,tx}_packets_total on every hop (metrics_diff.py
# --require-nonzero against each /metrics scrape), and exit-0 SIGTERM drains.
BUILD_DIR=build-ci tools/topo_run.sh --smoke

echo "=== [8/10] concurrency contracts (lint + model-checker smoke) ==="
python3 tools/lint_cluert.py --self-test
python3 tools/lint_cluert.py src/
cmake --build build-ci -j"$(nproc)" --target mc_run
# Exhaustive bounded runs for the fast harnesses take ~2 s; the budget is a
# hard stop so a future harness that blows up the frontier degrades the
# gate to "bounded smoke" instead of hanging CI. Violations still fail
# regardless of where the budget lands.
build-ci/tools/mc_run --smoke 30000

echo "=== [9/10] throughput smoke (zero-alloc hot path + perf trajectory) ==="
cmake --build build-ci -j"$(nproc)" --target bench_throughput
(cd build-ci && ./bench/bench_throughput --smoke)
python3 tools/metrics_diff.py \
  --match 'throughput_smoke_' --threshold 5 \
  --max 'throughput_smoke_steady_allocs:0' \
  --max 'throughput_smoke_shard_imbalance:1.001' \
  --require-nonzero 'throughput_smoke_alloc_hook_active' \
  bench/BENCH_throughput_smoke_baseline.prom \
  build-ci/BENCH_throughput_smoke.prom
# The pipeline's sampled spans render through the same merge tool as the
# daemons' /trace scrapes: every span is a complete one-hop trace.
cmake --build build-ci -j"$(nproc)" --target pipeline_throughput
EXAMPLE_BIN="$PWD/build-ci/examples/pipeline_throughput"
EXAMPLE_DIR="$(mktemp -d)"
(cd "$EXAMPLE_DIR" && "$EXAMPLE_BIN")
python3 tools/trace_merge.py --require-hops 1 \
  --out "$EXAMPLE_DIR/trace.json" "$EXAMPLE_DIR/pipeline_spans.jsonl"
rm -rf "$EXAMPLE_DIR"

echo "=== [10/10] multi-router topology (flap storm + daemon shapes + E16) ==="
# Corpus replay already covered the committed topo4 repros in gate 6; this
# gate adds the flap-storm smoke (5-node ring, per-publish validation, zero
# strict mismatches enforced by the binary's own exit code) and liveness
# over its counters — a storm that stopped forwarding, flapping, or
# converging would otherwise still "pass".
cmake --build build-ci -j"$(nproc)" --target bench_topo
(cd build-ci && ./bench/bench_topo --smoke)
# --require-nonzero is at-least-one semantics, so each liveness counter gets
# its own invocation; the strict-mismatch ceiling rides the first.
for series in topo_smoke_forwarded_hops topo_smoke_delivered \
              topo_smoke_flaps topo_smoke_convergence_samples; do
  python3 tools/metrics_diff.py \
    --require-nonzero "$series" \
    --max 'topo_smoke_strict_mismatches:0' \
    build-ci/BENCH_topo_smoke.prom
done
# The full flap storm is deterministic: regenerate BENCH_topo.json away from
# the tree and require every non-provenance field to match the committed one.
TOPO_BIN="$PWD/build-ci/bench/bench_topo"
TOPO_DIR="$(mktemp -d)"
(cd "$TOPO_DIR" && "$TOPO_BIN" >/dev/null)
python3 - "$TOPO_DIR/BENCH_topo.json" BENCH_topo.json <<'EOF'
import json
import sys

fresh, committed = (json.load(open(path)) for path in sys.argv[1:3])
for doc in (fresh, committed):
    for key in ("git_sha", "hostname", "cpus"):
        doc.pop(key, None)
if fresh != committed:
    for key in sorted(set(fresh) | set(committed)):
        if fresh.get(key) != committed.get(key):
            print(f"BENCH_topo.json field {key!r} differs from the committed "
                  "artifact", file=sys.stderr)
    sys.exit(1)
print("BENCH_topo.json: matches the committed artifact outside provenance")
EOF
rm -rf "$TOPO_DIR"
# Daemon-level star and ring shapes: end-to-end delivery, zero oracle
# mismatches, per-peer tx/rx counter conservation on every traffic-carrying
# link (tools/topo_run_shapes.sh).
BUILD_DIR=build-ci tools/topo_run.sh --topology star --count 3000 --size 2000
BUILD_DIR=build-ci tools/topo_run.sh --topology ring --count 3000 --size 2000
# E16 on the same RIP: the receiver's clue table follows the sender's view
# from RIP's updates; the binary's exit code gates accesses/packet and the
# per-event convergence bound.
cmake --build build-ci -j"$(nproc)" --target bench_convergence
./build-ci/bench/bench_convergence

echo "ci.sh: all gates green"
