#!/usr/bin/env bash
# Line-coverage build + report (DESIGN.md §8): configures a dedicated build
# tree with CLUERT_COVERAGE=ON, runs the test suite to fill the gcov
# counters, and aggregates a per-directory report via coverage_report.py.
#
#   tools/run_coverage.sh            # report only
#   tools/run_coverage.sh --check    # enforce the coverage gate (ci.sh)
#   tools/run_coverage.sh --per-file # noisy per-file breakdown
#
# Skips gracefully (exit 0) when gcov or python3 is missing, so the gate
# never blocks a toolchain that cannot measure.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-cov"

# The gate: keep BELOW the measured total (see EXPERIMENTS.md) so it trips
# on real regressions, not run-to-run noise.
GATE=85.0

CHECK=""
EXTRA=()
for arg in "$@"; do
  case "$arg" in
    --check) CHECK="--check $GATE" ;;
    *) EXTRA+=("$arg") ;;
  esac
done

if ! command -v gcov >/dev/null 2>&1; then
  echo "run_coverage: gcov not found; skipping coverage" >&2
  exit 0
fi
if ! command -v python3 >/dev/null 2>&1; then
  echo "run_coverage: python3 not found; skipping coverage" >&2
  exit 0
fi

cmake -B "$BUILD" -S "$ROOT" -DCLUERT_COVERAGE=ON >/dev/null
# cluert_mc_mutant_tests and the four tools ride along: ctest discovers the
# mutant's tests and runs the tools' ToolUsage.* tests, so a tree with only
# cluert_tests built errors out before the report runs.
cmake --build "$BUILD" -j "$(nproc)" \
  --target cluert_tests cluert_mc_mutant_tests \
           sim_run cluert_eval mc_run wire_play >/dev/null

# Stale counters from a previous run would inflate the report.
find "$BUILD" -name '*.gcda' -delete

(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)" >/dev/null)

# ${EXTRA[@]+...}: expand only when non-empty (set -u + empty array is an
# unbound-variable error on bash < 4.4).
# shellcheck disable=SC2086
python3 "$ROOT/tools/coverage_report.py" --build "$BUILD" --root "$ROOT" \
  $CHECK ${EXTRA[@]+"${EXTRA[@]}"}
