#!/usr/bin/env bash
# Builds the tree once per requested sanitizer and runs the sanitizer-relevant
# test slice under it. Generalizes the original TSan driver to the full
# matrix:
#
#   thread     data races in src/pipeline/ (shard-owned output slices and
#              CluePorts, counter merges) and in the SPSC ring tests
#   address    heap/stack misuse anywhere the validators or the data plane
#              chase pointers (trie vertices, Patricia anchors, clue-table
#              probe chains)
#   undefined  UB in the bit arithmetic the whole paper runs on (shifts,
#              overflow) and in the invariant checkers themselves
#
# Usage: tools/run_sanitizers.sh [sanitizer ...] [-- extra ctest -R regex]
#   tools/run_sanitizers.sh                    # full matrix, default filter
#   tools/run_sanitizers.sh thread            # one sanitizer
#   tools/run_sanitizers.sh address -- Check  # one sanitizer, custom filter
set -euo pipefail

cd "$(dirname "$0")/.."

# Concurrent suites plus the invariant-check suites (Check*): the validators
# walk every structure they were written against, which is exactly the
# pointer-chasing ASan/UBSan should watch. CluePort*/ClueTransparency cover
# the resolve itself (tests/distributed_lookup_test.cc): the four stages over
# every method, CluePortBatchShape's learning that grows the hash table and
# overwrites indexed slots mid-batch (ASan's proof that a queued walk, which
# carries its continuation by value, reads no moved entry and no reused
# candidate set), and the observation post-pass; LookupBatch covers the
# batched walks, Patricia's interleaved one among them
# (tests/lookup_methods_test.cc, tests/pipeline_test.cc). Obs* covers the
# telemetry layer (src/obs/) — its sharded-counter test hammers one Counter
# from 8 threads, which is the TSan proof that the relaxed-atomic cell
# design is race-free.
# Versioned*/Churn* cover the epoch-versioned swap scheme
# (src/rib/versioned_tables.h): ChurnPipeline races a RouteUpdater thread
# against 4 forwarding workers over 1000+ publishes, the TSan proof of the
# grace-period/reclamation protocol. Sim*/Shrink/CorpusReplay cover the
# scenario simulator (src/sim/, DESIGN.md §8): the differential sweeps chase
# every engine's pointers over generated tables with fault injection
# (ASan/UBSan), and SimChurn (matched by Churn) re-proves the versioned-swap
# protocol under TSan with scenario-driven deltas.
# Flight/Span/Trace cover the tracing + flight-recorder layer (DESIGN.md
# §11): FlightRecorder's concurrent reader/writer test is the TSan proof of
# the single-writer release-publish ring. Topo* covers the multi-router
# harness (DESIGN.md §12): every (router, port) stack publishes and pins
# versions on the harness thread. RouteUpdater's ordering test races two
# producers into one publication queue.
# Daemon/Wire/SendBatch/GroReceive cover the wire datapath (DESIGN.md §9):
# ASan/UBSan check the GSO run building and the GRO slab walk's offset
# arithmetic, TSan the daemon's datapath, updater and admin threads.
# EventLoop covers the reactor every daemon thread runs: post() and stop()
# cross threads into run() through the mutex-guarded queue and the eventfd.
# HashClueTable/IndexedClueTable/ClueCache/ClueEntryPacking/BitmapClueTable/
# SubTableClueTable/MplsRouter/LookupMethods cover every holder of a
# continuation: the packed 32/48-byte entries, copied by value into tables,
# caches and walks, and the per-table candidate stores whose released sets
# must stay readable until reclaimed (ASan's proof of that lifetime rule).
# SelfClue covers a clue table's self slots (core::kSelfClueBits): slots
# that hold continuations and Binary/Multiway candidate sets, rebuilt range
# by range as local deltas follow one another, so its run is the proof that
# every rebuild releases the set it replaces into the table's store and
# that no walk reads one reclaimed.
# BinaryTrie/Patricia/SuiteUpdate/NodePool cover the tries and their node
# pools (src/trie/, mem/node_pool.h): inserts, erases that prune and splice
# along the recorded path, in-place suite updates, and the slot reuse behind
# every anchor. An ASan build poisons a released slot, so a walk through a
# stale anchor is still reported; NodePoolDeathTest proves that it is.
DEFAULT_FILTER="SpscRing|EventLoop|Pipeline|LookupBatch|CluePort|ClueTransparency|RngForThread|AccessCounter|Check|Obs|Versioned|Churn|Sim(Generator|Faults|Corpus|Differential)|Shrink|CorpusReplay|Flight|Span|Trace|Topo|RouteUpdater|DaemonTest|WireTest|SendBatch|GroReceive|HashClueTable|IndexedClueTable|ClueCache|ClueEntryPacking|BitmapClueTable|SubTableClueTable|MplsRouter|LookupMethods|SelfClue|BinaryTrie|Patricia|SuiteUpdate|NodePool"

SANITIZERS=()
FILTER="$DEFAULT_FILTER"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --)
      shift
      FILTER="${1:?-- requires a ctest regex}"
      shift
      ;;
    thread | address | undefined)
      SANITIZERS+=("$1")
      shift
      ;;
    *)
      echo "unknown sanitizer '$1' (expected: thread, address, undefined)" >&2
      exit 2
      ;;
  esac
done
if [[ ${#SANITIZERS[@]} -eq 0 ]]; then
  SANITIZERS=(thread address undefined)
fi

# Collect every report instead of aborting on the first.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=0 history_size=4}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1 halt_on_error=0}"

for SAN in "${SANITIZERS[@]}"; do
  BUILD_DIR="build-${SAN}"
  echo "=== ${SAN} sanitizer ==="
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCLUERT_SANITIZE="$SAN"
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target cluert_tests
  # The model-checker suite (tests/mc_test.cc) runs under ASan — its fiber
  # switches carry the start/finish_switch_fiber annotations — and under
  # UBSan. It self-skips under TSan (no TSan fiber-API support), so adding
  # it to the default filter is safe for the whole matrix.
  RUN_FILTER="$FILTER"
  if [[ "$FILTER" == "$DEFAULT_FILTER" ]]; then
    RUN_FILTER="${FILTER}|^Mc\."
  fi
  ctest --test-dir "$BUILD_DIR" -R "$RUN_FILTER" --output-on-failure
  echo "${SAN} sanitizer run clean for filter: $FILTER"
done
echo "Sanitizer matrix clean: ${SANITIZERS[*]}"
