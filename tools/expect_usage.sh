#!/bin/sh
# Runs a command and passes iff it exits 2 and prints its usage text: the
# answer every tool gives a malformed flag value.
#
#   tools/expect_usage.sh build/tools/sim_run sweep --seeds abc
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
[ "$rc" -eq 2 ] || { echo "expected exit 2, got $rc"; exit 1; }
printf '%s\n' "$out" | grep -q 'usage:' || { echo "no usage text"; exit 1; }
