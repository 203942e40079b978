#!/bin/sh
# Re-record the fabric-path goldens from the benches in BENCH_DIR
# (e.g. build/bench). Bless only a change that moves simulated numbers
# on purpose, and say why in the commit.
#
# Usage: tests/golden/bless.sh BENCH_DIR
exec sh "$(dirname "$0")/golden_gate.sh" --bless "$@"
