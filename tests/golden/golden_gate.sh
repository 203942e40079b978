#!/bin/sh
# Golden gate for the fabric paths. Runs two benches at
# LADM_BENCH_SCALE=0.1 with --jobs 2 and compares their stdout and their
# LADM_BENCH_CSV rows with the goldens beside this script:
#   bench_fig04_bandwidth_sensitivity  crossbar, ring and monolithic presets
#   bench_fault_sweep                  hierarchical fabric with link, ring
#                                      and chiplet faults
# A differing CSV row is printed field by field, keyed by its
# workload, policy and system.
#
# Usage: golden_gate.sh BENCH_DIR            check; exit 1 on any difference
#        golden_gate.sh --bless BENCH_DIR    re-record the goldens (bless.sh)
set -u
bless=0
if [ "${1:-}" = "--bless" ]; then
    bless=1
    shift
fi
if [ $# -ne 1 ]; then
    echo "usage: $0 [--bless] BENCH_DIR" >&2
    exit 2
fi
bench_dir=$(cd "$1" && pwd) || exit 2
golden=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT

# The goldens are recorded with defaults: a caller's LADM_* variable
# (shards, telemetry sinks, sweep journal) must not reach the runs.
for v in $(env | sed -n 's/^\(LADM_[A-Z0-9_]*\)=.*/\1/p'); do
    unset "$v"
done

# Print the fields of CSV $2 (actual) that differ from CSV $1 (golden).
csv_diff() {
    awk -F, '
        NR == FNR { want[FNR] = $0; nw = FNR; next }
        { got[FNR] = $0; ng = FNR }
        END {
            split(want[1], head, ",")
            n = nw > ng ? nw : ng
            for (i = 1; i <= n; ++i) {
                if (want[i] == got[i])
                    continue
                if (!(i in got)) { print "row " i ": missing: " want[i]; continue }
                if (!(i in want)) { print "row " i ": extra: " got[i]; continue }
                nf = split(want[i], w, ",")
                ng2 = split(got[i], g, ",")
                if (nf != ng2) {
                    print "row " i ":\n  want " want[i] "\n  got  " got[i]
                    continue
                }
                line = "row " i " (" w[1] ", " w[2] ", " w[3] "):"
                for (f = 1; f <= nf; ++f)
                    if (w[f] != g[f])
                        line = line " " head[f] " " w[f] " -> " g[f] ";"
                print line
            }
        }' "$1" "$2"
}

status=0
for spec in fig04_bandwidth_sensitivity:fig04 fault_sweep:fault_sweep; do
    bin=bench_${spec%%:*}
    name=${spec##*:}
    bad=0
    dir=$work/$name
    mkdir "$dir"
    if ! (cd "$dir" && LADM_BENCH_SCALE=0.1 LADM_BENCH_CSV=. \
              "$bench_dir/$bin" --jobs 2 > stdout.txt); then
        echo "FAIL $bin exited non-zero"
        status=1
        continue
    fi
    if [ $bless -eq 1 ]; then
        cp "$dir/stdout.txt" "$golden/$name.stdout"
        cp "$dir/$name.csv" "$golden/$name.csv"
        echo "blessed $name.stdout and $name.csv"
        continue
    fi
    if ! diff -u "$golden/$name.stdout" "$dir/stdout.txt"; then
        echo "FAIL $bin stdout differs from tests/golden/$name.stdout"
        bad=1
    fi
    if ! cmp -s "$golden/$name.csv" "$dir/$name.csv"; then
        csv_diff "$golden/$name.csv" "$dir/$name.csv"
        echo "FAIL $bin CSV rows differ from tests/golden/$name.csv"
        bad=1
    fi
    if [ $bad -eq 0 ]; then
        echo "ok $bin: stdout and $(($(wc -l < "$dir/$name.csv") - 1)) CSV rows match"
    fi
    status=$((status | bad))
done
exit $status
