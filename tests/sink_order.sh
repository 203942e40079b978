#!/bin/sh
# Runs one bench's sweep twice at LADM_BENCH_SCALE=0.1 and requires the
# two runs to write identical stdout and sinks: the sinks list runs in
# submission order, not in the order the workers happen to finish them.
#
#   stats (default): both runs at --jobs 2 with the stats sinks armed;
#                    stdout, stats CSV and stats JSON must match (apart
#                    from the JSON profile's wall-clock "seconds" fields)
#   trace:           one run at --jobs 1 and one at --jobs 4 with
#                    --trace-out; stdout and the Chrome traces must match
#
# Usage: sink_order.sh BENCH_BINARY [stats|trace]
set -u
mode=${2:-stats}
if [ $# -lt 1 ] || [ $# -gt 2 ] ||
    { [ "$mode" != stats ] && [ "$mode" != trace ]; }; then
    echo "usage: $0 BENCH_BINARY [stats|trace]" >&2
    exit 2
fi
bench=$1
work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT

# A caller's LADM_* variable (shards, other sinks, a sweep journal) must
# not reach the runs.
for v in $(env | sed -n 's/^\(LADM_[A-Z0-9_]*\)=.*/\1/p'); do
    unset "$v"
done

for i in 1 2; do
    if [ "$mode" = trace ]; then
        jobs=$((i == 1 ? 1 : 4))
        set -- --trace-out "$work/run$i.trace"
    else
        jobs=2
        set -- --stats-json "$work/run$i.json" \
            --stats-csv "$work/run$i.csv"
    fi
    if ! LADM_BENCH_SCALE=0.1 "$bench" --jobs $jobs "$@" \
        > "$work/run$i.out"; then
        echo "run $i of $bench failed"
        exit 1
    fi
    if [ "$mode" = stats ]; then
        grep -v '"seconds":' "$work/run$i.json" > "$work/run$i.json.kept"
    fi
done

if [ "$mode" = trace ]; then
    kept="out trace"
else
    kept="out csv json.kept"
fi
status=0
for f in $kept; do
    if ! cmp -s "$work/run1.$f" "$work/run2.$f"; then
        echo "the two runs' $f sinks differ:"
        # The trace is one long line: show where, not all of it.
        diff "$work/run1.$f" "$work/run2.$f" | head -20 | cut -c1-300
        status=1
    fi
done
[ $status -eq 0 ] && echo "stdout and $mode sinks identical over two runs"
exit $status
