#!/bin/sh
# Runs one bench's sweep twice at LADM_BENCH_SCALE=0.1 --jobs 2 with the
# stats sinks armed, and requires the two runs to write identical stdout,
# stats CSV and stats JSON (apart from the JSON profile's wall-clock
# "seconds" fields): the sinks list runs in submission order, not in the
# order the two workers happen to finish them.
#
# Usage: sink_order.sh BENCH_BINARY
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 BENCH_BINARY" >&2
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
    if ! LADM_BENCH_SCALE=0.1 "$bench" --jobs 2 \
        --stats-json "$work/run$i.json" --stats-csv "$work/run$i.csv" \
        > "$work/run$i.out"; then
        echo "run $i of $bench failed"
        exit 1
    fi
    grep -v '"seconds":' "$work/run$i.json" > "$work/run$i.json.kept"
done

status=0
for f in out csv json.kept; do
    if ! cmp -s "$work/run1.$f" "$work/run2.$f"; then
        echo "the two runs' $f sinks differ:"
        diff "$work/run1.$f" "$work/run2.$f" | head -20
        status=1
    fi
done
[ $status -eq 0 ] && echo "stdout and stats sinks identical over two runs"
exit $status
