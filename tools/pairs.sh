#!/bin/sh
# Paired parent/change comparison of one dlbench workload: the procedure a
# perf PR's claim rests on (choosing-metrics §8), as one command.
#
#   tools/pairs.sh <parent-tree> <change-tree> <workload> <first-seed> <pairs> [seconds]
#
# Each tree is a checkout in which dlbench is ALREADY built
# (`cargo build --release --offline --manifest-path dlbench/Cargo.toml`,
# leaving `<tree>/dlbench/target/release/dlbench`); nothing is compiled
# here. Pair i runs both binaries on seed first-seed+i, one after the
# other, and the side that goes first flips every pair. `seconds` defaults
# to the benchmark's own run length.
#
# Prints, per end-to-end metric of BENCHMARK.json: both medians, the
# parent's quartiles, change/parent, the pairs the change won (a tie
# counts for neither) and the verdict, `gain`, `WORSE`, `unresolved`
# or `inside bound` (the rule is in tools/verdict.awk; report-only).
# Runs that are not `correct` or have `failed` > 0 are listed at the end
# and make the exit status 1.
set -eu

[ $# -ge 5 ] || {
    echo "usage: $0 <parent-tree> <change-tree> <workload> <first-seed> <pairs> [seconds]" >&2
    exit 2
}
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
first=$4
pairs=$5
seconds=${6:-26}
bench=$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json

for tree in "$parent" "$change"; do
    [ -x "$tree/dlbench/target/release/dlbench" ] || {
        echo "$0: $tree/dlbench/target/release/dlbench is not built" >&2
        exit 2
    }
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

# one run: the result object (last stdout line) of <side> on <seed>
run() {
    (cd "$1" && ./dlbench/target/release/dlbench run --workload "$workload" \
        --seed "$3" --seconds "$seconds" --out "$work/out") | tail -n 1 >"$work/$2.$3"
}

i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((first + i))
    if [ $((i % 2)) -eq 0 ]; then
        run "$parent" parent "$seed"
        run "$change" change "$seed"
    else
        run "$change" change "$seed"
        run "$parent" parent "$seed"
    fi
    i=$((i + 1))
done

echo "$workload: $pairs pairs, seeds $first..$((first + pairs - 1)), $seconds s a run"

# "<name> <higher|lower> <bound>" per end-to-end metric, in BENCHMARK.json's
# order, then one "<name> <better> <bound> <parent> <change>" line per pair
awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); better = $2 }
    on && /"bound"/ { gsub(/[",]/, ""); print name, better, $2 }
' "$bench" | while read -r metric better bound; do
    i=0
    while [ "$i" -lt "$pairs" ]; do
        seed=$((first + i))
        for side in parent change; do
            sed -n "s/.*\"$metric\":{\"value\":\([^,}]*\).*/\1/p" "$work/$side.$seed"
        done | paste -sd' ' - | sed "s/^/$metric $better $bound /"
        i=$((i + 1))
    done
done | awk -f "$(dirname "$0")/verdict.awk"

bad=$(grep -L '"correct":true,.*"failed":0,' "$work"/parent.* "$work"/change.* || true)
if [ -n "$bad" ]; then
    echo "runs that were not correct with failed 0:"
    for f in $bad; do
        echo "  $(basename "$f"): $(cat "$f")"
    done
    exit 1
fi
echo "every run correct, failed 0"
