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
# parent's quartiles, change/parent, and the pairs the change won (a tie
# counts for neither). A gain is claimed only on >= 9/10 wins with the
# medians further apart than the parent's q1..q3; "inside the bound" is
# the ratio against that metric's `bound`. Runs that are not `correct` or
# have `failed` > 0 are listed at the end and make the exit status 1.
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
printf '%-28s %-8s %14s %14s %14s %14s %8s %6s\n' \
    metric better parent q1 q3 change ratio wins

# "<name> <higher|lower>" per end-to-end metric, in BENCHMARK.json's order
awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); print name, $2 }
' "$bench" | while read -r metric better; do
    i=0
    while [ "$i" -lt "$pairs" ]; do
        seed=$((first + i))
        for side in parent change; do
            sed -n "s/.*\"$metric\":{\"value\":\([^,}]*\).*/\1/p" "$work/$side.$seed"
        done | paste -sd' ' -
        i=$((i + 1))
    done | awk -v metric="$metric" -v better="$better" '
        # linear-interpolated quantile of the sorted v[1..n]
        function quantile(v, n, p,    pos, lo) {
            pos = (n - 1) * p + 1; lo = int(pos)
            return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        function sorted(src, dst, n,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                    t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
                }
        }
        NF == 2 {
            n++; p[n] = $1; c[n] = $2
            if (better == "higher" ? $2 > $1 : $2 < $1) wins++
        }
        END {
            if (!n) { printf "%-28s no samples\n", metric; exit }
            sorted(p, sp, n); sorted(c, sc, n)
            pm = quantile(sp, n, 0.5); cm = quantile(sc, n, 0.5)
            printf "%-28s %-8s %14.6g %14.6g %14.6g %14.6g %8s %3d/%d\n", metric, better,
                pm, quantile(sp, n, 0.25), quantile(sp, n, 0.75), cm,
                pm ? sprintf("x%.3f", cm / pm) : "-", wins, n
        }
    '
done

bad=$(grep -L '"correct":true,.*"failed":0,' "$work"/parent.* "$work"/change.* || true)
if [ -n "$bad" ]; then
    echo "runs that were not correct with failed 0:"
    for f in $bad; do
        echo "  $(basename "$f"): $(cat "$f")"
    done
    exit 1
fi
echo "every run correct, failed 0"
