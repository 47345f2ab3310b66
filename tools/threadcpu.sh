#!/bin/sh
# Per-thread CPU split of one running process: where its user time, its
# kernel time and its scheduling go, thread by thread.
#
#   tools/threadcpu.sh <pid> [seconds]
#
# Samples /proc/<pid>/task/*/stat and /proc/<pid>/task/*/schedstat twice,
# `seconds` apart (default 5), and prints one row per thread alive at
# both samples: the user and system CPU ticks it was charged between
# them (`getconf CLK_TCK` ticks a second, printed in the header), then
# the milliseconds it ran and the timeslices it got, each per second of
# the interval. A last row sums every thread. Divide a thread's ticks by
# the operations the process completed meanwhile for its CPU per
# operation, split into user and kernel time, e.g. for a dlbench run:
#
#   dlbench run --workload query_hot --seconds 26 & sleep 12
#   tools/threadcpu.sh "$(pgrep -n dlbench)" 8
#
# Reads /proc only; Linux with schedstats (every stock kernel).
set -eu

[ $# -ge 1 ] || {
    echo "usage: $0 <pid> [seconds]" >&2
    exit 2
}
pid=$1
seconds=${2:-5}
[ -d "/proc/$pid/task" ] || {
    echo "$0: no process $pid" >&2
    exit 2
}
hz=$(getconf CLK_TCK 2>/dev/null || echo 100)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

# one line per thread: tid utime stime run_ns wait_ns timeslices name
sample() {
    for task in /proc/"$pid"/task/*; do
        stat=$(cat "$task/stat" 2>/dev/null) || continue
        sched=$(cat "$task/schedstat" 2>/dev/null) || continue
        # the name may hold spaces and parentheses: the fields that
        # follow it start after the last ") "; utime and stime are the
        # 12th and 13th of those
        times=$(printf '%s\n' "${stat##*) }" | awk '{ print $12, $13 }')
        printf '%s %s %s %s\n' "${task##*/}" "$times" "$sched" \
            "$(cat "$task/comm" 2>/dev/null || echo '?')"
    done
}

sample >"$work/before"
sleep "$seconds"
sample >"$work/after"

awk -v secs="$seconds" -v hz="$hz" '
    NR == FNR { user[$1] = $2; sys[$1] = $3; run[$1] = $4; slices[$1] = $6; next }
    !($1 in user) { next }
    {
        name = $7
        for (i = 8; i <= NF; i++) name = name " " $i
        du = $2 - user[$1]; ds = $3 - sys[$1]
        dr = ($4 - run[$1]) / 1e6 / secs; dt = ($6 - slices[$1]) / secs
        printf "%-8s %10d %10d %12.1f %12.1f  %s\n", $1, du, ds, dr, dt, name
        tu += du; ts += ds; tr += dr; tt += dt
    }
    BEGIN {
        printf "# %s s between samples, %s ticks a second\n", secs, hz
        printf "%-8s %10s %10s %12s %12s  %s\n", "tid", "user_tick", "sys_tick", "run_ms/s", "slices/s", "name"
    }
    END { printf "%-8s %10d %10d %12.1f %12.1f  %s\n", "all", tu, ts, tr, tt, "" }
' "$work/before" "$work/after"
