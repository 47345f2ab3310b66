# The verdict on a paired parent/change comparison: one table row per
# end-to-end metric. tools/pairs.sh feeds it; the verdict is a report,
# not an exit status.
#
#   awk -f tools/verdict.awk <lines>
#
# Input, one line per metric and pair (a metric's lines in pair order,
# metrics in the order their rows are wanted):
#
#   <metric> <higher|lower> <bound> <parent value> <change value>
#
# A line without the two values names a metric with no samples.
#
# Per metric: the parent's median and quartiles (linear interpolation),
# the change's median, change/parent, the pairs the change won (a tie
# counts for neither), and the verdict, the first of these that holds:
#
#   gain          the change wins >= ceil(0.9 n) pairs and its median is
#                 better than the parent's by more than the parent's q3-q1
#   WORSE         the change's median is worse than the parent's by more
#                 than bound x the parent's median
#   unresolved    the parent's q3-q1 exceeds bound x its median, and not
#                 every change run beats every parent run
#   inside bound  otherwise

# linear-interpolated quantile of the sorted v[1..n]
function quantile(v, n, p,    pos, lo) {
    pos = (n - 1) * p + 1; lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}

# insertion sort of v[1..n] in place
function sort(v, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
            t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
        }
}

function abs(x) { return x < 0 ? -x : x }

function row(m,    n, hi, k, p, c, wins, pm, cm, q1, q3, lead, allowed, verdict) {
    n = count[m]
    if (!n) { printf "%-28s no samples\n", m; return }
    hi = better[m] == "higher"
    split("", p); split("", c)
    for (k = 1; k <= n; k++) {
        p[k] = parent[m, k]; c[k] = change[m, k]
        if (hi ? c[k] > p[k] : c[k] < p[k]) wins++
    }
    sort(p, n); sort(c, n)
    pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
    q1 = quantile(p, n, 0.25); q3 = quantile(p, n, 0.75)
    lead = hi ? cm - pm : pm - cm    # how far the change's median is ahead
    allowed = bound[m] * abs(pm)
    if (wins >= int((9 * n + 9) / 10) && lead > q3 - q1)
        verdict = "gain"
    else if (-lead > allowed)
        verdict = "WORSE"
    else if (q3 - q1 > allowed && !(hi ? c[1] > p[n] : c[n] < p[1]))
        verdict = "unresolved"
    else
        verdict = "inside bound"
    printf "%-28s %-8s %14.6g %14.6g %14.6g %14.6g %8s %3d/%-3d %s\n", m, better[m],
        pm, q1, q3, cm, pm ? sprintf("x%.3f", cm / pm) : "-", wins, n, verdict
}

NF >= 3 {
    if (!($1 in better)) {
        order[++metrics] = $1; better[$1] = $2; bound[$1] = $3; count[$1] = 0
    }
    if (NF == 5) {
        k = ++count[$1]; parent[$1, k] = $4 + 0; change[$1, k] = $5 + 0
    }
}

END {
    printf "%-28s %-8s %14s %14s %14s %14s %8s %-7s %s\n",
        "metric", "better", "parent", "q1", "q3", "change", "ratio", "wins", "verdict"
    for (i = 1; i <= metrics; i++) row(order[i])
}
