#!/bin/sh
# Parent-versus-change runs of one e2e workload, the way a claimed gain
# has to be shown (choosing-metrics §8): each checkout's benchmark is built
# into a target directory of its own, the two binaries run in alternating
# order, every pair on a seed neither has seen, and for each end-to-end
# metric the table gives both medians, both pairs of quartiles, how many
# of the pairs the change won (ties count for neither side) and a verdict
# (choosing-metrics §6.5 and §8), the first of these that holds:
#   gain          the change won at least 9 pairs in 10, and its median is
#                 better than the parent's by more than the parent's q3 - q1
#   worse         the change's median is worse than the parent's by more
#                 than the metric's bound times the parent's median
#   unresolved    the parent's q3 - q1 exceeds that bound
#   within bound  any other case
# (A metric printed without a bound reads "no bound" unless it is a gain.)
# Two marks follow a verdict that says little: "(change spread)" a gain or
# a worse on a metric whose change-side q3 - q1 exceeds its bound, the
# change's own runs disagreeing by more than the margin judged; and
# "(n<10)" any verdict drawn from fewer than 10 pairs, which a machine
# whose runs fall in two speed modes can tip (six `mixed` pairs once read
# `op_p50_ms` worse for a change with no code on that path). Neither the
# verdicts nor the marks change the exit code.
#
# usage: scripts/bench_pair.sh [--quick] <parent-checkout> <change-checkout> <workload> [pairs=10]
#
# --quick runs the small sizes: numbers that mean nothing, from every
# line of this script. The build directories are kept, under the change
# checkout's target/bench_pair/, so a second invocation only rebuilds what
# moved; so are the per-pair samples, one samples-<workload>.txt per
# workload, which the next invocation on that workload overwrites. A run
# that fails an operation or a check stops the script.
set -eu

quick=
if [ "${1:-}" = --quick ]; then
    quick=--quick
    shift
fi
if [ $# -lt 3 ]; then
    sed -n '2,31p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
manifest=crates/bench/src/bin/e2e/Cargo.toml
out=$change/target/bench_pair
mkdir -p "$out"

for side in parent change; do
    eval "src=\$$side"
    echo "building $side: $src" >&2
    (cd "$src" && CARGO_TARGET_DIR="$out/$side" \
        cargo build --release --offline --quiet --manifest-path "$manifest")
done

# One run: prints "<side> <metric> <value> <better> <bound>" per end-to-end
# metric, the bound as e2e prints it ("5%").
run() {
    side=$1
    seed=$2
    eval "src=\$$side"
    (cd "$src" && "$out/$side/release/e2e" --workload "$workload" --seed "$seed" \
        --seconds 15 --trace 0 $quick) >"$out/last-$side.txt" 2>&1 || {
        cat "$out/last-$side.txt" >&2
        echo "bench_pair: the $side run on seed $seed failed" >&2
        exit 1
    }
    awk -v side="$side" -v w="$workload" \
        '$1 == w && ($5 == "lower" || $5 == "higher") { print side, $2, $3, $5, $6 }' \
        "$out/last-$side.txt"
}

base=$(date +%s)
samples=$out/samples-$workload.txt
: >"$samples"
i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((base + i))
    if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    echo "pair $((i + 1))/$pairs: seed $seed, $order" >&2
    for side in $order; do
        run "$side" "$seed" >>"$samples"
    done
    i=$((i + 1))
done

awk -v pairs="$pairs" -v w="$workload" '
    # Quantile q of the n sorted values v[1..n], interpolated.
    function quantile(v, n, q,    h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        if (lo >= n) return v[n]
        return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function sorted(side, m, v,    n, i, j, t) {
        n = count[side, m]
        for (i = 1; i <= n; i++) v[i] = sample[side, m, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        return n
    }
    # The bound of metric m, as a difference from the parent median pm.
    function bound_at(m, pm) {
        return substr(bounds[m], 1, length(bounds[m]) - 1) / 100 * (pm < 0 ? -pm : pm)
    }
    # The first verdict that holds, in the order the header lists them.
    function verdict(m, wins, n, pm, pq1, pq3, cm,    gain, bound) {
        gain = better[m] == "lower" ? pm - cm : cm - pm
        if (10 * wins >= 9 * n && gain > pq3 - pq1) return "gain"
        if (bounds[m] !~ /%$/) return "no bound"
        bound = bound_at(m, pm)
        if (-gain > bound) return "worse"
        if (pq3 - pq1 > bound) return "unresolved"
        return "within bound"
    }
    # The verdict with the marks the header lists.
    function marked(v, m, n, pm, cq1, cq3) {
        if ((v == "gain" || v == "worse") && bounds[m] ~ /%$/ && cq3 - cq1 > bound_at(m, pm))
            v = v " (change spread)"
        if (n < 10) v = v " (n<10)"
        return v
    }
    {
        if (!(($2) in better)) order[++metrics] = $2
        better[$2] = $4
        bounds[$2] = $5
        sample[$1, $2, ++count[$1, $2]] = $3
    }
    END {
        printf "%s, %d pairs: medians [q1, q3]; wins are the change'"'"'s\n", w, pairs
        printf "%-16s %-36s %-36s %-10s %s\n", "metric", "parent", "change", "wins/pairs", "verdict"
        for (k = 1; k <= metrics; k++) {
            m = order[k]
            n = sorted("parent", m, p)
            sorted("change", m, c)
            wins = 0
            for (i = 1; i <= n; i++) {
                a = sample["parent", m, i]; b = sample["change", m, i]
                if (better[m] == "lower" ? b < a : b > a) wins++
            }
            pm = quantile(p, n, 0.5); pq1 = quantile(p, n, 0.25); pq3 = quantile(p, n, 0.75)
            cm = quantile(c, n, 0.5); cq1 = quantile(c, n, 0.25); cq3 = quantile(c, n, 0.75)
            v = verdict(m, wins, n, pm, pq1, pq3, cm)
            printf "%-16s %-36s %-36s %-10s %s\n", m, \
                sprintf("%.6g [%.6g, %.6g]", pm, pq1, pq3), \
                sprintf("%.6g [%.6g, %.6g]", cm, cq1, cq3), \
                wins "/" n, marked(v, m, n, pm, cq1, cq3)
        }
    }' "$samples"
