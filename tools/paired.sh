#!/usr/bin/env bash
# The paired protocol every speed claim in CHANGES.md is made with
# (ROADMAP, standing guardrails): N interleaved parent/change passes of the
# unmodified benchmark/ harness, one seed per pair, alternating which side
# runs first; medians and quartiles per side, the change's wins, and the gap
# between the medians against the parent's own spread.

set -euo pipefail

usage() {
    cat <<'EOF'
usage: tools/paired.sh <parent-tree> <change-tree> <workload> <pairs> [seconds=8] [first-seed=6400]

  <parent-tree>, <change-tree>  two checkouts of this repository (e.g. a
                                `git clone` of the parent commit under
                                /root/scratch and the working tree)
  <workload>                    link-wfq | chain-unified | churn-signal | sweep-pipes
  <pairs>                       pairs of passes; pair i runs at seed first-seed + i,
                                even pairs parent first, odd pairs change first
  [seconds]                     length of one pass (--seconds of the harness)

Builds both trees' benchmark/ packages (release, offline), runs each pass as
the driver does (`--workload W --seed S --seconds T --trace 0`, from the
tree's root), reads wall_vs_ref, peak_rss_bytes, setup_s and failed from the
pass's last stdout line, and stops at the first pass with failed != 0.
Prints every pair, then per metric: each side's median and quartiles, the
change in the median, in how many pairs the change read lower, and the gap
between the medians in units of the parent's interquartile range.  A claim
needs >= 10 pairs, the change lower in >= 9/10, and a gap above 1 IQR; a
must-not-move row needs >= 6 pairs and a median inside its BENCHMARK.json bound.
EOF
}

case "${1:-}" in
-h | --help)
    usage
    exit 0
    ;;
esac
if [ $# -lt 4 ] || [ $# -gt 6 ]; then
    usage >&2
    exit 2
fi

parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seconds=${5:-8}
first_seed=${6:-6400}
metrics="wall_vs_ref peak_rss_bytes setup_s"

for tree in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
done

# One pass in <tree> at <seed>: prints "wall_vs_ref peak_rss_bytes setup_s".
pass() {
    local tree=$1 seed=$2 line failed name
    # The harness exits 1 on a failed operation; its last line says how many.
    line=$(cd "$tree" && benchmark/target/release/ispn-benchmark \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) || true
    failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$line")
    if [ "$failed" != 0 ]; then
        echo "paired.sh: $tree, seed $seed: failed=${failed:-?}: $line" >&2
        exit 1
    fi
    for name in $metrics; do
        sed -n "s/.*\"$name\":{\"value\":\([^,}]*\).*/\1/p" <<<"$line"
    done | paste -sd' '
}

rows=$(mktemp)
trap 'rm -f "$rows"' EXIT
printf '%-5s %-6s %12s %12s %14s %14s %10s %10s\n' \
    pair seed 'wall parent' 'wall change' 'rss parent' 'rss change' 'setup par' 'setup chg'
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        p=$(pass "$parent" "$seed")
        c=$(pass "$change" "$seed")
    else
        c=$(pass "$change" "$seed")
        p=$(pass "$parent" "$seed")
    fi
    echo "$p $c" >>"$rows"
    # shellcheck disable=SC2086
    set -- $p $c
    printf '%-5s %-6s %12.4f %12.4f %14.0f %14.0f %10.6f %10.6f\n' "$i" "$seed" "$1" "$4" "$2" "$5" "$3" "$6"
done

# Columns of $rows: parent's three metrics, then the change's three.
awk -v workload="$workload" -v names="$metrics" '
function quantile(a, n, q,    h, lo) {
    h = (n - 1) * q + 1; lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function sorted(col, out,    i, j, t) {
    for (i = 1; i <= NR; i++) out[i] = v[i, col]
    for (i = 2; i <= NR; i++)
        for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
}
{ for (k = 1; k <= NF; k++) v[NR, k] = $k + 0 }
END {
    m = split(names, name, " ")
    printf "\n%s, %d pairs\n", workload, NR
    for (k = 1; k <= m; k++) {
        sorted(k, a); sorted(k + m, b)
        pm = quantile(a, NR, 0.5); p1 = quantile(a, NR, 0.25); p3 = quantile(a, NR, 0.75)
        cm = quantile(b, NR, 0.5); c1 = quantile(b, NR, 0.25); c3 = quantile(b, NR, 0.75)
        wins = 0
        for (i = 1; i <= NR; i++) if (v[i, k + m] < v[i, k]) wins++
        iqr = p3 - p1
        ratio = (iqr > 0) ? sprintf("%.1f", (pm - cm) / iqr) : "inf"
        printf("%-15s parent %.6g (%.6g-%.6g)  change %.6g (%.6g-%.6g)  %+.1f %%  change lower in %d/%d  gap %.3g = %s x parent IQR %.3g\n",
            name[k], pm, p1, p3, cm, c1, c3, 100 * (cm - pm) / pm, wins, NR, pm - cm, ratio, iqr)
    }
}' "$rows"
