#!/usr/bin/env bash
# Phase attribution beside tools/paired.sh: interleaved single reps of two
# trees' unmodified benchmark/ harness, read through the phase line each rep
# child leaves on stderr, so a change in wall time can be pinned on the run,
# the report or the memory high-water mark.  The two trees must print the
# same report at every seed.

set -euo pipefail

usage() {
    cat <<'EOF'
usage: tools/phases.sh <tree-a> <tree-b> <workload> <reps> [first-seed=7]

  <tree-a>, <tree-b>  two checkouts of this repository (e.g. a `git clone`
                      of the parent commit and the working tree)
  <workload>          link-wfq | chain-unified | churn-signal (the workloads
                      a rep child runs)
  <reps>              reps per tree; rep i runs at seed first-seed + i, even
                      reps tree a first, odd reps tree b first

Builds both trees' benchmark/ packages (release, offline), runs each rep as
the harness does (`ispn-benchmark rep --workload W --seed S --horizon-s 600`,
from the tree's root), and reads run_s, report_s and vm_hwm_bytes from the
`ispn-benchmark-rep` line the child writes to stderr.  Stops with exit 1 at
the first seed where the two trees' stdout (the report JSON) differs or a
rep fails.  Prints every rep, then per metric each tree's median and
quartiles and the change of b's median against a's.
EOF
}

case "${1:-}" in
-h | --help)
    usage
    exit 0
    ;;
esac
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    usage >&2
    exit 2
fi

tree_a=$(cd "$1" && pwd)
tree_b=$(cd "$2" && pwd)
workload=$3
reps=$4
first_seed=${5:-7}
if ! [[ $reps =~ ^[1-9][0-9]*$ && $first_seed =~ ^[0-9]+$ ]]; then
    usage >&2
    exit 2
fi
# The paper's ten-minute run, as the harness runs every simulation rep.
horizon_s=600
metrics="run_s report_s vm_hwm_bytes"

for tree in "$tree_a" "$tree_b"; do
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
done

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# One rep in <tree> at <seed>, its report JSON to <out>: prints
# "run_s report_s vm_hwm_bytes".
rep() {
    local tree=$1 seed=$2 out=$3 line name
    if ! (cd "$tree" && benchmark/target/release/ispn-benchmark rep \
        --workload "$workload" --seed "$seed" --horizon-s "$horizon_s" >"$out" 2>"$out.err"); then
        echo "phases.sh: $tree, seed $seed: rep failed: $(tail -n 3 "$out.err")" >&2
        exit 1
    fi
    line=$(grep '^ispn-benchmark-rep ' "$out.err" | tail -n 1) || true
    if [ -z "$line" ]; then
        echo "phases.sh: $tree, seed $seed: no ispn-benchmark-rep line on stderr" >&2
        exit 1
    fi
    for name in $metrics; do
        sed -n "s/.* $name=\([^ ]*\).*/\1/p" <<<"$line"
    done | paste -sd' '
}

rows="$scratch/rows"
printf '%-4s %-6s %10s %10s %10s %10s %13s %13s\n' \
    rep seed 'run a' 'run b' 'report a' 'report b' 'hwm a' 'hwm b'
for ((i = 0; i < reps; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        a=$(rep "$tree_a" "$seed" "$scratch/a.json")
        b=$(rep "$tree_b" "$seed" "$scratch/b.json")
    else
        b=$(rep "$tree_b" "$seed" "$scratch/b.json")
        a=$(rep "$tree_a" "$seed" "$scratch/a.json")
    fi
    if ! cmp -s "$scratch/a.json" "$scratch/b.json"; then
        echo "phases.sh: seed $seed: the two trees' stdout differs" >&2
        exit 1
    fi
    echo "$a $b" >>"$rows"
    # shellcheck disable=SC2086
    set -- $a $b
    printf '%-4s %-6s %10.6f %10.6f %10.6f %10.6f %13.0f %13.0f\n' "$i" "$seed" "$1" "$4" "$2" "$5" "$3" "$6"
done

# Columns of $rows: tree a's three metrics, then tree b's three.
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
    printf "\n%s, %d reps per tree, stdout identical at every seed\n", workload, NR
    for (k = 1; k <= m; k++) {
        sorted(k, a); sorted(k + m, b)
        am = quantile(a, NR, 0.5); a1 = quantile(a, NR, 0.25); a3 = quantile(a, NR, 0.75)
        bm = quantile(b, NR, 0.5); b1 = quantile(b, NR, 0.25); b3 = quantile(b, NR, 0.75)
        printf("%-13s a %.6g (%.6g-%.6g)  b %.6g (%.6g-%.6g)  %+.1f %%\n",
            name[k], am, a1, a3, bm, b1, b3, 100 * (bm - am) / am)
    }
}' "$rows"
