#!/usr/bin/env bash
# The layout control beside tools/paired.sh: a copy of a tree whose only
# difference is the order one crate declares its modules in.  Same source,
# different code placement in the binary — so a paired reading between the
# tree and its copy is what layout alone moves wall time by.

set -euo pipefail

usage() {
    cat <<'EOF'
usage: tools/layout.sh <tree> <out-dir> [crate=sched]

  <tree>     a checkout of this repository; its working-tree files are
             copied (untracked ones included, ignored ones such as target/
             left out)
  <out-dir>  where the copy goes; must not exist yet
  [crate]    the crate under crates/ whose src/lib.rs top-level `mod` lines
             are reversed (default sched)

The copy builds the same program with one crate's modules declared in the
opposite order, which moves code in the binary and nothing else.  A
wall_vs_ref difference under 2 % needs this control beside it (ROADMAP,
standing guardrails): run `tools/paired.sh <tree> <out-dir> <workload> <pairs>`
with the same pairs and seconds as the claim, and report both rows.
EOF
}

case "${1:-}" in
-h | --help)
    usage
    exit 0
    ;;
esac
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    usage >&2
    exit 2
fi

tree=$(cd "$1" && pwd)
out=$2
crate=${3:-sched}
lib="crates/$crate/src/lib.rs"
if [ ! -f "$tree/$lib" ]; then
    echo "layout.sh: $tree/$lib does not exist" >&2
    exit 2
fi
if [ -e "$out" ]; then
    echo "layout.sh: $out already exists" >&2
    exit 2
fi

mkdir -p "$out"
git -C "$tree" ls-files -z --cached --others --exclude-standard |
    (cd "$tree" && while IFS= read -r -d '' f; do
        [ -e "$f" ] && printf '%s\0' "$f"
    done | tar --null -T - -cf -) |
    tar -C "$out" -xf -

# A top-level module declaration: `mod m;`, `pub mod m;`, `pub(crate) mod m;`.
decl='^(pub([(][a-z]+[)])? )?mod [A-Za-z0-9_]+;$'
mods=$(grep -cE "$decl" "$out/$lib" || true)
if [ "$mods" -lt 2 ]; then
    echo "layout.sh: $lib declares $mods top-level modules; nothing to reorder" >&2
    exit 1
fi
# Two passes over the file: collect the declarations, then write them back
# into the same lines in the opposite order.
awk -v decl="$decl" '
    NR == FNR { if ($0 ~ decl) mods[++n] = $0; next }
    $0 ~ decl { print mods[n - k++]; next }
    { print }
' "$out/$lib" "$out/$lib" >"$out/$lib.reversed"
mv "$out/$lib.reversed" "$out/$lib"
echo "layout.sh: $out is $tree with the $mods module declarations of $lib reversed:"
grep -E "$decl" "$out/$lib" | paste -sd' '
