#!/usr/bin/env bash
# The layout control beside tools/paired.sh: a copy of a tree whose only
# differences are the order one crate declares its modules in and the order
# the text-order list names Rust functions in.  Same source, different code
# placement in the binary — so a paired reading between the tree and its
# copy is what layout alone moves wall time by.

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
opposite order and the Rust entries of tools/text-order.txt reversed in
their slots (the C entries stay put), which moves code in the binary and
nothing else.  The list pins the functions the workloads run at the head
of .text, so reversing the `mod` lines alone would leave the hot code
where it was.  The tree's release profile and linker (.cargo/config.toml)
travel with the copy, so both are built with the same LTO and codegen-unit
settings.  A wall_vs_ref difference under 2 % needs this control beside it
(ROADMAP, standing guardrails): run `tools/paired.sh <tree> <out-dir>
<workload> <pairs>` with the same pairs and seconds as the claim, and
report both rows.
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
config=.cargo/config.toml
if [ -f "$tree/$config" ] && ! cmp -s "$tree/$config" "$out/$config"; then
    echo "layout.sh: the copy lacks $tree/$config (is it ignored?)" >&2
    exit 1
fi

# Write the lines of <file> that match <regex> back into the same lines in
# the opposite order (two passes: collect them, then place them).
reverse_matching() {
    awk -v pattern="$2" '
        NR == FNR { if ($0 ~ pattern) lines[++n] = $0; next }
        $0 ~ pattern { print lines[n - k++]; next }
        { print }
    ' "$1" "$1" >"$1.reversed"
    mv "$1.reversed" "$1"
}

# A top-level module declaration: `mod m;`, `pub mod m;`, `pub(crate) mod m;`.
decl='^(pub([(][a-z]+[)])? )?mod [A-Za-z0-9_]+;$'
mods=$(grep -cE "$decl" "$out/$lib" || true)
if [ "$mods" -lt 2 ]; then
    echo "layout.sh: $lib declares $mods top-level modules; nothing to reorder" >&2
    exit 1
fi
reverse_matching "$out/$lib" "$decl"
echo "layout.sh: $out is $tree with the $mods module declarations of $lib reversed:"
grep -E "$decl" "$out/$lib" | paste -sd' '
order=tools/text-order.txt
if [ -f "$out/$order" ]; then
    reverse_matching "$out/$order" '^_(ZN|R)'
    echo "layout.sh: and with the $(grep -cE '^_(ZN|R)' "$out/$order") Rust entries of $order reversed"
fi
