#!/bin/sh
# The linker of every x86_64-unknown-linux-gnu link (.cargo/config.toml):
# `cc` with rustc's arguments, plus a symbol ordering that makes lld put the
# functions tools/text-order.txt lists at the head of .text, in list order.
# tools/first-use.py regenerates the list.
#
# The list names C functions verbatim and Rust functions without what
# changes from build to build: a legacy name's `17h<hash>E` suffix (the
# hash follows the workspace and the build config) and the `.<n>` LTO gives
# a duplicated local.  This resolves each Rust entry against the functions
# the link's objects and rlibs define (`nm`) and hands lld the full names;
# lld is told to stay quiet about names no input defines.
#
# Only optimised links are ordered (rustc passes `-Wl,-O1` at opt-level 2
# and 3): an unoptimised binary runs other functions than the list's, and
# resolving the list against its objects would cost each debug test link
# ~0.1 s of `nm`.  A link that does not go through lld, or a host without
# `nm`, links unordered too.
#
# The file name is neutral on purpose: rustc infers the linker flavour from
# it (a stem of `link` means MSVC, `ld` a bare ld, `gcc` no lld).

order=$(dirname "$0")/text-order.txt
lld= optimised=
for arg; do
    case $arg in
    -fuse-ld=lld) lld=1 ;;
    -Wl,-O1) optimised=1 ;;
    esac
done
if [ -z "$lld" ] || [ -z "$optimised" ] || [ ! -r "$order" ] ||
    ! command -v nm >/dev/null 2>&1; then
    exec cc "$@"
fi
resolved=$(mktemp) || exec cc "$@"

# The symbols the link's inputs define, in one `nm` call.  `--target` keeps
# GNU nm from handing the LLVM bitcode that rlibs carry to its LTO plugin,
# which cannot read it.
symbols() {
    for arg; do
        shift
        case $arg in
        *.o | *.rlib) set -- "$@" "$arg" ;;
        esac
    done
    [ $# -eq 0 ] || nm --defined-only --no-sort --target=elf64-x86-64 "$@" 2>/dev/null
}

symbols "$@" | awk '
    FILENAME != "-" {
        if ($0 == "" || $0 ~ /^#/) next
        entry[++n] = $0
        if ($0 ~ /^_(ZN|R)/) want[$0] = 1
        next
    }
    $2 ~ /^[TtWw]$/ && $3 ~ /^_(ZN|R)/ && !($3 in seen) {
        key = $3
        sub(/(17h[0-9a-f]+E)?(\.[0-9]+)?$/, "", key)
        if (key in want) {
            seen[$3] = 1
            full[key] = full[key] $3 "\n"
        }
    }
    END {
        for (i = 1; i <= n; i++)
            printf "%s", entry[i] ~ /^_(ZN|R)/ ? full[entry[i]] : entry[i] "\n"
    }
' "$order" - >"$resolved"

cc "$@" -Wl,--symbol-ordering-file="$resolved" -Wl,--no-warn-symbol-ordering
status=$?
rm -f "$resolved"
exit $status
