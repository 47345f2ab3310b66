#!/bin/sh
# Non-test, non-comment, non-blank Rust lines per crate under crates/.
#
# Counted: every *.rs under crates/<crate>/ outside a tests/ directory and
# not itself an out-of-line test module (the file, or the directory, that
# a `#[cfg(test)] mod x;` declares), up to (not including) the file's
# `#[cfg(test)]` + `mod` tail; lines that are blank or only a `//` comment
# (doc comments included) are skipped.
# Then the ten largest files by the same rule ("no file over ~600 lines"
# is this list). Report-only: "net negative lines" in ROADMAP items 1 and
# 3 is this table at two commits. Run from anywhere inside the repository.
#
#   tools/loc.sh                 the table and the largest files
#   tools/loc.sh --against <rev> each crate's lines at <rev> (a `git
#                                archive` of it in a temporary directory),
#                                in the working tree, and the difference
set -eu
cd "$(dirname "$0")/.."

# "<lines> <file>" for every file awk is handed
per_file='
    function flush() { if (file != "") print n + 0, file }
    FNR == 1 { flush(); file = FILENAME; n = 0; tail = 0; armed = 0 }
    tail { next }
    /^[[:space:]]*#\[cfg\(test\)\]/ { armed = 1; held = 1; next }
    armed && /^[[:space:]]*(pub )?mod[[:space:]]/ { tail = 1; next }
    # a #[cfg(test)] on something other than a mod: it was code
    armed { n += held; armed = 0; held = 0 }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { n++ }
    END { flush() }
'
# the path, less ".rs", of every module a `#[cfg(test)] mod x;` declares
test_mods='
    /^[[:space:]]*#\[cfg\(test\)\]/ { armed = 1; next }
    armed && /^[[:space:]]*(pub )?mod[[:space:]]+[A-Za-z0-9_]+;/ {
        name = $0; sub(/^[[:space:]]*(pub )?mod[[:space:]]+/, "", name); sub(/;.*/, "", name)
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        stem = FILENAME; sub(/.*\//, "", stem); sub(/\.rs$/, "", stem)
        if (stem != "lib" && stem != "main" && stem != "mod") dir = dir "/" stem
        print dir "/" name
    }
    { armed = 0 }
'
# drop "<lines> <file>" lines whose file is such a module, x.rs or under x/
not_test_mods='
    NR == FNR { mods[$0] = 1; next }
    { for (m in mods) if ($2 == m ".rs" || index($2, m "/") == 1) next; print }
'
files=$(mktemp)
mods=$(mktemp)
tree=$(mktemp -d)
trap 'rm -rf "$files" "$mods" "$tree"' EXIT

# "<lines> <file>" of every counted file under $1/crates into $files
count_files() {
    (cd "$1" &&
        find crates -name '*.rs' -not -path '*/tests/*' -print0 | xargs -0 awk "$test_mods" >"$mods" &&
        find crates -name '*.rs' -not -path '*/tests/*' -print0 | xargs -0 awk "$per_file" |
        awk "$not_test_mods" "$mods" - >"$files")
}

# "<crate> <lines>" per crate of $files, sorted
per_crate() {
    awk '{ split($2, path, "/"); lines[path[2]] += $1 }
        END { for (crate in lines) printf "%-12s %8d\n", crate, lines[crate] }' "$files" | sort
}

if [ "${1:-}" = "--against" ]; then
    [ $# -eq 2 ] || { echo "usage: $0 [--against <rev>]" >&2; exit 2; }
    git archive "$2" crates | tar -x -C "$tree"
    count_files "$tree"
    per_crate >"$tree/then"
    count_files .
    per_crate >"$tree/now"
    printf '%-12s %8s %8s %8s\n' crate "$2" now delta
    # a crate only one side has counts 0 on the other
    awk 'NR == FNR { then_[$1] = $2; crates[$1] = 1; next } { now[$1] = $2; crates[$1] = 1 }
        END { for (c in crates) printf "%-12s %8d %8d %+8d\n", c, then_[c], now[c], now[c] - then_[c] }' \
        "$tree/then" "$tree/now" | sort
    awk 'NR == FNR { a += $2; next } { b += $2 } END { printf "%-12s %8d %8d %+8d\n", "total", a, b, b - a }' \
        "$tree/then" "$tree/now"
    exit 0
fi

count_files .
printf '%-12s %8s\n' crate lines
per_crate
awk '{ total += $1 } END { printf "%-12s %8d\n", "total", total }' "$files"

printf '\nlargest files\n'
sort -rn "$files" | head -10 | awk '{ printf "%8d  %s\n", $1, $2 }'
