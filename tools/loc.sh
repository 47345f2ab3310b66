#!/bin/sh
# Non-test, non-comment, non-blank Rust lines per crate under crates/.
#
# Counted: every *.rs under crates/<crate>/ outside a tests/ directory and
# not itself an out-of-line test module (`tests.rs`), up to (not including)
# the file's `#[cfg(test)]` + `mod` tail; lines that are blank or only a
# `//` comment (doc comments included) are skipped.
# Then the ten largest files by the same rule ("no file over ~600 lines"
# is this list). Report-only: "net negative lines" in ROADMAP items 1 and
# 3 is this table at two commits. Run from anywhere inside the repository.
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
files=$(mktemp)
trap 'rm -f "$files"' EXIT
find crates -name '*.rs' -not -path '*/tests/*' -not -name tests.rs -print0 |
    xargs -0 awk "$per_file" >"$files"

printf '%-12s %8s\n' crate lines
awk '{ split($2, path, "/"); lines[path[2]] += $1 }
    END { for (crate in lines) printf "%-12s %8d\n", crate, lines[crate] }' "$files" | sort
awk '{ total += $1 } END { printf "%-12s %8d\n", "total", total }' "$files"

printf '\nlargest files\n'
sort -rn "$files" | head -10 | awk '{ printf "%8d  %s\n", $1, $2 }'
