#!/bin/sh
# Non-test, non-comment, non-blank Rust lines per crate under crates/.
#
# Counted: every *.rs under crates/<crate>/ outside a tests/ directory and
# not itself an out-of-line test module (`tests.rs`), up to (not including)
# the file's `#[cfg(test)]` + `mod` tail; lines that are blank or only a
# `//` comment (doc comments included) are skipped.
# Report-only: "net negative lines" in ROADMAP items 1 and 3 is this
# table at two commits. Run from anywhere inside the repository.
set -eu
cd "$(dirname "$0")/.."

total=0
printf '%-12s %8s\n' crate lines
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(find "$dir" -name '*.rs' -not -path '*/tests/*' -not -name tests.rs -print0 |
        xargs -0 awk '
            FNR == 1 { tail = 0; armed = 0 }
            tail { next }
            /^[[:space:]]*#\[cfg\(test\)\]/ { armed = 1; held = 1; next }
            armed && /^[[:space:]]*(pub )?mod[[:space:]]/ { tail = 1; next }
            # a #[cfg(test)] on something other than a mod: it was code
            armed { n += held; armed = 0; held = 0 }
            /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
            { n++ }
            END { print n + 0 }
        ')
    printf '%-12s %8d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %8d\n' total "$total"
