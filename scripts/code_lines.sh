#!/usr/bin/env sh
# Non-test code lines, per crate and in total: every `.rs` file under a
# crate's `src/` — the crates under `crates/`, then the vendored stubs under
# `vendor/` — read up to its first top-level `#[cfg(test)]`, with blank
# lines and `//` lines (comments, `///` and `//!` docs) left out. A file
# declared by a `#[cfg(test)] mod name;` (a test module in a file of its
# own) is test code and is left out whole. A report, not a gate.
#
#   scripts/code_lines.sh            # every crate under crates/ and vendor/,
#                                    # then the total of both
#   scripts/code_lines.sh FILE...    # the same count for single files,
#                                    # given relative to the repository root
set -eu
cd "$(dirname "$0")/.."

count() {
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }' "$1"
}

if [ $# -gt 0 ]; then
    for f in "$@"; do
        printf '%7d  %s\n' "$(count "$f")" "$f"
    done
    exit 0
fi

# The files `#[cfg(test)] mod name;` declarations point at: `name.rs` beside
# a `lib.rs` / `main.rs` / `mod.rs`, under `stem/` beside any other file.
test_files=$(find crates/*/src vendor/*/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '
        prev && match($0, /mod [A-Za-z0-9_]+;/) {
            dir = f; sub(/\/[^\/]*$/, "", dir)
            stem = f; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
            if (stem != "lib" && stem != "main" && stem != "mod") dir = dir "/" stem
            print dir "/" substr($0, RSTART + 4, RLENGTH - 5) ".rs"
        }
        { prev = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) }' "$f"
done)

total=0
for crate in crates/*/ vendor/*/; do
    crate=${crate%/}
    n=0
    for f in $(find "$crate/src" -name '*.rs' | sort); do
        if printf '%s\n' "$test_files" | grep -qxF "$f"; then
            continue
        fi
        n=$((n + $(count "$f")))
    done
    printf '%7d  %s\n' "$n" "${crate#crates/}"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
