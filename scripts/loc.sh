#!/bin/sh
# Non-test code lines per crate — non-blank, non-comment lines of every
# src/**/*.rs before the file's test module: the first top-level
# `#[cfg(test)]` whose next line opens an inline `mod name {`. (A
# `#[cfg(test)]` on anything else — an import, an out-of-line
# `mod name;` — hides nothing below it.)
# This is the measure ROADMAP's "Deletions and splits" target (<= 15 900)
# is stated in, so CI prints it instead of it being counted by hand. The
# five largest files by the same measure follow the table: that is where
# "no module a newcomer cannot hold" stays visible.
#
# `--check` makes it a ratchet: it fails when the total exceeds the number
# committed in scripts/loc.ceiling. A PR that must add lines raises the
# ceiling in its own diff, where a reviewer sees it; one that removes
# lines lowers it.
set -eu
cd "$(dirname "$0")/.."

count() {
    awk 'held && /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/ { n--; exit }
         { held = /^#\[cfg\(test\)\]/ }
         { l = $0; sub(/^[ \t]+/, "", l); if (l == "" || l ~ /^\/\//) next; n++ }
         END { print n + 0 }' "$1"
}

total=0
files=
for src in src crates/*/src crates/compat/*/src; do
    [ -d "$src" ] || continue
    n=0
    for f in $(find "$src" -name '*.rs' | sort); do
        c=$(count "$f")
        n=$((n + c))
        files="$files$(printf '%7d  %s' "$c" "$f")
"
    done
    printf '%7d  %s\n' "$n" "$src"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
printf 'largest files:\n'
printf '%s' "$files" | sort -rn | head -5
if [ "${1:-}" = "--check" ]; then
    ceiling=$(cat scripts/loc.ceiling)
    if [ "$total" -gt "$ceiling" ]; then
        printf 'loc: total %d exceeds scripts/loc.ceiling (%d)\n' "$total" "$ceiling" >&2
        exit 1
    fi
    printf 'loc: total %d within scripts/loc.ceiling (%d)\n' "$total" "$ceiling"
fi
