#!/bin/sh
# Net non-test lines per touched file, the figure ROADMAP's ground rules ask
# of every PR: for each .rs file that differs from <base-ref> (working tree
# included) outside tests/, benches/ and benchmark/ and not itself a
# `tests.rs` module, the lines outside `#[cfg(test)]` items that are
# neither blank nor comment-only, at the base and now, then the total. A
# test item is the rest of its attribute's line and what follows up to the
# first line where its brackets balance and it has closed a body or ended
# in `;` or `,`: a one-line `use` or field, or a whole `mod tests { .. }`.
# Prints; gates nothing.
set -eu
[ $# -eq 1 ] || { echo "usage: scripts/net_loc.sh <base-ref>" >&2; exit 2; }
base=$1
cd "$(dirname "$0")/.."
count() {
    awk '
    # Brackets in string and char literals and in comments do not count.
    function code(s) {
        gsub(/\\./, "", s)
        gsub(/"[^"]*"/, "", s)
        gsub(/\047[^\047]\047/, "", s)
        sub(/\/\/.*/, "", s)
        return s
    }
    {
        line = $0
        if (!skip && line ~ /^[ \t]*#\[cfg\(test\)\]/) {
            skip = 1; depth = 0; body = 0
            sub(/^[ \t]*#\[cfg\(test\)\][ \t]*/, "", line)
            if (line == "") next
        }
        if (!skip) {
            if (line !~ /^[ \t]*($|\/\/)/) n++
            next
        }
        s = code(line)
        if (s ~ /\{/) body = 1
        t = s; depth += gsub(/[{([]/, "", t)
        t = s; depth -= gsub(/[])}]/, "", t)
        if (depth <= 0 && (body || s ~ /[;,][ \t]*$/)) skip = 0
    }
    END { print n + 0 }'
}
{ git diff --name-only "$base" -- '*.rs'; git ls-files --others --exclude-standard -- '*.rs'; } |
    grep -Ev '(^|/)((tests|benches|benchmark)/|tests\.rs$)' | sort -u | {
    total=0
    printf '%6s %6s %6s  %s\n' base now net file
    while read -r f; do
        old=$(git show "$base:$f" 2>/dev/null | count)
        new=0
        [ -f "$f" ] && new=$(count <"$f")
        total=$((total + new - old))
        printf '%6d %6d %+6d  %s\n' "$old" "$new" $((new - old)) "$f"
    done
    printf '%20d  total\n' "$total"
}
