#!/bin/sh
# Net non-test lines per touched file, the figure ROADMAP's ground rules ask
# of every PR: for each .rs file that differs from <base-ref> (working tree
# included) outside tests/, benches/ and benchmark/ and not itself a
# `tests.rs` module, the lines before the first `#[cfg(test)]` that are
# neither blank nor comment-only, at the base and now, then the total.
# Prints; gates nothing.
set -eu
[ $# -eq 1 ] || { echo "usage: scripts/net_loc.sh <base-ref>" >&2; exit 2; }
base=$1
cd "$(dirname "$0")/.."
count() {
    awk '/^[ \t]*#\[cfg\(test\)\]/ { exit } !/^[ \t]*($|\/\/)/ { n++ } END { print n + 0 }'
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
