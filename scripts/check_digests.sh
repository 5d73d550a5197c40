#!/bin/sh
# Pin the simulated results, not just the speed.
#
#   scripts/check_digests.sh [--update]
#
# Runs every benchmark workload for the 20-slice window at each seed listed
# in crates/bench/baseline/sim_digests.txt (`<workload> <seed> <digest>`)
# and compares the `exact <workload> sim_digest` line with the file: a
# change that claims to be performance-only must leave every digest as it
# is. It also compares every `e2e` and `layer` line that benchmark/noise.sh's
# `exact()` rule classes as exact (counts, bytes, `_sim_` figures; not
# `bench.*`, `simcore.pdes.*` or `ecode.run_instr_per_run`) with
# crates/bench/baseline/exact_counts.txt (`<workload> <seed> <name>
# <value>`), as text, and names each count that moved: the digest does not
# hash the application's counts and latencies, and a moved hash alone says
# nothing of what moved. Also fails on any `check ... FAIL` line. Exits 1 on
# a difference. `--update` rewrites both files from what the runs print,
# for a change that means to alter simulated behaviour. Nothing under
# benchmark/ is edited; run output goes to temporary files.
set -eu
cd "$(dirname "$0")/.."
baseline=crates/bench/baseline/sim_digests.txt
counts=crates/bench/baseline/exact_counts.txt
update=0
[ "${1:-}" = "--update" ] && update=1

# The one definition of "exact" is noise.sh's; take it from there.
rule=$(sed -n '/^function exact(/,/^}/p' benchmark/noise.sh)
[ -n "$rule" ] || { echo "no exact() rule in benchmark/noise.sh" >&2; exit 2; }

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/dproc-benchmark"
out=$(mktemp)
new=$(mktemp)
newcounts=$(mktemp)
trap 'rm -f "$out" "$out.txt" "$out.want" "$out.got" "$new" "$newcounts"' EXIT
touch "$counts"

bad=0
while read -r workload seed want; do
    "$bin" --workload "$workload" --seed "$seed" --slices 20 --trace 0 --out "$out" >"$out.txt" || bad=1
    got=$(awk -v w="$workload" '$1 == "exact" && $2 == w && $3 == "sim_digest" { print $4 }' "$out.txt")
    if grep -E '^check .* FAIL' "$out.txt"; then
        bad=1
    fi
    echo "$workload $seed $got" >>"$new"
    awk -v w="$workload" -v s="$seed" "$rule"'
        ($1 == "e2e" || $1 == "layer") && $2 == w && exact($1, $3, $4) { print w, s, $3, $5 }
    ' "$out.txt" >"$out.got"
    cat "$out.got" >>"$newcounts"
    awk -v w="$workload" -v s="$seed" '$1 == w && $2 == s' "$counts" >"$out.want"
    moved=$(awk '
        FILENAME == ARGV[1] { want[$3] = $4; next }
        !($3 in want) { print "    new    " $3 " " $4; next }
        want[$3] != $4 "" { print "    moved  " $3 " want " want[$3] " got " $4 }
        { delete want[$3] }
        END { for (n in want) print "    gone   " n " " want[n] }
    ' "$out.want" "$out.got")
    if [ "$got" = "$want" ] && [ -z "$moved" ]; then
        echo "ok       $workload seed $seed $got, $(wc -l <"$out.got") counts"
    elif [ "$update" = 1 ]; then
        echo "updated  $workload seed $seed $want -> $got"
    elif [ "$got" = "$want" ]; then
        echo "DIFFERS  $workload seed $seed $got as pinned, but counts moved"
        bad=1
    else
        echo "DIFFERS  $workload seed $seed want $want got ${got:-nothing}"
        bad=1
    fi
    [ -z "$moved" ] || echo "$moved"
done <"$baseline"

if [ "$update" = 1 ] && [ "$bad" = 0 ]; then
    cp "$new" "$baseline"
    cp "$newcounts" "$counts"
fi
exit "$bad"
