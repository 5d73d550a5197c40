#!/bin/sh
# Pin the simulated results, not just the speed.
#
#   scripts/check_digests.sh [--update]
#
# Runs every benchmark workload for the 20-slice window at each seed listed
# in crates/bench/baseline/sim_digests.txt (`<workload> <seed> <digest>`)
# and compares the `exact <workload> sim_digest` line with the file: a
# change that claims to be performance-only must leave every digest as it
# is. Also fails on any `check ... FAIL` line. Exits 1 on a difference.
# `--update` rewrites the file from what the runs print, for a change that
# means to alter simulated behaviour. Nothing under benchmark/ is edited;
# run output goes to a temporary file.
set -eu
cd "$(dirname "$0")/.."
baseline=crates/bench/baseline/sim_digests.txt
update=0
[ "${1:-}" = "--update" ] && update=1

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/dproc-benchmark"
out=$(mktemp)
new=$(mktemp)
trap 'rm -f "$out" "$out.txt" "$new"' EXIT

bad=0
while read -r workload seed want; do
    "$bin" --workload "$workload" --seed "$seed" --slices 20 --trace 0 --out "$out" >"$out.txt" || bad=1
    got=$(awk -v w="$workload" '$1 == "exact" && $2 == w && $3 == "sim_digest" { print $4 }' "$out.txt")
    if grep -E '^check .* FAIL' "$out.txt"; then
        bad=1
    fi
    echo "$workload $seed $got" >>"$new"
    if [ "$got" = "$want" ]; then
        echo "ok       $workload seed $seed $got"
    elif [ "$update" = 1 ]; then
        echo "updated  $workload seed $seed $want -> $got"
    else
        echo "DIFFERS  $workload seed $seed want $want got ${got:-nothing}"
        bad=1
    fi
done <"$baseline"

if [ "$update" = 1 ] && [ "$bad" = 0 ]; then
    cp "$new" "$baseline"
fi
exit "$bad"
