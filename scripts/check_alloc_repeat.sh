#!/bin/sh
# What a run costs the allocator is a property of the run, also on the
# sharded engine, where which thread claims which shard is a race: build
# the benchmark, run `star64-sharded2` twice over the same 22 slices, and
# fail unless `allocs_per_delivered`, `bench.allocs`, `peak_heap_mb` and
# `heap_end_over_start` are exactly equal.
#
#   scripts/check_alloc_repeat.sh
#
# Writes nothing under benchmark/: the build goes to the workspace's target
# directory (or $CARGO_TARGET_DIR) and the runs' output to a temporary one.
set -eu
cd "$(dirname "$0")/.."
target=${CARGO_TARGET_DIR:-target}
cargo build --release --offline --locked --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for run in a b; do
    "$target/release/dproc-benchmark" --workload star64-sharded2 --slices 22 --trace 0 \
        --out "$tmp/$run.json" >"$tmp/$run.txt"
    awk '$3 ~ /^(allocs_per_delivered|bench\.allocs|peak_heap_mb|heap_end_over_start)$/ {
        print $3, $5
    }' "$tmp/$run.txt" >"$tmp/$run.vals"
done
paste -d ' ' "$tmp/a.vals" "$tmp/b.vals" | awk '
    { printf "%-22s %-22s %-22s %s\n", $1, $2, $4, ($2 == $4) ? "equal" : "DIFFERS" }
    $2 != $4 { bad = 1 }
    END { if (NR != 4) { print "expected four metrics, read " NR; bad = 1 }; exit bad }
'
