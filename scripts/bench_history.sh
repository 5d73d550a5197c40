#!/bin/sh
# Append one measured row per benchmark workload to BENCH_history.jsonl:
# this tree against a parent commit, in alternating pairs.
#
#   scripts/bench_history.sh <parent-ref>
#
# Builds <parent-ref> from a `git archive` of it, in a target directory of
# its own (target/bench_parent/), and this tree as BENCHMARK.json's command
# does. Then, per workload of BENCHMARK.json, runs K = 5 pairs at seed 2
# (`--seconds 10 --trace 0`), the parent first in even pairs and this tree
# first in odd ones, and appends one line: the commit (`-dirty` with
# uncommitted changes), the parent, the median change ÷ parent
# `sim_s_per_host_s` ratio of the pairs with its min and max, how many
# pairs read behind (ratio < 1), and the exact counters, which need no
# repetition: `allocs_per_delivered`, `bench.allocs` and `sim_digest` on
# each side, and whether crates/bench/baseline/sim_digests.txt differs from
# the parent's (a re-pin). Fails, appending nothing, when a run exits
# non-zero or two runs of one side disagree on `sim_digest`.
# scripts/bench_trend.sh reads the rows. About 20 minutes.
set -eu
[ $# -eq 1 ] || { echo "usage: scripts/bench_history.sh <parent-ref>" >&2; exit 2; }
cd "$(dirname "$0")/.."
k=5
seed=2
parent=$(git rev-parse --short "$1")
commit=$(git rev-parse --short HEAD)
[ -z "$(git status --porcelain)" ] || commit="$commit-dirty"
repinned=false
git diff --quiet "$parent" -- crates/bench/baseline/sim_digests.txt || repinned=true
workloads=$(sed -n '/"workloads"/,/^  \]/s/^ *{"name": "\([^"]*\)".*/\1/p' BENCHMARK.json)

# The parent's sources go where /target already keeps build output.
base=target/bench_parent
rm -rf "$base/src"
mkdir -p "$base/src"
git archive "$parent" | tar -x -C "$base/src"
build() {
    cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
CARGO_TARGET_DIR="$base/target" build "$base/src"
build .
bin_parent="$base/target/release/dproc-benchmark"
bin_change=benchmark/target/release/dproc-benchmark

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# `<side> <metric> <value>` for the three exact counters and the ratio's
# input, from one run's `e2e`, `layer` and `exact` lines.
run() {
    "$2" --workload "$3" --seed $seed --seconds 10 --trace 0 >"$tmp/out"
    awk -v side="$1" '
        $1 == "e2e" && ($3 == "sim_s_per_host_s" || $3 == "allocs_per_delivered") { print side, $3, $5 }
        $1 == "layer" && $3 == "bench.allocs" { print side, $3, $5 }
        $1 == "exact" && $3 == "sim_digest" { print side, $3, $4 }' "$tmp/out"
}
for w in $workloads; do
    : >"$tmp/runs"
    i=0
    while [ $i -lt $k ]; do
        if [ $((i % 2)) -eq 0 ]; then
            run parent "$bin_parent" "$w" >>"$tmp/runs"
            run change "$bin_change" "$w" >>"$tmp/runs"
        else
            run change "$bin_change" "$w" >>"$tmp/runs"
            run parent "$bin_parent" "$w" >>"$tmp/runs"
        fi
        i=$((i + 1))
    done
    awk -v commit="$commit" -v parent="$parent" -v w="$w" -v seed=$seed -v k=$k \
        -v repinned=$repinned '
        $2 == "sim_s_per_host_s" { speed[$1, ++n[$1]] = $3; next }
        $2 == "sim_digest" && ($1, $2) in exact && exact[$1, $2] != $3 {
            printf "%s: %s sim_digest %s, then %s\n", w, $1, exact[$1, $2], $3 > "/dev/stderr"
            bad = 1
        }
        { exact[$1, $2] = $3 }
        END {
            if (bad || n["parent"] != k || n["change"] != k) exit 1
            behind = 0
            for (i = 1; i <= k; i++) {
                r[i] = speed["change", i] / speed["parent", i]
                if (r[i] < 1) behind++
            }
            for (i = 2; i <= k; i++)
                for (j = i; j > 1 && r[j - 1] > r[j]; j--) { t = r[j]; r[j] = r[j - 1]; r[j - 1] = t }
            printf "{\"commit\": \"%s\", \"parent\": \"%s\", \"workload\": \"%s\", \"seed\": %d, \"pairs\": %d, ", commit, parent, w, seed, k
            printf "\"sim_s_per_host_s_ratio\": {\"median\": %.4f, \"min\": %.4f, \"max\": %.4f}, \"behind\": %d, ", r[int((k + 1) / 2)], r[1], r[k], behind
            for (s = 0; s < 2; s++) {
                side = s ? "parent" : "change"
                printf "\"%s\": {\"allocs_per_delivered\": %s, \"bench.allocs\": %s, \"sim_digest\": \"%s\"}, ", side, exact[side, "allocs_per_delivered"], exact[side, "bench.allocs"], exact[side, "sim_digest"]
            }
            printf "\"repinned\": %s}\n", repinned
        }' "$tmp/runs" >>"$tmp/lines"
    echo "ran      $w"
done
cat "$tmp/lines" >>BENCH_history.jsonl
