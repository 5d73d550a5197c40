#!/bin/sh
# Append one run of every benchmark workload to BENCH_history.jsonl.
#
#   scripts/bench_history.sh
#
# Reads the command and the workload names from BENCHMARK.json, runs each
# workload once as the driver does (`--seed 1 --seconds 10 --trace 0`) and
# appends one line per workload: the commit (`-dirty` with uncommitted
# changes), workload, seed and the contract's one-line result object,
# verbatim. Appends nothing unless every run exits 0. Gates nothing.
set -eu
cd "$(dirname "$0")/.."
cmd=$(sed -n 's/^ *"command": *\[\(.*\)\],*$/\1/p' BENCHMARK.json | tr -d '",')
workloads=$(sed -n '/"workloads"/,/^  \]/s/^ *{"name": "\([^"]*\)".*/\1/p' BENCHMARK.json)
commit=$(git rev-parse --short HEAD)
[ -z "$(git status --porcelain)" ] || commit="$commit-dirty"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for w in $workloads; do
    $cmd --workload "$w" --seed 1 --seconds 10 --trace 0 >"$tmp/out"
    printf '{"commit": "%s", "workload": "%s", "seed": 1, "result": %s}\n' \
        "$commit" "$w" "$(tail -n 1 "$tmp/out")" >>"$tmp/lines"
    echo "ran      $w"
done
cat "$tmp/lines" >>BENCH_history.jsonl
