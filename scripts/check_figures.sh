#!/bin/sh
# Pin the reproduced figures.
#
#   scripts/check_figures.sh [--update]
#
# Builds and runs `run_all` (the paper's Figs. 4-11 and the topology
# ablation as text tables, seeded and deterministic) and compares its output, both streams, byte for byte with
# crates/bench/baseline/run_all.txt: a change that does not mean to move a
# figure must leave it as it is. On a difference prints the first line that
# differs, both ways, and exits 1. `--update` rewrites the file from the
# run, for a change that means to alter a figure. Then checks what
# EXPERIMENTS.md quotes of it by hand.
set -eu
cd "$(dirname "$0")/.."
baseline=crates/bench/baseline/run_all.txt
update=0
[ "${1:-}" = "--update" ] && update=1

cargo build --release --offline --quiet -p dproc-bench --bin run_all
bin="${CARGO_TARGET_DIR:-target}/release/run_all"
out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$bin" >"$out" 2>&1

if cmp -s "$out" "$baseline"; then
    echo "ok       run_all: $(wc -l <"$out") lines as pinned"
elif [ "$update" = 1 ]; then
    cp "$out" "$baseline"
    echo "updated  $baseline"
else
    line=$(cmp "$out" "$baseline" | sed 's/.* line //')
    echo "DIFFERS  run_all, first at line ${line:-past the end of one}"
    echo "  want: $(sed -n "${line:-\$}p" "$baseline")"
    echo "  got:  $(sed -n "${line:-\$}p" "$out")"
    exit 1
fi

# Every line of a fenced block under a `## Figure` heading of
# EXPERIMENTS.md, or under the `ablation_topology` heading of its
# `## Ablations`, must be a whole line of the pinned file.
stray=$(awk '/^## /{fig = /^## Figure/} /^### /{fig = /ablation_topology/}
    /^```/{fence = !fence; next} fig && fence' EXPERIMENTS.md |
    grep -Fxv -f "$baseline" || true)
if [ -n "$stray" ]; then
    echo "DIFFERS  EXPERIMENTS.md quotes figure rows $baseline does not have:"
    echo "$stray"
    exit 1
fi
echo "ok       EXPERIMENTS.md: every quoted figure row is pinned"
