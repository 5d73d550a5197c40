#!/bin/sh
# Judge a commit's speed against one anchor commit, on seeds kept out of
# development: ten alternating pairs per workload and seed.
#
#   scripts/bench_anchor.sh [--head <ref>] <anchor-ref> [<workload>...]
#
# Builds the benchmark of <anchor-ref> and of <ref> (default HEAD: commit
# first, the working tree is not measured) from `git archive`, each in its
# own directory, target/anchor/base and target/anchor/head: paths of equal
# length, because the path is part of what a build embeds, and two builds
# of one source in directories of different length have read 3 % apart.
# Then, for each workload (default: every workload of BENCHMARK.json) and
# each of the seeds 37 and 43, runs K = 10 pairs (`--seconds 10 --trace
# 0`), the anchor first in even pairs and <ref> first in odd ones, and
# prints one line: each side's median `sim_s_per_host_s` with its
# interquartile range, the median <ref> ÷ anchor ratio of the pairs with
# its interquartile range, and how many pairs read behind (ratio < 1).
# Fails when a run exits non-zero or two runs of one side disagree on
# `sim_digest`. About ten minutes per workload.
set -eu
usage="usage: scripts/bench_anchor.sh [--head <ref>] <anchor-ref> [<workload>...]"
head_ref=HEAD
if [ "${1:-}" = "--head" ]; then
    [ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
    head_ref=$2
    shift 2
fi
[ $# -ge 1 ] || { echo "$usage" >&2; exit 2; }
cd "$(dirname "$0")/.."
k=10
seeds="37 43"
base_rev=$(git rev-parse --short "$1")
head_rev=$(git rev-parse --short "$head_ref")
shift
workloads=${*:-$(sed -n '/"workloads"/,/^  \]/s/^ *{"name": "\([^"]*\)".*/\1/p' BENCHMARK.json)}
[ "$head_ref" != HEAD ] || [ -z "$(git status --porcelain --untracked-files=no)" ] ||
    echo "note: uncommitted changes are not measured; HEAD is $head_rev" >&2

for side in base head; do
    rev=$base_rev
    [ $side = head ] && rev=$head_rev
    dir=target/anchor/$side
    rm -rf "$dir/src"
    mkdir -p "$dir/src"
    # `-m`: the files get the time of extraction, not of their commit, so
    # cargo rebuilds over whatever the directory built last, even when that
    # came from a later commit.
    git archive "$rev" | tar -x -m -C "$dir/src"
    CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
        --manifest-path "$dir/src/benchmark/Cargo.toml"
done
bin=release/dproc-benchmark

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# `<side> <metric> <value>` for the speed and the digest of one run.
run() {
    "target/anchor/$1/target/$bin" --workload "$2" --seed "$3" --seconds 10 --trace 0 >"$tmp/out"
    awk -v side="$1" '
        $1 == "e2e" && $3 == "sim_s_per_host_s" { print side, $3, $5 }
        $1 == "exact" && $3 == "sim_digest" { print side, $3, $4 }' "$tmp/out"
}
echo "anchor $base_rev, head $head_rev, $k pairs a row, sim_s_per_host_s (IQR)"
for w in $workloads; do
    for seed in $seeds; do
        : >"$tmp/runs"
        i=0
        while [ $i -lt $k ]; do
            if [ $((i % 2)) -eq 0 ]; then
                run base "$w" "$seed" >>"$tmp/runs"
                run head "$w" "$seed" >>"$tmp/runs"
            else
                run head "$w" "$seed" >>"$tmp/runs"
                run base "$w" "$seed" >>"$tmp/runs"
            fi
            i=$((i + 1))
        done
        awk -v w="$w" -v seed="$seed" -v k=$k '
            # Sort a[1..n] in place (n is small).
            function sort(a, n,   i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            }
            # Quartile q (0.25, 0.5, 0.75) of sorted a[1..n], interpolated.
            function quart(a, n, q,   x, i) {
                x = 1 + (n - 1) * q; i = int(x)
                return i < n ? a[i] + (x - i) * (a[i + 1] - a[i]) : a[n]
            }
            $2 == "sim_s_per_host_s" { speed[$1, ++n[$1]] = $3; next }
            $2 == "sim_digest" && ($1 in digest) && digest[$1] != $3 {
                printf "%s seed %s: %s sim_digest %s, then %s\n", w, seed, $1, digest[$1], $3 > "/dev/stderr"
                bad = 1
            }
            $2 == "sim_digest" { digest[$1] = $3 }
            END {
                if (bad || n["base"] != k || n["head"] != k) exit 1
                behind = 0
                for (i = 1; i <= k; i++) {
                    b[i] = speed["base", i]; h[i] = speed["head", i]
                    r[i] = h[i] / b[i]
                    if (r[i] < 1) behind++
                }
                sort(b, k); sort(h, k); sort(r, k)
                printf "%-20s seed %-3s anchor %8.1f (%.1f-%.1f)  head %8.1f (%.1f-%.1f)  ratio %.4f (%.4f-%.4f)  behind %d/%d%s\n", \
                    w, seed, quart(b, k, 0.5), quart(b, k, 0.25), quart(b, k, 0.75), \
                    quart(h, k, 0.5), quart(h, k, 0.25), quart(h, k, 0.75), \
                    quart(r, k, 0.5), quart(r, k, 0.25), quart(r, k, 0.75), behind, k, \
                    digest["base"] == digest["head"] ? "" : "  (sim_digest differs)"
            }' "$tmp/runs"
    done
done
