#!/bin/sh
# Print the measured trajectory in BENCH_history.jsonl and check it.
#
#   scripts/bench_trend.sh
#
# Reads the paired rows scripts/bench_history.sh appends (the older
# one-run-per-workload rows carry no ratio and are skipped). Prints one
# line per row, in file order: commit, workload, the median change ÷
# parent `sim_s_per_host_s` ratio with its min–max, pairs behind, and the
# cumulative product of that workload's median ratios so far — its speed
# relative to the first measured parent. Exits 1 when a row's
# `sim_digest` differs from its parent's without a re-pin of
# crates/bench/baseline/sim_digests.txt, or when every pair of a row read
# behind.
set -eu
cd "$(dirname "$0")/.."
awk '
    # The first value of key `name` in `s`, unquoted.
    function field(s, name,   v) {
        if (!match(s, "\"" name "\": \"?[^,\"}]*")) return ""
        v = substr(s, RSTART, RLENGTH)
        sub(/^"[^"]*": "?/, "", v)
        return v
    }
    !/"pairs": / { next }
    {
        w = field($0, "workload"); median = field($0, "median")
        pairs = field($0, "pairs"); behind = field($0, "behind")
        # The change side comes before the parent side in a row.
        split($0, side, "\"parent\": {")
        c = (w in cum) ? cum[w] : 1
        cum[w] = c * median
        printf "%-16s %-20s %7.4f  [%.4f-%.4f]  behind %s/%s  cumulative %7.4f\n", \
            field($0, "commit"), w, median, field($0, "min"), field($0, "max"), behind, pairs, cum[w]
        dc = field(side[1], "sim_digest"); dp = field(side[2], "sim_digest")
        if (dc != dp && field($0, "repinned") != "true") {
            printf "  sim_digest moved (%s -> %s) without a re-pin\n", dp, dc
            bad = 1
        }
        if (behind == pairs) {
            printf "  every pair read behind\n"
            bad = 1
        }
    }
    END { exit bad }' BENCH_history.jsonl
