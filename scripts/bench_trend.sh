#!/bin/sh
# Print sim_s_per_host_s per workload per commit from BENCH_history.jsonl.
#
#   scripts/bench_trend.sh
#
# One row per commit in the order scripts/bench_history.sh appended them,
# one column per workload (`-` where that commit has no row for it). Each
# value is one run on whatever machine ran it, so read a column for its
# direction, not its digits. Gates nothing.
set -eu
cd "$(dirname "$0")/.."
sed -n 's/^{"commit": "\([^"]*\)", "workload": "\([^"]*\)".*"sim_s_per_host_s": {"value": \([^,}]*\).*/\1 \2 \3/p' \
    BENCH_history.jsonl |
    awk '
        !($1 in seen_c) { seen_c[$1] = 1; commits[++nc] = $1 }
        !($2 in seen_w) { seen_w[$2] = 1; workloads[++nw] = $2 }
        { v[$1, $2] = $3 }
        END {
            printf "%-16s", "commit"
            for (j = 1; j <= nw; j++) printf " %19s", workloads[j]
            printf "\n"
            for (i = 1; i <= nc; i++) {
                printf "%-16s", commits[i]
                for (j = 1; j <= nw; j++) {
                    key = commits[i] SUBSEP workloads[j]
                    if (key in v) printf " %19.1f", v[key]; else printf " %19s", "-"
                }
                printf "\n"
            }
        }'
