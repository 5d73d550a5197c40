#!/bin/sh
# Agreement evidence: run the benchmark twice on one build and compare.
#
#   benchmark/noise.sh [--seed N] [--workload NAME] [--trace 0|1] [--slices N]
#
# Prints, per workload and metric, both values, the relative difference and
# a verdict: end-to-end host-time and allocator metrics must agree within
# the metric's bound; everything simulated or counted (`_sim_` metrics,
# counters, `sim_digest`) must be exactly equal. Host-time layer metrics
# (spans, probes) are listed without a verdict. Exits 1 on any FAIL.
#
# Runs use a fixed slice count (the default 40, or --slices), not a time
# budget, so both runs cover exactly the same simulated window.
set -eu
cd "$(dirname "$0")/.."
out=benchmark/out
mkdir -p "$out"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/dproc-benchmark"
"$bin" "$@" --out "$out/noise-a.json" >"$out/noise-a.txt"
"$bin" "$@" --out "$out/noise-b.json" >"$out/noise-b.txt"

awk '
function abs(x) { return x < 0 ? -x : x }
# Which lines must repeat exactly.
function exact(kind, name, unit) {
    if (kind == "exact") return 1
    if (kind == "e2e") return name ~ /_sim_/ || name == "delivered_share"
    if (name ~ /^bench\./ || name ~ /^simcore\.pdes\./ || name == "ecode.run_instr_per_run") return 0
    return unit == "count" || unit == "B" || unit == "sim_us" || unit == "sim_s"
}
$1 == "check" { if ($4 != "PASS") { print "FAIL check", $2, $3; bad = 1 } ; next }
FNR == NR {
    if ($1 == "exact") a[$1, $2, $3] = $4; else a[$1, $2, $3] = $5
    next
}
{
    kind = $1; wl = $2; name = $3
    if (kind == "exact") { unit = "-"; vb = $4 } else { unit = $4; vb = $5 }
    va = a[kind, wl, name]
    if (kind == "exact") rel = (va == vb) ? 0 : 1
    else rel = (va == vb) ? 0 : abs(vb - va) / (abs(va) > 0 ? abs(va) : 1)
    if (exact(kind, name, unit)) verdict = (va == vb) ? "PASS(exact)" : "FAIL(exact)"
    else if (kind == "e2e") verdict = (rel <= $7) ? "PASS(<=" $7 ")" : "FAIL(>" $7 ")"
    else verdict = "-"
    if (verdict ~ /^FAIL/) bad = 1
    if (kind != "layer" || verdict != "PASS(exact)" || va != 0)
        printf "%-5s %-20s %-42s %-18s %-18s %8.3f%%  %s\n", kind, wl, name, va, vb, rel * 100, verdict
}
END { exit bad }
' "$out/noise-a.txt" "$out/noise-b.txt"
