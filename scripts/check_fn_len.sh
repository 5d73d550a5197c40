#!/bin/sh
# Function-length gate: fails when a non-test function under crates/core/src
# runs past 125 lines, signature to closing brace. Reads rustfmt's layout, not
# Rust: an item closes on the next `}` at its indent, and only the item a
# `#[cfg(test)]` sits on is skipped, wherever in the file it is.
set -eu
cd "$(dirname "$0")/.."
find crates/core/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { test = -1; attr = 0; split("", open); split("", name) }
    { match($0, /^ */); ind = RLENGTH }
    test >= 0 { if (ind == test && /^ *}/) test = -1; next }
    attr && !/^ *#\[/ { attr = 0; if (!/[;}]$/) test = ind; next }
    /^ *#\[cfg\(test\)\]/ { attr = 1 }
    attr { next }
    /^ *(pub(\([a-z:_ ]+\))? )?((const|async|unsafe|extern "[A-Za-z]+") )*fn [a-z_0-9]+/ && !/[;}]$/ {
        open[ind] = FNR; name[ind] = $0; sub(/^ */, "", name[ind]); next
    }
    /^ *}/ && (ind in open) {
        n = FNR - open[ind] + 1
        if (n > 125) { printf "%s:%d: %d lines: %s\n", FILENAME, open[ind], n, name[ind]; bad = 1 }
        delete open[ind]
    }
    END { exit bad }
' || { echo "check_fn_len: functions over 125 lines (above)"; exit 1; }
echo "ok       no function under crates/core/src exceeds 125 lines"
