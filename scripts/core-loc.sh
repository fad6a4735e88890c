#!/usr/bin/env bash
# Non-test code lines of the engine core: per file and in total, the
# lines under each given directory (default crates/core/src) that are
# not blank, not a `//` comment, and not inside the file's trailing
# `#[cfg(test)]` module. This is the number ROADMAP's "small" aim and
# the re-anchors quote. Compare two trees with e.g.
#   scripts/core-loc.sh crates/core/src crates/trace/src
# run in each checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

find "${@:-crates/core/src}" -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*(\/\/|$)/ { lines[FILENAME]++; total++ }
    END {
        for (f in lines) printf "%6d %s\n", lines[f], f | "sort -k2"
        close("sort -k2")
        printf "%6d total\n", total
    }'
