#!/bin/sh
# Build the harness and run every workload: prints each metric as
# `workload metric value unit`, checks every answer against the oracle,
# and writes benchmark/out/latest.json plus one span file per workload.
# Arguments are passed on, e.g. `--seed 8`, `--workload tc-fanout`,
# `--seconds 6`, `--smoke`.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run "$@"
