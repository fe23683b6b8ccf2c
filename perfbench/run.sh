#!/usr/bin/env bash
# Builds the release `repro` binary and this benchmark from source, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload study_cold --seed 1 --seconds 30 --trace 0
#
# The last line of stdout is the JSON result. Build output goes to
# stderr. CARGO_TARGET_DIR (default .bench_build) holds both builds; the
# benchmark is its own workspace, so it gets its own subdirectory and the
# two builds never invalidate each other. The harness runs as a child,
# not via exec, so the compilers' peak RSS is not counted as the
# program's.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    -p phaselab-bench --bin repro >&2
CARGO_TARGET_DIR="$target/perfbench" cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml >&2
"$target/perfbench/release/phaselab-perfbench" --repro "$target/release/repro" "$@"
