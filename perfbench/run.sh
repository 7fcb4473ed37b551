#!/usr/bin/env bash
# Builds the system under test (the `kdc` binary) and the benchmark runner
# from source, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload <sparse-cold|dense-search|daemon-mixed> \
#        --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default: target). Build logs go to
# stderr; the last line of stdout is the run's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p kdc-cli --bin kdc >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/kdc-perfbench" --kdc "$CARGO_TARGET_DIR/release/kdc" "$@"
