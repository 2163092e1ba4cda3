#!/usr/bin/env bash
# Builds sla-serve and the benchmark client from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#   bash perfbench/run.sh --workload atpg_warm --seed 1 --seconds 10 --trace 0
# Both programs build into $CARGO_TARGET_DIR (default: target).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --locked -p sla-store --bin sla-serve >&2
cargo build --release --quiet --offline --locked --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/sla-serve" "$@"
