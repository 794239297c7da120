#!/bin/sh
# Builds the `fairank` server and the benchmark from the checkout's
# sources, then runs the benchmark with the arguments given, e.g.
#   sh perfbench/run.sh --workload quantify-wide --seed 1 --seconds 20 --trace 0
# Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build).
set -e
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p fairank-cli --bin fairank >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/fairank" "$@"
