#!/usr/bin/env bash
# Gate for the benchmark package itself, fully offline: formatting,
# lints, its unit tests, and a --smoke run of every workload in both
# modes (which runs the output checks, the traced repetitions and the
# probes at a smaller size).
#
# Usage: perf/check.sh   (from anywhere)
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --all-targets -- -D warnings

echo "==> cargo test"
cargo test -q

echo "==> smoke run"
cargo run --release -q -- --smoke
