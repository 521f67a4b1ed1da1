#!/usr/bin/env bash
# Builds the release `symloc` binary and the benchmark harness from the
# checkout, then runs the harness. Run from the repository root:
#
#   bash symbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates || ! -f symbench/Cargo.toml ]]; then
    echo "symbench: run from the repository root (Cargo.toml, crates/ and symbench/ needed)" >&2
    exit 2
fi

# Both builds share one target directory (the harness is its own workspace).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet --bin symloc >&2
cargo build --release --offline --quiet --manifest-path symbench/Cargo.toml >&2
exec "$target/release/symbench" --symloc "$target/release/symloc" "$@"
