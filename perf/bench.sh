#!/usr/bin/env bash
# Builds dvs-serve (from the repository workspace) and dvs-perf (this
# package) in release mode, then runs dvs-perf with the given arguments.
# Run from the repository root, e.g.
#   bash perf/bench.sh --workload sweep_fig10 --seed 42 --seconds 20 --trace 0
#   bash perf/bench.sh run --seed 42 --seconds 20
#   bash perf/bench.sh compare PARENT.jsonl CHANGE.jsonl
# Build output goes to $CARGO_TARGET_DIR (default: target/); stores and
# trace files go to its perf/ subdirectory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
case "$CARGO_TARGET_DIR" in
  /*) ;;
  *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
cargo build --offline --release --quiet --manifest-path "$root/Cargo.toml" -p dvs-serve >&2
cargo build --offline --release --quiet --manifest-path "$root/perf/Cargo.toml" >&2
perf="$CARGO_TARGET_DIR/release/dvs-perf"
if [ "${1:-}" = compare ]; then
  exec "$perf" "$@"
fi
exec "$perf" "$@" \
  --serve-bin "$CARGO_TARGET_DIR/release/dvs-serve" \
  --out-dir "$CARGO_TARGET_DIR/perf"
