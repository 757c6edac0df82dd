#!/usr/bin/env bash
# Build the benchmark and the tf-serve binary it drives (release, offline),
# then run one workload:
#   bash tfbench/run.sh --workload W --seed S --seconds N --trace 0|1
# Run it from the repository root. Binaries land in $CARGO_TARGET_DIR, or
# in tfbench/target when that is unset.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" -p tfbench -p tf-serve
exec "${CARGO_TARGET_DIR:-$dir/target}/release/tfbench" run "$@"
