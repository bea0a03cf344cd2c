#!/usr/bin/env bash
# Build the benchmark from source and run it. All arguments go to the
# binary (see README.md):
#   run.sh                         every workload, both ways, full report
#   run.sh --workload W --seed N --seconds S --trace 0|1     one measurement
#   run.sh --selfcheck             two short sets must agree
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# the build log goes to stderr: stdout ends with the result line
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
exec "$target/release/dip-benchmark" --out "$here/out" "$@"
