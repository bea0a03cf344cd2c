#!/usr/bin/env bash
# A/B two revisions with this checkout's benchmark code:
#   ab.sh <rev-a> <rev-b> [--workload W] [--pairs 10]
# Each revision's tree is exported (git archive) under out/ab/, its
# benchmark/ replaced by this one, and built once. Runs (of the benchmark's
# own length, run_seconds) alternate in pairs, who goes first flips every
# pair, every pair takes a new seed. Prints
# per-side median and quartiles, the win fraction and the verdict of the
# choosing-metrics guide (>= 9/10 wins and a median gap beyond A's own
# inter-quartile range; otherwise "unresolved"). Exits 1 if a run was
# incorrect: a gain does not count when more operations fail.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(cd "$here/.." && pwd)"
[ $# -ge 2 ] || { echo "usage: ab.sh <rev-a> <rev-b> [--workload W] [--pairs N]" >&2; exit 2; }
rev_a="$1"; rev_b="$2"; shift 2
workload="fed_d05"; pairs=10
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        *) echo "ab.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

ab="$here/out/ab"
rm -rf "$ab"
mkdir -p "$ab"
for side in a b; do
    rev_var="rev_$side"
    tree="$ab/$side"
    mkdir -p "$tree"
    git -C "$repo" archive "${!rev_var}" | tar -x -C "$tree"
    # identical benchmark code on both sides
    rm -rf "$tree/benchmark"
    mkdir -p "$tree/benchmark"
    cp -r "$here/Cargo.toml" "$here/Cargo.lock" "$here/src" "$tree/benchmark/"
    echo "ab.sh: building $side = ${!rev_var}" >&2
    CARGO_TARGET_DIR="$ab/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$tree/benchmark/Cargo.toml" 1>&2
done

run() { # side seed; an incorrect run exits 1 after its result line, which the report counts
    { "$ab/target-$1/release/dip-benchmark" --out "$ab/out-$1" --workload "$workload" \
        --seed "$2" --trace 0 || [ $? -eq 1 ]; } | tail -n 1 >> "$ab/$1.jsonl"
}
for ((i = 1; i <= pairs; i++)); do
    echo "ab.sh: pair $i/$pairs" >&2
    if ((i % 2)); then run a "$i"; run b "$i"; else run b "$i"; run a "$i"; fi
done
echo "workload $workload, $pairs pairs; A = $rev_a, B = $rev_b"
exec "$ab/target-b/release/dip-benchmark" --ab-report "$ab/a.jsonl" "$ab/b.jsonl"
