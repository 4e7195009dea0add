#!/usr/bin/env bash
# Per-module CPU profile of one benchmark workload.
#
#   scripts/profile/profile.sh WORKLOAD [RUNS]
#
# Builds the benchmark with frame pointers and debug info into
# target/profile, runs RUNS (default 1) full-length untraced children of
# WORKLOAD (seed 42) under the SIGPROF sampler in sampler.c, and prints
# each `crates/<crate>/src/<module>`'s share of the samples taken inside
# the simulation loop (`run_to_completion`; set-up is excluded).
#
# Resolution: ITIMER_PROF fires at the kernel tick, so a one-second run
# yields a few hundred samples at most; the report prints the rate it
# got and the share one sample is worth. Add RUNS for finer shares.
set -euo pipefail
cd "$(dirname "$0")/../.."

workload="${1:?usage: profile.sh WORKLOAD [RUNS]}"
runs="${2:-1}"
out_dir=target/profile
mkdir -p "$out_dir"

gcc -O2 -Wall -shared -fPIC -o "$out_dir/sampler.so" scripts/profile/sampler.c
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=true \
  CARGO_TARGET_DIR="$out_dir" \
  cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
bin="$out_dir/release/osiris-benchmark"

samples="$out_dir/$workload.samples"
rm -f "$samples"
start=$(date +%s.%N)
for _ in $(seq "$runs"); do
  SAMPLER_OUT="$samples" LD_PRELOAD="$PWD/$out_dir/sampler.so" \
    "$bin" child --workload "$workload" --seed 42 --mode run > /dev/null
done
end=$(date +%s.%N)
n=$(grep -c '^S ' "$samples" || true)
echo "$workload: $runs run(s), $n samples in $(python3 -c "print(f'{$end - $start:.1f}')") s wall" \
  "= $(python3 -c "print(round($n / ($end - $start)))") Hz"
python3 scripts/profile/symbolize.py "$samples"
