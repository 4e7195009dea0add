#!/usr/bin/env bash
# Offline-safe CI gate: format, lint, build, test, and a smoke run.
# Everything here works with zero network access — the workspace has no
# external dependencies by design.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings)"
# A deleted item leaves doc links to it behind, and a public doc may not
# link a private item; rustdoc reports both, and the step makes them fatal.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> benchmark package: fmt, clippy, tests"
# benchmark/ is a workspace of its own, so `--all` and `--workspace`
# above never reach it. Linting it here catches a library API change
# that breaks the benchmark before the benchmark run does.
cargo fmt --manifest-path benchmark/Cargo.toml -- --check
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> smoke: every example"
# Each example runs in well under a second; one that panics fails here.
for ex in examples/*.rs; do
  name="$(basename "$ex" .rs)"
  echo "--> example $name"
  cargo run --release -q --example "$name"
done

echo "==> smoke: Chrome trace export round-trip"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q --example quickstart -- --trace-out "$tmp/trace.json"
test -s "$tmp/trace.json"
# A dropped-span export leads with a "partial export" instant; the
# report footer only WARNs, so the gate turns it into a hard failure.
if grep -q '"partial export"' "$tmp/trace.json"; then
  echo "FAIL: trace export was partial (timeline ring dropped spans)" >&2
  exit 1
fi

echo "==> smoke: telemetry plane (sampled incast, series + counter trace)"
# The run writes a series document (archived with the bench snapshots)
# and a Chrome trace with the sampled counter tracks merged into the
# span timeline.
mkdir -p target/bench
cargo run --release -q --example quickstart -- --sample-every 100us --senders 64 \
  --series-out target/bench/BENCH_series.json --trace-out "$tmp/telemetry.json"
test -s target/bench/BENCH_series.json
grep -q '"ph": "C"' "$tmp/telemetry.json"
if grep -q '"partial export"' "$tmp/telemetry.json"; then
  echo "FAIL: telemetry trace export was partial (timeline ring dropped spans)" >&2
  exit 1
fi
# Ring evictions would silently truncate the series' early windows;
# obs.samples_dropped makes that visible and the gate makes it fatal.
if ! grep -q '"samples_dropped": 0' target/bench/BENCH_series.json; then
  echo "FAIL: telemetry series rings evicted samples (obs.samples_dropped != 0)" >&2
  exit 1
fi

echo "==> smoke: bench snapshot + regression gate (fig2 --quick)"
# The simulator is deterministic, so the quick sweep reproduces the
# committed baseline exactly, and the gate is exact: any change to a
# headline, a series point or a stage row fails and prints the diff (a
# change that moves a result regenerates the baseline and says why).
# Snapshots land in target/bench so the workflow can archive them.
mkdir -p target/bench
cargo run --release -q -p osiris-bench --bin fig2 -- --quick --bench-out target/bench/BENCH_fig2.json
test -s target/bench/BENCH_fig2.json
cargo run --release -q -p osiris-bench --bin regress -- \
  crates/bench/baselines/BENCH_fig2.json target/bench/BENCH_fig2.json --exact

echo "==> paper bins + regression gates (table1, fig3, fig4, lessons, ablation)"
# The bins that reproduce the paper's Table 1, Figures 3 and 4, the §4
# narrative and the feature ablation run in well under a second each at
# full length, so each is gated exactly against its committed baseline:
# a calibration or datapath change that moves any paper number fails
# here and prints the diff.
for bin in table1 fig3 fig4 lessons ablation; do
  cargo run --release -q -p osiris-bench --bin "$bin" -- --bench-out "target/bench/BENCH_$bin.json" > /dev/null
  test -s "target/bench/BENCH_$bin.json"
  cargo run --release -q -p osiris-bench --bin regress -- \
    "crates/bench/baselines/BENCH_$bin.json" "target/bench/BENCH_$bin.json" --exact
done

echo "==> smoke: loss sweep + regression gate (loss --quick)"
# Fault-plane gate: goodput under seeded cell loss, the recovery tail
# and the give-up count are locked exactly, as for fig2.
cargo run --release -q -p osiris-bench --bin loss -- --quick --bench-out target/bench/BENCH_loss.json
test -s target/bench/BENCH_loss.json
cargo run --release -q -p osiris-bench --bin regress -- \
  crates/bench/baselines/BENCH_loss.json target/bench/BENCH_loss.json --exact

echo "==> smoke: congestion-control smoke (cc --quick)"
# Fast sanity pass: one small lossy incast per scheme, with the bench's
# built-in assertion that every selective-repeat scheme converges.
cargo run --release -q -p osiris-bench --bin cc -- --quick > /dev/null

echo "==> congestion-control matrix + regression gate (cc, full)"
# The full matrix is virtual-time, deterministic, and cheap (~4 s), so
# the gate locks it exactly: at 64 senders and 1% cell loss the best
# selective-repeat scheme's goodput and tail and the stop-and-wait
# collapse ratio may not move at all.
cargo run --release -q -p osiris-bench --bin cc -- --bench-out target/bench/BENCH_cc.json > /dev/null
test -s target/bench/BENCH_cc.json
cargo run --release -q -p osiris-bench --bin regress -- \
  crates/bench/baselines/BENCH_cc.json target/bench/BENCH_cc.json --exact

echo "==> event counts + regression gate (events)"
# Events dispatched per workload message, in total and per event type,
# for the benchmark's four shapes at quick length. The counts are exact,
# so the gate is too: one extra event per cell fails it, where the
# wall-clock rx-bench headlines it replaces moved 3x between runs.
cargo run --release -q -p osiris-bench --bin events -- --bench-out target/bench/BENCH_events.json > /dev/null
test -s target/bench/BENCH_events.json
cargo run --release -q -p osiris-bench --bin regress -- \
  crates/bench/baselines/BENCH_events.json target/bench/BENCH_events.json --exact

echo "==> smoke: event-engine throughput gate (engine --quick)"
# Unlike fig2/loss, these headlines are wall-clock (events/sec), so the
# threshold is generous — the gate exists to catch order-of-magnitude
# regressions (e.g. the event queue degenerating to O(n) pops), not
# scheduler jitter. The queue_speedup ratio (radix heap over a reference
# binary heap, same run) is the stable signal.
cargo run --release -q -p osiris-bench --bin engine -- --quick --bench-out target/bench/BENCH_engine.json
test -s target/bench/BENCH_engine.json
cargo run --release -q -p osiris-bench --bin regress -- \
  crates/bench/baselines/BENCH_engine.json target/bench/BENCH_engine.json --threshold 50

echo "==> smoke: per-module sampler (scripts/profile, one rx_stream child)"
# The in-tree profiler must keep attributing the receive path: one
# full-length rx_stream child gives about 100 in-loop samples, and the
# board's receive module must hold a nonzero share of them.
scripts/profile/profile.sh rx_stream | tee "$tmp/profile.txt"
if ! grep -Eq '^board/rx +[1-9]' "$tmp/profile.txt"; then
  echo "FAIL: the sampler attributed no samples to board/rx" >&2
  exit 1
fi

echo "CI OK"
