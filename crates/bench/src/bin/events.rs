//! Regenerates the **event-count** snapshot: how many events the
//! simulator dispatches per workload message, in total and per event
//! type, for the four shapes the benchmark runs.
//!
//! The counts are exact and repeat bit for bit (the simulator is
//! deterministic), so CI gates them `--exact`: one extra event per cell
//! moves `<shape>.events_per_msg`, where a wall-clock events/s headline
//! would vanish into scheduler noise. A change that means to move a count
//! regenerates the baseline and says why, as routing single-feeder cells
//! when they are sent did for `pairs32` (378 → 191 events per message),
//! and then cell trains, one `CellArrival` per run of a PDU's cells at
//! its receiver, did again (191 → 6 at this length, two arrival events
//! per PDU; 7.89 at the benchmark's full length, 3.89 per PDU).
//!
//! Each shape runs the benchmark's own configuration at its `--quick`
//! length (seed 42) through `Scenario::run`: the bin compiles
//! `benchmark/src/workload.rs` itself, so the shapes are the benchmark's
//! by construction:
//!
//! * `rx_stream`: `RxBench`, 16 KB UDP/IP messages into one DS5000/200;
//! * `pingpong`: `Pair`, 1-byte round trips, the client writing each
//!   message first (a message is one round trip);
//! * `incast64_lossy`: `Incast { senders: 64 }`, reliable 1 KB messages
//!   under 1 % cell loss through the bounded switch;
//! * `pairs32`: `ManyPairs { pairs: 32 }`, lossless 8 KB streams.
//!
//! Writes the snapshot when `--bench-out` is given.

use osiris_bench::{bench_out_path, BenchSnapshot, Better};

// The bin uses only the workload table, not every helper the benchmark
// needs, hence the allow on this one item.
#[allow(dead_code)]
#[path = "../../../../benchmark/src/workload.rs"]
mod workload;

use workload::Workload;

/// The seed the benchmark uses by default.
const SEED: u64 = 42;

fn main() {
    const PREFIX: &str = "engine.dispatch.";
    let mut snap = BenchSnapshot::new("events");
    println!(
        "{:<16} {:>9} {:>14}  per type",
        "shape", "events", "events/msg"
    );
    for w in Workload::ALL {
        let name = w.name();
        let length = w.length(true);
        let (scenario, cfg) = w.build(SEED, length);
        let messages = w.messages(length);
        let out = scenario.run(cfg);
        assert!(out.done, "{name} did not complete");
        assert_eq!(out.verify_failures, 0, "{name} delivered corrupt data");
        let per_msg = out.dispatched as f64 / messages as f64;
        snap.headline(
            &format!("{name}.events_per_msg"),
            per_msg,
            "count",
            Better::Lower,
        );
        let mut types = String::new();
        for (path, &n) in out.snapshot.counters.range(PREFIX.to_string()..) {
            let Some(kind) = path.strip_prefix(PREFIX) else {
                break;
            };
            snap.headline(
                &format!("{name}.dispatch.{kind}"),
                n as f64,
                "count",
                Better::Lower,
            );
            if n > 0 {
                types.push_str(&format!(" {kind}={n}"));
            }
        }
        println!("{name:<16} {:>9} {per_msg:>14.2} {types}", out.dispatched);
    }
    if let Some(path) = bench_out_path() {
        std::fs::write(&path, snap.to_json()).expect("write bench snapshot");
        eprintln!("wrote {path}");
    }
}
