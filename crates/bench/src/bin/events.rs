//! Regenerates the **event-count** snapshot: how many events the
//! simulator dispatches per workload message, in total and per event
//! type, for the four shapes the benchmark runs.
//!
//! The counts are exact and repeat bit for bit (the simulator is
//! deterministic), so CI gates them `--exact`: one extra event per cell
//! moves `<shape>.events_per_msg`, where a wall-clock events/s headline
//! would vanish into scheduler noise. A change that means to move a count
//! regenerates the baseline and says why, as routing single-feeder cells
//! when they are sent did for `pairs32` (378 → 191 events per message).
//!
//! Each shape runs the benchmark's configuration at its `--quick` length
//! (seed 42) through `Scenario::run`. The configurations and lengths are
//! copies of `benchmark/src/workload.rs` (`Workload::build` and
//! `Workload::length(true)`), which this crate cannot depend on; nothing
//! checks that the two agree, so a change to either must change both:
//!
//! * `rx_stream`: `RxBench`, 16 KB UDP/IP messages into one DS5000/200;
//! * `pingpong`: `Pair`, 1-byte round trips, the client writing each
//!   message first (a message is one round trip);
//! * `incast64_lossy`: `Incast { senders: 64 }`, reliable 1 KB messages
//!   under 1 % cell loss through the bounded switch;
//! * `pairs32`: `ManyPairs { pairs: 32 }`, lossless 8 KB streams.
//!
//! Writes the snapshot when `--bench-out` is given.

use osiris::atm::sar::ReassemblyMode;
use osiris::config::{TestbedConfig, TouchMode};
use osiris::proto::stack::CcScheme;
use osiris::sim::{FaultPlan, SimDuration};
use osiris::Scenario;
use osiris_bench::{bench_out_path, BenchSnapshot, Better};

/// The seed the benchmark uses by default.
const SEED: u64 = 42;

/// One shape: its name, scenario, configuration and workload messages.
/// Mirrors `benchmark/src/workload.rs::{Workload::build, Workload::length}`
/// at quick length; keep the two equal by hand.
fn shapes() -> Vec<(&'static str, Scenario, TestbedConfig, u64)> {
    let base = |messages| {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.seed = SEED;
        cfg.messages = messages;
        cfg.warmup = 0;
        cfg
    };
    let mut rx = base(70);
    rx.msg_size = 16 * 1024;

    let mut pingpong = base(1000);
    pingpong.msg_size = 1;
    pingpong.touch = TouchMode::WritePerMessage;

    let mut incast = base(2);
    incast.msg_size = 1024;
    incast.reliable = true;
    incast.cc = CcScheme::Ecn;
    incast.window = 4;
    incast.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    incast.reassembly_timeout = Some(SimDuration::from_us(1000));
    incast.sim.faults = FaultPlan::uniform_loss(0.01, 4, SEED);
    incast.sim.faults.switch_max_queue_cells = Some(512);
    incast.ecn_threshold_cells = Some(128);

    let mut pairs = base(2);
    pairs.msg_size = 8 * 1024;
    pairs.reassembly = ReassemblyMode::FourWay { lanes: 4 };

    vec![
        ("rx_stream", Scenario::RxBench, rx, 70),
        ("pingpong", Scenario::Pair, pingpong, 1000),
        (
            "incast64_lossy",
            Scenario::Incast { senders: 64 },
            incast,
            2 * 64,
        ),
        ("pairs32", Scenario::ManyPairs { pairs: 32 }, pairs, 2 * 32),
    ]
}

fn main() {
    const PREFIX: &str = "engine.dispatch.";
    let mut snap = BenchSnapshot::new("events");
    println!(
        "{:<16} {:>9} {:>14}  per type",
        "shape", "events", "events/msg"
    );
    for (name, scenario, cfg, messages) in shapes() {
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
