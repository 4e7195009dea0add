//! Quickstart: measure what the paper measured, in a dozen lines each.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the §4 testbed — two DECstation 5000/200s with OSIRIS boards
//! linked back-to-back — and runs one latency and one throughput
//! experiment on it, then switches machines to the DEC 3000/600.
//!
//! Pass `--trace-out trace.json` to additionally record one traced
//! ping-pong on the typed timeline and write it as Chrome trace-event
//! JSON (load it in `chrome://tracing` or Perfetto).
//!
//! Pass `--pdu-trace` to run one traced ping-pong and print the ping
//! PDU's full causal span tree (send → fragmentation → DMA → lanes →
//! reassembly → interrupt → delivery) plus its per-stage latency
//! attribution, which sums exactly to the measured end-to-end latency.

use osiris::board::dma::DmaMode;
use osiris::config::{TestbedConfig, TouchMode};
use osiris::experiments::{receive_throughput, round_trip_latency};
use osiris::report;
use osiris::sim::{CriticalPath, SimTime, Simulation};
use osiris::testbed::{Event, NodeId};
use osiris::Scenario;

/// Runs one 1 KB ping-pong with the timeline enabled and writes the
/// Chrome trace-event JSON document to `path`.
fn dump_chrome_trace(path: &str) {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 1;
    let tb = Scenario::Pair.build(cfg);
    tb.timeline.set_enabled(true);
    let mut sim = Simulation::new(tb);
    sim.model.schedule(
        &mut sim.queue,
        SimTime::ZERO,
        Event::AppSend { host: NodeId(0) },
    );
    assert!(sim.run_while(|m| !m.done), "traced ping did not complete");
    let doc = sim.model.timeline.to_chrome_json().render_pretty();
    std::fs::write(path, doc).expect("write trace file");
    println!(
        "wrote {} timeline events to {path} (open in chrome://tracing or Perfetto)",
        sim.model.timeline.events().len()
    );
}

/// Runs one traced 16 KB ping-pong and prints the ping PDU's whole
/// causal path: the span tree across every layer, then the per-stage
/// attribution summing to the measured end-to-end latency.
fn print_pdu_trace() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 1;
    let tb = Scenario::Pair.build(cfg);
    tb.timeline.set_enabled(true);
    let mut sim = Simulation::new(tb);
    sim.model.schedule(
        &mut sim.queue,
        SimTime::ZERO,
        Event::AppSend { host: NodeId(0) },
    );
    assert!(sim.run_while(|m| !m.done), "traced ping did not complete");
    let paths = CriticalPath::analyze_all(&sim.model.timeline);
    let ping = paths
        .iter()
        .find(|p| p.ctx.host == 0)
        .expect("traced ping PDU");
    println!("one 1 KB UDP/IP datagram, node 0 -> node 1 (DEC 5000/200 pair):\n");
    print!("{}", ping.render_tree());
    println!("\nwhere the time went:");
    print!("{}", ping.render_stage_table());
    if let Some(warn) = report::dropped_spans_warning(&sim.model.snapshot()) {
        println!("{warn}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--trace-out") {
        let path = args.get(i + 1).expect("--trace-out needs a file path");
        dump_chrome_trace(path);
        return;
    }
    if args.iter().any(|a| a == "--pdu-trace") {
        print_pdu_trace();
        return;
    }
    // ── Round-trip latency (Table 1 style) ─────────────────────────────
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 16;
    cfg.touch = TouchMode::WritePerMessage;
    let lat = round_trip_latency(&cfg);
    println!(
        "UDP/IP round trip, 1 KB messages, DEC 5000/200 pair: {:.0} us (paper: 659 us)",
        lat.mean_us()
    );

    // ── Receive-side throughput (Figure 2 style) ───────────────────────
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 64 * 1024;
    cfg.messages = 16;
    cfg.warmup = 3;
    let single = receive_throughput(&cfg);
    cfg.rx_dma = DmaMode::DoubleCell;
    let double = receive_throughput(&cfg);
    println!(
        "Receive throughput, 64 KB messages: single-cell DMA {:.0} Mbps, double-cell {:.0} Mbps",
        single.mbps, double.mbps
    );
    println!(
        "Interrupts per delivered PDU: {:.2} (the §2.1.2 suppression at work)",
        single.interrupts_per_pdu
    );

    // ── Same experiment, next-generation workstation ───────────────────
    let mut cfg = TestbedConfig::dec3000_600_udp();
    cfg.msg_size = 64 * 1024;
    cfg.messages = 16;
    cfg.warmup = 3;
    cfg.rx_dma = DmaMode::DoubleCell;
    let alpha = receive_throughput(&cfg);
    println!(
        "DEC 3000/600 with double-cell DMA: {:.0} Mbps — approaching the 516 Mbps link payload",
        alpha.mbps
    );
}
