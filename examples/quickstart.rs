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
//!
//! Pass `--sample-every <period>` (`100us`, `2ms`, or a bare number =
//! microseconds) to run an incast with the runtime telemetry plane on:
//! deterministic time-series sampling of the engine's own registry —
//! per-event-type dispatch rates, switch queue high water, slab high water.
//! Prints the per-series summary table. Composes with:
//!
//! * `--senders N` — incast fan-in (default 64);
//! * `--series-out <path>` — write the series (`.csv` → CSV, `.jsonl`
//!   → JSON-lines, anything else → one JSON document);
//! * `--trace-out <path>` — write a Chrome trace: the full span
//!   timeline with the sampled counter tracks merged in.

use osiris::board::dma::DmaMode;
use osiris::config::{TestbedConfig, TouchMode};
use osiris::experiments::{receive_throughput, round_trip_latency};
use osiris::report;
use osiris::sim::{CriticalPath, SimDuration, SimTime, Simulation};
use osiris::testbed::{Event, NodeId};
use osiris::Scenario;
use osiris::{run_sampled, Sampler};

/// Runs one 1 KB ping-pong with the timeline enabled and writes the
/// Chrome trace-event JSON document to `path`.
fn dump_chrome_trace(path: &str) {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 1;
    let tb = Scenario::Pair.build(cfg);
    tb.timeline.set_enabled(true);
    let mut sim = Simulation::new(tb);
    sim.queue
        .push(SimTime::ZERO, Event::AppSend { host: NodeId(0) });
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
    sim.queue
        .push(SimTime::ZERO, Event::AppSend { host: NodeId(0) });
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

/// Parses a `--sample-every` period: `100us`, `2ms`, `500ns`, or a
/// bare number of microseconds.
fn parse_period(s: &str) -> SimDuration {
    let s = s.trim();
    let split = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let n: u64 = s[..split]
        .parse()
        .expect("--sample-every needs a number, e.g. 100us");
    match &s[split..] {
        "" | "us" => SimDuration::from_us(n),
        "ns" => SimDuration::from_ns(n),
        "ms" => SimDuration::from_us(n * 1_000),
        "s" => SimDuration::from_us(n * 1_000_000),
        unit => panic!("unknown --sample-every unit {unit:?} (use ns/us/ms/s)"),
    }
}

/// The telemetry workload: an N-sender switched incast sampled on the
/// `every` grid. Reports the series table, then writes the optional
/// series file and Chrome counter trace.
fn run_telemetry(
    senders: usize,
    every: SimDuration,
    series_out: Option<&str>,
    trace_out: Option<&str>,
) {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 2 * 1024;
    cfg.messages = 1;
    cfg.reassembly = osiris::atm::sar::ReassemblyMode::FourWay { lanes: 4 };
    // At 64-way fan-in even a maxed-out 63-buffer free ring overruns;
    // reliable mode reaps and retransmits what the overrun sheds — the
    // congested regime the telemetry plane is for.
    cfg.rx_buffers = 63;
    cfg.reliable = true;
    cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
    cfg.sim.sample_every = Some(every);
    let out = Scenario::Incast { senders }.run(cfg.clone());
    assert!(out.done, "incast must complete");
    let dump = out.series.as_ref().expect("sampling was on");
    let title = format!(
        "{senders}-sender switched incast, sampled every {:.0} us:",
        every.as_us_f64()
    );
    print!("{}", report::series_summary(&title, dump));
    println!("  {}", out.goodput_line());

    if let Some(path) = series_out {
        let text = if path.ends_with(".csv") {
            dump.to_csv()
        } else if path.ends_with(".jsonl") {
            dump.to_jsonl()
        } else {
            dump.to_json().render_pretty()
        };
        std::fs::write(path, text).expect("write series file");
        println!("wrote {} series to {path}", dump.series.len());
    }

    if let Some(path) = trace_out {
        // Re-run the same deterministic history with the span timeline
        // enabled and merge the sampled counter tracks into the span
        // export — one Chrome document showing both.
        cfg.sim.sample_every = None;
        let mut sim = Scenario::Incast { senders }.launch(cfg);
        sim.model.timeline.set_enabled(true);
        let sampler = Sampler::new(
            &sim.model.registry,
            &sim.model.registry.probe("obs"),
            every,
            sim.model.cfg.sim.series_capacity,
        );
        run_sampled(&mut sim, &sampler);
        let doc = sampler
            .finish(sim.now())
            .merge_into_chrome(sim.model.timeline.to_chrome_json());
        std::fs::write(path, doc.render_pretty()).expect("write trace file");
        println!("wrote counter trace to {path} (open in chrome://tracing or Perfetto)");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--sample-every") {
        let every = parse_period(args.get(i + 1).expect("--sample-every needs a period"));
        let flag_val = |name: &str| {
            args.iter().position(|a| a == name).map(|j| {
                args.get(j + 1)
                    .unwrap_or_else(|| panic!("{name} needs a value"))
            })
        };
        let senders: usize = flag_val("--senders").map_or(64, |v| v.parse().expect("--senders"));
        let series_out = flag_val("--series-out").map(String::as_str);
        let trace_out = flag_val("--trace-out").map(String::as_str);
        run_telemetry(senders, every, series_out, trace_out);
        return;
    }
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
