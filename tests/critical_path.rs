//! Per-PDU causal-tracing invariants.
//!
//! Whatever the topology (Pair, Incast, ManyPairs), the layer (raw ATM or
//! UDP/IP), and the message size (single- or multi-fragment), every
//! traced PDU must satisfy:
//!
//! 1. **Exact attribution**: the critical-path stage durations sum to
//!    the PDU's observed end-to-end latency, picosecond for picosecond
//!    (gaps are attributed to the stage the PDU was waiting on).
//! 2. **Resource exclusivity**: spans of one PDU on one track (one
//!    resource: a DMA engine, a lane, the protocol CPU) never overlap —
//!    touching endpoints are allowed.

use std::collections::HashMap;

use osiris::config::TestbedConfig;
use osiris::scenario::Scenario;
use osiris::sim::{CriticalPath, Stage, TimelineEvent};
use osiris::Testbed;

fn run(scenario: Scenario, cfg: TestbedConfig) -> Testbed {
    let mut sim = scenario.launch(cfg);
    sim.model.timeline.set_enabled(true);
    assert!(sim.run_while(|m| !m.done), "scenario did not complete");
    assert_eq!(sim.model.verify_failures, 0);
    sim.model
}

/// The two tracing invariants, checked over every traced PDU in a run.
fn assert_trace_invariants(tb: &Testbed, min_paths: usize) {
    assert_eq!(
        tb.timeline.dropped(),
        0,
        "timeline evicted spans; grow timeline_capacity for this workload"
    );
    let paths = CriticalPath::analyze_all(&tb.timeline);
    assert!(
        paths.len() >= min_paths,
        "expected at least {min_paths} traced PDUs, got {}",
        paths.len()
    );
    for p in &paths {
        // 1. Stages tile the end-to-end window exactly.
        assert_eq!(
            p.stage_sum().as_ps(),
            p.total().as_ps(),
            "ctx {}: stage durations must sum to e2e latency\n{}",
            p.ctx,
            p.render_stage_table()
        );
        // 2. Per-resource exclusivity.
        let mut by_track: HashMap<&str, Vec<&TimelineEvent>> = HashMap::new();
        for s in &p.spans {
            by_track.entry(s.track.as_str()).or_default().push(s);
        }
        for (track, mut spans) in by_track {
            spans.sort_by_key(|s| (s.at, s.end()));
            for w in spans.windows(2) {
                assert!(
                    w[0].end() <= w[1].at,
                    "ctx {}: spans overlap on {track}: {:?}[{}..{}] vs {:?}[{}..{}]",
                    p.ctx,
                    w[0].name,
                    w[0].at,
                    w[0].end(),
                    w[1].name,
                    w[1].at,
                    w[1].end()
                );
            }
        }
    }
}

#[test]
fn pair_udp_single_fragment() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1000;
    cfg.messages = 3;
    let tb = run(Scenario::Pair, cfg);
    // 3 pings + 3 pongs, each one datagram.
    assert_trace_invariants(&tb, 6);
}

#[test]
fn pair_udp_multi_fragment() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 50_000; // 4 fragments per datagram
    cfg.messages = 2;
    let tb = run(Scenario::Pair, cfg);
    assert_trace_invariants(&tb, 4);
}

#[test]
fn pair_raw_atm() {
    let mut cfg = TestbedConfig::ds5000_200_atm();
    cfg.msg_size = 4096;
    cfg.messages = 3;
    let tb = run(Scenario::Pair, cfg);
    assert_trace_invariants(&tb, 6);
}

#[test]
fn pair_switched_fabric_has_switch_stage() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 8192;
    cfg.messages = 2;
    let tb = run(Scenario::ManyPairs { pairs: 1 }, cfg);
    assert_trace_invariants(&tb, 2);
    let paths = CriticalPath::analyze_all(&tb.timeline);
    assert!(
        paths
            .iter()
            .any(|p| p.stage(Stage::SwitchQueue).as_ps() > 0),
        "a switched pair must attribute some time to switch queueing"
    );
}

#[test]
fn incast_fans_in_with_exact_attribution() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 8192;
    cfg.messages = 2;
    cfg.reassembly = osiris::atm::sar::ReassemblyMode::FourWay { lanes: 4 };
    let tb = run(Scenario::Incast { senders: 3 }, cfg);
    // 3 senders × 2 messages.
    assert_trace_invariants(&tb, 6);
}

/// Every `switch.q` span of a 4-sender incast sits on the track of the
/// switch port that feeds the receiver (node 4): the only output port
/// the senders' cells cross.
#[test]
fn incast_switch_spans_stay_on_the_receiver_port_track() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 8192;
    cfg.messages = 2;
    cfg.reassembly = osiris::atm::sar::ReassemblyMode::FourWay { lanes: 4 };
    let tb = run(Scenario::Incast { senders: 4 }, cfg);
    assert_eq!(tb.timeline.dropped(), 0);
    let switch_spans: Vec<TimelineEvent> = tb
        .timeline
        .events()
        .into_iter()
        .filter(|e| e.name == "switch.q")
        .collect();
    assert!(!switch_spans.is_empty(), "no switch.q spans");
    for s in &switch_spans {
        assert!(s.dur.is_some(), "switch.q is a span: {s:?}");
        assert_eq!(s.track, "fabric.switch.port4", "{s:?}");
    }
}

#[test]
fn many_pairs_raw_atm_with_exact_attribution() {
    let mut cfg = TestbedConfig::ds5000_200_atm();
    cfg.msg_size = 4096;
    cfg.messages = 4;
    // 2 pairs × 4 messages.
    let tb = run(Scenario::ManyPairs { pairs: 2 }, cfg);
    assert_trace_invariants(&tb, 8);
}

/// The acceptance walk: one Pair datagram's span set names every layer
/// of the path — send, DMA, lanes, reassembly, interrupt wait, driver,
/// delivery — and the big stages all get non-zero attribution.
#[test]
fn one_pdu_crosses_every_layer() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 16 * 1024;
    cfg.messages = 1;
    let tb = run(Scenario::Pair, cfg);
    let paths = CriticalPath::analyze_all(&tb.timeline);
    // The ping datagram from node 0.
    let p = paths
        .iter()
        .find(|p| p.ctx.host == 0)
        .expect("traced ping PDU");
    let names: std::collections::HashSet<&str> = p.spans.iter().map(|s| s.name.as_str()).collect();
    for needle in [
        "app.send",
        "proto.tx",
        "driver.tx",
        "fw.tx",
        "dma.tx",
        "lane.tx",
        "dma.rx",
        "sar.reasm",
        "intr.wait",
        "driver.rx",
        "proto.rx",
        "app.deliver",
    ] {
        assert!(
            names.contains(needle),
            "span tree missing {needle:?}; have {names:?}\n{}",
            p.render_tree()
        );
    }
    for stage in [
        Stage::ProtocolCpu,
        Stage::DmaTransfer,
        Stage::Wire,
        Stage::InterruptDelay,
    ] {
        assert!(
            p.stage(stage).as_ps() > 0,
            "stage {stage} got zero attribution\n{}",
            p.render_stage_table()
        );
    }
}
