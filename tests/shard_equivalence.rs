//! The sharded engine's contract, end to end: running any scenario
//! under N shards produces **byte-identical** semantic results to the
//! single-threaded engine — same registry snapshot (minus the
//! partition-scoped cell-arena placement metrics), same goodput line,
//! same event counts. Not statistically close: byte-equal.
//!
//! This is the system-level companion to the ordering property tests in
//! `crates/sim/src/pdes.rs`: those prove the `(time, PushKey)` order is
//! partition-invariant in isolation; this one proves the whole stack —
//! per-node RNG and fault streams, striped links, the stateful switch,
//! reassembly, retransmission, metering — observes no difference.

use osiris::config::TestbedConfig;
use osiris::proto::stack::CcScheme;
use osiris::shard::RunOutcome;
use osiris::Scenario;

fn run(scenario: Scenario, mut cfg: TestbedConfig, shards: usize) -> RunOutcome {
    cfg.sim.shards = shards;
    let out = scenario.run(cfg);
    assert!(out.done, "{scenario:?} under {shards} shard(s) completed");
    assert_eq!(
        out.verify_failures, 0,
        "{scenario:?} under {shards} shard(s): payload verify"
    );
    out
}

/// Asserts shards ∈ {2, 4} byte-match the single-threaded reference
/// for one (scenario, cfg) point.
fn assert_equivalent(scenario: Scenario, cfg: TestbedConfig) {
    let reference = run(scenario, cfg.clone(), 1);
    let ref_json = reference.semantic_snapshot().to_json().render_pretty();
    let ref_line = reference.goodput_line();
    for shards in [2usize, 4] {
        let sharded = run(scenario, cfg.clone(), shards);
        assert_eq!(
            ref_json,
            sharded.semantic_snapshot().to_json().render_pretty(),
            "{scenario:?}: semantic snapshot diverged at {shards} shards \
             (seed {})",
            cfg.seed,
        );
        assert_eq!(
            ref_line,
            sharded.goodput_line(),
            "{scenario:?}: goodput line diverged at {shards} shards"
        );
        assert_eq!(reference.scheduled, sharded.scheduled, "{scenario:?}");
        assert_eq!(reference.dispatched, sharded.dispatched, "{scenario:?}");
        assert_eq!(reference.delivered, sharded.delivered, "{scenario:?}");
        assert_eq!(
            reference.last_event_time, sharded.last_event_time,
            "{scenario:?}"
        );
    }
}

#[test]
fn pair_is_byte_identical_across_shard_counts() {
    for seed in [1u64, 42] {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 8 * 1024;
        cfg.messages = 4;
        cfg.seed = seed;
        assert_equivalent(Scenario::Pair, cfg);
    }
}

#[test]
fn switched_pair_is_byte_identical_across_shard_counts() {
    // The stateful-switch variant of Pair: routing now happens at
    // arrival time on the receiver's shard.
    for seed in [1u64, 42] {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 8 * 1024;
        cfg.messages = 4;
        cfg.seed = seed;
        cfg.switched_fabric = true;
        cfg.reassembly = osiris::atm::sar::ReassemblyMode::FourWay { lanes: 4 };
        assert_equivalent(Scenario::Pair, cfg);
    }
}

#[test]
fn incast_is_byte_identical_across_shard_counts() {
    // 16 senders onto one receiver: the receiver's shard carries the
    // switch fan-in state while sender shards race ahead.
    for seed in [1u64, 42] {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 4 * 1024;
        cfg.messages = 2;
        cfg.seed = seed;
        cfg.reassembly = osiris::atm::sar::ReassemblyMode::FourWay { lanes: 4 };
        assert_equivalent(Scenario::Incast { senders: 16 }, cfg);
    }
}

#[test]
fn fanout_is_byte_identical_across_shard_counts() {
    // One source spraying 8 receivers over raw ATM: cross-shard
    // traffic in the opposite direction from incast.
    for seed in [1u64, 42] {
        let mut cfg = TestbedConfig::ds5000_200_atm();
        cfg.msg_size = 4 * 1024;
        cfg.messages = 3;
        cfg.seed = seed;
        assert_equivalent(Scenario::FanOut { receivers: 8 }, cfg);
    }
}

#[test]
fn many_pairs_is_byte_identical_across_shard_counts() {
    // The scale bench's workload: round-robin sharding splits every
    // source from its sink, so all payload traffic crosses shards.
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 4 * 1024;
    cfg.messages = 2;
    cfg.reassembly = osiris::atm::sar::ReassemblyMode::FourWay { lanes: 4 };
    assert_equivalent(Scenario::ManyPairs { pairs: 4 }, cfg);
}

#[test]
fn incast_64_sharded_matches_single_threaded() {
    // The acceptance point from the issue: a 64-sender switched incast,
    // sharded, must byte-match the single-threaded run.
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 2 * 1024;
    cfg.messages = 1;
    cfg.reassembly = osiris::atm::sar::ReassemblyMode::FourWay { lanes: 4 };
    // 64 concurrent PDUs overrun even a maxed-out 63-buffer free ring;
    // reliable mode reaps and retransmits whatever the overrun sheds,
    // which doubles as a recovery-path equivalence check.
    cfg.rx_buffers = 63;
    cfg.reliable = true;
    cfg.reassembly_timeout = Some(osiris::sim::SimDuration::from_us(1000));
    let scenario = Scenario::Incast { senders: 64 };
    let reference = run(scenario, cfg.clone(), 1);
    let sharded = run(scenario, cfg, 2);
    assert_eq!(reference.delivered, 64, "one message per sender");
    assert_eq!(
        reference.semantic_snapshot().to_json().render_pretty(),
        sharded.semantic_snapshot().to_json().render_pretty(),
        "64-sender incast snapshot diverged under sharding"
    );
    assert_eq!(reference.goodput_line(), sharded.goodput_line());
}

/// The CC matrix's workload shape: a reliable selective-repeat incast
/// through the bounded switch (512 cells, ECN threshold 128) at 1% cell
/// loss, with FourWay reassembly and a 1 ms reap timeout.
fn lossy_incast_cfg(cc: CcScheme, messages: u64, window: u32) -> TestbedConfig {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = messages;
    cfg.window = window;
    cfg.reliable = true;
    cfg.transport = osiris::proto::stack::TransportMode::SelectiveRepeat;
    cfg.cc = cc;
    cfg.reassembly = osiris::atm::sar::ReassemblyMode::FourWay { lanes: 4 };
    cfg.reassembly_timeout = Some(osiris::sim::SimDuration::from_us(1000));
    cfg.ecn_threshold_cells = Some(128);
    cfg.sim.faults.switch_max_queue_cells = Some(512);
    let plan = osiris::sim::FaultPlan::uniform_loss(1e-2, 4, cfg.seed);
    cfg.sim.faults.lane_drop_prob = plan.lane_drop_prob;
    cfg.sim.faults.seed = cfg.seed;
    cfg
}

#[test]
fn lossy_windowed_incast_is_byte_identical_across_shard_counts() {
    // The CC matrix's workload shape, sharded, with ECN marking. Block
    // acks, SACK retransmits, window deferral, ECN halving and the
    // reap/retransmit recovery path must all replay bit-identically
    // however the nodes are partitioned.
    assert_equivalent(
        Scenario::Incast { senders: 8 },
        lossy_incast_cfg(CcScheme::Ecn, 4, 8),
    );
}

#[test]
fn lossy_paced_incast_is_byte_identical_across_shard_counts() {
    // The same shape under receiver-driven pacing. `RetransTick` is then
    // also the pacing-release timer: a tick with no RTO due still admits
    // deferred datagrams, the path most sensitive to which ticks the
    // testbed keeps queued. At 16 messages per sender the window (8)
    // fills, acks advertise a pacing gap, and deferred datagrams leave
    // on pacing releases: the run delivers 20.4 Mbps here against 14.4
    // without pacing.
    assert_equivalent(
        Scenario::Incast { senders: 8 },
        lossy_incast_cfg(CcScheme::Pacing, 16, 8),
    );
}

#[test]
fn faulty_pair_is_byte_identical_across_shard_counts() {
    // Loss + retransmission under sharding: the per-node fault streams
    // are pure functions of (plan.seed, node), so drops and corruptions
    // land on the same cells however the nodes are partitioned.
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 8 * 1024;
    cfg.messages = 4;
    cfg.reliable = true;
    cfg.reassembly_timeout = Some(osiris::sim::SimDuration::from_us(1000));
    cfg.sim.faults.lane_drop_prob = vec![1e-3; 4];
    cfg.sim.faults.lane_corrupt_prob = vec![1e-4; 4];
    cfg.sim.faults.seed = 7;
    assert_equivalent(Scenario::Pair, cfg);
}
