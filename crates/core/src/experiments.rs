//! Canned experiment runners for every table and figure in §4, plus the
//! "lessons" micro-experiments of §2 and §3. Each returns structured
//! results; `osiris-bench` renders them in the paper's format.

use osiris_atm::sar::ReassemblyMode;
use osiris_board::dma::DmaMode;
use osiris_host::machine::MachineSpec;
use osiris_mem::BusSpec;
use osiris_proto::stack::CcScheme;
use osiris_proto::wire::{IP_HEADER_BYTES, UDP_HEADER_BYTES};
use osiris_sim::obs::Histogram;
use osiris_sim::stats::ThroughputMeter;
use osiris_sim::{CriticalPath, FaultPlan, HistSummary, SimDuration, SimTime, Simulation, Stage};

use crate::config::{Layer, TestbedConfig};
use crate::scenario::Scenario;
use crate::testbed::Testbed;

/// Hard wall for runaway simulations (virtual time).
const DEADLINE: SimTime = SimTime::from_secs(30);

/// Launches `scenario` on `cfg`, arms the goodput meter from
/// `cfg.warmup`, records the timeline if `traced`, and steps until the
/// scenario is done or virtual time passes [`DEADLINE`]. Unlike
/// [`Scenario::run`], it stops at `done`, not at queue exhaustion.
fn run_until_done(scenario: Scenario, cfg: TestbedConfig, traced: bool) -> Simulation<Testbed> {
    let warmup = cfg.warmup;
    let mut sim = scenario.launch(cfg);
    sim.model.meter = ThroughputMeter::new(warmup);
    sim.model.timeline.set_enabled(traced);
    while !sim.model.done && sim.now() <= DEADLINE && sim.step() {}
    sim
}

/// Table 1: round-trip latency between two test programs.
pub fn round_trip_latency(cfg: &TestbedConfig) -> Histogram {
    let sim = run_until_done(Scenario::Pair, cfg.clone(), false);
    assert!(sim.model.done, "latency experiment did not complete");
    assert_eq!(sim.model.verify_failures, 0, "payload corruption");
    sim.model.latency.clone()
}

/// The receive-side result bundle (Figures 2 and 3).
#[derive(Debug, Clone, Copy)]
pub struct RxThroughputReport {
    /// Sustained delivered-data throughput.
    pub mbps: f64,
    /// Interrupts taken per delivered PDU (§2.1.2's figure of merit).
    pub interrupts_per_pdu: f64,
    /// Double-cell merges per cell (≈ 0.5 means full pairing).
    pub merge_ratio: f64,
    /// PDUs shed on the board for lack of buffers.
    pub dropped_pdus: u64,
}

/// Figures 2 and 3: receive-side throughput with the receive processor
/// generating fictitious PDUs as fast as the host absorbs them.
pub fn receive_throughput(cfg: &TestbedConfig) -> RxThroughputReport {
    let sim = run_until_done(Scenario::RxBench, cfg.clone(), false);
    let m = &sim.model;
    assert!(
        m.done,
        "receive bench did not complete (size {})",
        cfg.msg_size
    );
    assert_eq!(m.verify_failures, 0, "payload corruption");
    // All figures of merit come from the shared registry snapshot.
    let snap = m.snapshot();
    let intr = snap.counter("node0.host.interrupts_taken");
    let pdus = snap.counter("node0.board.rx.pdus_delivered").max(1);
    let cells = snap.counter("node0.board.rx.cells").max(1);
    RxThroughputReport {
        mbps: m.meter.mbps(),
        interrupts_per_pdu: intr as f64 / pdus as f64,
        merge_ratio: snap.counter("node0.board.rx.double_cell_merges") as f64 / cells as f64,
        dropped_pdus: snap.counter("node0.board.rx.pdus_dropped_no_buffer"),
    }
}

/// Figure 4: transmit-side throughput (host streams; cells leave the
/// board into the link and are not received by anyone).
pub fn transmit_throughput(cfg: &TestbedConfig) -> f64 {
    let sim = run_until_done(Scenario::TxBench, cfg.clone(), false);
    assert!(
        sim.model.done,
        "transmit bench did not complete (size {})",
        cfg.msg_size
    );
    sim.model.meter.mbps()
}

/// The incast result bundle (N senders onto one receive path through the
/// switched fabric).
#[derive(Debug, Clone)]
pub struct IncastReport {
    /// Number of sending nodes.
    pub senders: usize,
    /// Aggregate goodput delivered at the receiver.
    pub mbps: f64,
    /// Messages delivered at the receiver.
    pub delivered: u64,
    /// PDUs shed on the receiver's board for lack of free buffers.
    pub dropped_pdus: u64,
    /// Interrupts taken per delivered PDU at the receiver.
    pub interrupts_per_pdu: f64,
    /// Worst accumulated queueing on any of the receiver's switch ports.
    pub max_port_queueing_us: f64,
    /// Cells the switch forwarded toward the receiver.
    pub switch_cells: u64,
}

/// N-to-1 incast through the switched fabric: every sender streams
/// `cfg.messages` messages at one receiver; the run completes when the
/// receiver has absorbed all of them. Uses four-way reassembly — with
/// several flows contending for the receiver's port block, per-lane
/// delays diverge and in-order reassembly would reject cells the same
/// way §2.6's skewed links do.
///
/// Four-way framing infers PDU boundaries per lane, so a short PDU —
/// like the trailing fragment of an oversized UDP message — has cells
/// on lane 0 only, and under fan-in queueing the next message's
/// lane-1..3 cells can overtake it and be misattributed (§2.6's
/// bounded-skew assumption; an uncoordinated switch under incast
/// violates it). Such misattributions are caught by the per-PDU CRC and
/// shed, so fragmenting messages now *work* instead of being rejected
/// up front: the experiment turns on reliable mode and the reassembly
/// timeout, and retransmission recovers whatever the lane races shed.
/// Raw ATM has no retransmit machinery, so it keeps its guard.
pub fn incast_throughput(cfg: &TestbedConfig, senders: usize) -> IncastReport {
    let mut cfg = cfg.clone();
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    match cfg.layer {
        Layer::UdpIp => {
            let fragments = cfg.msg_size + UDP_HEADER_BYTES as u64
                > (cfg.mtu as usize - IP_HEADER_BYTES) as u64;
            if fragments {
                cfg.reliable = true;
                cfg.reassembly_timeout = Some(osiris_sim::SimDuration::from_us(1000));
            }
        }
        Layer::RawAtm => assert!(
            cfg.msg_size.div_ceil(44) >= 4,
            "raw-ATM incast requires PDUs that span all four lanes"
        ),
    }
    let sim = run_until_done(Scenario::Incast { senders }, cfg.clone(), false);
    let m = &sim.model;
    assert!(m.done, "incast did not complete ({senders} senders)");
    assert_eq!(m.verify_failures, 0, "payload corruption");
    let snap = m.snapshot();
    let recv = format!("node{senders}");
    let intr = snap.counter(&format!("{recv}.host.interrupts_taken"));
    let pdus = snap
        .counter(&format!("{recv}.board.rx.pdus_delivered"))
        .max(1);
    // The receiver's port block on the switch.
    let lanes = 4usize;
    let (mut cells, mut worst_q) = (0u64, 0u64);
    for p in senders * lanes..(senders + 1) * lanes {
        cells += snap.counter(&format!("fabric.switch.port{p}.cells"));
        worst_q = worst_q.max(snap.counter(&format!("fabric.switch.port{p}.queueing_ps")));
    }
    IncastReport {
        senders,
        mbps: m.meter.mbps(),
        delivered: snap.counter(&format!("{recv}.stack.delivered")),
        dropped_pdus: snap.counter(&format!("{recv}.board.rx.pdus_dropped_no_buffer")),
        interrupts_per_pdu: intr as f64 / pdus as f64,
        max_port_queueing_us: worst_q as f64 / 1e6,
        switch_cells: cells,
    }
}

/// One point of the loss sweep: goodput and tail latency under a seeded
/// cell-loss/corruption rate, with every recovery counter that explains
/// them.
#[derive(Debug, Clone, Copy)]
pub struct LossSweepPoint {
    /// Per-cell drop (and corruption) probability on every lane.
    pub loss_rate: f64,
    /// Application goodput at the ping client (unique echoed messages
    /// over elapsed time — retransmitted bytes don't count).
    pub goodput_mbps: f64,
    /// Mean round-trip time in µs.
    pub rtt_mean_us: f64,
    /// 99th-percentile round-trip time in µs — where retransmission
    /// latency shows up first.
    pub rtt_p99_us: f64,
    /// Datagrams retransmitted across both stacks.
    pub retransmits: u64,
    /// Acks received across both stacks.
    pub acks: u64,
    /// Partial PDUs reaped by the reassembly timeout (both boards).
    pub timeout_reaps: u64,
    /// Cells the fault plan dropped on the wire (both links).
    pub cells_dropped: u64,
    /// Cells the fault plan corrupted on the wire (both links).
    pub cells_corrupted: u64,
    /// Datagrams abandoned after `MAX_RETRIES` (must stay 0 for the
    /// sweep to be a goodput measurement at all).
    pub gave_up: u64,
    /// Payload verification failures (must always be 0: every corrupted
    /// cell must die on a CRC or checksum before the application).
    pub corrupt_deliveries: u64,
}

/// Goodput and tail latency vs. seeded cell-loss rate: the fig-2-style
/// sweep for the fault plane. Each point runs the §4 ping-pong pair in
/// reliable mode with the reassembly timeout armed, under a
/// [`FaultPlan`] that drops *and* bit-corrupts cells uniformly at
/// `rate` on every lane of both links. Deterministic: the same config
/// and seed reproduce every number bit-identically.
pub fn loss_sweep(base: &TestbedConfig, rates: &[f64]) -> Vec<LossSweepPoint> {
    rates
        .iter()
        .map(|&rate| {
            let mut cfg = base.clone();
            cfg.layer = Layer::UdpIp;
            cfg.reliable = true;
            cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
            cfg.udp_checksum = true;
            let mut plan = FaultPlan::uniform_loss(rate, 4, cfg.seed);
            plan.lane_corrupt_prob = vec![rate; 4];
            cfg.sim.faults = plan;
            let sim = run_until_done(Scenario::Pair, cfg.clone(), false);
            let m = &sim.model;
            assert!(m.done, "loss sweep did not converge at rate {rate}");
            assert_eq!(
                m.verify_failures, 0,
                "corrupted payload reached the application at rate {rate}"
            );
            let snap = m.snapshot();
            let both = |suffix: &str| -> u64 {
                snap.counter(&format!("node0.{suffix}")) + snap.counter(&format!("node1.{suffix}"))
            };
            let elapsed = sim.now().since(SimTime::ZERO);
            LossSweepPoint {
                loss_rate: rate,
                goodput_mbps: elapsed.mbps_for_bytes(cfg.messages * cfg.msg_size),
                rtt_mean_us: m.latency.mean_us(),
                rtt_p99_us: m.latency.percentile_us(0.99),
                retransmits: both("stack.retransmits"),
                acks: both("stack.acks_received"),
                timeout_reaps: both("board.rx.pdus_dropped_timeout"),
                cells_dropped: both("link.cells_dropped"),
                cells_corrupted: both("link.cells_corrupted"),
                gave_up: both("stack.gave_up"),
                corrupt_deliveries: m.verify_failures,
            }
        })
        .collect()
}

/// The congestion-control schemes of the CC sweep, by name, each with
/// the window it pins (`None` keeps the base config's). Every scheme runs
/// the one selective-repeat transport. `saw` is stop-and-wait ARQ: a
/// window of 1, so each datagram waits out its own round trip; the rest
/// run the base window with one CC scheme each.
pub const CC_SCHEMES: &[(&str, CcScheme, Option<u32>)] = &[
    ("saw", CcScheme::None, Some(1)),
    ("sr", CcScheme::None, None),
    ("sr+ecn", CcScheme::Ecn, None),
    ("sr+pace", CcScheme::Pacing, None),
];

/// One cell of the congestion-control matrix: an N-sender incast at a
/// seeded loss rate under one transport/CC scheme.
#[derive(Debug, Clone)]
pub struct CcSweepPoint {
    /// Number of sending nodes.
    pub senders: usize,
    /// Per-cell drop probability on every lane of every link.
    pub loss_rate: f64,
    /// Scheme name from [`CC_SCHEMES`].
    pub scheme: String,
    /// Whether every datagram was delivered before the 30 s (virtual)
    /// deadline. A collapsed scheme abandons datagrams and starves the
    /// sink, so `false` here *is* the collapse.
    pub converged: bool,
    /// Aggregate goodput at the receiver: unique delivered bytes over
    /// the time to completion, or over the full deadline when the run
    /// never converged.
    pub goodput_mbps: f64,
    /// 99th-percentile inter-delivery gap at the receiver in µs — the
    /// stall tail a round-trip-serialized transport produces.
    pub p99_gap_us: f64,
    /// Messages delivered at the receiver.
    pub delivered: u64,
    /// Datagrams retransmitted across all senders (RTO + SACK).
    pub retransmits: u64,
    /// SACK-driven fast retransmits (subset of `retransmits`).
    pub sack_retransmits: u64,
    /// Data datagrams that arrived at a receiver already holding them,
    /// summed over the nodes: each is a retransmission it did not need.
    pub dup_datagrams: u64,
    /// Block acks the receiver emitted.
    pub block_acks: u64,
    /// Datagrams held back by the window/CC gate at send time.
    pub deferred: u64,
    /// Cells the switch ECN-marked above its queue threshold.
    pub ecn_marked: u64,
    /// Cells the bounded switch queue dropped on overflow.
    pub switch_overflow: u64,
    /// Datagrams abandoned after `MAX_RETRIES` (0 when converged).
    pub gave_up: u64,
}

/// Runs one cell of the CC matrix: an N-to-1 incast through the bounded
/// switch with uniform cell loss, every sender in reliable mode under
/// `scheme`. Deterministic for a fixed config and seed.
pub fn cc_point(base: &TestbedConfig, senders: usize, rate: f64, scheme: &str) -> CcSweepPoint {
    let (_, cc, window) = CC_SCHEMES
        .iter()
        .find(|(name, _, _)| *name == scheme)
        .unwrap_or_else(|| panic!("unknown CC scheme {scheme}"));
    let mut cfg = base.clone();
    cfg.layer = Layer::UdpIp;
    cfg.reliable = true;
    cfg.cc = *cc;
    cfg.window = window.unwrap_or(cfg.window);
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
    // The bounded switch: deep enough that clean runs never overflow,
    // shallow enough that an uncontrolled incast burst does — and the
    // ECN threshold sits well below the drop point so marking leads
    // loss (the mark threshold is per output port, in cell times).
    cfg.sim.faults.switch_max_queue_cells = Some(512);
    cfg.ecn_threshold_cells = Some(128);
    if rate > 0.0 {
        let seed = cfg.seed;
        let plan = FaultPlan::uniform_loss(rate, 4, seed);
        cfg.sim.faults.lane_drop_prob = plan.lane_drop_prob;
        cfg.sim.faults.seed = seed;
    }
    let sim = run_until_done(Scenario::Incast { senders }, cfg, false);
    let m = &sim.model;
    // A run that fails to converge is a *result*, not an error: a
    // collapse shows up as gave-up datagrams starving the sink until the
    // deadline. Goodput is therefore unique delivered bytes over
    // wall-clock-to-completion (or to the deadline), so a collapsed run
    // cannot hide behind its own early final delivery.
    assert_eq!(m.verify_failures, 0, "payload corruption under {scheme}");
    let elapsed = if m.done {
        m.meter.window()
    } else {
        DEADLINE.saturating_since(SimTime::ZERO)
    };
    let goodput_mbps = if elapsed.is_zero() {
        0.0
    } else {
        elapsed.mbps_for_bytes(m.meter.bytes())
    };
    let snap = m.snapshot();
    let recv = format!("node{senders}");
    let all = |suffix: &str| -> u64 {
        (0..=senders)
            .map(|n| snap.counter(&format!("node{n}.{suffix}")))
            .sum()
    };
    CcSweepPoint {
        senders,
        loss_rate: rate,
        scheme: scheme.to_string(),
        converged: m.done,
        goodput_mbps,
        p99_gap_us: m.latency.percentile_us(0.99),
        delivered: snap.counter(&format!("{recv}.stack.delivered")),
        retransmits: all("stack.retransmits"),
        sack_retransmits: all("stack.window.sack_retransmits"),
        dup_datagrams: all("stack.dup_datagrams"),
        block_acks: all("stack.window.block_acks"),
        deferred: all("stack.window.deferred"),
        ecn_marked: snap.counter("fabric.switch.ecn_marked"),
        switch_overflow: snap.counter("fabric.switch.overflow_dropped"),
        gave_up: all("stack.gave_up"),
    }
}

/// The full congestion-control matrix: incast degree × loss rate ×
/// scheme. The `BENCH_cc` headline — the best windowed scheme against
/// stop-and-wait at 1% loss — falls out of the 64-sender row.
pub fn cc_sweep(base: &TestbedConfig, senders: &[usize], rates: &[f64]) -> Vec<CcSweepPoint> {
    let mut out = Vec::new();
    for &n in senders {
        for &rate in rates {
            for (name, _, _) in CC_SCHEMES {
                out.push(cc_point(base, n, rate, name));
            }
        }
    }
    out
}

/// §2.5.1's DMA ceilings: `(transfer bytes, direction, Mbps)` rows.
pub fn dma_ceilings() -> Vec<(u64, &'static str, f64)> {
    let bus = BusSpec::ds5000_200();
    vec![
        (44, "transmit (read)", bus.dma_ceiling_mbps(44, false)),
        (44, "receive (write)", bus.dma_ceiling_mbps(44, true)),
        (88, "transmit (read)", bus.dma_ceiling_mbps(88, false)),
        (88, "receive (write)", bus.dma_ceiling_mbps(88, true)),
        (176, "receive (write)", bus.dma_ceiling_mbps(176, true)),
    ]
}

/// §2.1.2: interrupts per PDU under the two policies, at one message size.
pub fn interrupt_suppression(base: &TestbedConfig) -> (f64, f64) {
    use osiris_board::interrupt::InterruptPolicy;
    let mut per_pdu = base.clone();
    per_pdu.interrupt_policy = InterruptPolicy::PerPdu;
    let mut transition = base.clone();
    transition.interrupt_policy = InterruptPolicy::OnTransition;
    (
        receive_throughput(&per_pdu).interrupts_per_pdu,
        receive_throughput(&transition).interrupts_per_pdu,
    )
}

/// §2.6: double-cell merge ratio with and without skew, quantifying
/// "once skew is introduced, the probability that two successive cells
/// will be received in order is greatly reduced".
pub fn skew_vs_merging(machine: MachineSpec) -> (f64, f64) {
    // Merging is a receive-processor behaviour; drive it through the pair
    // testbed so cells really traverse the (possibly skewed) link.
    let mk = |skewed: bool| -> f64 {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.machine = machine;
        cfg.msg_size = 16 * 1024;
        cfg.messages = 6;
        cfg.rx_dma = DmaMode::DoubleCell;
        if skewed {
            cfg.skew = osiris_atm::stripe::SkewConfig::mux_skew();
            cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
        }
        let sim = run_until_done(Scenario::Pair, cfg, false);
        assert!(sim.model.done, "skew experiment did not complete");
        let snap = sim.model.snapshot();
        snap.counter("node1.board.rx.double_cell_merges") as f64
            / snap.counter("node1.board.rx.cells").max(1) as f64
    };
    (mk(false), mk(true))
}

/// §3.1's overload claim, measured: under receiver overload, the
/// board sheds low-priority PDUs "before they have consumed any
/// processing resources on the host", while high-priority traffic is
/// delivered in full.
#[derive(Debug, Clone, Copy)]
pub struct OverloadReport {
    /// High-priority PDUs offered / delivered.
    pub hi_offered: u64,
    /// High-priority PDUs delivered to the host.
    pub hi_delivered: u64,
    /// Low-priority PDUs offered.
    pub lo_offered: u64,
    /// Low-priority PDUs delivered.
    pub lo_delivered: u64,
    /// PDUs shed on the board for want of free buffers.
    pub shed_on_board: u64,
    /// Host receive-buffer pops attributable to shed PDUs (must be 0:
    /// shedding costs the host nothing).
    pub host_work_for_shed: u64,
}

/// Runs the §3.1 overload scenario: two paths with early demultiplexing
/// onto separate queue pages; the host's drain thread serves the
/// high-priority page eagerly and starves the low-priority one.
pub fn priority_under_overload(machine: MachineSpec, rounds: u64) -> OverloadReport {
    use osiris_atm::sar::{FramingMode, SegmentUnit, Segmenter};
    use osiris_atm::Vci;
    use osiris_board::dpram::DpramLayout;
    use osiris_board::rx::{RxConfig, RxProcessor};
    use osiris_host::driver::{CacheStrategy, DrainOutcome, OsirisDriver};
    use osiris_host::machine::HostMachine;
    use osiris_host::wiring::{WiringMode, WiringService};
    use osiris_sim::{Registry, SimDuration};

    let reg = Registry::new();
    let mut host = HostMachine::boot(machine, 17);
    let mut rx = RxProcessor::with_probe(
        RxConfig {
            buffer_bytes: 4096,
            ..RxConfig::paper_default()
        },
        DpramLayout::paper_default(),
        &reg.probe("board"),
    );
    let (hi_vci, lo_vci) = (Vci(100), Vci(101));
    let (hi_page, lo_page) = (1usize, 2usize);
    rx.bind_vci(hi_vci, hi_page);
    rx.bind_vci(lo_vci, lo_page);
    let wiring = WiringService {
        mode: WiringMode::LowLevel,
    };
    let lazy = CacheStrategy::Lazy;
    let mut hi_drv = OsirisDriver::with_probe(hi_page, 4096, lazy, wiring, &reg.probe("hi"));
    let mut lo_drv = OsirisDriver::with_probe(lo_page, 4096, lazy, wiring, &reg.probe("lo"));
    hi_drv.provision_receive_buffers(SimTime::ZERO, &mut host, &mut rx, 8);
    lo_drv.provision_receive_buffers(SimTime::ZERO, &mut host, &mut rx, 8);

    // §3.1: one drain thread per path, with the path's traffic priority.
    let mut sched = osiris_host::thread::Scheduler::new(host.spec.costs.thread_dispatch);
    let hi_thread = sched.spawn(7);
    let lo_thread = sched.spawn(1);

    let seg = Segmenter {
        framing: FramingMode::EndOfPdu,
        unit: SegmentUnit::Pdu,
    };
    let payload = vec![0x77u8; 2000];
    let mut t = SimTime::from_us(100);
    let mut report = OverloadReport {
        hi_offered: rounds,
        hi_delivered: 0,
        lo_offered: rounds,
        lo_delivered: 0,
        shed_on_board: 0,
        host_work_for_shed: 0,
    };
    let mut drained = DrainOutcome::default();
    for _ in 0..rounds {
        // Offer one PDU on each path.
        for vci in [hi_vci, lo_vci] {
            for cell in seg.segment(vci, &[&payload]) {
                rx.receive_cell(
                    t,
                    0,
                    &cell,
                    &mut host.mem_sys,
                    &mut host.cache,
                    &mut host.phys,
                );
            }
        }
        // The interrupt wakes both drain threads; the window before the
        // next burst fits exactly one dispatch, and the scheduler picks
        // by priority — the high-priority drain runs every time.
        let ti = host.take_interrupt(t).finish;
        sched.wake(hi_thread);
        sched.wake(lo_thread);
        let (tid, g) = sched
            .dispatch(ti, &mut host)
            .expect("runnable drain thread");
        debug_assert_eq!(tid, hi_thread, "priority must pick the high path");
        hi_drv.drain_receive(g.finish, &mut host, &mut rx, &mut drained);
        for pdu in &drained.delivered {
            debug_assert_eq!(pdu.vci, hi_vci);
            report.hi_delivered += 1;
            hi_drv.recycle(pdu.ready_at, &mut host, &mut rx, &pdu.bufs);
        }
        sched.block(tid);
        t = drained.finished_at.max(t) + SimDuration::from_us(50);
    }
    // When the overload ends, the low-priority thread finally gets the
    // CPU and drains whatever the board still holds.
    let (tid, g) = sched
        .dispatch(t, &mut host)
        .expect("low thread still runnable");
    debug_assert_eq!(tid, lo_thread);
    lo_drv.drain_receive(g.finish, &mut host, &mut rx, &mut drained);
    sched.block(tid);
    report.lo_delivered = drained.delivered.len() as u64;
    // Indexing, not `Snapshot::counter`: an unregistered path panics
    // rather than reading as a zero that looks like a result.
    let snap = reg.snapshot();
    report.shed_on_board = snap.counters["board.rx.pdus_dropped_no_buffer"];
    // Host work attributable to shed PDUs: the drivers only ever popped
    // descriptors that were delivered, so anything shed cost zero pops.
    let pops = snap.counters["hi.driver.rx_buffers"] + snap.counters["lo.driver.rx_buffers"];
    let delivered_bufs = report.hi_delivered + report.lo_delivered; // 1 buffer each
    report.host_work_for_shed = pops.saturating_sub(delivered_bufs);
    report
}

/// §2.2's closing argument, measured: per-message driver setup cost for a
/// fragmented message, with physical-buffer descriptors versus a
/// scatter/gather map. Returns `(descriptor_us, sgmap_us)` — both grow
/// with fragmentation, which is the paper's point: "physical buffer
/// fragmentation is a potential performance concern even when virtual
/// DMA is available."
pub fn virtual_dma_setup_cost(machine: MachineSpec, data_pages: u64) -> (f64, f64) {
    use osiris_board::descriptor::DESC_WORDS;
    use osiris_host::machine::HostMachine;
    use osiris_mem::{PhysBuffer, SgMap};

    // A §2.2 message: `data_pages` scattered data pages plus a header
    // buffer (n + 2 physical buffers with unaligned data; we take n + 1
    // for the aligned case to stay conservative).
    let n_buffers = data_pages + 1;

    // Path A: one descriptor per physical buffer across the TURBOchannel.
    let mut host = HostMachine::boot(machine, 4);
    let t0 = SimTime::from_us(5);
    let mut t = t0;
    for _ in 0..n_buffers {
        let g = host.mem_sys.pio_write(t, DESC_WORDS + 1);
        t = g.finish;
    }
    let descriptor_us = t.since(t0).as_us_f64();

    // Path B: load one map entry per page, then a single descriptor for
    // the now-bus-contiguous region.
    let mut host = HostMachine::boot(machine, 4);
    let mut map = SgMap::new(256, machine.page_size as u64);
    let mut t = t0;
    for p in 0..n_buffers {
        map.map_buffer(PhysBuffer::new(osiris_mem::PhysAddr(p * 4096), 4096))
            .unwrap();
        let g = host.mem_sys.pio_write(t, SgMap::PIO_WORDS_PER_ENTRY);
        t = g.finish;
    }
    let g = host.mem_sys.pio_write(t, DESC_WORDS + 1);
    let sgmap_us = g.finish.since(t0).as_us_f64();
    (descriptor_us, sgmap_us)
}

/// Critical-path anatomy of a scenario run: per-stage latency
/// distributions over every traced PDU, computed from the causal
/// timeline rather than hand-picked event markers.
#[derive(Debug, Clone)]
pub struct StageAnatomy {
    /// `(stage, summary-in-µs)` rows in path order; zero stages omitted.
    pub stages: Vec<(Stage, HistSummary)>,
    /// End-to-end latency distribution (µs) over the same PDUs.
    pub e2e: HistSummary,
    /// Traced PDUs the distributions are computed over.
    pub pdus: usize,
    /// Timeline evictions during the run (non-zero means the numbers
    /// above are incomplete; the report layer prints a loud warning).
    pub dropped_spans: u64,
    /// Full registry read-out at the end of the run, so a bench snapshot
    /// can archive the counters next to the percentiles.
    pub snapshot: osiris_sim::Snapshot,
}

/// Runs `scenario` with per-PDU tracing enabled and attributes every
/// traced PDU's end-to-end latency to typed stages. It covers *all*
/// PDUs and is exhaustive by construction: each PDU's stage durations
/// sum exactly to its measured latency.
pub fn stage_anatomy(scenario: Scenario, cfg: &TestbedConfig) -> StageAnatomy {
    let sim = run_until_done(scenario, cfg.clone(), true);
    assert!(sim.model.done, "stage-anatomy run did not complete");
    assert_eq!(sim.model.verify_failures, 0, "payload corruption");
    let paths = CriticalPath::analyze_all(&sim.model.timeline);
    StageAnatomy {
        stages: CriticalPath::stage_percentiles(&paths),
        e2e: CriticalPath::e2e_summary(&paths),
        pdus: paths.len(),
        dropped_spans: sim.model.timeline.dropped(),
        snapshot: sim.model.snapshot(),
    }
}

/// §3.1: the three ways to move a received message across a protection
/// domain boundary, as microseconds per message of `bytes` bytes:
/// `(copy, uncached_fbuf, cached_fbuf)`. The copy path physically moves
/// the data (reads + write-through writes on the host); the fbuf paths
/// move only mappings, and the cached case has even those preinstalled.
pub fn cross_domain_delivery(machine: MachineSpec, bytes: u32) -> (f64, f64, f64) {
    use osiris_fbuf::{FbufAllocator, FbufCosts};
    use osiris_host::machine::HostMachine;
    use osiris_mem::PhysAddr;

    // Copy: read the message through the cache, write it to the user's
    // buffer (write-through memory traffic).
    let mut host = HostMachine::boot(machine, 9);
    let mut buf = vec![0u8; bytes as usize];
    let t0 = SimTime::from_us(10);
    let rr = host.cpu_read(t0, PhysAddr(0x10_0000), &mut buf);
    let g = host.cpu_write(rr.grant.finish, PhysAddr(0x90_0000), &buf);
    let copy = g.finish.since(t0).as_us_f64();

    // Fbufs: transfer the buffer's mapping instead.
    let mut host = HostMachine::boot(machine, 9);
    let costs = FbufCosts::for_machine(&host);
    let mut alloc = FbufAllocator::new(costs, PhysAddr(0x10_0000), bytes, 4);
    let (mut fb, _) = alloc.alloc_for_path(1).unwrap();
    let g1 = alloc.transfer(t0, &mut host, &mut fb, 1);
    let uncached = g1.finish.since(g1.start).as_us_f64();
    let g2 = alloc.transfer(g1.finish, &mut host, &mut fb, 1);
    let cached = g2.finish.since(g2.start).as_us_f64();
    (copy, uncached, cached)
}

/// §2.7: how fast an application can access received data, PIO vs DMA,
/// in Mbps: `(pio, dma_then_cpu_read)`.
pub fn pio_vs_dma(machine: MachineSpec) -> (f64, f64) {
    use osiris_host::driver::pio_receive;
    use osiris_host::machine::HostMachine;
    use osiris_mem::PhysAddr;
    let bytes = 64 * 1024u64;

    let mut h = HostMachine::boot(machine, 3);
    let t = pio_receive(SimTime::ZERO, &mut h, bytes);
    let pio = t.since(SimTime::ZERO).mbps_for_bytes(bytes);

    // DMA into memory, then the application reads it through the cache.
    let mut h = HostMachine::boot(machine, 3);
    let g = h.mem_sys.dma_write(SimTime::ZERO, bytes);
    let mut buf = vec![0u8; bytes as usize];
    let rr = h.cpu_read(g.finish, PhysAddr(0), &mut buf);
    let dma = rr.grant.finish.since(SimTime::ZERO).mbps_for_bytes(bytes);
    (pio, dma)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_sweep_converges_and_is_deterministic() {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 4096;
        cfg.messages = 16;
        let rates = [0.0, 1e-3];
        let a = loss_sweep(&cfg, &rates);
        let b = loss_sweep(&cfg, &rates);
        // Same seed → bit-identical points, including every counter.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Clean link: nothing dropped, nothing retransmitted, every
        // datagram acked.
        assert_eq!(a[0].cells_dropped + a[0].cells_corrupted, 0);
        assert_eq!(a[0].retransmits, 0);
        // Each ping and echo is acked; the final echo's ack may still
        // be in flight when the client's budget completes the run.
        assert!(a[0].acks >= 2 * 16 - 2, "acks: {}", a[0].acks);
        // Faulty link: faults actually fired, reliable mode still
        // converged to full goodput, and nothing corrupt got through.
        assert!(a[1].cells_dropped + a[1].cells_corrupted > 0);
        assert!(a[1].goodput_mbps > 0.0);
        assert_eq!(a[1].gave_up, 0);
        assert_eq!(a[1].corrupt_deliveries, 0);
        // Loss costs time: goodput can only go down, the tail only up.
        assert!(a[1].goodput_mbps <= a[0].goodput_mbps);
        assert!(a[1].rtt_p99_us >= a[0].rtt_p99_us);
    }

    #[test]
    fn dma_ceiling_rows_match_paper() {
        let rows = dma_ceilings();
        assert!((rows[0].2 - 366.7).abs() < 1.0);
        assert!((rows[1].2 - 463.2).abs() < 1.0);
        assert!((rows[2].2 - 502.9).abs() < 1.0);
        assert!((rows[3].2 - 586.7).abs() < 1.0);
    }

    #[test]
    fn interrupt_suppression_wins_under_bursts() {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 4096;
        cfg.messages = 20;
        cfg.warmup = 2;
        let (per_pdu, transition) = interrupt_suppression(&cfg);
        assert!(per_pdu >= 0.95, "per-PDU policy: {per_pdu}");
        assert!(
            transition < per_pdu * 0.8,
            "transition policy must interrupt less: {transition} vs {per_pdu}"
        );
    }

    #[test]
    fn pio_loses_to_dma_on_both_machines() {
        for m in [MachineSpec::ds5000_200(), MachineSpec::dec3000_600()] {
            let (pio, dma) = pio_vs_dma(m);
            assert!(dma > pio, "{}: dma {dma} must beat pio {pio}", m.name);
        }
    }

    #[test]
    fn overload_sheds_low_priority_on_the_board() {
        let r = priority_under_overload(MachineSpec::ds5000_200(), 20);
        assert_eq!(
            r.hi_delivered, r.hi_offered,
            "high priority must not lose a PDU"
        );
        assert!(
            r.lo_delivered < r.lo_offered,
            "overload must shed some low-priority traffic"
        );
        assert!(r.shed_on_board > 0);
        assert_eq!(
            r.lo_delivered + r.shed_on_board,
            r.lo_offered,
            "every low-priority PDU is either delivered or shed on the board"
        );
        assert_eq!(
            r.host_work_for_shed, 0,
            "shedding must cost the host nothing"
        );
    }

    #[test]
    fn virtual_dma_costs_scale_with_fragmentation() {
        let (d1, s1) = virtual_dma_setup_cost(MachineSpec::ds5000_200(), 1);
        let (d4, s4) = virtual_dma_setup_cost(MachineSpec::ds5000_200(), 4);
        // Both paths grow with page count — the paper's closing §2.2 point.
        assert!(d4 > d1);
        assert!(s4 > s1);
        // The map loads are smaller than full descriptors per fragment.
        assert!(s4 < d4, "sgmap {s4} vs descriptors {d4}");
        assert!(s4 > d4 / 4.0, "but not free");
    }

    #[test]
    fn stage_anatomy_explains_the_whole_trip() {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 1024;
        cfg.messages = 2;
        let a = stage_anatomy(Scenario::Pair, &cfg);
        assert_eq!(a.pdus, 4, "2 pings + 2 pongs");
        assert_eq!(a.dropped_spans, 0);
        // Exhaustive attribution: mean stage times sum to mean e2e.
        let sum: f64 = a.stages.iter().map(|(_, h)| h.mean).sum();
        let e2e = a.e2e.mean;
        assert!(
            (sum - e2e).abs() < e2e * 1e-6,
            "stage means {sum} must sum to e2e mean {e2e}"
        );
        // The big stages of a one-way trip all show up.
        for stage in [Stage::ProtocolCpu, Stage::DmaTransfer, Stage::Wire] {
            assert!(a.stages.iter().any(|&(s, _)| s == stage), "missing {stage}");
        }
    }

    #[test]
    fn copy_is_the_worst_way_across_a_domain() {
        for m in [MachineSpec::ds5000_200(), MachineSpec::dec3000_600()] {
            let (copy, uncached, cached) = cross_domain_delivery(m, 16 * 1024);
            assert!(
                copy > uncached,
                "{}: copy {copy} vs uncached {uncached}",
                m.name
            );
            assert!(
                uncached > 10.0 * cached,
                "{}: {uncached} vs {cached}",
                m.name
            );
        }
    }

    #[test]
    fn skew_collapses_merge_ratio() {
        let (aligned, skewed) = skew_vs_merging(MachineSpec::ds5000_200());
        assert!(aligned > 0.3, "aligned lanes should merge often: {aligned}");
        assert!(
            skewed < aligned / 2.0,
            "skew must collapse merging: {skewed} vs {aligned}"
        );
    }
}
