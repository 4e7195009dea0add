//! What one child process measures. Each repetition runs in a fresh,
//! single-threaded child, so its peak memory belongs to one workload
//! alone; the parent only spawns, waits and aggregates.
//!
//! The child drives the program through its public entry points only:
//! `Scenario::{run,launch}`, `EventQueue::pop`, `Model::handle`,
//! registry snapshots and `CriticalPath::analyze_all`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use osiris::node::NodeId;
use osiris::sim::obs::Snapshot;
use osiris::sim::stats::{LatencyStats, ThroughputMeter};
use osiris::sim::{CriticalPath, Json, Model, SimTime, Stage};
use osiris::testbed::Event;
use osiris::{Scenario, TestbedConfig};

use crate::calibrate::Probe;
use crate::stats::{nearest_rank, Summary};
use crate::workload::Workload;

/// The three kinds of child run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Scenario::run` timed as a whole, then peak memory, then a batch
    /// of timed `Scenario::launch` calls between host-speed probe slices.
    Run,
    /// The benchmark's own dispatch loop, timing every queue pop and
    /// every handler call by event variant.
    Traced,
    /// A short run with the timeline on, attributed stage by stage.
    Anatomy,
}

impl Mode {
    /// The mode's name on the child's command line.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Traced => "traced",
            Mode::Anatomy => "anatomy",
        }
    }

    /// The mode called `name`, if any.
    pub fn parse(name: &str) -> Option<Mode> {
        [Mode::Run, Mode::Traced, Mode::Anatomy]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// `Event` variants in `engine.dispatch.*` spelling, indexed by
/// [`event_kind`].
pub const EVENT_KINDS: [&str; 11] = [
    "app_send",
    "tx_kick",
    "cell_arrival",
    "rx_flush",
    "rx_interrupt",
    "rx_drain",
    "tx_wake",
    "fabric_transit",
    "gen_kick",
    "rx_reap_tick",
    "retrans_tick",
];

/// Index of `ev`'s variant in [`EVENT_KINDS`]. Exhaustive on purpose: a
/// new variant must be given a bucket before the benchmark compiles.
fn event_kind(ev: &Event) -> usize {
    match ev {
        Event::AppSend { .. } => 0,
        Event::TxKick { .. } => 1,
        Event::CellArrival { .. } => 2,
        Event::RxFlush { .. } => 3,
        Event::RxInterrupt { .. } => 4,
        Event::RxDrain { .. } => 5,
        Event::TxWake { .. } => 6,
        Event::FabricTransit { .. } => 7,
        Event::GenKick => 8,
        Event::RxReapTick { .. } => 9,
        Event::RetransTick { .. } => 10,
    }
}

/// Latency-anatomy stages in metric spelling.
pub const STAGES: [(Stage, &str); 9] = [
    (Stage::ProtocolCpu, "protocol_cpu"),
    (Stage::BusWait, "bus_wait"),
    (Stage::DmaTransfer, "dma_transfer"),
    (Stage::AdaptorFw, "adaptor_fw"),
    (Stage::Wire, "wire"),
    (Stage::SwitchQueue, "switch_queue"),
    (Stage::ReassemblyWait, "reassembly_wait"),
    (Stage::InterruptDelay, "interrupt_delay"),
    (Stage::Other, "other"),
];

/// Registry counters summed over every node, by key suffix, reported
/// raw (the parent normalises them per workload message).
const NODE_COUNTERS: [(&str, &str); 11] = [
    ("rx_cells", "board.rx.cells"),
    ("rx_pdus", "board.rx.pdus_delivered"),
    ("reaped", "board.rx.pdus_dropped_timeout"),
    ("no_buffer_drops", "board.rx.pdus_dropped_no_buffer"),
    ("interrupts", "host.interrupts_taken"),
    ("dma_words", "bus.dma_words"),
    ("cpu_words", "bus.cpu_words"),
    ("retransmits", "stack.retransmits"),
    ("block_acks", "stack.window.block_acks"),
    ("gave_up", "stack.gave_up"),
    ("delivered", "stack.delivered"),
];

/// Minimum wall time of the set-up batch: a single launch varies 2×.
const SETUP_BATCH: Duration = Duration::from_millis(300);

/// Host-speed probe slices taken on each side of the set-up batch.
const PROBE_SLICES: usize = 4;

/// Bound on the anatomy run's timeline; a run that reaches it drops
/// spans, which the parent reports as a correctness failure.
const ANATOMY_TIMELINE_CAPACITY: usize = 1 << 24;

/// Runs one child measurement and returns its report.
pub fn measure(w: Workload, seed: u64, quick: bool, mode: Mode) -> Result<Json, String> {
    match mode {
        Mode::Run => run_untraced(w, seed, quick),
        Mode::Traced => Ok(run_traced(w, seed, quick)),
        Mode::Anatomy => Ok(run_anatomy(w, seed, quick)),
    }
}

fn run_untraced(w: Workload, seed: u64, quick: bool) -> Result<Json, String> {
    let (scenario, cfg) = w.build(seed, w.length(quick));
    let t0 = Instant::now();
    let out = black_box(scenario.run(black_box(cfg.clone())));
    let wall = t0.elapsed().as_secs_f64();
    // Peak memory of the run alone: read before the probe and the set-up
    // batch allocate.
    let rss_mb = peak_rss_mb()?;
    // The host-speed probe runs right after the run and again after the
    // set-up batch, so it brackets the batch and sits next to the run.
    let mut probe = Probe::new();
    let mut probe_ns: Vec<f64> = (0..PROBE_SLICES).map(|_| probe.slice()).collect();
    let (setup_s, launches) = setup_batch(scenario, &cfg);
    probe_ns.extend((0..PROBE_SLICES).map(|_| probe.slice()));
    let end = Outcome {
        snapshot: out.snapshot,
        meter: &out.meter,
        latency: &out.latency,
        last: out.last_event_time,
        dispatched: out.dispatched,
        done: out.done,
        verify_failures: out.verify_failures,
    };
    Ok(Json::obj()
        .with("wall_s", wall)
        .with("rss_mb", rss_mb)
        .with("setup_s", setup_s)
        .with("launches", launches)
        .with(
            "probe_ns",
            Json::Arr(probe_ns.into_iter().map(Json::Num).collect()),
        )
        .with("virtual", end.fingerprint(w, &cfg))
        .with("counts", end.counts()))
}

/// Median host time of one `Scenario::launch` over a batch lasting at
/// least [`SETUP_BATCH`], and the batch size. The median keeps a burst
/// of host contention within the batch out of the result.
fn setup_batch(scenario: Scenario, cfg: &TestbedConfig) -> (f64, usize) {
    let batch = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || batch.elapsed() < SETUP_BATCH {
        let cfg = cfg.clone();
        let t = Instant::now();
        let sim = black_box(scenario.launch(cfg));
        times.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
    (Summary::of(&times).median, times.len())
}

fn run_traced(w: Workload, seed: u64, quick: bool) -> Json {
    let (scenario, cfg) = w.build(seed, w.length(quick));
    let t0 = Instant::now();
    let mut sim = scenario.launch(cfg.clone());
    let mut pop_ns = 0u64;
    let mut pops = 0u64;
    let mut handle_ns = [0u64; EVENT_KINDS.len()];
    let mut handled = [0u64; EVENT_KINDS.len()];
    let mut last = SimTime::ZERO;
    // The ping client's AppSend times: its next send is issued at the
    // instant the previous round trip completes, so successive sends
    // are exactly one round trip apart.
    let mut pings: Vec<SimTime> = Vec::new();
    let want_pings = w == Workload::PingPong;
    let loop_start = Instant::now();
    loop {
        let a = Instant::now();
        let next = sim.queue.pop();
        let b = Instant::now();
        pop_ns += nanos(b - a);
        pops += 1;
        let Some((t, ev)) = next else { break };
        let k = event_kind(&ev);
        if want_pings && matches!(ev, Event::AppSend { host: NodeId(0) }) {
            pings.push(t);
        }
        last = t;
        sim.model.handle(t, ev, &mut sim.queue);
        let c = Instant::now();
        handle_ns[k] += nanos(c - b);
        handled[k] += 1;
    }
    let loop_ns = nanos(loop_start.elapsed());
    let wall = t0.elapsed().as_secs_f64();

    let tb = &sim.model;
    let end = Outcome {
        snapshot: tb.snapshot(),
        meter: &tb.meter,
        latency: &tb.latency,
        last,
        dispatched: handled.iter().sum(),
        done: tb.done,
        verify_failures: tb.verify_failures,
    };
    let per_kind = |v: &[u64]| {
        EVENT_KINDS
            .iter()
            .zip(v)
            .fold(Json::obj(), |j, (name, &x)| j.with(name, x))
    };
    let mut report = Json::obj()
        .with("wall_s", wall)
        .with("loop_ns", loop_ns)
        .with("pop_ns", pop_ns)
        .with("pops", pops)
        .with("handle_ns", per_kind(&handle_ns))
        .with("handled", per_kind(&handled))
        .with("virtual", end.fingerprint(w, &cfg));
    if want_pings {
        report = report.with("rtt", round_trips(&pings, &tb.latency));
    }
    report
}

/// Exact round-trip samples taken from outside the model, next to the
/// model's own running statistics for the check in the parent.
fn round_trips(pings: &[SimTime], model: &LatencyStats) -> Json {
    let mut ps: Vec<u64> = pings.windows(2).map(|p| p[1].since(p[0]).as_ps()).collect();
    ps.sort_unstable();
    let us = |v: u64| v as f64 / 1e6;
    let mut report = Json::obj().with("samples", ps.len());
    if !ps.is_empty() {
        let mean = ps.iter().map(|&v| v as f64).sum::<f64>() / ps.len() as f64 / 1e6;
        report = report
            .with("mean_us", mean)
            .with("p50_us", us(nearest_rank(&ps, 5000)))
            .with("p9999_us", us(nearest_rank(&ps, 9999)));
    }
    report
        .with("model_count", model.count())
        .with("model_mean_us", model.mean_us())
        .with("model_min_us", model.min_us())
        .with("model_max_us", model.max_us())
}

fn run_anatomy(w: Workload, seed: u64, quick: bool) -> Json {
    let (scenario, mut cfg) = w.build(seed, w.anatomy_length(quick));
    cfg.sim.timeline_capacity = ANATOMY_TIMELINE_CAPACITY;
    let mut sim = scenario.launch(cfg);
    sim.model.timeline.set_enabled(true);
    sim.run_to_completion();
    let paths = CriticalPath::analyze_all(&sim.model.timeline);
    let n = paths.len().max(1) as f64;
    let mean_us = |ps: u64| ps as f64 / n / 1e6;
    let stages = STAGES.iter().fold(Json::obj(), |j, &(stage, name)| {
        j.with(
            name,
            mean_us(paths.iter().map(|p| p.stage(stage).as_ps()).sum()),
        )
    });
    let mut totals: Vec<u64> = paths.iter().map(|p| p.total().as_ps()).collect();
    totals.sort_unstable();
    let mut report = Json::obj()
        .with("pdus", paths.len())
        .with("dropped", sim.model.timeline.dropped())
        .with("verify_failures", sim.model.verify_failures)
        .with("stage_mean_us", stages)
        .with("e2e_mean_us", mean_us(totals.iter().sum()));
    if !totals.is_empty() {
        report = report
            .with("e2e_p50_us", nearest_rank(&totals, 5000) as f64 / 1e6)
            .with("e2e_p99_us", nearest_rank(&totals, 9900) as f64 / 1e6);
    }
    report
}

/// The end state of a run, however it was driven.
struct Outcome<'a> {
    snapshot: Snapshot,
    meter: &'a ThroughputMeter,
    latency: &'a LatencyStats,
    last: SimTime,
    dispatched: u64,
    done: bool,
    verify_failures: u64,
}

impl Outcome<'_> {
    /// Every virtual-time output the run produced. Rendered, it must be
    /// byte-identical across repetitions and between the traced and the
    /// untraced run of one seed.
    fn fingerprint(&self, w: Workload, cfg: &TestbedConfig) -> Json {
        let dispatch = EVENT_KINDS.iter().fold(Json::obj(), |j, name| {
            j.with(
                name,
                self.snapshot.counter(&format!("engine.dispatch.{name}")),
            )
        });
        Json::obj()
            .with("goodput_mbps", self.goodput_mbps(w, cfg))
            .with("rtt_mean_us", self.latency.mean_us())
            .with("delivered", self.sum("stack.delivered"))
            .with("rx_cells", self.sum("board.rx.cells"))
            .with("verify_failures", self.verify_failures)
            .with("done", self.done)
            .with("dispatched", self.dispatched)
            .with("last_event_ps", self.last.as_ps())
            .with("dispatch", dispatch)
    }

    /// Application payload delivered per virtual second. The streams
    /// read the receivers' meter; the ping-pong counts both directions
    /// of every round trip over the whole run.
    fn goodput_mbps(&self, w: Workload, cfg: &TestbedConfig) -> f64 {
        match w {
            Workload::PingPong => self
                .last
                .saturating_since(SimTime::ZERO)
                .mbps_for_bytes(w.datagrams(cfg.messages) * cfg.msg_size),
            _ => self.meter.mbps(),
        }
    }

    fn sum(&self, suffix: &str) -> u64 {
        self.snapshot
            .counters_with_suffix(suffix)
            .map(|(_, v)| v)
            .sum()
    }

    fn counts(&self) -> Json {
        NODE_COUNTERS
            .iter()
            .fold(Json::obj(), |j, &(name, suffix)| {
                j.with(name, self.sum(suffix))
            })
            .with("events", self.dispatched)
            .with(
                "switch_overflow",
                self.snapshot.counter("fabric.switch.overflow_dropped"),
            )
            .with(
                "switch_ecn_marks",
                self.snapshot.counter("fabric.switch.ecn_marked"),
            )
            .with(
                "slab_high_water",
                self.snapshot.gauge("cells.slab_high_water"),
            )
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// This process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
