//! Sharded conservative-lookahead parallel engine.
//!
//! The sequential engine ([`crate::scenario::Scenario::launch`] +
//! `run_to_completion`) dispatches every event from one queue. This
//! module runs the *same* testbed on N OS threads: nodes are
//! partitioned round-robin across shards (`node i -> shard i % N`,
//! a node's switch port block riding along with it), each shard owns a
//! private [`ShardQueue`], and shards exchange in-flight cells over
//! `board::spsc`-style rings. Synchronisation is conservative: per
//! round every shard publishes the timestamp of its earliest pending
//! event, the global minimum `gmin` is taken at a barrier, and each
//! shard then executes every local event strictly before the horizon
//! `gmin + L`, where the lookahead `L` is one STS-3c cell time — the
//! minimum latency any cross-shard hop can possibly add (a cell must
//! at least finish serialising onto its link before it can arrive
//! anywhere else). Events a shard generates for a foreign node are
//! therefore always timestamped at or beyond the horizon, so no shard
//! can ever receive an event in its past: causality holds without
//! rollback.
//!
//! # Determinism
//!
//! Results are bit-identical to the sequential engine, not merely
//! statistically equivalent. Three mechanisms make that hold:
//!
//! 1. **Replicated build, partitioned dispatch.** Every shard thread
//!    builds the *full* testbed via [`Scenario::build`] (construction
//!    is deterministic, so all replicas are identical) and seeds the
//!    full scenario, but enqueues and dispatches only events owned by
//!    its nodes. Per-node RNG streams, fault streams
//!    ([`osiris_sim::faults::component_seed`]) and skew seeds are pure
//!    functions of the node index, so a replica's node `i` behaves
//!    exactly like the sequential engine's node `i`.
//! 2. **Partition-invariant tie-breaks.** Every event carries a
//!    [`PushKey`] `(t_push, origin, ctr)` — the time it was pushed,
//!    the node whose handler pushed it, and that origin's running push
//!    counter. Dispatch order is `(timestamp, PushKey)`, a total order
//!    that every partitioning (including the trivial one) agrees on.
//!    Same-origin ties replay the sequential engine's FIFO order
//!    exactly; cross-origin ties at one instant are ordered by origin
//!    on every partitioning alike.
//! 3. **Arrival-order switch state.** Stateful fabric routing runs at
//!    cell *arrival* time on the destination's shard
//!    ([`crate::testbed::Event::FabricTransit`]), in `(time, PushKey)`
//!    order — the order the hardware's output queues would see — so
//!    switch queue state evolves identically however nodes are
//!    partitioned.
//!
//! The only per-shard artefacts are the cell-slab placement counters
//! (`cells.*`): slot reuse depends on which cells co-reside in an
//! arena, so the merged snapshot re-scopes them to `shard<k>.cells.*`
//! and publishes a fabric-level `cells.slab_high_water` maximum.
//! [`RunOutcome::semantic_snapshot`] strips both spellings, and the
//! equivalence suite asserts the rest is byte-identical to a
//! single-threaded run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use osiris_atm::{Cell, LinkSpec};
use osiris_board::spsc::SpscRing;
use osiris_sim::obs::{Counter, Gauge, Histogram, Snapshot};
use osiris_sim::stats::{LatencyStats, ThroughputMeter};
use osiris_sim::{EventQueue, Model, PushKey, SeriesDump, ShardQueue, SimDuration, SimTime};

use crate::config::TestbedConfig;
use crate::node::NodeId;
use crate::scenario::Scenario;
use crate::telemetry::{run_sampled, Sampler};
use crate::testbed::Event;

/// The shard that owns node `node` under an `shards`-way partition.
/// Round-robin keeps paired endpoints (`2k`, `2k+1`) on different
/// shards, which is the interesting (communicating) case.
pub fn shard_of(node: NodeId, shards: usize) -> usize {
    node.0 % shards
}

/// A cell-bearing event in flight between shards. The cell itself
/// travels by value: the sender evicts it from its arena, the receiver
/// re-inserts it into its own, and only the owning shard's slab ever
/// holds a live cell.
struct WireMsg {
    /// Event timestamp (at or beyond the sender's horizon).
    at: SimTime,
    /// The sender-assigned dispatch key; receivers enqueue it verbatim
    /// so the global `(time, key)` order is partition-invariant.
    key: PushKey,
    /// Which event to rebuild on the receiving shard.
    ev: WireEvent,
    /// The in-flight cell, evicted from the sender's arena.
    cell: Cell,
}

/// The cell-free remainder of a cross-shard [`Event`].
enum WireEvent {
    /// [`Event::CellArrival`] at a foreign node.
    Arrival { to: NodeId, lane: usize },
    /// [`Event::FabricTransit`] addressed to a foreign port block.
    Transit {
        from: NodeId,
        to: NodeId,
        lane: usize,
    },
}

impl WireMsg {
    /// Extracts a staged foreign event into wire form, evicting its
    /// cell from `cells`. Only cell-bearing events can cross shards —
    /// every other event is pushed by its own node's handler.
    fn pack(at: SimTime, key: PushKey, ev: Event, cells: &mut osiris_atm::CellSlab) -> WireMsg {
        let (ev, cell) = match ev {
            Event::CellArrival { to, lane, cell } => (WireEvent::Arrival { to, lane }, cell),
            Event::FabricTransit {
                from,
                to,
                lane,
                cell,
            } => (WireEvent::Transit { from, to, lane }, cell),
            other => unreachable!("non-cell event {other:?} cannot cross shards"),
        };
        WireMsg {
            at,
            key,
            ev,
            cell: cells.remove(cell),
        }
    }

    /// Rebuilds the event on the receiving shard, inserting the cell
    /// into that shard's arena.
    fn unpack(self, cells: &mut osiris_atm::CellSlab) -> (SimTime, PushKey, Event) {
        let r = cells.insert(self.cell);
        let ev = match self.ev {
            WireEvent::Arrival { to, lane } => Event::CellArrival { to, lane, cell: r },
            WireEvent::Transit { from, to, lane } => Event::FabricTransit {
                from,
                to,
                lane,
                cell: r,
            },
        };
        (self.at, self.key, ev)
    }
}

/// One directed cross-shard channel: a fixed-capacity SPSC ring (the
/// common case, lock-free) with a mutex-guarded spill vector for
/// bursts beyond the ring. Receivers drain both and re-sort by
/// `(time, key)`, so which path a message took is unobservable.
struct Channel {
    ring: SpscRing<WireMsg>,
    spill: Mutex<Vec<WireMsg>>,
}

impl Channel {
    fn new() -> Self {
        Channel {
            ring: SpscRing::new(1024),
            spill: Mutex::new(Vec::new()),
        }
    }

    /// Sends `msg`, returning `true` if it spilled past the ring. Both
    /// the return and the post-push [`SpscRing::len`] are deterministic
    /// per round: consumers only drain after the round's second
    /// barrier, so within the exec phase a channel fills monotonically
    /// under its single producer.
    fn send(&self, msg: WireMsg) -> bool {
        if let Err(m) = self.ring.push(msg) {
            self.spill.lock().expect("spill lock").push(m);
            return true;
        }
        false
    }
}

/// Per-shard slice of the merged outcome, for scaling reports.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Events this shard's queue accepted (seeds + local + ingested).
    pub events_scheduled: u64,
    /// Events this shard dispatched.
    pub events_dispatched: u64,
    /// Peak live cells in this shard's arena.
    pub slab_high_water: f64,
    /// Barrier rounds this shard participated in (0 when sequential).
    pub rounds: u64,
    /// Wall-clock nanoseconds this shard spent waiting at round
    /// barriers — the engine's own load-imbalance cost, and the one
    /// deliberately non-virtual number in the outcome.
    pub barrier_stall_ns: u64,
    /// Cross-shard messages that overflowed an SPSC ring into the
    /// mutex-guarded spill path.
    pub spills: u64,
    /// Peak occupancy of any outbound SPSC ring, in messages.
    pub ring_high_water: f64,
}

/// The merged result of a scenario run, identical in shape whether it
/// ran on one thread or many.
#[derive(Debug)]
pub struct RunOutcome {
    /// Merged registry snapshot: counters summed, gauges maxed, and
    /// partition-dependent `cells.*` entries re-scoped to
    /// `shard<k>.cells.*` (plus a fabric-level max
    /// `cells.slab_high_water` gauge).
    pub snapshot: Snapshot,
    /// Merged end-to-end latency moments (float merge; use the
    /// histogram for exact cross-run comparison).
    pub latency: LatencyStats,
    /// Merged end-to-end latency histogram (bucket-exact).
    pub latency_hist: Histogram,
    /// Merged goodput meter (exact under the scenarios' zero warmup).
    pub meter: ThroughputMeter,
    /// Whether any shard saw its completion condition.
    pub done: bool,
    /// Total verification failures across shards.
    pub verify_failures: u64,
    /// PDUs delivered to sinks, across shards.
    pub delivered: u64,
    /// Total events scheduled (equals the sequential engine's
    /// `engine.events.scheduled`).
    pub scheduled: u64,
    /// Total events dispatched (equals the sequential step count).
    pub dispatched: u64,
    /// Timestamp of the last dispatched event.
    pub last_event_time: SimTime,
    /// Shard count this outcome was produced under.
    pub shards: usize,
    /// Per-shard breakdown (one entry when sequential).
    pub per_shard: Vec<ShardStats>,
    /// Sampled time series when `cfg.sim.sample_every` was set (`None`
    /// otherwise). Sharded runs return every shard's series prefixed
    /// `shard<k>.`; the sequential engine's series keep plain names.
    pub series: Option<SeriesDump>,
}

impl RunOutcome {
    /// The partition-invariant view of the snapshot: everything except
    /// the metric families that legitimately depend on the partitioning
    /// or the engine's mechanics — the cell-arena placement metrics
    /// (`cells.*`), the engine self-profile (`profile.*`, wall-clock
    /// and per-shard by nature), the telemetry plane's own bookkeeping
    /// (`obs.*`, present only when sampling is on), the event-queue
    /// internals (`engine.queue.*`, each queue's own pending high
    /// water), the switch's instantaneous depth gauge (last-writer),
    /// and the `shard<k>.` re-scoped spellings of all of these.
    /// Byte-compare its rendered JSON across shard counts and sampling
    /// on/off.
    pub fn semantic_snapshot(&self) -> Snapshot {
        fn keep(k: &str) -> bool {
            !is_partition_dependent_key(k)
        }
        Snapshot {
            counters: self
                .snapshot
                .counters
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .snapshot
                .gauges
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    /// A `BENCH_loss`-style one-line summary built exclusively from
    /// partition-invariant quantities, for byte-comparison across
    /// shard counts.
    pub fn goodput_line(&self) -> String {
        let s = self.semantic_snapshot();
        let sum = |suffix: &str| -> u64 {
            s.counters
                .iter()
                .filter(|(k, _)| k.ends_with(suffix))
                .map(|(_, v)| *v)
                .sum()
        };
        format!(
            "goodput {:>7.1} Mbps, p99 {:>8.1} us, {} delivered, {} retrans, {} reaps, {} dropped, {} corrupted, {} gave up",
            self.meter.mbps(),
            self.latency_hist.percentile_us(0.99),
            self.delivered,
            sum("stack.retransmits"),
            sum("board.rx.pdus_dropped_timeout"),
            sum("link.cells_dropped"),
            sum("link.cells_corrupted"),
            sum("stack.gave_up"),
        )
    }

    /// Load-imbalance headline: the busiest shard's dispatched-event
    /// count over the per-shard mean (`1.0` = perfectly balanced, and
    /// by construction for a sequential run). Deterministic — dispatch
    /// counts are part of the bit-identical result.
    pub fn shard_imbalance(&self) -> f64 {
        let max = self
            .per_shard
            .iter()
            .map(|s| s.events_dispatched)
            .max()
            .unwrap_or(0);
        if self.per_shard.is_empty() || self.dispatched == 0 {
            return 1.0;
        }
        let mean = self.dispatched as f64 / self.per_shard.len() as f64;
        max as f64 / mean
    }
}

/// Key prefixes whose values legitimately differ across partitionings
/// or sampling on/off — stripped from the semantic snapshot (in both
/// plain and `shard<k>.`-re-scoped spellings):
///
/// * `cells.` — arena placement depends on which cells co-reside;
/// * `profile.` — per-shard engine self-profiling, partly wall-clock;
/// * `obs.` — the sampler's own bookkeeping, present only when on;
/// * `engine.queue.` — event-queue internals (each shard's own pending
///   high water).
const PARTITION_DEPENDENT_PREFIXES: &[&str] = &["cells.", "profile.", "obs.", "engine.queue."];

/// True for keys the semantic snapshot must strip (see
/// [`PARTITION_DEPENDENT_PREFIXES`]), plus the switch's instantaneous
/// depth gauge, whose last writer depends on shard interleaving (its
/// high-water companion is max-merged and stays).
fn is_partition_dependent_key(k: &str) -> bool {
    let dependent = |k: &str| {
        PARTITION_DEPENDENT_PREFIXES
            .iter()
            .any(|p| k.starts_with(p))
            || k == "fabric.switch.queue_depth_cells"
    };
    if dependent(k) {
        return true;
    }
    if let Some(rest) = k.strip_prefix("shard") {
        if let Some(dot) = rest.find('.') {
            return !rest[..dot].is_empty()
                && rest[..dot].bytes().all(|b| b.is_ascii_digit())
                && dependent(&rest[dot + 1..]);
        }
    }
    false
}

/// True for keys the sharded merge re-scopes to `shard<k>.<key>`
/// instead of merging: per-shard state where a sum or max across
/// replicas would be meaningless.
fn is_per_shard_key(k: &str) -> bool {
    k.starts_with("cells.") || k.starts_with("profile.")
}

/// Runs `scenario` under `cfg.sim.shards` shards. `shards <= 1` is the
/// untouched sequential engine; `>= 2` is the parallel engine. Both
/// return the same [`RunOutcome`] shape.
pub fn run_scenario(scenario: Scenario, cfg: TestbedConfig) -> RunOutcome {
    let shards = cfg.sim.shards;
    if shards <= 1 {
        run_sequential(scenario, cfg)
    } else {
        run_sharded(scenario, cfg, shards)
    }
}

/// The historical engine, wrapped into a [`RunOutcome`]. When
/// `cfg.sim.sample_every` is set, the run loop additionally samples the
/// telemetry grid between dispatches — same dispatch order, same final
/// time, registry untouched but for the sampler's own `obs.*` scope.
fn run_sequential(scenario: Scenario, cfg: TestbedConfig) -> RunOutcome {
    let mut sim = scenario.launch(cfg);
    let sampler = sim.model.cfg.sim.sample_every.map(|every| {
        Sampler::new(
            &sim.model.registry,
            &sim.model.registry.probe("obs"),
            every,
            sim.model.cfg.sim.series_capacity,
        )
    });
    match &sampler {
        Some(s) => run_sampled(&mut sim, s),
        None => sim.run_to_completion(),
    }
    let series = sampler.map(|s| s.finish(sim.now()));
    let snapshot = sim.model.snapshot();
    let tb = &sim.model;
    RunOutcome {
        latency: tb.latency.clone(),
        latency_hist: tb.latency_hist.clone(),
        meter: tb.meter.clone(),
        done: tb.done,
        verify_failures: tb.verify_failures,
        delivered: tb.delivered_count,
        scheduled: sim.queue.total_pushed(),
        dispatched: sim.steps(),
        last_event_time: sim.now(),
        shards: 1,
        per_shard: vec![ShardStats {
            shard: 0,
            events_scheduled: sim.queue.total_pushed(),
            events_dispatched: sim.steps(),
            slab_high_water: snapshot.gauge("cells.slab_high_water"),
            rounds: 0,
            barrier_stall_ns: 0,
            spills: 0,
            ring_high_water: 0.0,
        }],
        snapshot,
        series,
    }
}

/// What one shard thread hands back for merging.
struct ShardResult {
    /// Registry state right after `Scenario::build`, before the probe
    /// attach and the seeds. Construction has real simulated cost
    /// (e.g. receive-buffer provisioning rides the bus), and every
    /// replica pays it for *all* nodes — so the merge sums per-shard
    /// deltas over this baseline and adds the (replica-identical)
    /// baseline back exactly once.
    base: Snapshot,
    snapshot: Snapshot,
    /// The scenario's global delivery target (identical in every
    /// replica). `done` must be judged against the *summed* delivered
    /// count: sink-terminated scenarios spread their sinks across
    /// shards, so no single shard sees every delivery.
    expected_deliveries: u64,
    latency: LatencyStats,
    latency_hist: Histogram,
    meter: ThroughputMeter,
    done: bool,
    verify_failures: u64,
    delivered: u64,
    scheduled: u64,
    dispatched: u64,
    last_event_time: SimTime,
    /// This shard's sampled series (plain names; the merge prefixes
    /// them `shard<k>.`), when sampling was on.
    series: Option<SeriesDump>,
}

/// One shard's self-profiling instruments, registered under the
/// replica registry's `profile.*` scope (re-scoped `shard<k>.profile.*`
/// by the merge, stripped from the semantic snapshot — barrier stall
/// is wall-clock, the rest is per-shard by nature).
struct ShardProfile {
    rounds: Counter,
    barrier_stall_ns: Counter,
    spills: Counter,
    ring_high_water: Gauge,
    gmin_ps: Gauge,
    /// Shadow of `ring_high_water` (gauges have no read-modify max).
    ring_hw: f64,
}

impl ShardProfile {
    fn new(tb: &crate::testbed::Testbed) -> ShardProfile {
        let pp = tb.registry.probe("profile");
        ShardProfile {
            rounds: pp.counter("rounds"),
            barrier_stall_ns: pp.counter("barrier_stall_ns"),
            spills: pp.counter("spills"),
            ring_high_water: pp.gauge("ring_high_water"),
            gmin_ps: pp.gauge("gmin_ps"),
            ring_hw: 0.0,
        }
    }

    fn note_ring_occupancy(&mut self, occ: u32) {
        if occ as f64 > self.ring_hw {
            self.ring_hw = occ as f64;
            self.ring_high_water.set(self.ring_hw);
        }
    }
}

/// Spawns one thread per shard, runs the barrier-stepped rounds to
/// global quiescence, and merges the per-shard results.
fn run_sharded(scenario: Scenario, cfg: TestbedConfig, shards: usize) -> RunOutcome {
    // One STS-3c cell time: the hard floor on cross-shard latency. A
    // cell must fully serialise onto its transmit link before it can
    // arrive anywhere, and every cross-shard event is a cell arrival
    // or a switch transit at wire-arrival time.
    let lookahead = LinkSpec::sts3c_back_to_back().cell_time();
    let barrier = Barrier::new(shards);
    // Each shard owns one slot and publishes its earliest pending
    // timestamp there each round (u64::MAX = idle). Single-writer
    // slots avoid any fetch-min reset race.
    let slots: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect();
    // channels[s][d]: the directed s -> d lane (single producer,
    // single consumer by construction).
    let channels: Vec<Vec<Channel>> = (0..shards)
        .map(|_| (0..shards).map(|_| Channel::new()).collect())
        .collect();

    let results: Vec<ShardResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|k| {
                let cfg = &cfg;
                let barrier = &barrier;
                let slots = &slots[..];
                let channels = &channels[..];
                scope.spawn(move || {
                    run_shard(
                        k, shards, scenario, cfg, lookahead, barrier, slots, channels,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });

    merge(shards, results)
}

/// One shard's event loop: build a full replica, seed, then barrier-
/// stepped rounds of publish-min / agree-on-horizon / execute / drain.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    k: usize,
    shards: usize,
    scenario: Scenario,
    cfg: &TestbedConfig,
    lookahead: SimDuration,
    barrier: &Barrier,
    slots: &[AtomicU64],
    channels: &[Vec<Channel>],
) -> ShardResult {
    let mut tb = scenario.build(cfg.clone());
    let base = tb.snapshot();
    let mut q: ShardQueue<Event> = ShardQueue::new();
    q.attach_probe(&tb.registry.probe("engine"));
    // Registered after `base` so the merge's baseline add-back never
    // sees them; re-scoped per shard there instead.
    let mut profile = ShardProfile::new(&tb);
    let sampler = cfg.sim.sample_every.map(|every| {
        Sampler::new(
            &tb.registry,
            &tb.registry.probe("obs"),
            every,
            cfg.sim.series_capacity,
        )
    });
    // Handlers stage into a plain queue; the shard loop re-keys and
    // routes each staged event. Reused across dispatches; it pops each
    // dispatch's pushes in (time, push order), and a push below its
    // last pop (after a far-future timer) just re-anchors it.
    let mut staging: EventQueue<Event> = EventQueue::new();
    let n = tb.nodes.len();
    // Per-origin push counters — the `ctr` component of PushKey. All
    // replicas advance all counters identically (foreign events are
    // counted even though they are not enqueued locally), so a key
    // assigned by any shard matches the one the sequential engine's
    // FIFO order implies.
    let mut ctr = vec![0u64; n];

    for (owner, ev) in scenario.seed_events(&mut tb) {
        let key = PushKey::seed(owner.0 as u32, ctr[owner.0]);
        ctr[owner.0] += 1;
        if shard_of(owner, shards) == k {
            q.push(SimTime::ZERO, key, ev);
        }
    }

    let mut now = SimTime::ZERO;
    let mut dispatched = 0u64;
    let mut incoming: Vec<WireMsg> = Vec::new();

    loop {
        // Publish this shard's earliest pending work and agree on the
        // global minimum. Between the two barrier crossings every
        // shard is inside the same round, so the slot values are
        // stable while read.
        slots[k].store(q.peek_time().map_or(u64::MAX, |t| t.0), Ordering::Release);
        let stall = Instant::now();
        barrier.wait();
        profile
            .barrier_stall_ns
            .add(stall.elapsed().as_nanos() as u64);
        let gmin = slots
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .min()
            .expect("at least one shard");
        if gmin == u64::MAX {
            // Globally quiescent: all queues empty and (because every
            // round ends with a full channel drain) nothing in flight.
            break;
        }
        profile.rounds.incr();
        profile.gmin_ps.set(gmin as f64);
        if let Some(s) = &sampler {
            // Every event strictly before gmin — on every shard — has
            // already been dispatched (the previous round's horizon is
            // a lower bound on every queue), so grid points below gmin
            // read final state: the same values the sequential sampler
            // reads between its dispatches.
            s.sample_grid_before(SimTime(gmin));
        }
        let horizon = SimTime(gmin) + lookahead;

        // Execute every local event strictly before the horizon. Any
        // event this generates for a foreign node is a cell arrival at
        // least one cell time in the future, i.e. at or past the
        // horizon — asserted below.
        while q.peek_time().is_some_and(|t| t < horizon) {
            let (t, _key, ev) = q.pop().expect("peeked");
            debug_assert!(t >= now, "shard {k}: causality violation");
            debug_assert_eq!(shard_of(ev.owner(), shards), k, "event on wrong shard");
            now = t;
            dispatched += 1;
            if let Some(s) = &sampler {
                s.note_dispatch();
            }
            let origin = ev.owner();
            tb.handle(t, ev, &mut staging);
            while let Some((at, staged)) = staging.pop() {
                let key = PushKey {
                    t_push: t,
                    origin: origin.0 as u32,
                    ctr: ctr[origin.0],
                };
                ctr[origin.0] += 1;
                let dest = shard_of(staged.owner(), shards);
                if dest == k {
                    q.push(at, key, staged);
                } else {
                    debug_assert!(
                        at >= horizon,
                        "shard {k}: cross-shard event at {at:?} violates horizon {horizon:?}"
                    );
                    let ch = &channels[k][dest];
                    if ch.send(WireMsg::pack(at, key, staged, &mut tb.cells)) {
                        profile.spills.incr();
                    } else {
                        profile.note_ring_occupancy(ch.ring.len());
                    }
                }
            }
        }

        // Rendezvous, then drain everything the other shards sent this
        // round. Sorting by (time, key) before insertion keeps the
        // arena's slot-assignment order deterministic too.
        let stall = Instant::now();
        barrier.wait();
        profile
            .barrier_stall_ns
            .add(stall.elapsed().as_nanos() as u64);
        for (s, row) in channels.iter().enumerate() {
            if s == k {
                continue;
            }
            let ch = &row[k];
            while let Some(m) = ch.ring.pop() {
                incoming.push(m);
            }
            incoming.append(&mut ch.spill.lock().expect("spill lock"));
        }
        incoming.sort_by_key(|m| (m.at, m.key));
        for m in incoming.drain(..) {
            let (at, key, ev) = m.unpack(&mut tb.cells);
            q.push(at, key, ev);
        }
    }

    let series = sampler.map(|s| s.finish(now));
    ShardResult {
        base,
        snapshot: tb.snapshot(),
        expected_deliveries: tb.expected_deliveries,
        latency: tb.latency.clone(),
        latency_hist: tb.latency_hist.clone(),
        meter: tb.meter.clone(),
        done: tb.done,
        verify_failures: tb.verify_failures,
        delivered: tb.delivered_count,
        scheduled: q.total_pushed(),
        dispatched,
        last_event_time: now,
        series,
    }
}

/// Merges per-shard results into one [`RunOutcome`]. Counters sum
/// (each is driven by exactly one shard; replicas leave foreign scopes
/// at zero), gauges max, and the per-shard families — the arena's
/// `cells.*` and the engine self-profile's `profile.*` — are re-scoped
/// `shard<k>.*`, with a fabric-level `cells.slab_high_water` maximum
/// kept under the original name. Per-shard series dumps are prefixed
/// `shard<k>.` and absorbed into one [`SeriesDump`].
fn merge(shards: usize, results: Vec<ShardResult>) -> RunOutcome {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
    let mut latency = LatencyStats::default();
    let mut latency_hist = Histogram::default();
    let mut meter: Option<ThroughputMeter> = None;
    let mut done = false;
    let mut verify_failures = 0;
    let mut delivered = 0;
    let mut scheduled = 0;
    let mut dispatched = 0;
    let mut last_event_time = SimTime::ZERO;
    let mut per_shard = Vec::with_capacity(results.len());
    let mut series: Option<SeriesDump> = None;

    for (k, r) in results.iter().enumerate() {
        for (key, v) in &r.snapshot.counters {
            if is_per_shard_key(key) {
                counters.insert(format!("shard{k}.{key}"), *v);
            } else {
                // Sum what this shard *did*, not what its replica
                // inherited from construction — the baseline is added
                // back once, below.
                let built = r.base.counters.get(key).copied().unwrap_or(0);
                *counters.entry(key.clone()).or_insert(0) += *v - built;
            }
        }
        for (key, g) in &r.snapshot.gauges {
            if is_per_shard_key(key) {
                gauges.insert(format!("shard{k}.{key}"), *g);
                if key != "cells.slab_high_water" {
                    continue;
                }
                // Fall through: also fold into the fabric-level max.
            }
            let e = gauges.entry(key.clone()).or_insert(*g);
            if *g > *e {
                *e = *g;
            }
        }
        latency.absorb(&r.latency);
        latency_hist.absorb(&r.latency_hist);
        meter = Some(match meter.take() {
            None => r.meter.clone(),
            Some(mut m) => {
                m.absorb(&r.meter);
                m
            }
        });
        done |= r.done;
        verify_failures += r.verify_failures;
        delivered += r.delivered;
        scheduled += r.scheduled;
        dispatched += r.dispatched;
        if r.last_event_time > last_event_time {
            last_event_time = r.last_event_time;
        }
        per_shard.push(ShardStats {
            shard: k,
            events_scheduled: r.scheduled,
            events_dispatched: r.dispatched,
            slab_high_water: r.snapshot.gauge("cells.slab_high_water"),
            rounds: r.snapshot.counter("profile.rounds"),
            barrier_stall_ns: r.snapshot.counter("profile.barrier_stall_ns"),
            spills: r.snapshot.counter("profile.spills"),
            ring_high_water: r.snapshot.gauge("profile.ring_high_water"),
        });
        if let Some(d) = r.series.clone() {
            let prefixed = d.prefixed(&format!("shard{k}"));
            match &mut series {
                None => series = Some(prefixed),
                Some(s) => s.absorb(prefixed),
            }
        }
    }
    // Sink-terminated scenarios complete when the fleet as a whole has
    // delivered everything; a single shard only ever sees its own
    // sinks' deliveries, so re-judge the flag globally.
    let expected = results[0].expected_deliveries;
    if expected > 0 {
        done = delivered >= expected;
    }
    // Construction cost is identical in every replica (the build is
    // deterministic and complete on each shard); add it back exactly
    // once so e.g. provisioning-time bus words are counted as the
    // sequential engine counts them.
    for (key, v) in &results[0].base.counters {
        if !is_per_shard_key(key) {
            *counters.entry(key.clone()).or_insert(0) += *v;
        }
    }
    // The merged scheduled counter must read as the sequential one:
    // the per-shard probes all published under `engine.events.
    // scheduled` and counters sum, so the merged snapshot already
    // equals `scheduled` — no fix-up needed, but make it explicit.
    debug_assert_eq!(counters.get("engine.events.scheduled"), Some(&scheduled));

    RunOutcome {
        snapshot: Snapshot { counters, gauges },
        latency,
        latency_hist,
        meter: meter.expect("at least one shard"),
        done,
        verify_failures,
        delivered,
        scheduled,
        dispatched,
        last_event_time,
        shards,
        per_shard,
        series,
    }
}
