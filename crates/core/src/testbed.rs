//! The discrete-event dispatcher: routes events to nodes and the fabric.
//!
//! The testbed used to be a monolith hardwired to two shapes; it is now
//! the thin event loop over three layers:
//!
//! * [`crate::node`] — [`HostNode`]: one complete host (machine, board
//!   pair, driver, stack), addressed by a typed [`NodeId`].
//! * [`crate::fabric`] — cell transport: back-to-back links or a switched
//!   fabric routing by VCI through [`osiris_atm::switch`].
//! * [`crate::scenario`] — declarative topology + workload descriptions
//!   that assemble a `Testbed` ([`crate::scenario::Scenario`]).
//!
//! Modelling note: board state mutations (ring pushes) take effect at
//! event-dispatch time while carrying later timestamps (the DMA
//! completion grants); a drain event landing inside that window observes
//! descriptors stamped "in the future". Relative to the event clock the
//! lead equals the bus backlog, which under sustained receive load grows
//! with the burst (the wire delivers cells faster than single-cell DMA
//! drains them), so it is *not* a small constant. The enforceable bound
//! is against the machine's committed-work horizon — the later of the
//! memory bus's and the receive engine's `free_at()`: every stamp is a
//! grant finish on one of those two resources, so a drain can never
//! observe a descriptor more than one receive DMA grant beyond that
//! horizon. `rx_drain` enforces exactly this with a debug assertion
//! ([`Testbed::max_drain_ahead`] records the worst case); the skew does
//! not affect any reported steady-state number.
//!
//! # Cell trains
//!
//! A PDU routed when it is sent reaches its receiver as one
//! `CellArrival` event, a *train*, instead of one event per cell. The
//! dispatcher still behaves exactly as if each cell were its own event,
//! popped in the queue's order (time, then FIFO within an instant), the
//! *per-cell order*: every output but the dispatch counts is the same.
//! Each cell runs through the unchanged receive path at its own arrival
//! time, either at its *turn* in the per-cell order or ahead of it.
//!
//! To know turns without reading the queue, the testbed keeps a ledger:
//! per node, the time and push number of each pending event. Push
//! numbers follow the order the per-cell dispatcher would push in (a
//! routed cell takes one at routing), so at one instant the smaller
//! number pops first. Before any event is handled, every train cell
//! whose turn comes earlier runs; a train's own event is queued again at
//! the time of whatever it still has due.
//!
//! A cell of receiver `r` at time `t` may run *ahead* of its turn only
//! when nothing can tell:
//! 1. **`r`'s own events.** No other event of `r` is pending before the
//!    cell's position; at `t` itself, the push numbers decide. Another
//!    train's held push (below) blocks from its instant on.
//! 2. **Events not yet created.** Only cells cross nodes, and a cell
//!    reaches the fabric at least a lookahead after the event that sends
//!    it (the transmit firmware's per-PDU and per-cell work, one cell on
//!    a lane, and propagation, from the specs). So `t` may not pass any
//!    node's earliest pending event plus that lookahead, over every node
//!    with a path to `r`. This is the per-node lookahead the sharded
//!    engine used (DESIGN.md "Why there is one engine").
//! 3. **State shared across nodes.** Whatever the cell does outside `r`
//!    waits for its turn: its pushes (`RxFlush`, `RxInterrupt`,
//!    `RxReapTick`) are held and queued at the turn, with the push
//!    numbers they would have had, and its slab slot is freed by the
//!    first transmit kick after the turn. So the queue's order, the
//!    switch, the latency record, the meter and the slab counts see the
//!    per-cell order exactly. The timeline's record order would not:
//!    with the timeline on, no cell runs ahead.
//!
//! Debug builds check the rule as it runs: an event that pops, or a cell
//! that is routed, behind a cell of its node that ran ahead fails an
//! assertion, as does a cell or held push that runs out of turn.
//! Trains form only at nodes whose every inbound path, and every inbound
//! path of a node with a path to them, routes at send (elsewhere transit
//! events are always due and bound 2 would stop every train at once),
//! and only where some PDU spans more than one cell. Elsewhere no ledger
//! is kept and every arrival is a train of one, as before.

use std::collections::{BTreeSet, HashMap, VecDeque};

use osiris_adc::AdcManager;
use osiris_atm::sar::{SegmentUnit, Segmenter};
use osiris_atm::{CellRef, CellSlab};
use osiris_board::rx::RxOutcome;
use osiris_host::driver::{interrupt_to_thread, DeliveredPdu, SendOutcome};
use osiris_sim::obs::{Counter, Histogram, Probe, Snapshot};
use osiris_sim::stats::ThroughputMeter;
use osiris_sim::{EventQueue, Model, Registry, SimDuration, SimTime, SymId, Timeline, TraceCtx};

use osiris_proto::stack::{ProtoConfig, ProtoStack, RxVerdict};

use crate::config::{DataPath, Layer, TestbedConfig, TouchMode};
use crate::fabric::{Delivery, Fabric};

pub use crate::node::{HostNode, NodeId, Role};

/// Testbed events.
#[derive(Debug, Clone)]
pub enum Event {
    /// The application on `host` initiates its next message.
    AppSend {
        /// Node address.
        host: NodeId,
    },
    /// The transmit processor on `host` has (possibly) work to do.
    TxKick {
        /// Node address.
        host: NodeId,
    },
    /// Routed cells land at `to`'s receive FIFO: one event per *train*,
    /// a run of cells bound for `to` in the order their per-cell events
    /// would pop (arrival time, then routing order). A cell routed on
    /// arrival, or a PDU's only cell, is a train of one and travels in
    /// the event; a PDU routed when it is sent is one train per
    /// receiver. Each cell goes through the receive path at its own
    /// arrival time, either at its turn in the per-cell order or ahead
    /// of it where that provably changes nothing (see the
    /// [module docs](self), "Cell trains"); the event is queued again for
    /// what must wait for its turn.
    CellArrival {
        /// Destination node.
        to: NodeId,
        /// The cell, or the train.
        cars: Cars,
    },
    /// Double-cell lookahead window expired on `host`.
    RxFlush {
        /// Node address.
        host: NodeId,
        /// Pending-DMA generation (stale guards).
        gen: u64,
    },
    /// The board asserted a receive interrupt at `host`.
    RxInterrupt {
        /// Node address.
        host: NodeId,
    },
    /// The drain thread (scheduled by the interrupt handler) runs.
    RxDrain {
        /// Node address.
        host: NodeId,
    },
    /// Transmit-queue half-empty wakeup (the host was blocked).
    TxWake {
        /// Node address.
        host: NodeId,
    },
    /// A cell in flight toward the switched fabric: it left `from`'s
    /// link and reaches the switch input at this event's timestamp.
    /// Routing — and therefore output-queue contention — happens here,
    /// in cell-*arrival* order, the order the hardware's output queues
    /// see. Scheduled only where an output the PDU uses has more than
    /// one feeder: elsewhere each output sees one link's cells in that
    /// link's order whenever routing runs, so `tx_kick` routes the cells
    /// when they are sent ([`Fabric::single_feeder`]). Their
    /// `CellArrival`s are then queued earlier, so they pop before, not
    /// after, any other event queued later for the same instant.
    FabricTransit {
        /// Transmitting node.
        from: NodeId,
        /// Physical lane the cell rides.
        lane: usize,
        /// Slab handle of the in-flight cell.
        cell: CellRef,
    },
    /// The fictitious-PDU generator's next step (receive benches).
    GenKick,
    /// The reassembly-timeout sweep on `host`'s receive board runs
    /// (scheduled only when `cfg.reassembly_timeout` is set).
    RxReapTick {
        /// Node address.
        host: NodeId,
    },
    /// A retransmission timer on `host`'s protocol stack may have
    /// expired (reliable mode only).
    RetransTick {
        /// Node address.
        host: NodeId,
    },
}

/// What a [`Event::CellArrival`] carries.
#[derive(Debug, Clone, Copy)]
pub enum Cars {
    /// A train of one: the lane the cell arrived on and its slab handle
    /// ([`Testbed::cells`]); the receive path consumes it and recycles
    /// the slot.
    One {
        /// Physical lane the cell arrived on (`u32` keeps [`Event`] as
        /// small as the per-cell event it replaces).
        lane: u32,
        /// Slab handle of the in-flight cell.
        cell: CellRef,
    },
    /// A longer train, by its slot in the testbed's train pool.
    Train(u32),
}

// A train of one costs the queue no more than the per-cell event did.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

impl Event {
    /// The node whose state the event's handler touches: a `GenKick`
    /// feeds node 0; a `FabricTransit` belongs to the node its cell
    /// routes to, which only the fabric knows (`None` here).
    pub(crate) fn node(&self) -> Option<NodeId> {
        match *self {
            Event::AppSend { host }
            | Event::TxKick { host }
            | Event::RxFlush { host, .. }
            | Event::RxInterrupt { host }
            | Event::RxDrain { host }
            | Event::TxWake { host }
            | Event::RxReapTick { host }
            | Event::RetransTick { host } => Some(host),
            Event::CellArrival { to, .. } => Some(to),
            Event::GenKick => Some(NodeId(0)),
            Event::FabricTransit { .. } => None,
        }
    }
}

/// Per-node interned track keys (see [`TbSyms`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeTracks {
    app: SymId,
    host: SymId,
    board_tx: SymId,
    board_rx: SymId,
    /// The switch output port that feeds this node.
    switch_port: SymId,
}

/// Interned timeline keys for the dispatcher's hot path. Every event
/// dispatch emits an instant when the timeline is enabled; interning the
/// track and name strings once up front (resolved back to the identical
/// strings at export) keeps that emission allocation-free.
#[derive(Debug)]
pub(crate) struct TbSyms {
    nodes: Vec<NodeTracks>,
    gen: SymId,
    fabric: SymId,
    transit: SymId,
    send: SymId,
    kick: SymId,
    cell: SymId,
    flush: SymId,
    reap: SymId,
    intr: SymId,
    drain_start: SymId,
    wake: SymId,
    rto_tick: SymId,
    app_send: SymId,
    app_deliver: SymId,
    intr_service: SymId,
    drain: SymId,
    intr_wait: SymId,
    switch_q: SymId,
}

impl TbSyms {
    /// Interns every track/name the dispatcher emits for `n` nodes.
    pub(crate) fn intern(timeline: &Timeline, n: usize) -> TbSyms {
        TbSyms {
            nodes: (0..n)
                .map(|i| NodeTracks {
                    app: timeline.intern(&format!("node{i}.app")),
                    host: timeline.intern(&format!("node{i}.host")),
                    board_tx: timeline.intern(&format!("node{i}.board.tx")),
                    board_rx: timeline.intern(&format!("node{i}.board.rx")),
                    switch_port: timeline.intern(&format!("fabric.switch.port{i}")),
                })
                .collect(),
            gen: timeline.intern("gen"),
            fabric: timeline.intern("fabric.switch"),
            transit: timeline.intern("transit"),
            send: timeline.intern("send"),
            kick: timeline.intern("kick"),
            cell: timeline.intern("cell"),
            flush: timeline.intern("flush"),
            reap: timeline.intern("reap"),
            intr: timeline.intern("intr"),
            drain_start: timeline.intern("drain start"),
            wake: timeline.intern("wake"),
            rto_tick: timeline.intern("rto tick"),
            app_send: timeline.intern("app.send"),
            app_deliver: timeline.intern("app.deliver"),
            intr_service: timeline.intern("intr service"),
            drain: timeline.intern("drain"),
            intr_wait: timeline.intern("intr.wait"),
            switch_q: timeline.intern("switch.q"),
        }
    }
}

/// Per-event-type dispatch counters, registered under
/// `engine.dispatch.<event>`. Every event is dispatched exactly once,
/// so the equivalence suites byte-compare them. They are the engine's
/// own workload mix made registry-visible; the `events` bin gates them
/// exactly.
#[derive(Debug, Clone)]
pub struct DispatchCounters {
    app_send: Counter,
    tx_kick: Counter,
    cell_arrival: Counter,
    rx_flush: Counter,
    rx_interrupt: Counter,
    rx_drain: Counter,
    tx_wake: Counter,
    fabric_transit: Counter,
    gen_kick: Counter,
    rx_reap_tick: Counter,
    retrans_tick: Counter,
}

impl DispatchCounters {
    /// Registers all eleven counters under `probe` (the builder passes
    /// `registry.probe("engine.dispatch")`).
    pub fn new(probe: &Probe) -> DispatchCounters {
        DispatchCounters {
            app_send: probe.counter("app_send"),
            tx_kick: probe.counter("tx_kick"),
            cell_arrival: probe.counter("cell_arrival"),
            rx_flush: probe.counter("rx_flush"),
            rx_interrupt: probe.counter("rx_interrupt"),
            rx_drain: probe.counter("rx_drain"),
            tx_wake: probe.counter("tx_wake"),
            fabric_transit: probe.counter("fabric_transit"),
            gen_kick: probe.counter("gen_kick"),
            rx_reap_tick: probe.counter("rx_reap_tick"),
            retrans_tick: probe.counter("retrans_tick"),
        }
    }

    /// The counter for `ev`'s variant.
    fn of(&self, ev: &Event) -> &Counter {
        match ev {
            Event::AppSend { .. } => &self.app_send,
            Event::TxKick { .. } => &self.tx_kick,
            Event::CellArrival { .. } => &self.cell_arrival,
            Event::RxFlush { .. } => &self.rx_flush,
            Event::RxInterrupt { .. } => &self.rx_interrupt,
            Event::RxDrain { .. } => &self.rx_drain,
            Event::TxWake { .. } => &self.tx_wake,
            Event::FabricTransit { .. } => &self.fabric_transit,
            Event::GenKick => &self.gen_kick,
            Event::RxReapTick { .. } => &self.rx_reap_tick,
            Event::RetransTick { .. } => &self.retrans_tick,
        }
    }
}

/// Where an event stands in the per-cell dispatcher's order: its time,
/// then its push number ([`Ledger`]). A smaller position pops first.
pub(crate) type Pos = (SimTime, u64);

/// The dispatcher's record of what is pending, kept so that cell trains
/// can decide without reading the event queue (which callers such as a
/// reference loop or a timing harness may drive differently).
///
/// Push numbers are handed out in the order the per-cell dispatcher
/// would push its events, one per routed cell included, so at one
/// instant the smaller number pops first: the queue's FIFO order.
/// Wake-ups of trains take no number. Off (nothing recorded) when no
/// PDU can reach a receiver as a train of more than one cell.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    pub(crate) on: bool,
    /// The next push number.
    seq: u64,
    /// Per node, the positions of its pending events other than trains,
    /// in ascending order; the front is the next to pop.
    pending: Vec<VecDeque<Pos>>,
    /// Set while a cell runs ahead of its turn: its pushes collect in
    /// `held` instead of the queue.
    holding: bool,
    held: Vec<(SimTime, Event)>,
}

impl Ledger {
    pub(crate) fn new(on: bool, nodes: usize) -> Ledger {
        Ledger {
            on,
            pending: vec![VecDeque::new(); nodes],
            ..Ledger::default()
        }
    }

    /// Queues `ev` for node `owner` (the node whose state it touches).
    fn push_for(&mut self, q: &mut EventQueue<Event>, owner: usize, at: SimTime, ev: Event) {
        if self.holding {
            self.held.push((at, ev));
            return;
        }
        if self.on {
            let pos = (at, self.take_seq());
            let p = &mut self.pending[owner];
            if p.back().is_none_or(|&b| b < pos) {
                p.push_back(pos);
            } else {
                let i = p.partition_point(|&x| x < pos);
                p.insert(i, pos);
            }
        }
        q.push(at, ev);
    }

    /// Queues `ev`, an event naming its node.
    fn push(&mut self, q: &mut EventQueue<Event>, at: SimTime, ev: Event) {
        if self.on {
            let owner = ev.node().expect("event names its node").0;
            self.push_for(q, owner, at, ev);
        } else {
            q.push(at, ev);
        }
    }

    fn take_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// The push number of `owner`'s event popping at `now`: the front of
    /// its record, since its earlier events have all popped and at one
    /// instant the queue pops them in push order.
    ///
    /// # Panics
    /// Panics when the event is not in the ledger: it was pushed into
    /// the queue directly rather than through [`Testbed::schedule`].
    fn pop(&mut self, owner: usize, now: SimTime) -> u64 {
        match self.pending[owner].pop_front() {
            Some((at, key)) if at == now => key,
            _ => panic!(
                "node {owner}'s event at {now:?} is not in the ledger \
                 (queue events through `Testbed::schedule`)"
            ),
        }
    }

    /// Position of `node`'s next pending event other than trains.
    fn front(&self, node: usize) -> Option<Pos> {
        self.pending[node].front().copied()
    }
}

/// One receiver's pending run of routed cells (see `Event::CellArrival`).
#[derive(Debug, Default)]
pub(crate) struct Train {
    to: usize,
    /// `(arrival, push number, lane, cell)` in pop order.
    cells: Vec<(SimTime, u64, usize, CellRef)>,
    /// The next cell to run.
    head: usize,
    /// Pushes made by cells that ran ahead of their turn, each with the
    /// position of the cell that made it: they join the queue at that
    /// position.
    held: VecDeque<(Pos, SimTime, Event)>,
    /// Slab slots of cells that ran ahead, freed once their turn has
    /// passed (the slab's recycling counts see the per-cell order).
    frees: VecDeque<(Pos, CellRef)>,
    /// Whether this train's wake-up is queued, and its place: it pops
    /// after every queued event whose push number is below `wake_key`.
    queued: bool,
    wake_key: u64,
}

impl Train {
    /// Position of the next thing due: a held push, or the head cell.
    fn next(&self) -> Option<Pos> {
        match self.held.front() {
            Some(&(pos, ..)) => Some(pos),
            None => self.cells.get(self.head).map(|&(at, key, ..)| (at, key)),
        }
    }

    /// Earliest time at which this train touches its receiver again:
    /// its head cell, or an event one of its held pushes queues.
    fn earliest(&self) -> SimTime {
        let head = self.cells.get(self.head).map_or(SimTime::MAX, |c| c.0);
        self.held.iter().fold(head, |t, &(_, at, _)| t.min(at))
    }
}

/// The pool of cell trains and what the validity rule needs about the
/// topology.
#[derive(Debug, Default)]
pub(crate) struct Trains {
    pool: Vec<Train>,
    spare: Vec<u32>,
    /// Trains holding cells, pushes or slots to free.
    live: Vec<u32>,
    /// No live train has anything due before this time.
    due: SimTime,
    /// Per node, whether routed cells reach it as trains (elsewhere each
    /// is a train of one).
    takes_trains: Vec<bool>,
    /// Per node, every other node with a path to it, directly or through
    /// further nodes.
    feeders: Vec<Vec<usize>>,
    /// Lower bound on the time from any event of a node to the arrival
    /// (or switch transit) of a cell it sends.
    lookahead: SimDuration,
    /// Per node, the latest position of a cell that ran ahead of its
    /// turn: no event of the node may be queued or pop before it.
    ahead: Vec<Option<Pos>>,
}

impl Trains {
    pub(crate) fn new(
        takes_trains: Vec<bool>,
        feeders: Vec<Vec<usize>>,
        lookahead: SimDuration,
    ) -> Trains {
        Trains {
            due: SimTime::MAX,
            ahead: vec![None; feeders.len()],
            takes_trains,
            feeders,
            lookahead,
            ..Trains::default()
        }
    }

    fn open(&mut self, to: usize) -> u32 {
        let id = self.spare.pop().unwrap_or_else(|| {
            self.pool.push(Train::default());
            self.pool.len() as u32 - 1
        });
        let t = &mut self.pool[id as usize];
        t.to = to;
        t.cells.clear();
        t.head = 0;
        self.live.push(id);
        id
    }

    /// Returns a train with nothing left to the pool.
    fn retire_if_spent(&mut self, id: u32) {
        let t = &self.pool[id as usize];
        if t.queued || t.next().is_some() || !t.frees.is_empty() {
            return;
        }
        let i = self.live.iter().position(|&x| x == id).expect("live train");
        self.live.swap_remove(i);
        self.spare.push(id);
    }

    /// Recomputes `due` from the live trains.
    fn refresh_due(&mut self) {
        let pool = &self.pool;
        self.due = self
            .live
            .iter()
            .filter_map(|&id| pool[id as usize].next())
            .map(|p| p.0)
            .min()
            .unwrap_or(SimTime::MAX);
    }
}

/// The assembled testbed (implements [`Model`]).
#[derive(Debug)]
pub struct Testbed {
    /// Configuration in force.
    pub cfg: TestbedConfig,
    /// Nodes, indexed by [`NodeId`].
    pub nodes: Vec<HostNode>,
    /// The cell transport between nodes.
    pub fabric: Box<dyn Fabric>,
    /// The ping client's round trips (latency experiments), or the
    /// sinks' inter-delivery gaps (streams): exact count, min, max and
    /// mean, and the tail (p99) that loss turns pathological.
    pub latency: Histogram,
    /// Delivered-byte meter (throughput experiments).
    pub meter: ThroughputMeter,
    /// Set when the experiment's message budget is exhausted.
    pub done: bool,
    /// Payload-verification failures (must stay 0).
    pub verify_failures: u64,
    /// ADC management, one per node (when `cfg.data_path == Adc`).
    pub adc: Vec<AdcManager>,
    /// The shared metric registry every component publishes into, with
    /// per-node scopes (`node0.board.rx.cells`, `node1.bus.dma_words`).
    pub registry: Registry,
    /// Typed span/instant timeline (Chrome trace-event export); disabled
    /// by default, enable with `timeline.set_enabled(true)`.
    pub timeline: Timeline,
    /// Slab arena every in-flight cell lives in: events and trains carry
    /// copyable [`CellRef`] handles, so a cell's 44-byte payload is
    /// written once at segmentation and copied again only when a train
    /// runs it ahead of its turn (`cells.slab_recycled` counts free-list
    /// reuse). A cell's slot is freed at its turn in the per-cell order,
    /// so the counts match one event per cell. Generated cells skip it:
    /// the generator hands each one to the board as it is cut.
    pub cells: CellSlab,
    /// Interned timeline keys for the dispatcher's per-event instants and
    /// spans (zero string allocation on the hot path).
    pub(crate) syms: TbSyms,
    /// Largest early-visibility window any drain observed (diagnostic
    /// for the modelling note above; see `rx_drain`).
    pub max_drain_ahead: SimDuration,
    pub(crate) ping_sent_at: Option<SimTime>,
    pub(crate) deliver_to_meter: bool,
    /// Transmit bench: count bytes at the board instead of routing them.
    pub(crate) tx_meter: bool,
    /// Sink-terminated runs (incast, many pairs) complete when this many
    /// messages landed at sinks (0 = completion is source- or client-driven).
    pub(crate) expected_deliveries: u64,
    pub(crate) delivered_count: u64,
    /// Bound on the descriptor early-visibility window (one receive DMA
    /// grant: bus queueing + largest transfer).
    pub(crate) drain_ahead_bound: SimDuration,
    /// When each traced PDU's end-of-PDU descriptor reached the receive
    /// ring, keyed by `(node, ctx)` — the anchor for the `intr.wait`
    /// span (descriptor visible → drain thread runs).
    pub(crate) eop_pushed: HashMap<(usize, TraceCtx), SimTime>,
    /// End of the last `switch.q` span per `(ctx, port)`: fragments of
    /// one datagram pipeline through the switch, and spans on one track
    /// must never overlap.
    pub(crate) switch_span_floor: HashMap<(TraceCtx, usize), SimTime>,
    /// Scratch for `tx_kick`: a single-feeder PDU's cells as
    /// `(arrival, send index, lane, cell)` in routing order, reused so
    /// the per-message path stays allocation-free.
    pub(crate) route_order: Vec<(SimTime, usize, usize, CellRef)>,
    /// Record of pending events in the per-cell dispatcher's order.
    pub(crate) ledger: Ledger,
    /// Cell trains in flight, and the topology facts their rule reads.
    pub(crate) trains: Trains,
    /// Whether a reap sweep is already scheduled per node (one pending
    /// sweep at a time keeps the event queue bounded).
    pub(crate) reap_scheduled: Vec<bool>,
    /// Consecutive sweeps per node that neither reclaimed a PDU nor
    /// pushed a descriptor — the re-arm cap's progress signal.
    pub(crate) reap_idle: Vec<u32>,
    /// Deadlines of the `RetransTick`s queued per node: at most one tick
    /// is queued per node and deadline (see `arm_retransmit`).
    pub(crate) retrans_queued: Vec<BTreeSet<SimTime>>,
    /// Per-event-type dispatch counts (`engine.dispatch.*`), bumped once
    /// per handled event.
    pub(crate) dispatch: DispatchCounters,
}

impl Testbed {
    /// A deterministic read-out of every counter, gauge, and histogram
    /// the testbed's components registered.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// One domain crossing if the application is a plain user process.
    fn crossing_cost(&mut self, now: SimTime, host: NodeId) -> SimTime {
        if self.cfg.data_path == DataPath::UserViaKernel {
            let h = &mut self.nodes[host.0].host;
            h.run_software(now, h.spec.costs.syscall).finish
        } else {
            now
        }
    }

    /// The application prepares and queues one message.
    fn send_message(&mut self, now: SimTime, host: NodeId, q: &mut EventQueue<Event>) {
        let layer = self.cfg.layer;
        let msg_size = self.cfg.msg_size;
        let mut t = {
            let h = &mut self.nodes[host.0].host;
            let app = h.spec.costs.app_fixed;
            h.run_software(now, app).finish
        };
        t = self.crossing_cost(t, host);

        let node = &mut self.nodes[host.0];
        let tx_vci = node.tx_vci;
        let data_base = node.msg_region.base.offset(self.cfg.data_offset);
        // Latency test programs construct the message before sending.
        if self.cfg.touch == TouchMode::WritePerMessage && msg_size > 0 {
            let mut pieces = node.spare_buf_list();
            node.asp
                .translate_into(data_base, msg_size, &mut pieces)
                .expect("translate");
            let mut off = 0usize;
            for pb in &pieces {
                let end = off + pb.len as usize;
                t = node
                    .host
                    .cpu_write(t, pb.addr, &node.pattern[off..end])
                    .finish;
                off = end;
            }
            node.spare_bufs.push(pieces);
        }
        // Application-side work ends here; what follows is stack/driver
        // time charged (and traced) by the layers themselves.
        let t_app = t;
        let ctx;
        match layer {
            Layer::RawAtm => {
                let mut bufs = node.spare_buf_list();
                node.asp
                    .translate_into(data_base, msg_size.max(1), &mut bufs)
                    .expect("message translate");
                let c = TraceCtx {
                    host: host.0 as u16,
                    pdu: node.raw_ctx_seq,
                };
                node.raw_ctx_seq += 1;
                ctx = Some(c);
                node.pending_pkts.push_back((tx_vci, bufs, Some(c)));
            }
            Layer::UdpIp => {
                let data = osiris_proto::msg::Message::single(data_base, msg_size as u32);
                // Source/destination come from the node's open path.
                let entry = node
                    .paths
                    .by_local_port(node.local_port)
                    .expect("path open")
                    .1;
                let (src, dst, dst_host) = (
                    entry.ports.local_port,
                    entry.ports.remote_port,
                    entry.ports.remote_host,
                );
                t = node
                    .stack
                    .output_into(
                        t,
                        &mut node.host,
                        &node.asp,
                        data,
                        src,
                        dst,
                        dst_host,
                        &mut node.tx_pkts,
                    )
                    .expect("stack output");
                ctx = node.tx_pkts.first().map(|p| p.ctx);
                node.queue_tx_pkts(tx_vci);
            }
        }
        if self.timeline.is_enabled() {
            if let Some(c) = ctx {
                let node = &mut self.nodes[host.0];
                let from = now.max(node.app_span_floor);
                if t_app > from {
                    self.timeline.span(
                        self.syms.nodes[host.0].app,
                        self.syms.app_send,
                        Some(c),
                        from,
                        t_app,
                    );
                    node.app_span_floor = t_app;
                }
            }
        }
        self.pump_tx(t, host, q);
        // Reliable mode: the stack registered the datagram; make sure a
        // timer event exists for its RTO expiry.
        if self.cfg.reliable && layer == Layer::UdpIp {
            self.arm_retransmit(t, host, q);
        }
    }

    /// Schedules a retransmit tick at the stack's earliest RTO expiry,
    /// unless one is already queued for that exact time: the earlier
    /// same-time tick does all the work, so a later one would be a no-op.
    fn arm_retransmit(&mut self, now: SimTime, host: NodeId, q: &mut EventQueue<Event>) {
        if let Some(at) = self.nodes[host.0].stack.next_retransmit_at() {
            let at = at.max(now);
            if self.retrans_queued[host.0].insert(at) {
                self.ledger.push(q, at, Event::RetransTick { host });
            }
        }
    }

    /// A retransmission timer fires: re-send every datagram whose RTO
    /// expired (the stack doubles its backoff), then re-arm at the next
    /// expiry. Abandoned datagrams (`MAX_RETRIES`) stop re-arming, which
    /// bounds every run.
    fn retrans_tick(&mut self, now: SimTime, host: NodeId, q: &mut EventQueue<Event>) {
        self.retrans_queued[host.0].remove(&now);
        let node = &mut self.nodes[host.0];
        node.stack.poll_retransmit(now, &mut node.tx_pkts);
        if !node.tx_pkts.is_empty() {
            // Every reliable sender's data travels its primary
            // connection (acks, the only multi-connection traffic, are
            // never registered for retransmission).
            let vci = node.tx_vci;
            node.queue_tx_pkts(vci);
            self.pump_tx(now, host, q);
        }
        // Same-time ticks that `arm_retransmit` suppressed must have had
        // nothing to do: no RTO expiry and no pacing release left due.
        debug_assert!(
            self.nodes[host.0]
                .stack
                .next_retransmit_at()
                .is_none_or(|t| t > now),
            "retransmit tick at {now:?} left due work behind"
        );
        self.arm_retransmit(now, host, q);
    }

    /// Receiver half of reliable mode: a block ack covering the whole
    /// receive window back to `dst_host`, enqueued like any other packet
    /// on the VCI that reaches that host. One is sent after every
    /// delivery and every duplicate.
    fn send_ack(
        &mut self,
        now: SimTime,
        host: NodeId,
        dst_host: u16,
        q: &mut EventQueue<Event>,
    ) -> SimTime {
        let node = &mut self.nodes[host.0];
        let t = node
            .stack
            .output_block_ack(now, &mut node.host, &node.asp, dst_host, &mut node.tx_pkts)
            .expect("block-ack output");
        let vci = node
            .tx_vci_of_host
            .get(&dst_host)
            .copied()
            .unwrap_or(node.tx_vci);
        node.queue_tx_pkts(vci);
        self.pump_tx(t, host, q);
        t
    }

    /// Pushes pending packets into the transmit ring until blocked.
    fn pump_tx(&mut self, now: SimTime, host: NodeId, q: &mut EventQueue<Event>) {
        let node = &mut self.nodes[host.0];
        let mut t = now;
        let mut queued_any = false;
        while let Some((vci, bufs, ctx)) = node.pending_pkts.pop_front() {
            let wire_from = node.msg_region;
            let out: SendOutcome = node.driver.send_pdu(
                t,
                &mut node.host,
                &mut node.tx,
                vci,
                &bufs,
                Some((&mut node.asp, wire_from.base, wire_from.len)),
                ctx,
            );
            if out.blocked {
                node.pending_pkts.push_front((vci, bufs, ctx));
                break;
            }
            node.spare_bufs.push(bufs);
            t = out.queued_at;
            queued_any = true;
        }
        if queued_any {
            self.ledger.push(q, t, Event::TxKick { host });
        }
    }

    /// Runs the transmit processor for one PDU.
    fn tx_kick(&mut self, now: SimTime, host: NodeId, q: &mut EventQueue<Event>) {
        let node = &mut self.nodes[host.0];
        let link = self.fabric.link_mut(host);
        let Some(out) = node.tx.service(
            now,
            &mut node.host.mem_sys,
            &node.host.phys,
            link,
            &mut self.cells,
        ) else {
            return;
        };
        if self.tx_meter {
            // Transmit bench: count bytes as the board finishes them. The
            // cells vanish at the far end, so their slab slots recycle now.
            for &(_, _, r) in node.tx.arrivals() {
                self.cells.free(r);
            }
            if node.role == Role::Source && !out.violation {
                self.meter.record(out.finished_at, out.pdu_bytes);
            }
        } else if self.fabric.single_feeder(out.vci) {
            // Every output the PDU uses has this link as its only feeder,
            // so routing now leaves the switch in the state routing at
            // arrival would (§2.6: one link's cells never overtake each
            // other). The cells go through the switch in the order their
            // transit events would have popped: arrival time, then send
            // index. The routed cells reach their receiver as one train.
            let mut order = std::mem::take(&mut self.route_order);
            order.clear();
            order.extend(
                node.tx
                    .arrivals()
                    .iter()
                    .enumerate()
                    .map(|(i, &(at, lane, r))| (at, i, lane, r)),
            );
            if !order.is_sorted_by_key(|&(at, ..)| at) {
                order.sort_unstable_by_key(|&(at, i, ..)| (at, i));
            }
            // A PDU's cells share one VCI, so they reach one receiver.
            let mut train = None;
            let lone = order.len() == 1;
            for &(at, _, lane, r) in &order {
                debug_assert!(
                    at >= now + self.trains.lookahead,
                    "cell sent at {now:?} reaches the fabric at {at:?}, inside the lookahead"
                );
                let Some(d) = self.route_cell(at, host, lane, r) else {
                    continue;
                };
                if lone || !self.trains.takes_trains[d.to.0] {
                    let cars = Cars::One {
                        lane: d.lane as u32,
                        cell: r,
                    };
                    self.ledger
                        .push(q, d.at, Event::CellArrival { to: d.to, cars });
                    continue;
                }
                let id = *train.get_or_insert_with(|| self.trains.open(d.to.0));
                debug_assert_eq!(self.trains.pool[id as usize].to, d.to.0);
                self.add_cell(id, d, r);
            }
            if let Some(id) = train {
                let t = &mut self.trains.pool[id as usize];
                if !t.cells.is_sorted_by_key(|c| (c.0, c.1)) {
                    t.cells.sort_unstable_by_key(|c| (c.0, c.1));
                }
                self.settle(id, q);
            }
            self.route_order = order;
        } else {
            // Outputs with more than one feeder: routing is an *event* at
            // the cell's wire-arrival time, so their queues contend in
            // arrival order — the order the hardware sees — rather than
            // in the order transmit batches happen to finish. The event
            // belongs to the node the cell routes to.
            let owner = match self.ledger.on {
                true => self.fabric.dest(host, out.vci).unwrap_or(host).0,
                false => host.0,
            };
            for &(at, lane, r) in node.tx.arrivals() {
                debug_assert!(
                    at >= now + self.trains.lookahead,
                    "cell sent at {now:?} reaches the fabric at {at:?}, inside the lookahead"
                );
                self.ledger.push_for(
                    q,
                    owner,
                    at,
                    Event::FabricTransit {
                        from: host,
                        lane,
                        cell: r,
                    },
                );
            }
        }
        if let Some(at) = out.wake_host_at {
            self.ledger.push(q, at, Event::TxWake { host });
        }
        if out.more_work {
            self.ledger.push(q, out.finished_at, Event::TxKick { host });
        }
        // A Source starts its next message once the current one is fully
        // queued (pending empty) — the ring, not the app, is the governor.
        let node = &mut self.nodes[host.0];
        if node.role == Role::Source && node.pending_pkts.is_empty() {
            if node.remaining > 0 {
                node.remaining -= 1;
                self.ledger
                    .push(q, out.finished_at, Event::AppSend { host });
            } else if !out.more_work && self.expected_deliveries == 0 {
                // Sink-terminated runs (incast, many pairs) finish when the
                // receivers have seen everything, not when a source idles.
                self.done = true;
            }
        }
    }

    /// A cell reaches the fabric at `now`: run the route (queueing, port
    /// counters, overflow) and return where and when it lands, or
    /// recycle the slot if the cell has nowhere to go. Runs as the
    /// `FabricTransit` event, or from `tx_kick` for a single-feeder PDU
    /// with `now` its cell's arrival time.
    /// `switch.q` timeline spans are emitted per cell here, clamped by
    /// the same `(ctx, destination)` floor the transmit-batch windows
    /// used, so spans on one port track never run backwards.
    fn route_cell(
        &mut self,
        now: SimTime,
        from: NodeId,
        lane: usize,
        r: CellRef,
    ) -> Option<Delivery> {
        let Some(d) = self.fabric.route(from, now, lane, self.cells.get(r)) else {
            // Unrouted or overflow-dropped: recycle the slot.
            self.cells.free(r);
            return None;
        };
        if d.marked {
            // ECN: remember the mark against the cell's connection;
            // the receiving stack echoes it in its next block ack.
            let vci = self.cells.get(r).header.vci;
            self.nodes[d.to.0].ecn_marks.insert(vci);
        }
        if self.timeline.is_enabled() && d.at > now {
            if let Some(c) = self.cells.get(r).ctx {
                let floor = self.switch_span_floor.entry((c, d.to.0)).or_default();
                let span_from = now.max(*floor);
                if d.at > span_from {
                    let (port, name) = (self.syms.nodes[d.to.0].switch_port, self.syms.switch_q);
                    self.timeline.span(port, name, Some(c), span_from, d.at);
                    *floor = d.at;
                }
            }
        }
        Some(d)
    }

    /// Appends a routed cell to train `id`, taking the push number its
    /// per-cell arrival event would have had.
    fn add_cell(&mut self, id: u32, d: Delivery, r: CellRef) {
        let key = self.ledger.take_seq();
        debug_assert!(
            self.trains.ahead[d.to.0].is_none_or(|a| (d.at, key) > a),
            "a cell for node {} lands at {:?}, behind a cell that ran ahead of it",
            d.to.0,
            d.at
        );
        self.trains.pool[id as usize]
            .cells
            .push((d.at, key, d.lane, r));
    }

    /// Queues train `id`'s wake-up for its next due item, or retires
    /// the train when nothing is left.
    fn settle(&mut self, id: u32, q: &mut EventQueue<Event>) {
        let t = &mut self.trains.pool[id as usize];
        match t.next() {
            Some((at, _)) if !t.queued => {
                t.queued = true;
                t.wake_key = self.ledger.seq;
                let to = NodeId(t.to);
                self.trains.due = self.trains.due.min(at);
                q.push(
                    at,
                    Event::CellArrival {
                        to,
                        cars: Cars::Train(id),
                    },
                );
            }
            Some(_) => {}
            None => self.trains.retire_if_spent(id),
        }
    }

    /// Runs train `id`'s next item at its own turn in the per-cell
    /// order: a held push joins the queue, or the head cell arrives.
    fn step_train(&mut self, id: u32, q: &mut EventQueue<Event>) {
        let t = &mut self.trains.pool[id as usize];
        let to = t.to;
        if let Some((pos, at, ev)) = t.held.pop_front() {
            debug_assert!(self.is_next(pos), "held push at {pos:?} is late");
            self.ledger.push_for(q, to, at, ev);
            return;
        }
        let (at, key, lane, r) = t.cells[t.head];
        t.head += 1;
        debug_assert!(self.is_next((at, key)), "cell at {at:?} runs out of turn");
        self.arrive(at, NodeId(to), lane, r, q);
    }

    /// A routed cell arrives at its turn: it goes through the receive
    /// path and leaves the slab.
    fn arrive(
        &mut self,
        now: SimTime,
        to: NodeId,
        lane: usize,
        r: CellRef,
        q: &mut EventQueue<Event>,
    ) {
        if self.timeline.is_enabled() {
            let track = self.syms.nodes[to.0].board_rx;
            self.timeline.instant(track, self.syms.cell, None, now);
        }
        let out = self.nodes[to.0].rx_cell(now, lane, self.cells.get(r));
        self.cells.free(r);
        self.after_rx_cell(now, to, out, q);
    }

    /// Whether nothing pending precedes `pos` in the per-cell order (the
    /// check behind the "runs at its turn" debug assertions).
    fn is_next(&self, pos: Pos) -> bool {
        (0..self.nodes.len()).all(|n| self.ledger.front(n).is_none_or(|p| p > pos))
            && self.trains.live.iter().all(|&id| {
                let t = &self.trains.pool[id as usize];
                t.next().is_none_or(|p| p >= pos)
            })
    }

    /// Runs every train item whose turn comes before `limit`, in the
    /// per-cell order, so that the event at `limit` sees them done.
    fn catch_up(&mut self, limit: Pos, q: &mut EventQueue<Event>) {
        loop {
            let pool = &self.trains.pool;
            let first = self
                .trains
                .live
                .iter()
                .filter_map(|&id| pool[id as usize].next().map(|p| (p, id)))
                .min();
            match first {
                Some((pos, id)) if pos < limit => self.step_train(id, q),
                _ => break,
            }
        }
        self.trains.refresh_due();
    }

    /// Frees the slab slots of cells that ran ahead and whose turn comes
    /// before `limit`, so an insert at `limit` sees the slab's per-cell
    /// occupancy.
    fn free_passed(&mut self, limit: Pos) {
        let mut i = 0;
        while i < self.trains.live.len() {
            let id = self.trains.live[i];
            let t = &mut self.trains.pool[id as usize];
            while t.frees.front().is_some_and(|f| f.0 < limit) {
                let (_, r) = t.frees.pop_front().expect("front checked");
                self.cells.free(r);
            }
            let before = self.trains.live.len();
            self.trains.retire_if_spent(id);
            if self.trains.live.len() == before {
                i += 1;
            }
        }
    }

    /// Condition 2 of the train rule for receiver `to`: the latest time
    /// a cell may run ahead of its turn. Only cells cross nodes, and a
    /// cell reaches a receiver at least `lookahead` after the event that
    /// sends it, so no event yet to be created for `to` comes before
    /// the earliest pending event of any node with a path to `to`, plus
    /// the lookahead.
    fn lookahead_bound(&self, to: usize) -> SimTime {
        let mut bound = SimTime::MAX;
        for &n in &self.trains.feeders[to] {
            let mut e = self.ledger.front(n).map_or(SimTime::MAX, |p| p.0);
            for &id in &self.trains.live {
                let t = &self.trains.pool[id as usize];
                if t.to == n {
                    e = e.min(t.earliest());
                }
            }
            bound = bound.min(SimTime(e.0.saturating_add(self.trains.lookahead.0)));
        }
        bound
    }

    /// Condition 1 of the train rule for train `id`: the position every
    /// cell it runs ahead must precede, so that nothing else of its
    /// receiver `to` comes first — the receiver's next queued event, the
    /// next cell of another of its trains, and any event another train's
    /// held push will queue (whose order against the cell at one instant
    /// is not recorded, so it blocks from that instant on). The train's
    /// own held pushes queue events after its cells at their instant
    /// (they take later numbers); `run_train` folds them in as they come.
    fn ahead_limit(&self, id: u32, to: usize) -> Pos {
        let mut limit = self.ledger.front(to).unwrap_or((SimTime::MAX, u64::MAX));
        for &other in &self.trains.live {
            let t = &self.trains.pool[other as usize];
            if other == id || t.to != to {
                continue;
            }
            if let Some(&(at, key, ..)) = t.cells.get(t.head) {
                limit = limit.min((at, key));
            }
            for &(_, at, _) in &t.held {
                limit = limit.min((at, 0));
            }
        }
        for &(_, at, _) in &self.trains.pool[id as usize].held {
            limit = limit.min((at, u64::MAX));
        }
        limit
    }

    /// A train's wake-up pops: run what is due, run further cells ahead
    /// of their turn while the rule allows, and queue the rest.
    ///
    /// A cell runs ahead of its turn only while running it early is
    /// invisible: (1) no other event of its receiver comes first, (2) no
    /// event yet to be created can come first, and (3) everything the
    /// cell does outside its receiver waits for its turn — its pushes
    /// are held and queued at that turn, and its slab slot is freed then.
    /// With the timeline on, record order is visible too, so every cell
    /// waits for its turn.
    fn run_train(&mut self, now: SimTime, id: u32, q: &mut EventQueue<Event>) {
        self.trains.pool[id as usize].queued = false;
        // Without a ledger the head is the train's one cell, due now;
        // with one, `catch_up` has already run everything due.
        while self.trains.pool[id as usize]
            .next()
            .is_some_and(|(at, _)| at <= now)
        {
            self.step_train(id, q);
        }
        if self.ledger.on && !self.timeline.is_enabled() {
            let to = self.trains.pool[id as usize].to;
            let bound = self.lookahead_bound(to);
            let mut limit = self.ahead_limit(id, to);
            while let Some(&(at, key, lane, r)) = {
                let t = &self.trains.pool[id as usize];
                t.cells.get(t.head)
            } {
                if at > bound || (at, key) >= limit {
                    break;
                }
                let out = self.nodes[to].rx_cell(at, lane, self.cells.get(r));
                self.ledger.holding = true;
                self.after_rx_cell(at, NodeId(to), out, q);
                self.ledger.holding = false;
                let t = &mut self.trains.pool[id as usize];
                t.head += 1;
                for (t_ev, ev) in self.ledger.held.drain(..) {
                    limit = limit.min((t_ev, u64::MAX));
                    t.held.push_back(((at, key), t_ev, ev));
                }
                t.frees.push_back(((at, key), r));
                self.trains.ahead[to] = Some((at, key));
            }
        }
        self.settle(id, q);
        self.trains.refresh_due();
    }

    /// Queues `ev` at `at` from outside a handler (a scenario's seeds, a
    /// test's first event), so the dispatcher's ledger knows it.
    pub fn schedule(&mut self, q: &mut EventQueue<Event>, at: SimTime, ev: Event) {
        self.ledger.push(q, at, ev);
    }

    /// The node whose record `ev` belongs to (see [`Event::node`]).
    fn owner(&self, ev: &Event) -> usize {
        match *ev {
            Event::FabricTransit { from, cell, .. } => {
                let vci = self.cells.get(cell).header.vci;
                self.fabric.dest(from, vci).unwrap_or(from).0
            }
            _ => ev.node().expect("event names its node").0,
        }
    }

    /// The testbed's part of a cell arrival at `host` ([`HostNode::rx_cell`]
    /// is the node's): queue the interrupt, flush and reap events the
    /// receive outcome `out` asks for.
    fn after_rx_cell(
        &mut self,
        now: SimTime,
        host: NodeId,
        out: RxOutcome,
        q: &mut EventQueue<Event>,
    ) {
        if self.timeline.is_enabled() {
            // Anchor for the interrupt-delivery wait: once the PDU's
            // end-of-PDU descriptor is visible, it sits in the ring until
            // the drain thread runs (§2.1.2 suppression shows up here).
            for (t, _, d) in self.nodes[host.0].rx.pushed() {
                if d.eop {
                    if let Some(c) = d.ctx {
                        self.eop_pushed.insert((host.0, c), *t);
                    }
                }
            }
        }
        if let Some((gen, at)) = out.flush_deadline {
            self.ledger.push(q, at, Event::RxFlush { host, gen });
        }
        if let Some(at) = out.interrupt_at {
            self.ledger.push(q, at, Event::RxInterrupt { host });
        }
        // A partial PDU now exists (or may); make sure a reap sweep is
        // scheduled one timeout from now.
        if let Some(to) = self.cfg.reassembly_timeout {
            if !self.reap_scheduled[host.0] {
                self.reap_scheduled[host.0] = true;
                self.ledger.push(q, now + to, Event::RxReapTick { host });
            }
        }
    }

    /// The reassembly-timeout sweep: reap stale partial PDUs on the
    /// board, process the outcome like any receive event (the closer
    /// descriptors may assert an interrupt), and re-arm while partial
    /// state remains. A no-progress cap stops re-arming when the board
    /// is wedged *and* idle — the next real cell arrival re-arms.
    fn rx_reap_tick(&mut self, now: SimTime, host: NodeId, q: &mut EventQueue<Event>) {
        const MAX_IDLE_SWEEPS: u32 = 64;
        self.reap_scheduled[host.0] = false;
        let Some(to) = self.cfg.reassembly_timeout else {
            return;
        };
        let node = &mut self.nodes[host.0];
        let before = node.rx.partial_pdus() + node.stack.pending_reassemblies();
        let out = node.rx.reap_stale(now);
        node.note_rx_pushes();
        if let Some((gen, at)) = out.flush_deadline {
            self.ledger.push(q, at, Event::RxFlush { host, gen });
        }
        if let Some(at) = out.interrupt_at {
            self.ledger.push(q, at, Event::RxInterrupt { host });
        }
        // Stack-level reassembly reap: datagrams stuck waiting for a
        // fragment whose sender gave up (or that fell behind the receive
        // window) give their buffers back to the free ring.
        let node = &mut self.nodes[host.0];
        let stale = node.stack.reap_reassembly(now, to);
        if !stale.is_empty() {
            node.driver
                .recycle(now, &mut node.host, &mut node.rx, &stale);
        }
        let node = &self.nodes[host.0];
        let after = node.rx.partial_pdus() + node.stack.pending_reassemblies();
        if after < before || !node.rx.pushed().is_empty() {
            self.reap_idle[host.0] = 0;
        } else {
            self.reap_idle[host.0] += 1;
        }
        if after > 0 && self.reap_idle[host.0] < MAX_IDLE_SWEEPS {
            self.reap_scheduled[host.0] = true;
            self.ledger.push(q, now + to, Event::RxReapTick { host });
        }
    }

    /// Interrupt: charge the handler + thread dispatch, then schedule the
    /// drain at the time the thread actually starts running. Keeping these
    /// as separate events matters: descriptors pushed while the 75 µs
    /// handler runs must still see a non-empty ring (no interrupt), which
    /// is the §2.1.2 burst-suppression effect.
    fn rx_interrupt(&mut self, now: SimTime, host: NodeId, q: &mut EventQueue<Event>) {
        let t = interrupt_to_thread(now, &mut self.nodes[host.0].host);
        if self.timeline.is_enabled() {
            self.timeline.span(
                self.syms.nodes[host.0].host,
                self.syms.intr_service,
                None,
                now,
                t,
            );
        }
        self.ledger.push(q, t, Event::RxDrain { host });
    }

    /// The drain thread: pop everything, run protocol input, deliver.
    fn rx_drain(&mut self, now: SimTime, host: NodeId, q: &mut EventQueue<Event>) {
        // The modelling note's early-visibility window, enforced: every
        // descriptor stamp is a grant finish on the memory bus or the
        // receive engine, so the drain may observe stamps ahead of `now`
        // (by the bus backlog) but never more than one receive DMA grant
        // beyond the machine's committed-work horizon.
        {
            let node = &mut self.nodes[host.0];
            let committed = node
                .host
                .mem_sys
                .bus()
                .free_at()
                .max(node.rx.engine_free_at())
                .max(now);
            let ahead = node.rx_push_horizon.saturating_since(committed);
            if ahead > self.max_drain_ahead {
                self.max_drain_ahead = ahead;
            }
            debug_assert!(
                ahead <= self.drain_ahead_bound,
                "drain at {now:?} observed a descriptor {ahead:?} beyond the \
                 committed-work horizon {committed:?} \
                 (bound: one DMA grant = {:?})",
                self.drain_ahead_bound
            );
            // The drain pops every pushed descriptor, so the window
            // restarts empty.
            node.rx_push_horizon = SimTime::ZERO;
        }
        let mut drained = {
            let node = &mut self.nodes[host.0];
            let mut drained = std::mem::take(&mut node.drained);
            node.driver
                .drain_receive(now, &mut node.host, &mut node.rx, &mut drained);
            drained
        };
        if self.timeline.is_enabled() {
            self.timeline.span(
                self.syms.nodes[host.0].host,
                self.syms.drain,
                None,
                now,
                drained.finished_at,
            );
            // Interrupt-delivery wait per drained PDU: eop descriptor
            // visible → drain start. One resource (the host CPU's
            // interrupt path), so spans are clamped to never overlap.
            for pdu in &drained.delivered {
                let Some(c) = pdu.ctx else { continue };
                let Some(pushed) = self.eop_pushed.remove(&(host.0, c)) else {
                    continue;
                };
                let node = &mut self.nodes[host.0];
                let from = pushed.max(node.intr_wait_floor);
                if now > from {
                    self.timeline.span(
                        self.syms.nodes[host.0].host,
                        self.syms.intr_wait,
                        Some(c),
                        from,
                        now,
                    );
                    node.intr_wait_floor = now;
                }
            }
        }
        for pdu in drained.delivered.drain(..) {
            self.handle_pdu(host, pdu, q);
        }
        self.nodes[host.0].drained = drained;
    }

    fn handle_pdu(&mut self, host: NodeId, pdu: DeliveredPdu, q: &mut EventQueue<Event>) {
        match self.cfg.layer {
            Layer::RawAtm => {
                let t = pdu.ready_at;
                let len = pdu.len as u64;
                let ctx = pdu.ctx;
                if !self.verify_raw(host, &pdu) {
                    self.verify_failures += 1;
                }
                let descs = pdu.bufs;
                let t2 = {
                    let node = &mut self.nodes[host.0];
                    node.driver.recycle(t, &mut node.host, &mut node.rx, &descs)
                };
                self.deliver_app(t2, host, len, ctx, q);
            }
            Layer::UdpIp => {
                let t = pdu.ready_at;
                let vci = pdu.vci;
                let (verdict, t2) = {
                    let node = &mut self.nodes[host.0];
                    node.stack.input(t, &mut node.host, pdu)
                };
                match verdict {
                    RxVerdict::Incomplete => {
                        // A stack-level reassembly now holds buffers;
                        // make sure a reap sweep will visit it even if
                        // no further cells arrive (sender gave up).
                        if let Some(to) = self.cfg.reassembly_timeout {
                            if !self.reap_scheduled[host.0] {
                                self.reap_scheduled[host.0] = true;
                                self.ledger.push(q, t2 + to, Event::RxReapTick { host });
                            }
                        }
                    }
                    RxVerdict::Drop { descs, .. } => {
                        let node = &mut self.nodes[host.0];
                        node.driver
                            .recycle(t2, &mut node.host, &mut node.rx, &descs);
                    }
                    RxVerdict::Ack { descs, .. } => {
                        // The stack already released the acked datagrams.
                        let t3 = {
                            let node = &mut self.nodes[host.0];
                            node.driver
                                .recycle(t2, &mut node.host, &mut node.rx, &descs)
                        };
                        // A block ack may have triggered SACK retransmits
                        // and admitted deferred datagrams into the window;
                        // they queue on the sender's primary connection.
                        let node = &mut self.nodes[host.0];
                        node.stack.take_released(&mut node.tx_pkts);
                        if !node.tx_pkts.is_empty() {
                            let vci = node.tx_vci;
                            node.queue_tx_pkts(vci);
                            self.pump_tx(t3, host, q);
                        }
                        self.arm_retransmit(t3, host, q);
                    }
                    RxVerdict::Duplicate { src, descs } => {
                        // Already delivered once — our ack was lost.
                        // Suppress the duplicate but re-ack it.
                        if self.nodes[host.0].ecn_marks.remove(&vci) {
                            self.nodes[host.0].stack.note_ecn(src);
                        }
                        let t3 = {
                            let node = &mut self.nodes[host.0];
                            node.driver
                                .recycle(t2, &mut node.host, &mut node.rx, &descs)
                        };
                        self.send_ack(t3, host, src, q);
                    }
                    RxVerdict::Deliver {
                        src,
                        ctx,
                        dst_port,
                        data,
                        descs,
                        len,
                    } => {
                        // x-kernel delivery demultiplexing: the datagram's
                        // destination port must name an open path on this
                        // host (bound to this VCI at connection setup).
                        debug_assert!(
                            self.nodes[host.0].paths.by_local_port(dst_port).is_some(),
                            "no path for port {dst_port}"
                        );
                        if !self.verify_msg(host, src, &data, len) {
                            self.verify_failures += 1;
                        }
                        let t3 = {
                            let node = &mut self.nodes[host.0];
                            node.driver
                                .recycle(t2, &mut node.host, &mut node.rx, &descs)
                        };
                        // Reliable mode: ack before the app consumes —
                        // the sender's timer is running.
                        let t4 = if self.cfg.reliable {
                            if self.nodes[host.0].ecn_marks.remove(&vci) {
                                self.nodes[host.0].stack.note_ecn(src);
                            }
                            self.send_ack(t3, host, src, q)
                        } else {
                            t3
                        };
                        self.deliver_app(t4, host, len, Some(ctx), q);
                    }
                }
            }
        }
    }

    /// The node whose payload pattern `host` should expect from wire
    /// address `src` (a bench node generating its own traffic names
    /// itself — its fictitious sender has no node).
    fn src_node(&self, host: NodeId, src: u16) -> NodeId {
        if (src as usize) < self.nodes.len() {
            NodeId(src as usize)
        } else {
            host
        }
    }

    fn verify_raw(&self, host: NodeId, pdu: &DeliveredPdu) -> bool {
        let node = &self.nodes[host.0];
        let src = node.src_of_vci.get(&pdu.vci).copied().unwrap_or(host);
        let expect = &self.nodes[src.0].pattern;
        let mut off = 0usize;
        for d in &pdu.bufs {
            let got = node.host.phys.read(d.addr, d.len as usize);
            if got != &expect[off..off + d.len as usize] {
                return false;
            }
            off += d.len as usize;
        }
        off == expect.len()
    }

    fn verify_msg(
        &self,
        host: NodeId,
        src: u16,
        data: &osiris_proto::msg::Message<osiris_mem::PhysAddr>,
        len: u64,
    ) -> bool {
        let expect = &self.nodes[self.src_node(host, src).0].pattern;
        if len != expect.len() as u64 {
            return false;
        }
        let node = &self.nodes[host.0];
        let mut off = 0usize;
        for seg in data.segs() {
            let got = node.host.phys.read(seg.addr, seg.len as usize);
            if got != &expect[off..off + seg.len as usize] {
                return false;
            }
            off += seg.len as usize;
        }
        true
    }

    /// The application consumes a delivered message.
    fn deliver_app(
        &mut self,
        now: SimTime,
        host: NodeId,
        len: u64,
        ctx: Option<TraceCtx>,
        q: &mut EventQueue<Event>,
    ) {
        let mut t = {
            let h = &mut self.nodes[host.0].host;
            let app = h.spec.costs.app_fixed;
            h.run_software(now, app).finish
        };
        t = self.crossing_cost(t, host);
        if self.timeline.is_enabled() {
            if let Some(c) = ctx {
                let node = &mut self.nodes[host.0];
                let from = now.max(node.app_span_floor);
                if t > from {
                    self.timeline.span(
                        self.syms.nodes[host.0].app,
                        self.syms.app_deliver,
                        Some(c),
                        from,
                        t,
                    );
                    node.app_span_floor = t;
                }
            }
        }
        if self.deliver_to_meter {
            self.meter.record(t, len);
        }
        match self.nodes[host.0].role {
            Role::PongServer => {
                self.send_message(t, host, q);
            }
            Role::PingClient => {
                if let Some(sent) = self.ping_sent_at.take() {
                    let rtt = t.since(sent);
                    self.latency.observe(rtt);
                }
                let node = &mut self.nodes[host.0];
                node.remaining = node.remaining.saturating_sub(1);
                if node.remaining > 0 {
                    self.ledger.push(q, t, Event::AppSend { host });
                } else {
                    self.done = true;
                }
            }
            Role::Sink => {
                // The sink's tail metric is the inter-delivery gap: a
                // transport that stalls on round trips shows up here
                // before it shows up in aggregate goodput.
                let node = &mut self.nodes[host.0];
                if let Some(last) = node.last_delivery_at {
                    self.latency.observe(t.saturating_since(last));
                }
                node.last_delivery_at = Some(t);
                self.delivered_count += 1;
                if self.expected_deliveries > 0 && self.delivered_count >= self.expected_deliveries
                {
                    self.done = true;
                }
            }
            Role::Generator => {
                let node = &mut self.nodes[host.0];
                if node.gen.stalled {
                    node.gen.stalled = false;
                    self.ledger.push(q, t, Event::GenKick);
                }
                if node.remaining == 0 && node.gen.is_idle() {
                    self.done = true;
                }
            }
            Role::Source | Role::Idle => {}
        }
    }

    /// Queues the next message's fragments for the generator.
    fn gen_build_next(&mut self, host: NodeId) {
        let cfg_proto = ProtoConfig {
            mtu: self.cfg.mtu,
            udp_checksum: self.cfg.udp_checksum,
            ..ProtoConfig::paper_default()
        };
        let node = &mut self.nodes[host.0];
        let id = node.gen.next_id;
        node.gen.next_id += 1;
        let seg = Segmenter {
            framing: HostNode::framing(&self.cfg),
            unit: SegmentUnit::Pdu,
        };
        // Generator PDUs carry the identity the receiving stack re-mints
        // from the wire IP header: (src=1, id) — see `wire_fragments`.
        let ctx = TraceCtx { host: 1, pdu: id };
        let (vci, pattern, gen) = (node.vci, &node.pattern, &mut node.gen);
        let mut queue = |head: &[u8], data| gen.queue(seg, vci, pattern, head, data, ctx);
        match self.cfg.layer {
            // The fictitious sender addresses this host's open path.
            Layer::UdpIp => {
                ProtoStack::wire_fragments(cfg_proto, id, 2000, 1000, pattern, &mut queue)
            }
            Layer::RawAtm => queue(&[], 0..pattern.len()),
        }
    }

    /// One generator step: feed a small batch of cells.
    ///
    /// The batch size and the bus-backlog gate model the physical
    /// coupling: the receive processor can only issue a DMA command once
    /// the previous one has drained from its (shallow) command queue, so
    /// the generator never runs hundreds of transactions ahead of the
    /// bus. Without this gate, host software's memory traffic would queue
    /// behind a whole fragment of pre-reserved DMA — a modelling artefact
    /// real per-transaction bus arbitration does not have.
    fn gen_kick(&mut self, now: SimTime, q: &mut EventQueue<Event>) {
        const BATCH: usize = 32;
        let host = NodeId(0);
        if self.nodes[host.0].gen.is_idle() {
            if self.nodes[host.0].remaining == 0 {
                return;
            }
            self.nodes[host.0].remaining -= 1;
            self.gen_build_next(host);
        }
        // Flow control: need free buffers before generating into them.
        {
            let node = &mut self.nodes[host.0];
            let page = node.driver.page;
            if node.rx.free_ring(page).len() < 2 {
                node.gen.stalled = true;
                return;
            }
        }
        // Don't outrun the bus: if the DMA backlog extends more than a
        // batch's worth of cell time past `now`, retry when it drains.
        let bus_free = self.nodes[host.0].host.mem_sys.bus().free_at();
        let slack = osiris_sim::SimDuration::from_ns(760 * 6 * BATCH as u64);
        if bus_free > now + slack {
            self.ledger.push(q, bus_free - slack, Event::GenKick);
            return;
        }
        // Hand the batch from the front fragment to the receive path by
        // reference; a batch never spans two fragments. Lanes follow the
        // framing, which mirrors the reassembly mode. The generator is
        // out of its node for the batch, so its lent template cell and
        // the receive path's `&mut self` do not overlap.
        let mut gen = std::mem::take(&mut self.nodes[host.0].gen);
        for _ in 0..BATCH {
            let Some((lane, cell)) = gen.next_cell() else {
                break;
            };
            let out = self.nodes[host.0].rx_cell(now, lane, cell);
            self.after_rx_cell(now, host, out, q);
        }
        gen.pop_exhausted();
        self.nodes[host.0].gen = gen;
        let next = self.nodes[host.0].rx.engine_free_at();
        self.ledger.push(q, next.max(now), Event::GenKick);
    }
}

impl Model for Testbed {
    type Event = Event;

    fn handle(&mut self, now: SimTime, ev: Event, q: &mut EventQueue<Event>) {
        if self.ledger.on {
            // The event's turn in the per-cell order; whatever of the
            // trains comes before it runs first.
            let key = match ev {
                Event::CellArrival {
                    cars: Cars::Train(id),
                    ..
                } => self.trains.pool[id as usize].wake_key,
                _ => {
                    let owner = self.owner(&ev);
                    let key = self.ledger.pop(owner, now);
                    debug_assert!(
                        self.trains.ahead[owner].is_none_or(|a| (now, key) > a),
                        "{ev:?} at {now:?} pops after a cell of its node that ran ahead of it"
                    );
                    key
                }
            };
            if now >= self.trains.due {
                self.catch_up((now, key), q);
            }
            if matches!(ev, Event::TxKick { .. }) {
                self.free_passed((now, key));
            }
        }
        if self.timeline.is_enabled() {
            let s = &self.syms;
            let mark = match &ev {
                Event::AppSend { host } => Some((s.nodes[host.0].app, s.send)),
                Event::TxKick { host } => Some((s.nodes[host.0].board_tx, s.kick)),
                // Each cell marks its own arrival (`arrive`).
                Event::CellArrival { .. } => None,
                Event::FabricTransit { .. } => Some((s.fabric, s.transit)),
                Event::RxFlush { host, .. } => Some((s.nodes[host.0].board_rx, s.flush)),
                Event::RxInterrupt { host } => Some((s.nodes[host.0].host, s.intr)),
                Event::RxDrain { host } => Some((s.nodes[host.0].host, s.drain_start)),
                Event::TxWake { host } => Some((s.nodes[host.0].host, s.wake)),
                Event::GenKick => Some((s.gen, s.kick)),
                Event::RxReapTick { host } => Some((s.nodes[host.0].board_rx, s.reap)),
                Event::RetransTick { host } => Some((s.nodes[host.0].host, s.rto_tick)),
            };
            if let Some((track, name)) = mark {
                self.timeline.instant(track, name, None, now);
            }
        }
        self.dispatch.of(&ev).incr();
        match ev {
            Event::AppSend { host } => {
                if self.nodes[host.0].role == Role::PingClient {
                    self.ping_sent_at = Some(now);
                }
                self.send_message(now, host, q);
            }
            Event::TxKick { host } => self.tx_kick(now, host, q),
            Event::CellArrival {
                cars: Cars::Train(id),
                ..
            } => self.run_train(now, id, q),
            Event::CellArrival {
                to,
                cars: Cars::One { lane, cell },
            } => self.arrive(now, to, lane as usize, cell, q),
            Event::FabricTransit { from, lane, cell } => {
                if let Some(d) = self.route_cell(now, from, lane, cell) {
                    let cars = Cars::One {
                        lane: d.lane as u32,
                        cell,
                    };
                    let ev = Event::CellArrival { to: d.to, cars };
                    self.ledger.push(q, d.at, ev);
                }
            }
            Event::RxFlush { host, gen } => {
                let node = &mut self.nodes[host.0];
                node.rx.flush_pending(
                    now,
                    gen,
                    &mut node.host.mem_sys,
                    &mut node.host.cache,
                    &mut node.host.phys,
                );
            }
            Event::RxInterrupt { host } => self.rx_interrupt(now, host, q),
            Event::RxDrain { host } => self.rx_drain(now, host, q),
            Event::TxWake { host } => {
                // The wakeup is a real interrupt (§2.1.2).
                let t = self.nodes[host.0].host.take_interrupt(now).finish;
                self.pump_tx(t, host, q);
            }
            Event::GenKick => self.gen_kick(now, q),
            Event::RxReapTick { host } => self.rx_reap_tick(now, host, q),
            Event::RetransTick { host } => self.retrans_tick(now, host, q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use osiris_atm::Cell;
    use osiris_sim::Simulation;

    fn run_pair(mut cfg: TestbedConfig) -> Testbed {
        cfg.messages = 4;
        let tb = Scenario::Pair.build(cfg);
        let mut sim = Simulation::new(tb);
        sim.model.schedule(
            &mut sim.queue,
            SimTime::ZERO,
            Event::AppSend { host: NodeId(0) },
        );
        let reached = sim.run_while(|m| !m.done);
        assert!(reached, "experiment must complete (queue drained early?)");
        assert!(sim.now() < SimTime::from_secs(10), "runaway simulation");
        sim.model
    }

    #[test]
    fn ping_pong_raw_atm_completes_with_data_intact() {
        let tb = run_pair(TestbedConfig::ds5000_200_atm());
        assert_eq!(tb.latency.count(), 4);
        assert_eq!(tb.verify_failures, 0);
        assert!(
            tb.latency.mean_us() > 50.0,
            "RTT {} too small",
            tb.latency.mean_us()
        );
    }

    #[test]
    fn ping_pong_udp_completes_with_data_intact() {
        let tb = run_pair(TestbedConfig::ds5000_200_udp());
        assert_eq!(tb.latency.count(), 4);
        assert_eq!(tb.verify_failures, 0);
        // UDP costs more than raw ATM.
        let atm = run_pair(TestbedConfig::ds5000_200_atm());
        assert!(tb.latency.mean_us() > atm.latency.mean_us());
    }

    #[test]
    fn alpha_is_faster_than_decstation() {
        let ds = run_pair(TestbedConfig::ds5000_200_udp());
        let ax = run_pair(TestbedConfig::dec3000_600_udp());
        assert!(
            ax.latency.mean_us() < ds.latency.mean_us(),
            "Alpha {} vs DS {}",
            ax.latency.mean_us(),
            ds.latency.mean_us()
        );
    }

    #[test]
    fn larger_messages_take_longer() {
        let mut small = TestbedConfig::ds5000_200_atm();
        small.msg_size = 1;
        let mut large = TestbedConfig::ds5000_200_atm();
        large.msg_size = 4096;
        let s = run_pair(small);
        let l = run_pair(large);
        assert!(l.latency.mean_us() > s.latency.mean_us() + 50.0);
    }

    #[test]
    fn multi_fragment_message_roundtrips() {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 50_000; // 4 fragments
        let tb = run_pair(cfg);
        assert_eq!(tb.verify_failures, 0);
        assert_eq!(tb.latency.count(), 4);
    }

    #[test]
    fn rx_bench_reaches_steady_state() {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 16 * 1024;
        cfg.messages = 12;
        cfg.warmup = 2;
        let mut tb = Scenario::RxBench.build(cfg);
        tb.meter = ThroughputMeter::new(2);
        let mut sim = Simulation::new(tb);
        sim.model
            .schedule(&mut sim.queue, SimTime::ZERO, Event::GenKick);
        assert!(sim.run_while(|m| !m.done));
        let mbps = sim.model.meter.mbps();
        assert!(
            (100.0..600.0).contains(&mbps),
            "DS receive throughput {mbps} Mbps out of plausible band"
        );
        assert_eq!(sim.model.verify_failures, 0);
    }

    /// Every cell the generator hands to the board, over several
    /// consecutive messages, equals the cell a fresh segmenter cursor cuts
    /// from the same headers and payload range: under each framing the
    /// reassembly modes imply, on both layers, and for a one-cell
    /// fragment, one ending on a cell boundary, one a byte past it, and a
    /// two-fragment 16 KB datagram.
    #[test]
    fn generator_cells_match_a_fresh_cursor() {
        use osiris_atm::sar::ReassemblyMode;
        let modes = [
            ReassemblyMode::InOrder,
            ReassemblyMode::SeqNum { max_cells: 1024 },
            ReassemblyMode::FourWay { lanes: 1 },
            ReassemblyMode::FourWay { lanes: 2 },
            ReassemblyMode::FourWay { lanes: 3 },
            ReassemblyMode::FourWay { lanes: 4 },
        ];
        for reassembly in modes {
            for (layer, overhead) in [(Layer::UdpIp, 28), (Layer::RawAtm, 0)] {
                for msg_size in [1, 220 - overhead, 221 - overhead, 16 * 1024] {
                    let mut cfg = match layer {
                        Layer::UdpIp => TestbedConfig::ds5000_200_udp(),
                        Layer::RawAtm => TestbedConfig::ds5000_200_atm(),
                    };
                    cfg.reassembly = reassembly;
                    cfg.msg_size = msg_size;
                    let mut tb = Scenario::RxBench.build(cfg.clone());
                    let seg = Segmenter {
                        framing: HostNode::framing(&cfg),
                        unit: SegmentUnit::Pdu,
                    };
                    let cfg_proto = ProtoConfig {
                        mtu: cfg.mtu,
                        udp_checksum: cfg.udp_checksum,
                        ..ProtoConfig::paper_default()
                    };
                    let (vci, pattern) = (tb.nodes[0].vci, tb.nodes[0].pattern.clone());
                    let mut pdu_seq = 0u16;
                    for id in 1..=4u32 {
                        let mut frags = Vec::new();
                        match layer {
                            Layer::UdpIp => ProtoStack::wire_fragments(
                                cfg_proto,
                                id,
                                2000,
                                1000,
                                &pattern,
                                |head, data| frags.push((head.to_vec(), data)),
                            ),
                            Layer::RawAtm => frags.push((Vec::new(), 0..pattern.len())),
                        }
                        tb.gen_build_next(NodeId(0));
                        for (f, (head, data)) in frags.iter().enumerate() {
                            let bytes = [&head[..], &pattern[data.clone()]];
                            let mut cursor = seg.cursor(vci, pdu_seq, &bytes);
                            pdu_seq = pdu_seq.wrapping_add(1);
                            let gen = &mut tb.nodes[0].gen;
                            for i in 0.. {
                                let at = format!(
                                    "{reassembly:?} {layer:?} {msg_size} B: \
                                     message {id} fragment {f} cell {i}"
                                );
                                let want_lane = cursor.lane();
                                let want = cursor.next_cell(&bytes).map(|mut c| {
                                    c.ctx = Some(TraceCtx { host: 1, pdu: id });
                                    (want_lane, c)
                                });
                                let ((lane, got), (want_lane, want)) = match (gen.next_cell(), want)
                                {
                                    (Some(got), Some(want)) => (got, want),
                                    (None, None) => break,
                                    _ => panic!("{at}: cell counts differ"),
                                };
                                assert_eq!(lane, want_lane, "{at}: lane");
                                assert_eq!(got.header, want.header, "{at}: header");
                                assert_eq!(got.aal.seq, want.aal.seq, "{at}: AAL seq");
                                assert_eq!(got.aal.eom, want.aal.eom, "{at}: AAL eom");
                                assert_eq!(got.aal.fill, want.aal.fill, "{at}: AAL fill");
                                assert_eq!(got.payload(), want.payload(), "{at}: payload");
                                assert_eq!(
                                    got.remainder(),
                                    want.remainder(),
                                    "{at}: carried remainder"
                                );
                                let len = |c: &Cell| c.trailer.map(|t| t.len);
                                let crc = |c: &Cell| c.trailer.map(|t| t.crc);
                                assert_eq!(len(got), len(&want), "{at}: trailer len");
                                assert_eq!(crc(got), crc(&want), "{at}: trailer CRC");
                                assert_eq!(got.ctx, want.ctx, "{at}: ctx");
                            }
                            gen.pop_exhausted();
                        }
                        assert!(tb.nodes[0].gen.is_idle(), "extra fragments queued");
                    }
                }
            }
        }
    }

    #[test]
    fn tx_bench_reaches_steady_state() {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 16 * 1024;
        cfg.messages = 12;
        let mut tb = Scenario::TxBench.build(cfg);
        tb.meter = ThroughputMeter::new(2);
        let mut sim = Simulation::new(tb);
        sim.model.schedule(
            &mut sim.queue,
            SimTime::ZERO,
            Event::AppSend { host: NodeId(0) },
        );
        sim.model.nodes[0].decrement_remaining(); // the seeded AppSend is message 1
        assert!(sim.run_while(|m| !m.done), "tx bench stalled");
        let mbps = sim.model.meter.mbps();
        assert!(
            (100.0..400.0).contains(&mbps),
            "DS transmit throughput {mbps} Mbps out of plausible band"
        );
    }

    #[test]
    fn adc_path_matches_kernel_latency() {
        // §4: "the measured results were within the error margins of those
        // obtained in the kernel-to-kernel case".
        let mut k = TestbedConfig::ds5000_200_udp();
        k.msg_size = 1024;
        let kernel = run_pair(k);
        let mut a = TestbedConfig::ds5000_200_udp();
        a.msg_size = 1024;
        a.data_path = DataPath::Adc;
        let adc = run_pair(a);
        let (lk, la) = (kernel.latency.mean_us(), adc.latency.mean_us());
        assert!(
            (la - lk).abs() / lk < 0.05,
            "ADC {la} must be within 5% of kernel {lk}"
        );
        // While a plain user process pays crossings.
        let mut u = TestbedConfig::ds5000_200_udp();
        u.msg_size = 1024;
        u.data_path = DataPath::UserViaKernel;
        let user = run_pair(u);
        assert!(
            user.latency.mean_us() > lk + 50.0,
            "user path must be slower"
        );
    }

    #[test]
    fn timeline_captures_the_event_sequence() {
        let mut cfg = TestbedConfig::ds5000_200_atm();
        cfg.msg_size = 100;
        cfg.messages = 1;
        let tb = Scenario::Pair.build(cfg);
        tb.timeline.set_enabled(true);
        let mut sim = Simulation::new(tb);
        sim.model.schedule(
            &mut sim.queue,
            SimTime::ZERO,
            Event::AppSend { host: NodeId(0) },
        );
        assert!(sim.run_while(|m| !m.done));
        // The dispatcher records one ctx-less instant per event, at its
        // dispatch time.
        let instants: Vec<_> = sim
            .model
            .timeline
            .events()
            .into_iter()
            .filter(|e| e.dur.is_none() && e.ctx.is_none())
            .collect();
        assert_eq!(instants.len() as u64, sim.steps());
        for (track, name) in [
            ("node0.app", "send"),
            ("node0.board.tx", "kick"),
            ("node1.board.rx", "cell"),
            ("node1.host", "intr"),
            ("node1.host", "drain start"),
        ] {
            assert!(
                instants.iter().any(|e| e.track == track && e.name == name),
                "timeline missing {track} {name:?}"
            );
        }
        assert!(instants.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn skewed_link_with_fourway_reassembly_delivers() {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.skew = osiris_atm::stripe::SkewConfig::mux_skew();
        cfg.reassembly = osiris_atm::sar::ReassemblyMode::FourWay { lanes: 4 };
        cfg.msg_size = 8000;
        let tb = run_pair(cfg);
        assert_eq!(tb.verify_failures, 0);
        assert_eq!(tb.latency.count(), 4);
    }

    #[test]
    fn drain_never_observes_beyond_one_dma_grant() {
        // Satellite regression: the documented early-visibility skew is
        // bounded. Exercise the tightest producer (the rx bench generator
        // saturating the engine) and a pair, and check the observed
        // maximum against the bound the testbed enforces.
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 16 * 1024;
        cfg.messages = 8;
        let mut tb = Scenario::RxBench.build(cfg);
        tb.meter = ThroughputMeter::new(1);
        let mut sim = Simulation::new(tb);
        sim.model
            .schedule(&mut sim.queue, SimTime::ZERO, Event::GenKick);
        assert!(sim.run_while(|m| !m.done));
        let m = &sim.model;
        assert!(
            m.max_drain_ahead <= m.drain_ahead_bound,
            "observed {:?} > bound {:?}",
            m.max_drain_ahead,
            m.drain_ahead_bound
        );
        // The bound is one DMA grant, not zero: the window genuinely
        // exists (otherwise the modelling note is stale).
        assert!(m.drain_ahead_bound > SimDuration::ZERO);
    }
}
