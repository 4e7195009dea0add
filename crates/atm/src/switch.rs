//! An output-queued ATM switch.
//!
//! §2.6's third skew source: "different queuing delays experienced by
//! cells on different links as they pass through distinct ports on the
//! switches in the network". In AURORA the four striped lanes traverse
//! distinct switch ports, so independent cross traffic on each port
//! delays each lane independently — per-lane FIFO order is preserved
//! (output queues are FIFOs) but the stripe as a whole skews, and the
//! skew is "essentially unbounded" because it depends on everyone else's
//! traffic.
//!
//! The paper notes the fix the authors declined: "the switch must
//! coordinate the different ports to keep all queue lengths equal.
//! However, adding this complexity has the undesirable effect of negating
//! the advantage of striping". [`SwitchSpec::coordinated`] models that
//! rejected design for the ablation benches: it equalises queue delay
//! across a port group, eliminating skew at the cost of making every
//! lane as slow as the busiest.

use osiris_sim::obs::{Counter, Gauge, Probe};
use osiris_sim::{FifoResource, FxHashMap, SimDuration, SimTime};

use crate::cell::{Cell, CELL_BYTES_ON_WIRE};
use crate::vci::Vci;

/// Switch geometry and timing.
#[derive(Debug, Clone, Copy)]
pub struct SwitchSpec {
    /// Number of output ports.
    pub ports: usize,
    /// Line rate of each output port (bps).
    pub port_rate_bps: u64,
    /// Fixed fabric transit latency.
    pub fabric_latency: SimDuration,
    /// If true, port groups are coordinated to equal queueing delay
    /// (the rejected anti-skew design).
    pub coordinated: bool,
}

impl SwitchSpec {
    /// An STS-3c switch with `ports` output ports, uncoordinated.
    pub fn sts3c(ports: usize) -> Self {
        SwitchSpec {
            ports,
            port_rate_bps: 155_520_000,
            fabric_latency: SimDuration::from_us(2),
            coordinated: false,
        }
    }

    /// A 16-port STS-3c switch, uncoordinated (the real thing).
    pub fn sts3c_16port() -> Self {
        Self::sts3c(16)
    }

    /// The same switch with coordinated port groups.
    pub fn coordinated() -> Self {
        SwitchSpec {
            coordinated: true,
            ..Self::sts3c_16port()
        }
    }

    /// Serialisation time of one cell on an output port.
    pub fn cell_time(&self) -> SimDuration {
        let bits = CELL_BYTES_ON_WIRE as u128 * 8;
        SimDuration::from_ps((bits * 1_000_000_000_000u128 / self.port_rate_bps as u128) as u64)
    }
}

/// One port's registry-visible counters.
#[derive(Debug, Clone)]
struct PortCounters {
    cells: Counter,
    /// Queueing delay in picoseconds (durations are accumulated as
    /// integer ps so they stay exact and registry-snapshotable).
    queueing_ps: Counter,
}

/// The switch.
#[derive(Debug)]
pub struct Switch {
    spec: SwitchSpec,
    /// [`SwitchSpec::cell_time`], costed once at construction.
    cell_time: SimDuration,
    routes: FxHashMap<Vci, usize>,
    /// Striped routes: a VCI whose lanes land on a contiguous block of
    /// output ports, stored as `(base, lanes)` (multi-node fabrics).
    lane_routes: FxHashMap<Vci, (usize, usize)>,
    /// Routes installed onto each output port, plain and striped.
    feeders: Vec<u32>,
    outputs: Vec<FifoResource>,
    stats: Vec<PortCounters>,
    /// Port group used by the coordinated mode (all members share fate).
    group: Vec<usize>,
    /// Bound on each output queue in cells (`None` = unbounded, the
    /// historical behavior). Set from the run's `FaultPlan`.
    max_queue_cells: Option<u32>,
    /// Output-queue depth (cells) above which departing cells carry an
    /// ECN mark (`None` = never mark). Marking is per-port state only.
    ecn_threshold: Option<u32>,
    unrouted: Counter,
    overflow_dropped: Counter,
    ecn_marked: Counter,
    /// Largest backlog any `depart` ever observed, in cells.
    queue_high_water: Gauge,
    hw_cells: u64,
}

impl Switch {
    /// A switch with no routes installed and detached counters.
    pub fn new(spec: SwitchSpec) -> Self {
        Switch::with_probe(spec, &Probe::detached())
    }

    /// A switch publishing `port<i>.cells` / `port<i>.queueing_ps` and
    /// `unrouted` under `<scope>.switch`.
    pub fn with_probe(spec: SwitchSpec, probe: &Probe) -> Self {
        let p = probe.scoped("switch");
        Switch {
            outputs: (0..spec.ports).map(|_| FifoResource::default()).collect(),
            stats: (0..spec.ports)
                .map(|i| {
                    let pp = p.scoped(&format!("port{i}"));
                    PortCounters {
                        cells: pp.counter("cells"),
                        queueing_ps: pp.counter("queueing_ps"),
                    }
                })
                .collect(),
            routes: FxHashMap::default(),
            lane_routes: FxHashMap::default(),
            feeders: vec![0; spec.ports],
            cell_time: spec.cell_time(),
            group: Vec::new(),
            max_queue_cells: None,
            ecn_threshold: None,
            unrouted: p.counter("unrouted"),
            overflow_dropped: p.counter("overflow_dropped"),
            ecn_marked: p.counter("ecn_marked"),
            queue_high_water: p.gauge("queue_high_water_cells"),
            hw_cells: 0,
            spec,
        }
    }

    /// Bounds every output queue to `cells` waiting cells; a cell whose
    /// port backlog already covers that many cell times is dropped
    /// (counted in `overflow_dropped`). `None` restores the unbounded
    /// historical behavior.
    pub fn set_max_queue_cells(&mut self, cells: Option<u32>) {
        self.max_queue_cells = cells;
    }

    /// Marks cells departing a port whose backlog (in cells, including
    /// the cell itself) exceeds `cells` — ECN-style early congestion
    /// signal, well before the bounded queue would drop. `None` disables
    /// marking.
    pub fn set_ecn_threshold(&mut self, cells: Option<u32>) {
        self.ecn_threshold = cells;
    }

    /// Installs `vci → port`.
    ///
    /// # Panics
    /// Panics if `port` is out of range.
    pub fn route(&mut self, vci: Vci, port: usize) {
        assert!(port < self.spec.ports, "port {port} out of range");
        if let Some(old) = self.routes.insert(vci, port) {
            self.feeders[old] -= 1;
        }
        self.feeders[port] += 1;
    }

    /// Installs a striped route: cells of `vci` arriving on lane `l` leave
    /// through port `base + l`. This is how a multi-node fabric maps one
    /// connection's four lanes onto the destination node's port block
    /// without retagging cells with per-lane transit VCIs.
    ///
    /// # Panics
    /// Panics if any port of the block is out of range.
    pub fn route_group(&mut self, vci: Vci, base: usize, lanes: usize) {
        assert!(
            base + lanes <= self.spec.ports,
            "port block {base}..{} out of range",
            base + lanes
        );
        if let Some((b, l)) = self.lane_routes.insert(vci, (base, lanes)) {
            self.feeders[b..b + l].iter_mut().for_each(|f| *f -= 1);
        }
        self.feeders[base..base + lanes]
            .iter_mut()
            .for_each(|f| *f += 1);
    }

    /// Whether `vci`'s striped route is the only input of every output
    /// port it uses, and nothing but that route's own cells can change
    /// what those ports do: no ECN marking, no queue bound and no port
    /// coordination. Then the ports see one link's cells in that link's
    /// order whenever they are forwarded, so a caller may forward them
    /// ahead of their arrival time, in arrival order per lane, and get
    /// the departure each would get if forwarded at arrival.
    /// A route is one feeder because a connection's cells come from one
    /// sender's link; [`Switch::background_load`] is the caller's own
    /// input and is not counted. False for a VCI without a striped route.
    pub fn single_feeder(&self, vci: Vci) -> bool {
        if self.ecn_threshold.is_some() || self.max_queue_cells.is_some() || self.spec.coordinated {
            return false;
        }
        self.lane_routes
            .get(&vci)
            .is_some_and(|&(base, lanes)| self.feeders[base..base + lanes].iter().all(|&f| f == 1))
    }

    /// Declares a striped port group (used by coordinated mode).
    pub fn set_group(&mut self, ports: Vec<usize>) {
        for &p in &ports {
            assert!(p < self.spec.ports);
        }
        self.group = ports;
    }

    /// Forwards a cell arriving at `now`. Returns the output port and the
    /// departure time (after queueing + serialisation + fabric), or
    /// `None` if the VCI has no route (the cell is dropped).
    pub fn forward(&mut self, now: SimTime, cell: &Cell) -> Option<(usize, SimTime)> {
        let Some(&port) = self.routes.get(&cell.header.vci) else {
            self.unrouted.incr();
            return None;
        };
        self.depart(now, port).map(|(at, _)| (port, at))
    }

    /// Forwards a cell that arrived on stripe lane `lane`, using the
    /// striped routes installed by [`Switch::route_group`]. Returns the
    /// output port (`base + lane`) and the departure time, or `None` if
    /// the VCI has no striped route (the cell is dropped).
    pub fn forward_on_lane(
        &mut self,
        now: SimTime,
        cell: &Cell,
        lane: usize,
    ) -> Option<(usize, SimTime)> {
        self.forward_on_lane_marked(now, cell, lane)
            .map(|(port, at, _)| (port, at))
    }

    /// [`forward_on_lane`](Self::forward_on_lane) plus the cell's ECN
    /// mark: the third element is true when the output queue's backlog
    /// crossed [`Switch::set_ecn_threshold`].
    pub fn forward_on_lane_marked(
        &mut self,
        now: SimTime,
        cell: &Cell,
        lane: usize,
    ) -> Option<(usize, SimTime, bool)> {
        let Some(&(base, _)) = self.lane_routes.get(&cell.header.vci) else {
            self.unrouted.incr();
            return None;
        };
        let port = base + lane;
        assert!(port < self.spec.ports, "lane {lane} overruns port block");
        self.depart(now, port)
            .map(|(at, marked)| (port, at, marked))
    }

    /// Queues one cell on `port`'s output and returns its departure time
    /// (after queueing + serialisation + fabric latency) plus its ECN
    /// mark, or `None` when the bounded output queue overflows and the
    /// cell is dropped.
    fn depart(&mut self, now: SimTime, port: usize) -> Option<(SimTime, bool)> {
        let at = now + self.spec.fabric_latency;
        if let Some(max) = self.max_queue_cells {
            let backlog = self.outputs[port].free_at().saturating_since(at);
            if backlog.as_ps() >= self.cell_time.as_ps().saturating_mul(max as u64) {
                self.overflow_dropped.incr();
                return None;
            }
        }
        let grant = self.outputs[port].acquire(at, self.cell_time);
        // Backlog of this port the instant the cell joined it, in cell
        // times (1 = the cell itself is in service with nothing ahead).
        let depth = grant
            .finish
            .saturating_since(at)
            .as_ps()
            .div_ceil(self.cell_time.as_ps().max(1));
        let marked = self.ecn_threshold.is_some_and(|th| depth > th as u64);
        if marked {
            self.ecn_marked.incr();
        }
        if depth > self.hw_cells {
            self.hw_cells = depth;
            self.queue_high_water.set(depth as f64);
        }
        self.stats[port].cells.incr();
        self.stats[port]
            .queueing_ps
            .add(grant.queueing_delay(at).as_ps());
        let mut departure = grant.finish;
        if self.spec.coordinated && self.group.contains(&port) {
            // The rejected design: hold the cell until the slowest group
            // member's queue would also have drained, equalising delay.
            let worst = self
                .group
                .iter()
                .map(|&p| self.outputs[p].free_at())
                .max()
                .unwrap_or(departure);
            departure = departure.max(worst);
        }
        Some((departure, marked))
    }

    /// Occupies an output port with cross traffic for `cells` cell times
    /// starting at `now` (other flows sharing the port).
    pub fn background_load(&mut self, now: SimTime, port: usize, cells: u64) {
        let d = SimDuration::from_ps(self.cell_time.as_ps() * cells);
        self.outputs[port].acquire(now, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osiris_sim::Registry;

    /// A switch whose counters land in `reg` under `sw.switch.*`.
    fn probed(spec: SwitchSpec, reg: &Registry) -> Switch {
        Switch::with_probe(spec, &reg.probe("sw"))
    }

    fn cell(vci: u16, seq: u16) -> Cell {
        Cell::data(Vci(vci), seq, &[seq as u8; 44])
    }

    #[test]
    fn routes_by_vci() {
        let reg = Registry::new();
        let mut sw = probed(SwitchSpec::sts3c_16port(), &reg);
        sw.route(Vci(1), 3);
        sw.route(Vci(2), 7);
        let (p1, _) = sw.forward(SimTime::ZERO, &cell(1, 0)).unwrap();
        let (p2, _) = sw.forward(SimTime::ZERO, &cell(2, 0)).unwrap();
        assert_eq!((p1, p2), (3, 7));
        assert!(sw.forward(SimTime::ZERO, &cell(9, 0)).is_none());
        assert_eq!(reg.snapshot().counter("sw.switch.unrouted"), 1);
    }

    #[test]
    fn output_port_is_fifo_and_serialises() {
        let mut sw = Switch::new(SwitchSpec::sts3c_16port());
        sw.route(Vci(1), 0);
        let a = sw.forward(SimTime::ZERO, &cell(1, 0)).unwrap().1;
        let b = sw.forward(SimTime::ZERO, &cell(1, 1)).unwrap().1;
        assert!(b > a);
        assert_eq!(b.since(a), sw.spec.cell_time());
    }

    #[test]
    fn cross_traffic_creates_queueing_skew() {
        // Four lanes on four ports; cross traffic loads port 2 only.
        let reg = Registry::new();
        let mut sw = probed(SwitchSpec::sts3c_16port(), &reg);
        for lane in 0..4u16 {
            sw.route(Vci(10 + lane), lane as usize);
        }
        sw.background_load(SimTime::ZERO, 2, 20); // ~55 us of foreign cells
        let mut departures = Vec::new();
        for lane in 0..4u16 {
            departures.push(sw.forward(SimTime::ZERO, &cell(10 + lane, 0)).unwrap().1);
        }
        // Lane 2's cell departs far later than its peers: skew.
        assert!(departures[2] > departures[0] + SimDuration::from_us(30));
        let snap = reg.snapshot();
        let queued = SimDuration::from_ps(snap.counters["sw.switch.port2.queueing_ps"]);
        assert!(queued > SimDuration::from_us(30));
        assert_eq!(snap.counters["sw.switch.port0.queueing_ps"], 0);
    }

    #[test]
    fn coordinated_mode_equalises_but_slows_everyone() {
        let mut sw = Switch::new(SwitchSpec::coordinated());
        for lane in 0..4u16 {
            sw.route(Vci(10 + lane), lane as usize);
        }
        sw.set_group(vec![0, 1, 2, 3]);
        sw.background_load(SimTime::ZERO, 2, 20);
        let mut departures = Vec::new();
        for lane in 0..4u16 {
            departures.push(sw.forward(SimTime::ZERO, &cell(10 + lane, 0)).unwrap().1);
        }
        // No skew between lanes...
        let min = departures.iter().min().unwrap();
        let max = departures.iter().max().unwrap();
        assert!(
            max.since(*min) < SimDuration::from_us(5),
            "coordination must remove skew"
        );
        // ...but every lane is as slow as the loaded one — "negating the
        // advantage of striping".
        assert!(*min > SimTime::from_us(50));
    }

    #[test]
    fn striped_routes_spread_lanes_over_a_port_block() {
        let reg = Registry::new();
        let mut sw = probed(SwitchSpec::sts3c(8), &reg);
        // Two connections to two different "nodes": VCI 100 → ports 0..4,
        // VCI 101 → ports 4..8, no per-lane transit retagging needed.
        sw.route_group(Vci(100), 0, 4);
        sw.route_group(Vci(101), 4, 4);
        for lane in 0..4usize {
            let (p0, _) = sw
                .forward_on_lane(SimTime::ZERO, &cell(100, 0), lane)
                .unwrap();
            let (p1, _) = sw
                .forward_on_lane(SimTime::ZERO, &cell(101, 0), lane)
                .unwrap();
            assert_eq!(p0, lane);
            assert_eq!(p1, 4 + lane);
        }
        // A VCI with no striped route is dropped and counted.
        assert!(sw.forward_on_lane(SimTime::ZERO, &cell(7, 0), 0).is_none());
        assert_eq!(reg.snapshot().counter("sw.switch.unrouted"), 1);
    }

    #[test]
    fn striped_route_ports_are_fifo_under_contention() {
        // Incast: two VCIs share the same destination block (same node).
        let reg = Registry::new();
        let mut sw = probed(SwitchSpec::sts3c(4), &reg);
        sw.route_group(Vci(100), 0, 4);
        sw.route_group(Vci(101), 0, 4);
        let mut last = SimTime::ZERO;
        for seq in 0..20u16 {
            let vci = 100 + (seq % 2);
            let (port, dep) = sw
                .forward_on_lane(SimTime::ZERO, &cell(vci, seq), 2)
                .unwrap();
            assert_eq!(port, 2);
            assert!(dep > last, "shared output port must serialise in order");
            last = dep;
        }
        assert_eq!(reg.snapshot().counters["sw.switch.port2.cells"], 20);
    }

    #[test]
    fn bounded_output_queue_drops_on_overflow() {
        let reg = Registry::new();
        let mut sw = probed(SwitchSpec::sts3c_16port(), &reg);
        sw.route(Vci(1), 0);
        sw.set_max_queue_cells(Some(4));
        // Offer 12 cells at the same instant: four fit in the bounded
        // queue (in service + waiting), the rest overflow.
        let mut forwarded = 0;
        for seq in 0..12u16 {
            if sw.forward(SimTime::ZERO, &cell(1, seq)).is_some() {
                forwarded += 1;
            }
        }
        assert_eq!(forwarded, 4, "bound covers in-service + waiting cells");
        assert_eq!(reg.snapshot().counter("sw.switch.overflow_dropped"), 8);
        assert_eq!(
            reg.snapshot().counters["sw.switch.port0.cells"],
            4,
            "dropped cells never count"
        );
        // Once the queue drains, cells flow again.
        let later = SimTime::from_secs(1);
        assert!(sw.forward(later, &cell(1, 99)).is_some());
    }

    #[test]
    fn ecn_marks_above_threshold_before_overflow_drops() {
        let reg = Registry::new();
        let mut sw = probed(SwitchSpec::sts3c_16port(), &reg);
        sw.route_group(Vci(1), 0, 4);
        sw.set_max_queue_cells(Some(8));
        sw.set_ecn_threshold(Some(3));
        let mut marks = Vec::new();
        for seq in 0..8u16 {
            let (_, _, marked) = sw
                .forward_on_lane_marked(SimTime::ZERO, &cell(1, seq), 0)
                .unwrap();
            marks.push(marked);
        }
        // Depth runs 1..=8: the first three cells are unmarked, the rest
        // marked — congestion is signalled well before the queue bound.
        assert_eq!(&marks[..3], &[false, false, false]);
        assert!(marks[3..].iter().all(|&m| m));
        assert_eq!(reg.snapshot().counter("sw.switch.ecn_marked"), 5);
        assert_eq!(reg.snapshot().counter("sw.switch.overflow_dropped"), 0);
    }

    #[test]
    fn single_feeder_needs_one_route_per_port_and_a_plain_switch() {
        let striped = |spec: SwitchSpec| {
            let mut sw = Switch::new(spec);
            sw.route_group(Vci(100), 0, 4);
            sw.route_group(Vci(101), 4, 4);
            sw
        };
        let sw = striped(SwitchSpec::sts3c(8));
        assert!(sw.single_feeder(Vci(100)) && sw.single_feeder(Vci(101)));
        assert!(!sw.single_feeder(Vci(7)), "no route, no answer");

        // A second VCI on the block: two feeders contend there.
        let mut sw = striped(SwitchSpec::sts3c(8));
        sw.route_group(Vci(102), 0, 4);
        assert!(!sw.single_feeder(Vci(100)) && !sw.single_feeder(Vci(102)));
        assert!(sw.single_feeder(Vci(101)), "the other block is untouched");
        // A plain route onto one port of the block counts as well.
        let mut sw = striped(SwitchSpec::sts3c(8));
        sw.route(Vci(9), 6);
        assert!(!sw.single_feeder(Vci(101)) && sw.single_feeder(Vci(100)));
        // Re-routing a VCI moves its feeder count with it.
        let mut sw = striped(SwitchSpec::sts3c(12));
        sw.route_group(Vci(102), 0, 4);
        sw.route_group(Vci(102), 8, 4);
        assert!(sw.single_feeder(Vci(100)) && sw.single_feeder(Vci(102)));

        // Settings whose effects show at forwarding time.
        let mut sw = striped(SwitchSpec::sts3c(8));
        sw.set_ecn_threshold(Some(128));
        assert!(!sw.single_feeder(Vci(100)));
        let mut sw = striped(SwitchSpec::sts3c(8));
        sw.set_max_queue_cells(Some(512));
        assert!(!sw.single_feeder(Vci(100)));
        let mut sw = striped(SwitchSpec::coordinated());
        sw.set_group(vec![0, 1, 2, 3]);
        assert!(!sw.single_feeder(Vci(100)));
    }

    #[test]
    fn per_lane_order_survives_any_load_pattern() {
        let reg = Registry::new();
        let mut sw = probed(SwitchSpec::sts3c_16port(), &reg);
        sw.route(Vci(5), 1);
        sw.background_load(SimTime::from_us(10), 1, 7);
        let mut last = SimTime::ZERO;
        for seq in 0..50u16 {
            let t = SimTime::from_us(seq as u64 * 2);
            let (_, dep) = sw.forward(t, &cell(5, seq)).unwrap();
            assert!(dep >= last, "output queue must be FIFO");
            last = dep;
        }
        assert_eq!(reg.snapshot().counters["sw.switch.port1.cells"], 50);
    }
}
