//! Cell transport between nodes — the layer under the event dispatcher.
//!
//! A [`Fabric`] owns every node's transmit [`StripedLink`] and decides
//! where cells land. Two implementations:
//!
//! * [`BackToBack`] — §4's measurement setup: each node's link feeds the
//!   other node directly (exactly two nodes; a single-node bench's cells
//!   vanish at the far end).
//! * [`SwitchedFabric`] — an output-queued AURORA switch in the middle
//!   ([`osiris_atm::switch::Switch`]): each node's four stripe lanes own
//!   a contiguous block of switch ports, and connections are routed by
//!   VCI.

use osiris_atm::stripe::StripedLink;
use osiris_atm::switch::{Switch, SwitchSpec};
use osiris_atm::{Cell, LinkSpec, Vci};
use osiris_sim::faults::component_seed;
use osiris_sim::fxhash::FxHashMap;
use osiris_sim::{Registry, SimTime};

use crate::config::TestbedConfig;
use crate::node::NodeId;

/// The fabric's verdict on one transmitted cell.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// Destination node.
    pub to: NodeId,
    /// Physical lane the cell arrives on at the destination.
    pub lane: usize,
    /// Arrival time at the destination's receive FIFO.
    pub at: SimTime,
    /// ECN mark: the switch output queue was above its marking threshold
    /// when this cell departed (always false on back-to-back links).
    pub marked: bool,
}

/// Transports cells between nodes.
pub trait Fabric: std::fmt::Debug {
    /// Number of nodes attached.
    fn node_count(&self) -> usize;

    /// The link node `from` transmits into (the transmit processor
    /// serialises cells onto it; lane skew is applied here).
    fn link_mut(&mut self, from: NodeId) -> &mut StripedLink;

    /// Routes one cell that left node `from` on `lane` at time `at`.
    /// `None` means the cell vanishes (no peer, or no route installed).
    fn route(&mut self, from: NodeId, at: SimTime, lane: usize, cell: &Cell) -> Option<Delivery>;

    /// Whether the cells of `vci` may be routed when they are sent rather
    /// than when they reach the fabric: true where each output they use
    /// has this connection as its only feeder, so it sees one link's
    /// cells in that link's order (§2.6) whatever moment routing runs.
    /// Elsewhere the dispatcher must call `route` in cell-*arrival*
    /// order, the order the hardware's output queues see.
    fn single_feeder(&self, vci: Vci) -> bool;

    /// The node `from`'s cells on `vci` reach, if any (no routing runs).
    fn dest(&self, from: NodeId, vci: Vci) -> Option<NodeId>;
}

/// Per-node transmit links with per-node deterministic skew seeds —
/// identical wiring for every fabric. The config's [`FaultPlan`]
/// (`cfg.sim.faults`) is installed on every link with a per-node
/// component seed, so each node's fault stream is independent but fully
/// determined by `(plan.seed, node index)`.
fn build_links(cfg: &TestbedConfig, n: usize, registry: &Registry) -> Vec<StripedLink> {
    (0..n)
        .map(|i| {
            let mut link = StripedLink::with_probe(
                LinkSpec::sts3c_back_to_back(),
                &cfg.skew,
                &registry.probe(&format!("node{i}")),
            );
            // Per-node jitter stream, derived without cloning the config.
            link.reseed(cfg.seed.wrapping_add(1000 + i as u64));
            // The fault seed is a pure function of the node index, never
            // of wiring or insertion order, so no change to the wiring can
            // perturb a node's fault stream.
            link.set_fault_plan(&cfg.sim.faults, component_seed(i));
            link
        })
        .collect()
}

/// Two boards linked back-to-back (or one board talking to nobody).
#[derive(Debug)]
pub struct BackToBack {
    links: Vec<StripedLink>,
}

impl BackToBack {
    /// Direct links for `n` nodes (`n` ≤ 2 is meaningful; cells from a
    /// lone node vanish, matching the transmit bench).
    pub fn new(cfg: &TestbedConfig, registry: &Registry, n: usize) -> Self {
        BackToBack {
            links: build_links(cfg, n, registry),
        }
    }
}

impl Fabric for BackToBack {
    fn node_count(&self) -> usize {
        self.links.len()
    }

    fn link_mut(&mut self, from: NodeId) -> &mut StripedLink {
        &mut self.links[from.0]
    }

    fn route(&mut self, from: NodeId, at: SimTime, lane: usize, _cell: &Cell) -> Option<Delivery> {
        (self.links.len() == 2).then_some(Delivery {
            to: NodeId(1 - from.0),
            lane,
            at,
            marked: false,
        })
    }

    /// A direct link has no queue: routing is stateless.
    fn single_feeder(&self, _vci: Vci) -> bool {
        true
    }

    fn dest(&self, from: NodeId, _vci: Vci) -> Option<NodeId> {
        (self.links.len() == 2).then(|| NodeId(1 - from.0))
    }
}

/// An output-queued switch between the nodes. Node `i`'s four stripe
/// lanes map onto switch ports `4i..4i+4`; a connection's receiver owns
/// its VCI and [`SwitchedFabric::connect`] installs the striped route.
#[derive(Debug)]
pub struct SwitchedFabric {
    links: Vec<StripedLink>,
    lanes: usize,
    switch: Switch,
    /// The node each connected VCI routes to.
    dests: FxHashMap<Vci, NodeId>,
}

impl SwitchedFabric {
    /// A switch with one port block per node, publishing port counters
    /// under `fabric.switch.port<i>.*` in the testbed registry.
    pub fn new(cfg: &TestbedConfig, registry: &Registry, n: usize) -> Self {
        let links = build_links(cfg, n, registry);
        let lanes = links[0].lanes();
        let mut switch =
            Switch::with_probe(SwitchSpec::sts3c(n * lanes), &registry.probe("fabric"));
        switch.set_max_queue_cells(cfg.sim.faults.switch_max_queue_cells);
        switch.set_ecn_threshold(cfg.ecn_threshold_cells);
        SwitchedFabric {
            links,
            lanes,
            switch,
            dests: FxHashMap::default(),
        }
    }

    /// Routes connection `vci` to node `to`'s port block.
    pub fn connect(&mut self, vci: Vci, to: NodeId) {
        self.switch.route_group(vci, to.0 * self.lanes, self.lanes);
        self.dests.insert(vci, to);
    }
}

impl Fabric for SwitchedFabric {
    fn node_count(&self) -> usize {
        self.links.len()
    }

    fn link_mut(&mut self, from: NodeId) -> &mut StripedLink {
        &mut self.links[from.0]
    }

    fn route(&mut self, _from: NodeId, at: SimTime, lane: usize, cell: &Cell) -> Option<Delivery> {
        self.switch
            .forward(at, cell, lane)
            .map(|(port, departure, marked)| Delivery {
                to: NodeId(port / self.lanes),
                lane: port % self.lanes,
                at: departure,
                marked,
            })
    }

    fn single_feeder(&self, vci: Vci) -> bool {
        self.switch.single_feeder(vci)
    }

    fn dest(&self, _from: NodeId, vci: Vci) -> Option<NodeId> {
        self.dests.get(&vci).copied()
    }
}
