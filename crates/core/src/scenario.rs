//! Declarative topology + workload descriptions.
//!
//! A [`Scenario`] names a shape (how many nodes, which fabric, which
//! VCIs connect whom) and a workload (who sends, who absorbs, when the
//! run is complete). [`Scenario::build`] assembles the [`Testbed`];
//! [`Scenario::launch`] additionally wraps it in a
//! [`osiris_sim::Simulation`], attaches the event-queue probe, and seeds
//! the initial events — the way every experiment starts.
//! [`Scenario::run`] runs a launched scenario to the end and returns its
//! [`RunOutcome`].

use osiris_adc::AdcManager;
use osiris_atm::{CellSlab, Vci};
use osiris_sim::obs::{Histogram, Snapshot};
use osiris_sim::stats::ThroughputMeter;
use osiris_sim::{Registry, SeriesDump, SimDuration, SimTime, Simulation, Timeline};

use crate::config::TestbedConfig;
use crate::fabric::{BackToBack, Fabric, SwitchedFabric};
use crate::node::{Endpoint, HostNode, NodeId, Role};
use crate::telemetry::{run_sampled, Sampler};
use crate::testbed::{DispatchCounters, Event, TbSyms, Testbed};

/// A topology + workload the testbed can assemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Two hosts, full duplex: node 0 pings, node 1 echoes (Table 1).
    Pair,
    /// One host absorbing fictitious PDUs from its own receive processor
    /// (Figures 2 and 3).
    RxBench,
    /// One host streaming out; cells vanish at the far end (Figure 4).
    TxBench,
    /// `senders` sources all streaming at one receiver through the
    /// switched fabric — the N-to-1 workload where free-ring pressure
    /// and interrupt suppression actually bite.
    Incast {
        /// Number of sending nodes (the receiver is one more node).
        senders: usize,
    },
    /// `pairs` independent source→sink streams through the switched
    /// fabric: node `2k` streams `cfg.messages` messages at node
    /// `2k+1`. The contention-free counterpart to `Incast` — every
    /// stream owns its own receiver.
    ManyPairs {
        /// Number of source→sink pairs (the fabric has `2 * pairs` nodes).
        pairs: usize,
    },
}

impl Scenario {
    /// Number of nodes this scenario assembles.
    pub fn node_count(&self) -> usize {
        match *self {
            Scenario::Pair => 2,
            Scenario::RxBench | Scenario::TxBench => 1,
            Scenario::Incast { senders } => senders + 1,
            Scenario::ManyPairs { pairs } => 2 * pairs,
        }
    }

    /// The connection table: `endpoints[i]` are node `i`'s connections.
    fn endpoints(&self) -> Vec<Vec<Endpoint>> {
        match *self {
            // Back-to-back, both directions use VCI 100 (separate
            // physical links).
            Scenario::Pair => (0..2)
                .map(|i| {
                    vec![Endpoint {
                        tx_vci: Vci(100),
                        rx_vci: Vci(100),
                        local_port: if i == 0 { 1000 } else { 2000 },
                        remote_port: if i == 0 { 2000 } else { 1000 },
                        remote_host: 1 - i as u16,
                        src: NodeId(1 - i),
                    }]
                })
                .collect(),
            Scenario::RxBench | Scenario::TxBench => vec![vec![Endpoint {
                tx_vci: Vci(100),
                rx_vci: Vci(100),
                local_port: 1000,
                remote_port: 2000,
                remote_host: 1,
                // The bench node's traffic carries its own pattern.
                src: NodeId(0),
            }]],
            Scenario::Incast { senders } => {
                // Forward VCIs 100+s carry sender s's data to the
                // receiver; reverse VCIs 200+s carry the receiver's
                // reliable-mode acks back to sender s (unused — but
                // routed — when reliable mode is off).
                let rcv = NodeId(senders);
                let mut eps: Vec<Vec<Endpoint>> = (0..senders)
                    .map(|s| {
                        vec![Endpoint {
                            tx_vci: Vci(100 + s as u16),
                            rx_vci: Vci(200 + s as u16),
                            local_port: 2000 + s as u16,
                            remote_port: 1000,
                            remote_host: senders as u16,
                            src: rcv,
                        }]
                    })
                    .collect();
                eps.push(
                    (0..senders)
                        .map(|s| Endpoint {
                            tx_vci: Vci(200 + s as u16),
                            rx_vci: Vci(100 + s as u16),
                            local_port: 1000,
                            remote_port: 2000 + s as u16,
                            remote_host: s as u16,
                            src: NodeId(s),
                        })
                        .collect(),
                );
                eps
            }
            Scenario::ManyPairs { pairs } => (0..2 * pairs)
                .map(|i| {
                    // Pair k: forward data on VCI 100+2k (source 2k →
                    // sink 2k+1), reverse (reliable-mode acks) on VCI
                    // 101+2k. Each node binds its receive VCI; ports
                    // are per-node, so 1000/2000 recur across pairs.
                    let k = i / 2;
                    let (fwd, rev) = (Vci(100 + 2 * k as u16), Vci(101 + 2 * k as u16));
                    if i % 2 == 0 {
                        vec![Endpoint {
                            tx_vci: fwd,
                            rx_vci: rev,
                            local_port: 1000,
                            remote_port: 2000,
                            remote_host: (i + 1) as u16,
                            src: NodeId(i + 1),
                        }]
                    } else {
                        vec![Endpoint {
                            tx_vci: rev,
                            rx_vci: fwd,
                            local_port: 2000,
                            remote_port: 1000,
                            remote_host: (i - 1) as u16,
                            src: NodeId(i - 1),
                        }]
                    }
                })
                .collect(),
        }
    }

    /// Assembles the testbed: nodes, fabric, roles, completion rule.
    pub fn build(&self, cfg: TestbedConfig) -> Testbed {
        match *self {
            Scenario::Incast { senders } => assert!(senders >= 1, "incast needs a sender"),
            Scenario::ManyPairs { pairs } => assert!(pairs >= 1, "many-pairs needs a pair"),
            _ => {}
        }
        let n = self.node_count();
        let registry = Registry::new();
        let sim_probe = registry.probe("sim");
        // Created before the nodes so every layer can hold a handle to
        // the one shared timeline (disabled until a caller opts in).
        let timeline = Timeline::with_probe(cfg.sim.timeline_capacity, &sim_probe);
        let endpoints = self.endpoints();
        let mut nodes: Vec<HostNode> = Vec::with_capacity(n);
        let mut adc_mgrs: Vec<AdcManager> = Vec::new();
        for (i, eps) in endpoints.iter().enumerate() {
            let (node, adc) = HostNode::build(&cfg, NodeId(i), &registry, eps, &timeline);
            nodes.push(node);
            if let Some(m) = adc {
                adc_mgrs.push(m);
            }
        }

        // The fabric: a switch for the multi-node scenarios, back-to-back
        // links otherwise.
        let switched = matches!(self, Scenario::Incast { .. } | Scenario::ManyPairs { .. });
        let fabric: Box<dyn Fabric> = if switched {
            let mut f = SwitchedFabric::new(&cfg, &registry, n);
            // Each connection's VCI routes to the node that binds it.
            match *self {
                Scenario::Incast { senders } => {
                    for s in 0..senders {
                        f.connect(Vci(100 + s as u16), NodeId(senders));
                        // The reverse (ack) path back to each sender.
                        f.connect(Vci(200 + s as u16), NodeId(s));
                    }
                }
                Scenario::ManyPairs { pairs } => {
                    for k in 0..pairs {
                        f.connect(Vci(100 + 2 * k as u16), NodeId(2 * k + 1));
                        f.connect(Vci(101 + 2 * k as u16), NodeId(2 * k));
                    }
                }
                Scenario::Pair | Scenario::RxBench | Scenario::TxBench => {}
            }
            Box::new(f)
        } else {
            Box::new(BackToBack::new(&cfg, &registry, n))
        };

        // The early-visibility bound (modelling note in `testbed`): one
        // receive DMA grant over the largest transfer the DMA mode (or
        // failing that, a whole page) permits.
        let max_xfer = cfg
            .rx_dma
            .max_len()
            .map(u64::from)
            .unwrap_or(cfg.machine.page_size as u64)
            .min(cfg.buffer_bytes as u64)
            .max(1);
        let drain_ahead_bound = nodes[0].host.mem_sys.spec().dma_write_time(max_xfer);

        // The cell arena and the dispatcher's interned timeline keys.
        let mut cells = CellSlab::new();
        cells.attach_probe(&registry.probe("cells"));
        let syms = TbSyms::intern(&timeline, n);
        let dispatch = DispatchCounters::new(&registry.probe("engine.dispatch"));

        let mut tb = Testbed {
            cfg,
            nodes,
            fabric,
            latency: Histogram::default(),
            meter: ThroughputMeter::new(0),
            done: false,
            verify_failures: 0,
            adc: adc_mgrs,
            registry,
            timeline,
            cells,
            syms,
            max_drain_ahead: SimDuration::ZERO,
            ping_sent_at: None,
            deliver_to_meter: false,
            tx_meter: false,
            expected_deliveries: 0,
            delivered_count: 0,
            drain_ahead_bound,
            eop_pushed: std::collections::HashMap::new(),
            switch_span_floor: std::collections::HashMap::new(),
            route_order: Vec::new(),
            reap_scheduled: vec![false; n],
            reap_idle: vec![0; n],
            retrans_queued: vec![std::collections::BTreeSet::new(); n],
            dispatch,
        };

        // Workload: roles, budgets, completion rule.
        match *self {
            Scenario::Pair => {
                tb.nodes[0].role = Role::PingClient;
                tb.nodes[0].remaining = tb.cfg.messages;
                tb.nodes[1].role = Role::PongServer;
            }
            Scenario::RxBench => {
                tb.nodes[0].role = Role::Generator;
                tb.nodes[0].remaining = tb.cfg.messages;
                tb.deliver_to_meter = true;
            }
            Scenario::TxBench => {
                tb.nodes[0].role = Role::Source;
                tb.nodes[0].remaining = tb.cfg.messages;
                tb.tx_meter = true;
            }
            Scenario::Incast { senders } => {
                for s in 0..senders {
                    tb.nodes[s].role = Role::Source;
                    tb.nodes[s].remaining = tb.cfg.messages;
                }
                tb.nodes[senders].role = Role::Sink;
                tb.deliver_to_meter = true;
                tb.expected_deliveries = senders as u64 * tb.cfg.messages;
            }
            Scenario::ManyPairs { pairs } => {
                for k in 0..pairs {
                    tb.nodes[2 * k].role = Role::Source;
                    tb.nodes[2 * k].remaining = tb.cfg.messages;
                    tb.nodes[2 * k + 1].role = Role::Sink;
                }
                tb.deliver_to_meter = true;
                tb.expected_deliveries = pairs as u64 * tb.cfg.messages;
            }
        }
        tb
    }

    /// Builds the testbed, wraps it in a simulation, attaches the
    /// event-queue probe (`engine.events.scheduled`), and seeds the
    /// scenario's initial events at time zero. A seeded `AppSend` is
    /// message 1, so it takes one from the sender's budget.
    pub fn launch(&self, cfg: TestbedConfig) -> Simulation<Testbed> {
        let tb = self.build(cfg);
        let mut sim = Simulation::new(tb);
        sim.queue.attach_probe(&sim.model.registry.probe("engine"));
        let (tb, q) = (&mut sim.model, &mut sim.queue);
        let mut send = |src: NodeId| {
            tb.nodes[src.0].decrement_remaining();
            q.push(SimTime::ZERO, Event::AppSend { host: src });
        };
        match *self {
            // The ping client's budget counts completed round trips, so
            // its first send takes nothing from it.
            Scenario::Pair => q.push(SimTime::ZERO, Event::AppSend { host: NodeId(0) }),
            Scenario::RxBench => q.push(SimTime::ZERO, Event::GenKick),
            Scenario::TxBench => send(NodeId(0)),
            Scenario::Incast { senders } => (0..senders).for_each(|s| send(NodeId(s))),
            Scenario::ManyPairs { pairs } => (0..pairs).for_each(|k| send(NodeId(2 * k))),
        }
        sim
    }

    /// Runs the scenario to event-queue exhaustion: [`Scenario::launch`]
    /// plus the run loop. When `cfg.sim.sample_every` is set, the loop
    /// also samples the telemetry grid between dispatches — same
    /// dispatch order, same final time, registry untouched but for the
    /// sampler's own `obs.*` scope.
    pub fn run(&self, cfg: TestbedConfig) -> RunOutcome {
        let mut sim = self.launch(cfg);
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
        let tb = &sim.model;
        RunOutcome {
            snapshot: tb.snapshot(),
            latency: tb.latency.clone(),
            meter: tb.meter.clone(),
            done: tb.done,
            verify_failures: tb.verify_failures,
            delivered: tb.delivered_count,
            dispatched: sim.steps(),
            last_event_time: sim.now(),
            series,
        }
    }
}

/// The result of [`Scenario::run`].
#[derive(Debug)]
pub struct RunOutcome {
    /// The testbed's registry snapshot at the end of the run.
    pub snapshot: Snapshot,
    /// The testbed's latency record (see [`Testbed::latency`]).
    ///
    /// [`Testbed::latency`]: crate::testbed::Testbed::latency
    pub latency: Histogram,
    /// Goodput meter.
    pub meter: ThroughputMeter,
    /// Whether the scenario's completion condition was met.
    pub done: bool,
    /// Payload verification failures.
    pub verify_failures: u64,
    /// PDUs delivered to sinks.
    pub delivered: u64,
    /// Events dispatched.
    pub dispatched: u64,
    /// Timestamp of the last dispatched event.
    pub last_event_time: SimTime,
    /// Sampled time series when `cfg.sim.sample_every` was set (`None`
    /// otherwise).
    pub series: Option<SeriesDump>,
}

impl RunOutcome {
    /// The snapshot without the telemetry plane's own bookkeeping
    /// (`obs.*`, present only when sampling is on). Byte-compare its
    /// rendered JSON across sampling on and off.
    pub fn semantic_snapshot(&self) -> Snapshot {
        let mut s = self.snapshot.clone();
        s.counters.retain(|k, _| !k.starts_with("obs."));
        s.gauges.retain(|k, _| !k.starts_with("obs."));
        s
    }

    /// A `BENCH_loss`-style one-line summary of the run's outcome.
    pub fn goodput_line(&self) -> String {
        let s = &self.snapshot;
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
            self.latency.percentile_us(0.99),
            self.delivered,
            sum("stack.retransmits"),
            sum("board.rx.pdus_dropped_timeout"),
            sum("link.cells_dropped"),
            sum("link.cells_corrupted"),
            sum("stack.gave_up"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counts() {
        assert_eq!(Scenario::Pair.node_count(), 2);
        assert_eq!(Scenario::RxBench.node_count(), 1);
        assert_eq!(Scenario::Incast { senders: 4 }.node_count(), 5);
        assert_eq!(Scenario::ManyPairs { pairs: 3 }.node_count(), 6);
    }

    #[test]
    fn pair_build_matches_legacy_constructor_shape() {
        let tb = Scenario::Pair.build(TestbedConfig::ds5000_200_udp());
        assert_eq!(tb.nodes.len(), 2);
        assert_eq!(tb.nodes[0].role, Role::PingClient);
        assert_eq!(tb.nodes[1].role, Role::PongServer);
        assert_eq!(tb.nodes[0].vci, Vci(100));
        assert_eq!(tb.nodes[1].vci, Vci(100));
        assert_eq!(tb.fabric.node_count(), 2);
    }

    #[test]
    fn incast_build_assigns_distinct_vcis_per_sender() {
        let tb = Scenario::Incast { senders: 4 }.build(TestbedConfig::ds5000_200_udp());
        assert_eq!(tb.nodes.len(), 5);
        for s in 0..4 {
            assert_eq!(tb.nodes[s].role, Role::Source);
            // Data goes out on 100+s; the reverse (ack) VCI 200+s is
            // what the sender binds for receive.
            assert_eq!(tb.nodes[s].tx_vci, Vci(100 + s as u16));
            assert_eq!(tb.nodes[s].vci, Vci(200 + s as u16));
        }
        assert_eq!(tb.nodes[4].role, Role::Sink);
        // The receiver binds every sender's VCI and knows the reverse
        // path back to each sender.
        for s in 0..4u16 {
            assert!(tb.nodes[4].src_of_vci.contains_key(&Vci(100 + s)));
            assert_eq!(tb.nodes[4].tx_vci_of_host.get(&s), Some(&Vci(200 + s)));
        }
    }

    #[test]
    fn launch_attaches_the_event_queue_probe() {
        let sim = Scenario::Pair.launch(TestbedConfig::ds5000_200_udp());
        assert_eq!(
            sim.model
                .registry
                .snapshot()
                .counter("engine.events.scheduled"),
            sim.queue.total_pushed()
        );
        assert_eq!(sim.queue.total_pushed(), 1);
    }
}
