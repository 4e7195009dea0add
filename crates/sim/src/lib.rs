//! # osiris-sim — discrete-event simulation kernel
//!
//! The OSIRIS reproduction replaces 1994 hardware (TURBOchannel DECstations,
//! the OSIRIS ATM board, a striped SONET link) with a deterministic
//! discrete-event simulation. This crate is the simulation substrate shared
//! by every other crate in the workspace:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time in picoseconds, exact for
//!   both the 25 MHz TURBOchannel/R3000 clock (40 000 ps) and the 175 MHz
//!   Alpha clock.
//! * [`EventQueue`] — a time-ordered, FIFO-stable event queue (a monotone
//!   radix heap).
//! * [`Simulation`] / [`Model`] — a minimal poll-style driver loop in the
//!   spirit of event-driven network stacks (smoltcp): the model is a plain
//!   state machine, the kernel just dispatches events in time order.
//! * [`FifoResource`] — reservation-based modelling of serially shared
//!   hardware (a bus, a CPU, a firmware engine, a link lane).
//! * [`stats`] — the throughput meter used by the experiment harness;
//!   latency distributions use [`obs::Histogram`].
//! * [`SimRng`] — a tiny, dependency-free, fully deterministic RNG
//!   (SplitMix64) used for skew jitter and fault injection.
//! * [`FxHashMap`] — a keyless multiply-rotate hasher for the per-cell
//!   maps: fast on small integer keys, and iteration order depends only on
//!   the insert sequence.
//! * [`SmallVec`] — the one inline small vector: the datapath's per-PDU
//!   lists (segments, descriptors) live inline up to a structural bound,
//!   so steady-state messages never touch the allocator.
//!
//! Everything is deterministic: given the same configuration and seed, a
//! simulation produces bit-identical results, which the test suite relies on.

pub mod event;
pub mod faults;
pub mod fxhash;
pub mod json;
pub mod obs;
pub mod resource;
pub mod rng;
pub mod smallvec;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use faults::{CellFate, FaultInjector, FaultPlan, LaneOutage, PointFault, PointFaultKind};
pub use fxhash::{FxHashMap, FxHasher};
pub use json::Json;
pub use obs::{
    CriticalPath, HistSummary, Histogram, PduPath, Probe, Registry, Snapshot, Stage, SymId,
    Timeline, TimelineEvent, TraceCtx,
};
pub use resource::FifoResource;
pub use rng::SimRng;
pub use smallvec::SmallVec;
pub use time::{Clock, SimDuration, SimTime};

/// Simulation-kernel configuration shared by harnesses: the capacity of
/// the [`Timeline`] plus the wire-level [`FaultPlan`]
/// (everything else about a run lives in the harness's own config, e.g.
/// `TestbedConfig`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Capacity of the typed [`Timeline`] event buffer.
    pub timeline_capacity: usize,
    /// The seeded fault-injection plan (defaults to injecting nothing).
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        // The timeline holds full spans (every event of a long ping-pong
        // fits).
        SimConfig {
            timeline_capacity: 1 << 16,
            faults: FaultPlan::default(),
        }
    }
}

/// A simulation model: a state machine advanced by timestamped events.
///
/// Implementors own all component state (hosts, boards, links). The kernel
/// guarantees events are delivered in non-decreasing time order and that
/// events scheduled for the same instant are delivered in scheduling order
/// (FIFO), which makes simulations reproducible.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event at virtual time `now`, possibly scheduling more.
    fn handle(&mut self, now: SimTime, ev: Self::Event, q: &mut EventQueue<Self::Event>);
}

/// Drives a [`Model`] by popping events in time order.
#[derive(Debug)]
pub struct Simulation<M: Model> {
    /// The model under simulation (public so harnesses can inspect state).
    pub model: M,
    /// The pending-event queue (public so harnesses can seed initial events).
    pub queue: EventQueue<M::Event>,
    now: SimTime,
    steps: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation at time zero with an empty event queue.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            steps: 0,
        }
    }

    /// Current virtual time (the timestamp of the last dispatched event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Dispatches the next event. Returns `false` when the queue is empty.
    ///
    /// # Panics
    /// Panics if an event with a timestamp earlier than the current time is
    /// encountered; that is always a model bug (causality violation).
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((t, ev)) => {
                assert!(
                    t >= self.now,
                    "causality violation: event at {t} dispatched at {}",
                    self.now
                );
                self.now = t;
                self.steps += 1;
                self.model.handle(t, ev, &mut self.queue);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue is empty or virtual time would exceed `deadline`.
    ///
    /// Events stamped exactly at `deadline` are still dispatched; the first
    /// event strictly beyond it is left in the queue.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until the event queue is fully drained.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Runs while `keep_going` returns true (checked before each event) or
    /// until the queue drains. Returns `true` if the predicate turned false
    /// (i.e. the goal was reached), `false` if the queue drained first.
    pub fn run_while<F: FnMut(&M) -> bool>(&mut self, mut keep_going: F) -> bool {
        loop {
            if !keep_going(&self.model) {
                return true;
            }
            if !self.step() {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
            self.seen.push((now, ev));
            // Event 1 spawns a follow-up event to exercise rescheduling.
            if ev == 1 {
                q.push(now + SimDuration::from_ns(5), 99);
            }
        }
    }

    #[test]
    fn dispatches_in_time_order() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue.push(SimTime::from_ns(30), 3);
        sim.queue.push(SimTime::from_ns(10), 1);
        sim.queue.push(SimTime::from_ns(20), 2);
        sim.run_to_completion();
        let evs: Vec<u32> = sim.model.seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![1, 99, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_ns(30));
        assert_eq!(sim.steps(), 4);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        for i in 0..100 {
            sim.queue.push(SimTime::from_ns(7), i + 10);
        }
        sim.run_to_completion();
        let evs: Vec<u32> = sim.model.seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, (10..110).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue.push(SimTime::from_ns(10), 2);
        sim.queue.push(SimTime::from_ns(100), 3);
        sim.run_until(SimTime::from_ns(50));
        assert_eq!(sim.model.seen.len(), 1);
        assert_eq!(sim.now(), SimTime::from_ns(50));
        // The event at 100 ns is still pending.
        assert_eq!(sim.queue.len(), 1);
    }

    #[test]
    fn run_while_stops_on_predicate() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        for i in 0..10 {
            sim.queue.push(SimTime::from_ns(i), i as u32);
        }
        let satisfied = sim.run_while(|m| m.seen.len() < 3);
        assert!(satisfied);
        assert_eq!(sim.model.seen.len(), 3);
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn past_events_panic() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue.push(SimTime::from_ns(10), 1);
        sim.step();
        // Manually force an event into the past.
        sim.queue.push(SimTime::from_ns(1), 2);
        sim.step();
    }
}
