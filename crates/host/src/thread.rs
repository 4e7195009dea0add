//! Threads and a priority scheduler.
//!
//! §3.1: "The threads that de-queue buffers from the various receive
//! queues may be assigned priorities corresponding to the traffic
//! priorities of the network stream they handle." This module supplies
//! that substrate: non-preemptive priority scheduling with FIFO order
//! inside a priority level, and a context-switch cost charged per
//! dispatch. (Non-preemptive is what Mach's kernel threads effectively
//! gave the drain path between its own blocking points; preemption would
//! only matter here at granularities below the driver's work items.)

use std::collections::{HashMap, VecDeque};

use osiris_sim::resource::Grant;
use osiris_sim::{SimDuration, SimTime};

use crate::machine::HostMachine;

/// Thread identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

/// Thread states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Waiting for a wake (e.g. the interrupt handler's signal).
    Blocked,
    /// In the run queue.
    Runnable,
    /// Currently dispatched.
    Running,
}

#[derive(Debug)]
struct Thread {
    priority: u8,
    state: ThreadState,
}

/// A non-preemptive priority scheduler.
#[derive(Debug)]
pub struct Scheduler {
    threads: HashMap<ThreadId, Thread>,
    /// One FIFO per priority level (index = priority).
    queues: Vec<VecDeque<ThreadId>>,
    next_id: u32,
    ctx_switch: SimDuration,
}

impl Scheduler {
    /// A scheduler whose dispatches cost `ctx_switch` of CPU time.
    pub fn new(ctx_switch: SimDuration) -> Self {
        Scheduler {
            threads: HashMap::new(),
            queues: (0..=u8::MAX as usize).map(|_| VecDeque::new()).collect(),
            next_id: 1,
            ctx_switch,
        }
    }

    /// Creates a blocked thread.
    pub fn spawn(&mut self, priority: u8) -> ThreadId {
        let id = ThreadId(self.next_id);
        self.next_id += 1;
        self.threads.insert(
            id,
            Thread {
                priority,
                state: ThreadState::Blocked,
            },
        );
        id
    }

    /// Makes a thread runnable (idempotent: a second wake while runnable
    /// or running is absorbed, like a condition-variable signal).
    pub fn wake(&mut self, id: ThreadId) {
        let t = self.threads.get_mut(&id).expect("unknown thread");
        if t.state == ThreadState::Blocked {
            t.state = ThreadState::Runnable;
            self.queues[t.priority as usize].push_back(id);
        }
    }

    /// Picks the highest-priority runnable thread (FIFO within a level),
    /// charges the context switch on the CPU, and marks it running.
    /// Returns the thread and the grant covering the switch.
    pub fn dispatch(&mut self, now: SimTime, host: &mut HostMachine) -> Option<(ThreadId, Grant)> {
        let id = self.queues.iter_mut().rev().find_map(|q| q.pop_front())?;
        let t = self.threads.get_mut(&id).expect("queued thread exists");
        t.state = ThreadState::Running;
        let g = host.run_software(now, self.ctx_switch);
        Some((id, g))
    }

    /// The running thread goes back to sleep (its work item finished).
    pub fn block(&mut self, id: ThreadId) {
        let t = self.threads.get_mut(&id).expect("unknown thread");
        assert_eq!(
            t.state,
            ThreadState::Running,
            "only the running thread blocks"
        );
        t.state = ThreadState::Blocked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;

    fn host() -> HostMachine {
        HostMachine::boot(MachineSpec::ds5000_200(), 1)
    }

    #[test]
    fn higher_priority_runs_first() {
        let mut s = Scheduler::new(SimDuration::from_us(14));
        let lo = s.spawn(1);
        let hi = s.spawn(7);
        let mut h = host();
        s.wake(lo);
        s.wake(hi);
        let (first, _) = s.dispatch(SimTime::ZERO, &mut h).unwrap();
        assert_eq!(first, hi);
        s.block(hi);
        let (second, _) = s.dispatch(SimTime::ZERO, &mut h).unwrap();
        assert_eq!(second, lo);
    }

    #[test]
    fn fifo_within_a_priority_level() {
        let mut s = Scheduler::new(SimDuration::from_us(1));
        let a = s.spawn(3);
        let b = s.spawn(3);
        let c = s.spawn(3);
        let mut h = host();
        for id in [b, a, c] {
            s.wake(id);
        }
        let order: Vec<ThreadId> = (0..3)
            .map(|_| {
                let (id, _) = s.dispatch(SimTime::ZERO, &mut h).unwrap();
                s.block(id);
                id
            })
            .collect();
        assert_eq!(order, vec![b, a, c]);
    }

    #[test]
    fn wake_is_idempotent() {
        let mut s = Scheduler::new(SimDuration::from_us(1));
        let t = s.spawn(0);
        let mut h = host();
        s.wake(t);
        s.wake(t); // absorbed
        assert!(s.dispatch(SimTime::ZERO, &mut h).is_some());
        s.block(t);
        assert!(s.dispatch(SimTime::ZERO, &mut h).is_none(), "no ghost wake");
    }

    #[test]
    fn dispatch_charges_the_cpu() {
        let mut s = Scheduler::new(SimDuration::from_us(14));
        let t = s.spawn(0);
        let mut h = host();
        s.wake(t);
        let (_, g) = s.dispatch(SimTime::ZERO, &mut h).unwrap();
        assert_eq!(g.finish.since(g.start), SimDuration::from_us(14));
    }

    #[test]
    fn empty_scheduler_dispatches_nothing() {
        let mut s = Scheduler::new(SimDuration::from_us(1));
        let mut h = host();
        assert!(s.dispatch(SimTime::ZERO, &mut h).is_none());
    }

    #[test]
    #[should_panic(expected = "only the running thread blocks")]
    fn blocking_a_blocked_thread_is_a_bug() {
        let mut s = Scheduler::new(SimDuration::from_us(1));
        let t = s.spawn(0);
        s.block(t);
    }
}
