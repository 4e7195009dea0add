//! Reservation-based modelling of serially shared hardware.
//!
//! A [`FifoResource`] models a device that serves exactly one request at a
//! time in arrival order: the TURBOchannel bus, a host CPU, an on-board
//! i80960 firmware engine, or a single 155 Mbps link lane. Requests reserve
//! the earliest available slot and immediately learn their `(start, finish)`
//! times; the caller schedules its completion event at `finish`.
//!
//! This "advance reservation" style avoids explicit queueing events while
//! remaining exact for FIFO service: because the discrete-event kernel
//! dispatches events in time order, reservations are made in non-decreasing
//! request-time order, so reservation order equals FIFO arrival order.
//!
//! Utilisation accounting (busy time between two instants) is what the
//! throughput experiments use to report bus/CPU saturation, reproducing the
//! paper's observation that the DECstation 5000/200 TURBOchannel is the
//! bottleneck in Figures 2 and 4.
//!
//! # Example
//!
//! ```
//! use osiris_sim::{FifoResource, SimDuration, SimTime};
//!
//! let mut bus = FifoResource::default();
//! let dma = bus.acquire(SimTime::ZERO, SimDuration::from_ns(760));
//! let cpu = bus.acquire(SimTime::ZERO, SimDuration::from_ns(280));
//! assert_eq!(cpu.start, dma.finish); // FIFO: the CPU waits out the DMA
//! ```

use crate::time::{SimDuration, SimTime};

/// A window of service granted by a [`FifoResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service begins (>= request time).
    pub start: SimTime,
    /// When service completes.
    pub finish: SimTime,
}

impl Grant {
    /// Time spent waiting before service began.
    pub fn queueing_delay(&self, requested_at: SimTime) -> SimDuration {
        self.start.saturating_since(requested_at)
    }
}

/// A serially shared resource with FIFO service discipline; a new one
/// (`FifoResource::default()`) is idle.
#[derive(Debug, Clone, Default)]
pub struct FifoResource {
    free_at: SimTime,
    busy: SimDuration,
    grants: u64,
}

impl FifoResource {
    /// Reserves `duration` of exclusive service at the earliest instant not
    /// before `now`. Returns when service starts and finishes.
    #[inline]
    pub fn acquire(&mut self, now: SimTime, duration: SimDuration) -> Grant {
        let start = self.free_at.max(now);
        let finish = start + duration;
        self.free_at = finish;
        self.busy += duration;
        self.grants += 1;
        Grant { start, finish }
    }

    /// The instant at which the resource next becomes idle.
    #[inline]
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total busy time accumulated over the resource's lifetime.
    pub fn total_busy(&self) -> SimDuration {
        self.busy
    }

    /// Number of grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Fraction of `[from, to]` during which the resource was busy,
    /// approximated from lifetime busy time deltas captured by the caller.
    ///
    /// Callers snapshot `total_busy()` at `from` and call this at `to`.
    pub fn utilisation(busy_delta: SimDuration, from: SimTime, to: SimTime) -> f64 {
        let window = to.saturating_since(from);
        if window.is_zero() {
            return 0.0;
        }
        busy_delta.as_secs_f64() / window.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = FifoResource::default();
        let g = r.acquire(SimTime::from_us(5), SimDuration::from_us(2));
        assert_eq!(g.start, SimTime::from_us(5));
        assert_eq!(g.finish, SimTime::from_us(7));
        assert_eq!(g.queueing_delay(SimTime::from_us(5)), SimDuration::ZERO);
    }

    #[test]
    fn contended_requests_queue_fifo() {
        let mut r = FifoResource::default();
        let a = r.acquire(SimTime::from_us(0), SimDuration::from_us(10));
        let b = r.acquire(SimTime::from_us(1), SimDuration::from_us(5));
        let c = r.acquire(SimTime::from_us(2), SimDuration::from_us(1));
        assert_eq!(a.finish, SimTime::from_us(10));
        assert_eq!(b.start, SimTime::from_us(10));
        assert_eq!(b.finish, SimTime::from_us(15));
        assert_eq!(c.start, SimTime::from_us(15));
        assert_eq!(
            b.queueing_delay(SimTime::from_us(1)),
            SimDuration::from_us(9)
        );
    }

    #[test]
    fn resource_goes_idle_between_bursts() {
        let mut r = FifoResource::default();
        r.acquire(SimTime::from_us(0), SimDuration::from_us(1));
        assert_eq!(r.free_at(), SimTime::from_us(1));
        let g = r.acquire(SimTime::from_us(50), SimDuration::from_us(1));
        assert_eq!(g.start, SimTime::from_us(50));
    }

    #[test]
    fn busy_accounting() {
        let mut r = FifoResource::default();
        r.acquire(SimTime::from_us(0), SimDuration::from_us(3));
        r.acquire(SimTime::from_us(10), SimDuration::from_us(4));
        assert_eq!(r.total_busy(), SimDuration::from_us(7));
        assert_eq!(r.grants(), 2);
        // 7 us busy over a 14 us window = 50 %.
        let u =
            FifoResource::utilisation(SimDuration::from_us(7), SimTime::ZERO, SimTime::from_us(14));
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_window_utilisation_is_zero() {
        assert_eq!(
            FifoResource::utilisation(SimDuration::ZERO, SimTime::from_us(3), SimTime::from_us(3)),
            0.0
        );
    }
}
