//! A single physical link lane.
//!
//! OSIRIS reaches 622 Mbps by grouping four 155 Mbps channels (§2.6). Each
//! lane serialises cells at line rate, adds a propagation delay, a fixed
//! per-lane offset (the "multiplexing equipment" skew source the authors
//! could not remove), and a per-cell queueing jitter (the switch-port skew
//! source). Cells on one lane **never reorder relative to each other** —
//! the delivery-time clamp below is the model's statement of the per-link
//! FIFO property that §2.6's skew-handling strategies depend on.

use osiris_sim::obs::{Counter, Probe};
use osiris_sim::{FifoResource, SimDuration, SimTime};

use crate::cell::CELL_BYTES_ON_WIRE;

/// Physical parameters of one lane.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Line rate in bits per second (SONET STS-3c: 155.52 Mbps).
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
}

impl LinkSpec {
    /// The paper's per-lane channel: 155.52 Mbps, back-to-back boards
    /// (negligible propagation — 100 ns of fibre).
    pub fn sts3c_back_to_back() -> Self {
        LinkSpec {
            rate_bps: 155_520_000,
            propagation: SimDuration::from_ns(100),
        }
    }

    /// Time to serialise one 53-byte cell at line rate.
    pub fn cell_time(&self) -> SimDuration {
        // bits * 1e12 / rate, with 128-bit intermediate for exactness.
        let bits = CELL_BYTES_ON_WIRE as u128 * 8;
        SimDuration::from_ps((bits * 1_000_000_000_000u128 / self.rate_bps as u128) as u64)
    }
}

/// One lane: serialisation + delays + per-lane FIFO guarantee.
#[derive(Debug)]
pub struct LinkLane {
    spec: LinkSpec,
    tx: FifoResource,
    /// Fixed extra delay (multiplexing-equipment skew).
    pub offset: SimDuration,
    last_arrival: SimTime,
    cells_sent: Counter,
}

impl LinkLane {
    /// A lane publishing `<scope>.cells_sent` through `probe`.
    pub fn with_probe(spec: LinkSpec, offset: SimDuration, probe: &Probe) -> Self {
        LinkLane {
            spec,
            tx: FifoResource::default(),
            offset,
            last_arrival: SimTime::ZERO,
            cells_sent: probe.counter("cells_sent"),
        }
    }

    /// Sends one cell at `now` with additional queueing `jitter`; returns
    /// its arrival time at the far end. Arrivals are clamped to be
    /// non-decreasing: a lane is a FIFO, whatever the jitter.
    #[inline]
    pub fn send(&mut self, now: SimTime, jitter: SimDuration) -> SimTime {
        let g = self.tx.acquire(now, self.spec.cell_time());
        let mut arrival = g.finish + self.spec.propagation + self.offset + jitter;
        if arrival < self.last_arrival {
            arrival = self.last_arrival;
        }
        self.last_arrival = arrival;
        self.cells_sent.incr();
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osiris_sim::Registry;

    fn detached(spec: LinkSpec, offset: SimDuration) -> LinkLane {
        LinkLane::with_probe(spec, offset, &Probe::detached())
    }

    #[test]
    fn cell_time_matches_line_rate() {
        let spec = LinkSpec::sts3c_back_to_back();
        // 53 B * 8 / 155.52 Mbps = 2.7263 us.
        let t = spec.cell_time();
        assert!((t.as_us_f64() - 2.7263).abs() < 0.001, "{t}");
    }

    #[test]
    fn back_to_back_cells_serialise() {
        let spec = LinkSpec::sts3c_back_to_back();
        let reg = Registry::new();
        let mut lane = LinkLane::with_probe(spec, SimDuration::ZERO, &reg.probe("lane"));
        let a1 = lane.send(SimTime::ZERO, SimDuration::ZERO);
        let a2 = lane.send(SimTime::ZERO, SimDuration::ZERO);
        assert_eq!(a2.since(a1), spec.cell_time());
        assert_eq!(reg.snapshot().counter("lane.cells_sent"), 2);
    }

    #[test]
    fn offset_delays_every_cell() {
        let spec = LinkSpec::sts3c_back_to_back();
        let mut a = detached(spec, SimDuration::ZERO);
        let mut b = detached(spec, SimDuration::from_us(10));
        let ta = a.send(SimTime::ZERO, SimDuration::ZERO);
        let tb = b.send(SimTime::ZERO, SimDuration::ZERO);
        assert_eq!(tb.since(ta), SimDuration::from_us(10));
    }

    #[test]
    fn jitter_never_reorders_a_lane() {
        let spec = LinkSpec::sts3c_back_to_back();
        let mut lane = detached(spec, SimDuration::ZERO);
        // First cell gets huge jitter; second gets none. The second must
        // NOT overtake (per-link FIFO — the property §2.6 relies on).
        let a1 = lane.send(SimTime::ZERO, SimDuration::from_ms(1));
        let a2 = lane.send(SimTime::ZERO, SimDuration::ZERO);
        assert!(a2 >= a1, "lane must be FIFO: {a2} < {a1}");
    }

    #[test]
    fn idle_lane_resumes_at_now() {
        let spec = LinkSpec::sts3c_back_to_back();
        let mut lane = detached(spec, SimDuration::ZERO);
        lane.send(SimTime::ZERO, SimDuration::ZERO);
        let late = SimTime::from_ms(5);
        let a = lane.send(late, SimDuration::ZERO);
        assert_eq!(a, late + spec.cell_time() + spec.propagation);
    }
}
