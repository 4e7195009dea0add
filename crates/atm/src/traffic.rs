//! Cross-traffic generators.
//!
//! The queueing-delay skew of §2.6 exists because *other people's
//! traffic* shares the switch ports the stripe crosses. These generators
//! produce the cell arrival processes used to load switch ports in the
//! skew experiments:
//!
//! * [`TrafficModel::Cbr`] — constant bit rate (a video circuit);
//! * [`TrafficModel::OnOff`] — bursty: exponential-ish on/off periods at
//!   line rate during bursts (the data traffic that makes queueing delay
//!   "essentially unbounded" in the paper's words).

use osiris_sim::{SimDuration, SimRng, SimTime};

use crate::cell::CELL_BYTES_ON_WIRE;

/// The arrival process shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficModel {
    /// Evenly spaced cells at a fraction of line rate (per mille).
    Cbr {
        /// Load in 1/1000ths of line rate (1000 = saturated).
        load_permille: u32,
    },
    /// Bursts at full line rate separated by idle gaps; mean burst and
    /// gap lengths in cells.
    OnOff {
        /// Mean cells per burst.
        mean_burst: u32,
        /// Mean idle gap between bursts, in cell times.
        mean_gap: u32,
    },
}

/// Generates cell arrival instants for one source.
#[derive(Debug)]
pub struct TrafficSource {
    model: TrafficModel,
    cell_time: SimDuration,
    rng: SimRng,
    next: SimTime,
    burst_left: u32,
}

impl TrafficSource {
    /// A source over a line of `rate_bps` starting at `start`.
    pub fn new(model: TrafficModel, rate_bps: u64, start: SimTime, seed: u64) -> Self {
        let bits = CELL_BYTES_ON_WIRE as u128 * 8;
        let cell_time =
            SimDuration::from_ps((bits * 1_000_000_000_000u128 / rate_bps as u128) as u64);
        TrafficSource {
            model,
            cell_time,
            rng: SimRng::new(seed),
            next: start,
            burst_left: 0,
        }
    }

    /// Geometric draw with the given mean (≥ 1).
    fn geometric(rng: &mut SimRng, mean: u32) -> u32 {
        let mean = mean.max(1) as f64;
        let p = 1.0 / mean;
        let mut n = 1;
        while !rng.gen_bool(p) && n < 100_000 {
            n += 1;
        }
        n
    }

    /// The next cell's arrival instant.
    pub fn next_arrival(&mut self) -> SimTime {
        match self.model {
            TrafficModel::Cbr { load_permille } => {
                let load = load_permille.clamp(1, 1000) as u64;
                let gap = SimDuration::from_ps(self.cell_time.as_ps() * 1000 / load);
                let at = self.next;
                self.next = at + gap;
                at
            }
            TrafficModel::OnOff {
                mean_burst,
                mean_gap,
            } => {
                if self.burst_left == 0 {
                    // New burst after a geometric idle gap.
                    let gap_cells = Self::geometric(&mut self.rng, mean_gap) as u64;
                    self.next += SimDuration::from_ps(self.cell_time.as_ps() * gap_cells);
                    self.burst_left = Self::geometric(&mut self.rng, mean_burst);
                }
                self.burst_left -= 1;
                let at = self.next;
                self.next = at + self.cell_time;
                at
            }
        }
    }

    /// Arrival instants up to (and excluding) `until`.
    pub fn arrivals_until(&mut self, until: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        loop {
            let peek = self.next;
            if peek >= until {
                break;
            }
            out.push(self.next_arrival());
            // OnOff may jump `next` forward past `until` inside
            // next_arrival; the loop condition re-checks.
            if out.last().copied().unwrap_or(SimTime::ZERO) >= until {
                out.pop();
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: u64 = 155_520_000;

    #[test]
    fn cbr_spacing_matches_load() {
        let mut s = TrafficSource::new(
            TrafficModel::Cbr { load_permille: 500 },
            RATE,
            SimTime::ZERO,
            1,
        );
        let a = s.next_arrival();
        let b = s.next_arrival();
        // 50% load → cells spaced two cell-times apart (~5.45 us).
        let gap = b.since(a);
        assert!((gap.as_us_f64() - 5.45).abs() < 0.02, "{gap}");
    }

    #[test]
    fn cbr_full_load_is_line_rate() {
        let mut s = TrafficSource::new(
            TrafficModel::Cbr {
                load_permille: 1000,
            },
            RATE,
            SimTime::ZERO,
            1,
        );
        let arrivals = s.arrivals_until(SimTime::from_ms(1));
        // 1 ms at 2.7263 us/cell ≈ 366 cells.
        assert!((360..=370).contains(&arrivals.len()), "{}", arrivals.len());
    }

    #[test]
    fn onoff_bursts_at_line_rate_with_gaps() {
        let mut s = TrafficSource::new(
            TrafficModel::OnOff {
                mean_burst: 10,
                mean_gap: 20,
            },
            RATE,
            SimTime::ZERO,
            7,
        );
        let arrivals: Vec<SimTime> = (0..500).map(|_| s.next_arrival()).collect();
        let cell = SimDuration::from_ps(53 * 8 * 1_000_000_000_000u64 / RATE);
        let mut back_to_back = 0;
        let mut gaps = 0;
        for w in arrivals.windows(2) {
            let d = w[1].since(w[0]);
            assert!(w[1] > w[0], "arrivals must advance");
            if d == cell {
                back_to_back += 1;
            } else {
                gaps += 1;
            }
        }
        assert!(back_to_back > 300, "bursts dominate: {back_to_back}");
        assert!(gaps > 10, "idle gaps exist: {gaps}");
        // Long-run load ≈ burst/(burst+gap) = 1/3 of line rate.
        let span = arrivals.last().unwrap().since(arrivals[0]);
        let load = 500.0 * cell.as_us_f64() / span.as_us_f64();
        assert!((0.15..0.6).contains(&load), "load {load}");
    }

    #[test]
    fn sources_are_deterministic_per_seed() {
        let mk = || {
            TrafficSource::new(
                TrafficModel::OnOff {
                    mean_burst: 5,
                    mean_gap: 5,
                },
                RATE,
                SimTime::ZERO,
                42,
            )
        };
        let a: Vec<SimTime> = {
            let mut s = mk();
            (0..100).map(|_| s.next_arrival()).collect()
        };
        let b: Vec<SimTime> = {
            let mut s = mk();
            (0..100).map(|_| s.next_arrival()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn arrivals_until_respects_bound() {
        let mut s = TrafficSource::new(
            TrafficModel::Cbr {
                load_permille: 1000,
            },
            RATE,
            SimTime::ZERO,
            3,
        );
        let until = SimTime::from_us(100);
        let arrivals = s.arrivals_until(until);
        assert!(!arrivals.is_empty());
        assert!(arrivals.iter().all(|&t| t < until));
    }
}
