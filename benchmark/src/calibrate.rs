//! Host-speed calibration. The benchmark shares a host whose speed
//! drifts: in busy periods, neighbours contending for the cores, caches
//! and memory slow every workload together, by up to 2× for minutes.
//! Each repetition therefore also times a fixed probe that is part of
//! the benchmark, not of the program, so a change to the program cannot
//! move it. When the probe runs slower than on the quiet reference host,
//! the host-time end-to-end metrics are scaled by that slowdown. A probe
//! at or below the reference leaves them as measured: on a quiet host
//! the probe varies more than the workloads do. The unscaled values are
//! reported beside the scaled ones.

use std::hint::black_box;
use std::time::Instant;

/// Words in the probe's table: 32 MiB, larger than the reference host's
/// last-level cache, so the probe feels memory contention as the larger
/// workloads do.
const TABLE_WORDS: usize = 4 << 20;

/// Random read-modify-writes in one probe slice: about 10 ms.
const SLICE_UPDATES: u64 = 800_000;

/// Nanoseconds per update on the reference host when it is quiet: the
/// 70th percentile of 700 repetitions' median slices. Most quiet
/// repetitions stay unscaled, and a busy host's scaled times come out
/// within about 15 % of the quiet host's. It is fixed, so scaled values
/// stay comparable across commits.
pub const REFERENCE_NS: f64 = 10.0;

/// The probe: a table of words updated at random places.
pub struct Probe {
    table: Vec<u64>,
    x: u64,
}

impl Probe {
    /// Allocates and touches the table, so page faults stay out of the
    /// timed slices. It raises peak memory: build it only after the
    /// run's peak has been read.
    pub fn new() -> Probe {
        Probe {
            table: vec![1; TABLE_WORDS],
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Times one slice and returns its nanoseconds per update.
    pub fn slice(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = black_box(self.x);
        for _ in 0..SLICE_UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % TABLE_WORDS as u64) as usize;
            self.table[i] = self.table[i].wrapping_add(x);
        }
        self.x = black_box(x);
        t.elapsed().as_nanos() as f64 / SLICE_UPDATES as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_timed_and_touch_the_table() {
        let mut p = Probe::new();
        let ns = p.slice();
        assert!(ns > 0.0 && ns.is_finite());
        let touched = p.table.iter().filter(|&&w| w != 1).count();
        assert!(touched as u64 > SLICE_UPDATES / 2);
    }
}
