//! Measurement instruments for experiments.
//!
//! The paper reports round-trip latencies (Table 1) and sustained
//! throughputs (Figures 2–4). These instruments collect exactly those
//! quantities from simulated time, with warm-up trimming so that steady
//! state — not queue-fill transients — is what gets reported.

use crate::time::{SimDuration, SimTime};

/// Streaming mean/min/max/variance (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 for fewer than two observations).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Measures sustained throughput: bytes delivered over a simulated window,
/// with the first `warmup` deliveries discarded.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    warmup_remaining: u64,
    started: Option<SimTime>,
    last: SimTime,
    bytes: u64,
    deliveries: u64,
}

impl ThroughputMeter {
    /// A meter that ignores the first `warmup_deliveries` deliveries (they
    /// charge pipeline-fill cost to no one) and starts timing at the first
    /// counted delivery.
    pub fn new(warmup_deliveries: u64) -> Self {
        ThroughputMeter {
            warmup_remaining: warmup_deliveries,
            started: None,
            last: SimTime::ZERO,
            bytes: 0,
            deliveries: 0,
        }
    }

    /// Records a delivery of `bytes` completing at `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        if self.warmup_remaining > 0 {
            self.warmup_remaining -= 1;
            // The measurement window opens when warm-up ends.
            self.started = Some(now);
            return;
        }
        if self.started.is_none() {
            self.started = Some(now);
        }
        self.bytes += bytes;
        self.deliveries += 1;
        self.last = now;
    }

    /// Counted (post-warm-up) deliveries.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Counted bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Measured window, from end of warm-up to the last delivery.
    pub fn window(&self) -> SimDuration {
        match self.started {
            Some(s) => self.last.saturating_since(s),
            None => SimDuration::ZERO,
        }
    }

    /// Sustained throughput in Mbps over the measured window.
    ///
    /// Returns 0 when fewer than two deliveries were counted (no window).
    pub fn mbps(&self) -> f64 {
        let w = self.window();
        if w.is_zero() || self.deliveries < 2 {
            return 0.0;
        }
        w.mbps_for_bytes(self.bytes)
    }
}

/// Latency sample collector reporting in microseconds.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    stats: RunningStats,
}

impl LatencyStats {
    /// An empty collector.
    pub fn new() -> Self {
        LatencyStats {
            stats: RunningStats::new(),
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        self.stats.record(d.as_us_f64());
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.stats.mean()
    }

    /// Standard deviation in microseconds.
    pub fn std_dev_us(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Minimum sample in microseconds.
    pub fn min_us(&self) -> f64 {
        self.stats.min().unwrap_or(0.0)
    }

    /// Maximum sample in microseconds.
    pub fn max_us(&self) -> f64 {
        self.stats.max().unwrap_or(0.0)
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_mean_and_bounds() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 6.0, 8.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(8.0));
        // population std dev of {2,4,6,8} = sqrt(5)
        assert!((s.std_dev() - 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn throughput_meter_basic_rate() {
        // 1000 bytes every 10 us after a 1-delivery warm-up.
        let mut m = ThroughputMeter::new(1);
        for i in 0..11u64 {
            m.record(SimTime::from_us(10 * i), 1000);
        }
        // Warm-up consumed delivery 0 and opened the window at t=0;
        // 10 counted deliveries of 1000 B over 100 us = exactly the
        // steady-state rate of 1000 B / 10 us = 800 Mbps.
        assert_eq!(m.deliveries(), 10);
        assert_eq!(m.bytes(), 10_000);
        assert!((m.mbps() - 800.0).abs() < 1e-6);
    }

    #[test]
    fn throughput_meter_needs_two_samples() {
        let mut m = ThroughputMeter::new(0);
        m.record(SimTime::from_us(5), 100);
        assert_eq!(m.mbps(), 0.0);
    }

    #[test]
    fn latency_stats_in_us() {
        let mut l = LatencyStats::new();
        l.record(SimDuration::from_us(100));
        l.record(SimDuration::from_us(300));
        assert_eq!(l.count(), 2);
        assert!((l.mean_us() - 200.0).abs() < 1e-9);
        assert_eq!(l.min_us(), 100.0);
        assert_eq!(l.max_us(), 300.0);
    }
}
