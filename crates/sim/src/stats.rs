//! Measurement instruments for experiments.
//!
//! The paper reports round-trip latencies (Table 1) and sustained
//! throughputs (Figures 2–4). These instruments collect exactly those
//! quantities from simulated time, with warm-up trimming so that steady
//! state — not queue-fill transients — is what gets reported.

use crate::obs::Histogram;
use crate::time::{SimDuration, SimTime};

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

/// Latency samples in microseconds: the [`Histogram`] under its older
/// name.
pub type LatencyStats = Histogram;

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(m.bytes(), 10_000);
        assert!((m.mbps() - 800.0).abs() < 1e-6);
    }

    #[test]
    fn throughput_meter_needs_two_samples() {
        let mut m = ThroughputMeter::new(0);
        m.record(SimTime::from_us(5), 100);
        assert_eq!(m.mbps(), 0.0);
    }
}
