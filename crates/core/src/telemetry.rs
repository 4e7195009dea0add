//! The runtime telemetry plane: deterministic time-series sampling of
//! the testbed's own registry.
//!
//! [`Sampler`] wraps an [`osiris_sim::SeriesSet`] around the metric
//! registry of a built testbed: it *finds* already-registered counters
//! and gauges (never creates keys — sampling on must not change the
//! registry key set, which the telemetry equivalence tests pin) and
//! snapshots them on a fixed virtual-time grid
//! (`cfg.sim.sample_every`). Counter series record per-window deltas
//! (rates), gauge series record instantaneous values.
//!
//! Sampling is **passive**: no event ever enters the model queue on its
//! behalf. The run loop samples between dispatches — a grid point `T`
//! is sampled exactly when the next pending event is strictly beyond
//! `T`, i.e. when the registry already holds its final state-at-`T`.
//! The sampled values are pure functions of the deterministic event
//! history, so runs with sampling on are byte-identical to runs with it
//! off.
//!
//! The default tracked set is the engine's own health: total events
//! scheduled, events dispatched (a synthetic per-sampler counter), the
//! per-event-type `engine.dispatch.*` mix, the cell-slab high water,
//! the switch output-queue high water, and the event queue's pending
//! high water.

use osiris_sim::obs::{Counter, Probe, Registry};
use osiris_sim::{Model, SeriesDump, SeriesSet, SimDuration, SimTime, Simulation};

/// Gauges the default tracked set samples when present in the registry
/// (absent keys are skipped — e.g. no `fabric.switch.*` on a
/// back-to-back fabric).
const TRACKED_GAUGES: &[&str] = &[
    "cells.slab_high_water",
    "fabric.switch.queue_high_water_cells",
    "engine.queue.pending_high_water",
];

/// A sampling plane bound to one engine's registry: the series set plus
/// the synthetic dispatch counter the run loop bumps once per handled
/// event.
#[derive(Debug, Clone)]
pub struct Sampler {
    set: SeriesSet,
    dispatched: Counter,
}

impl Sampler {
    /// Builds the default tracked set over `registry`. Call *after* the
    /// engine probes are attached (post-`launch`) so the `engine.*` keys
    /// exist.
    ///
    /// `probe` scopes the sampler's own drop counter
    /// (`<scope>.samples_dropped` — ring evictions); pass the
    /// registry's `obs` probe so drops are registry-visible.
    pub fn new(registry: &Registry, probe: &Probe, every: SimDuration, capacity: usize) -> Sampler {
        let set = SeriesSet::new(every, capacity);
        set.attach_probe(probe);
        let dispatched = Counter::detached();
        set.track_counter("events_dispatched", &dispatched);
        if let Some(c) = registry.find_counter("engine.events.scheduled") {
            set.track_counter("engine.events.scheduled", &c);
        }
        for path in registry.counter_paths_with_prefix("engine.dispatch.") {
            if let Some(c) = registry.find_counter(&path) {
                set.track_counter(&path, &c);
            }
        }
        for &g in TRACKED_GAUGES {
            if let Some(gauge) = registry.find_gauge(g) {
                set.track_gauge(g, &gauge);
            }
        }
        Sampler { set, dispatched }
    }

    /// Counts one dispatched event into the `events_dispatched` series.
    pub fn note_dispatch(&self) {
        self.dispatched.incr();
    }

    /// Samples every grid point strictly before `t` (call with the next
    /// pending event time).
    pub fn sample_grid_before(&self, t: SimTime) {
        self.set.sample_grid_before(t);
    }

    /// Closes the run at `end` (samples remaining grid points plus a
    /// final tail sample) and returns the collected series.
    pub fn finish(&self, end: SimTime) -> SeriesDump {
        self.set.finish(end);
        self.set.dump()
    }
}

/// Runs `sim` to queue exhaustion, sampling `sampler`'s grid between
/// dispatches. Equivalent to
/// [`Simulation::run_to_completion`] in every observable way (same
/// dispatch order, same final `now`): the only addition is passive
/// registry reads at grid points.
pub fn run_sampled<M: Model>(sim: &mut Simulation<M>, sampler: &Sampler) {
    while let Some(t) = sim.queue.peek_time() {
        sampler.sample_grid_before(t);
        sim.step();
        sampler.note_dispatch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestbedConfig;
    use crate::scenario::Scenario;

    #[test]
    fn sampler_never_creates_registry_keys() {
        let sim = Scenario::Pair.launch(TestbedConfig::ds5000_200_udp());
        let before: Vec<String> = sim
            .model
            .registry
            .snapshot()
            .counters
            .keys()
            .cloned()
            .collect();
        let reg = sim.model.registry.clone();
        let _s = Sampler::new(&reg, &Probe::detached(), SimDuration::from_us(100), 64);
        let after: Vec<String> = sim
            .model
            .registry
            .snapshot()
            .counters
            .keys()
            .cloned()
            .collect();
        assert_eq!(before, after, "sampling must not mint counter keys");
    }

    #[test]
    fn sampled_run_matches_unsampled_run() {
        let cfg = TestbedConfig::ds5000_200_udp();
        let mut plain = Scenario::Pair.launch(cfg.clone());
        plain.run_to_completion();

        let mut sampled = Scenario::Pair.launch(cfg);
        let sampler = Sampler::new(
            &sampled.model.registry,
            &Probe::detached(),
            SimDuration::from_us(50),
            1024,
        );
        run_sampled(&mut sampled, &sampler);
        let dump = sampler.finish(sampled.now());

        assert_eq!(plain.now(), sampled.now(), "same final virtual time");
        assert_eq!(plain.steps(), sampled.steps(), "same dispatch count");
        assert_eq!(
            plain.model.registry.snapshot().to_json().render_pretty(),
            sampled.model.registry.snapshot().to_json().render_pretty(),
            "sampling must be invisible to the registry"
        );
        // The synthetic dispatch series accounts for every event.
        let s = dump.series_named("events_dispatched").unwrap();
        assert_eq!(s.total - s.base, sampled.steps() as f64);
        assert_eq!(s.sum, sampled.steps() as f64);
    }
}
