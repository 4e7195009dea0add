//! The telemetry plane's contract, end to end:
//!
//! 1. **Sampling is passive.** Turning `sample_every` on produces a
//!    byte-identical semantic snapshot and goodput line to sampling
//!    off — the sampler only reads the registry between dispatches,
//!    never perturbing the event history.
//! 2. **Per-window deltas are exact.** A counter series' window deltas
//!    sum to exactly `total - base`, regardless of ring eviction, so
//!    rates integrate back to the final registry totals.
//! 3. **Dumps round-trip.** `SeriesDump::to_json` → `Json::parse` →
//!    `SeriesDump::from_json` is the identity.

use osiris::config::TestbedConfig;
use osiris::sim::{Json, SeriesDump, SeriesKind, SimDuration};
use osiris::{RunOutcome, Scenario};

/// A quick switched incast with enough concurrency to exercise every
/// tracked series: switch queues, slab pressure, all event types.
fn incast_cfg() -> TestbedConfig {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 2 * 1024;
    cfg.messages = 1;
    cfg.reassembly = osiris::atm::sar::ReassemblyMode::FourWay { lanes: 4 };
    cfg
}

fn run(cfg: &TestbedConfig, sample_every: Option<SimDuration>) -> RunOutcome {
    let mut cfg = cfg.clone();
    cfg.sim.sample_every = sample_every;
    let out = Scenario::Incast { senders: 16 }.run(cfg);
    assert!(out.done, "incast completed");
    assert_eq!(out.verify_failures, 0);
    out
}

#[test]
fn sampling_is_invisible() {
    let cfg = incast_cfg();
    let reference = run(&cfg, None);
    assert!(reference.series.is_none(), "sampling off returns no series");
    let sampled = run(&cfg, Some(SimDuration::from_us(100)));
    assert_eq!(
        reference.semantic_snapshot().to_json().render_pretty(),
        sampled.semantic_snapshot().to_json().render_pretty(),
        "sampling on changed the semantic snapshot"
    );
    assert_eq!(
        reference.goodput_line(),
        sampled.goodput_line(),
        "sampling on changed the goodput line"
    );
    assert_eq!(reference.scheduled, sampled.scheduled);
    assert_eq!(reference.dispatched, sampled.dispatched);
    assert_eq!(reference.last_event_time, sampled.last_event_time);
    let series = sampled.series.expect("sampling on returns series");
    assert!(series.samples > 0, "grid produced samples");
    assert!(!series.series.is_empty());
}

#[test]
fn counter_window_deltas_sum_to_registry_totals() {
    let cfg = incast_cfg();
    let out = run(&cfg, Some(SimDuration::from_us(50)));
    let dump = out.series.as_ref().expect("series collected");

    // The synthetic dispatch series accounts for every dispatched event.
    let d = dump
        .series_named("events_dispatched")
        .expect("dispatch series");
    assert_eq!(d.sum, out.dispatched as f64);
    assert_eq!(d.total - d.base, out.dispatched as f64);

    // Every tracked counter's deltas integrate to its final registry
    // value (minus what construction had already counted), eviction or
    // not — the running aggregates cover evicted windows too.
    for s in dump.series.iter().filter(|s| s.kind == SeriesKind::Counter) {
        assert_eq!(
            s.sum,
            s.total - s.base,
            "series {}: window deltas must sum to total - base",
            s.name
        );
        if s.name == "engine.events.scheduled" {
            assert_eq!(s.total, out.scheduled as f64);
        }
        if let Some(final_v) = out.snapshot.counters.get(&s.name) {
            assert_eq!(s.total, *final_v as f64, "series {} total", s.name);
        }
    }

    // The dispatch mix sums to the total dispatch count.
    let mix: f64 = dump
        .series
        .iter()
        .filter(|s| s.name.starts_with("engine.dispatch."))
        .map(|s| s.sum)
        .sum();
    assert_eq!(mix, out.dispatched as f64, "per-type dispatch mix");
}

#[test]
fn series_dump_round_trips_through_json() {
    let cfg = incast_cfg();
    let out = run(&cfg, Some(SimDuration::from_us(100)));
    let dump = out.series.expect("series collected");
    let rendered = dump.to_json().render_pretty();
    let parsed = Json::parse(&rendered).expect("rendered dump parses");
    let back = SeriesDump::from_json(&parsed).expect("dump deserializes");
    assert_eq!(dump, back, "SeriesDump JSON round-trip must be identity");
}
