//! Deterministic time-series sampling of registry instruments.
//!
//! End-of-run counter totals answer *how much*; the telemetry plane
//! answers *when*. A [`SeriesSet`] is a sampling schedule over
//! **simulated** time: the harness picks a period (`SimConfig::
//! sample_every`, e.g. 100 µs of virtual time) and, at every grid
//! point, the set reads a fixed collection of [`Counter`]/[`Gauge`]
//! handles into ring-buffered windows. Counters are stored as
//! *per-window deltas* (a rate, once divided by the period); gauges as
//! the value the instrument held at the grid instant.
//!
//! # Determinism
//!
//! Sampling never perturbs a run. Two properties make that hold:
//!
//! * The sample grid lives in sim time, not wall time, so the set of
//!   grid points is a pure function of the period and the run's last
//!   event time — identical across hosts and reruns.
//! * Sampling is *passive*: no `SampleTick` event ever enters the model
//!   queue. The sequential engine samples between event dispatches
//!   (every grid point `T` is sampled exactly when the next pending
//!   event is strictly beyond `T`, i.e. once the state at `T` is
//!   final). Event order, push counts, and
//!   `last_event_time` are untouched — the equivalence suite
//!   byte-compares semantic snapshots with sampling on and off.
//!
//! # Memory model
//!
//! Each tracked series owns one pre-allocated ring of `(SimTime, f64)`
//! windows (`SimConfig::series_capacity` entries): pushing into a full
//! ring evicts the oldest window and bumps a registry-visible
//! `obs.samples_dropped` counter, so truncation is never silent. The
//! running aggregates (`count`/`sum`/`min`/`max`/`last`) cover *every*
//! window ever taken, evicted or not — which is what keeps the delta
//! invariant exact: for a counter series, `sum` of all window deltas
//! equals the final cumulative value minus the value at registration
//! (`base`), regardless of eviction. Names are resolved to shared
//! `Rc<str>` keys once, at registration; the per-sample hot path is
//! arithmetic on pre-resolved handles — no string work, no allocation.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use super::{Counter, Gauge, Probe};
use crate::json::Json;
use crate::time::{SimDuration, SimTime};

/// What a series samples and how windows are derived from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// A monotone [`Counter`]: windows hold per-window deltas.
    Counter,
    /// A last-value [`Gauge`]: windows hold the sampled value.
    Gauge,
}

impl SeriesKind {
    /// The JSON/CSV spelling (`"counter"` / `"gauge"`).
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }

    fn parse(s: &str) -> Option<SeriesKind> {
        match s {
            "counter" => Some(SeriesKind::Counter),
            "gauge" => Some(SeriesKind::Gauge),
            _ => None,
        }
    }
}

enum Source {
    Counter(Counter),
    Gauge(Gauge),
}

struct SeriesInner {
    /// Full dotted key, interned once at registration.
    name: Rc<str>,
    kind: SeriesKind,
    source: Source,
    /// Cumulative value at registration (counters; 0.0 for gauges).
    base: f64,
    /// Cumulative value at the previous sample (counters).
    prev: f64,
    /// Latest cumulative value (counters) / latest sample (gauges).
    total: f64,
    /// `(grid instant, window value)`, oldest first, capacity-bounded.
    ring: VecDeque<(SimTime, f64)>,
    /// Windows evicted from this ring.
    evicted: u64,
    // Running aggregates over every window ever taken.
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

struct SetInner {
    every: SimDuration,
    capacity: usize,
    /// Next unsampled grid point (`every`, `2*every`, …).
    next: SimTime,
    last_sample: Option<SimTime>,
    samples: u64,
    /// Registry-visible eviction count (`obs.samples_dropped`).
    dropped: Counter,
    series: Vec<SeriesInner>,
}

/// A deterministic sampling plane: a sim-time grid plus the instrument
/// handles it snapshots. Cheap-clone shared handle, like [`Counter`].
#[derive(Clone)]
pub struct SeriesSet {
    inner: Rc<RefCell<SetInner>>,
}

impl SeriesSet {
    /// An empty set sampling every `every` of simulated time, keeping
    /// at most `capacity` windows per series.
    ///
    /// # Panics
    /// Panics on a zero period or zero capacity — both would make the
    /// grid meaningless.
    pub fn new(every: SimDuration, capacity: usize) -> SeriesSet {
        assert!(!every.is_zero(), "sample period must be positive");
        assert!(capacity > 0, "series ring capacity must be positive");
        SeriesSet {
            inner: Rc::new(RefCell::new(SetInner {
                every,
                capacity,
                next: SimTime::ZERO + every,
                last_sample: None,
                samples: 0,
                dropped: Counter::detached(),
                series: Vec::new(),
            })),
        }
    }

    /// Registers ring evictions as `<scope>.samples_dropped` in
    /// `probe`'s registry (pass `registry.probe("obs")` for the
    /// canonical `obs.samples_dropped`), carrying over evictions that
    /// happened before attaching.
    pub fn attach_probe(&self, probe: &Probe) {
        let mut s = self.inner.borrow_mut();
        let already: u64 = s.series.iter().map(|sr| sr.evicted).sum();
        s.dropped = probe.counter("samples_dropped");
        s.dropped.add(already);
    }

    /// Tracks `counter` under `name`; windows hold per-window deltas
    /// over the value at registration.
    pub fn track_counter(&self, name: &str, counter: &Counter) {
        let base = counter.get() as f64;
        self.track(
            name,
            SeriesKind::Counter,
            Source::Counter(counter.clone()),
            base,
        );
    }

    /// Tracks `gauge` under `name`; windows hold the sampled value.
    pub fn track_gauge(&self, name: &str, gauge: &Gauge) {
        self.track(name, SeriesKind::Gauge, Source::Gauge(gauge.clone()), 0.0);
    }

    fn track(&self, name: &str, kind: SeriesKind, source: Source, base: f64) {
        let mut s = self.inner.borrow_mut();
        let capacity = s.capacity;
        s.series.push(SeriesInner {
            name: Rc::from(name),
            kind,
            source,
            base,
            prev: base,
            total: base,
            ring: VecDeque::with_capacity(capacity),
            evicted: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
        });
    }

    /// Takes one sample stamped `at`, off-grid. The engine integration
    /// points use [`SeriesSet::sample_grid_before`]/[`SeriesSet::finish`]
    /// instead; this is the primitive they share.
    pub fn sample_at(&self, at: SimTime) {
        let mut s = self.inner.borrow_mut();
        s.samples += 1;
        s.last_sample = Some(at);
        let SetInner {
            capacity,
            ref dropped,
            ref mut series,
            ..
        } = *s;
        for sr in series.iter_mut() {
            let window = match &sr.source {
                Source::Counter(c) => {
                    let cum = c.get() as f64;
                    let d = cum - sr.prev;
                    sr.prev = cum;
                    sr.total = cum;
                    d
                }
                Source::Gauge(g) => {
                    let v = g.get();
                    sr.total = v;
                    v
                }
            };
            if sr.ring.len() >= capacity {
                sr.ring.pop_front();
                sr.evicted += 1;
                dropped.incr();
            }
            sr.ring.push_back((at, window));
            sr.count += 1;
            sr.sum += window;
            sr.min = sr.min.min(window);
            sr.max = sr.max.max(window);
            sr.last = window;
        }
    }

    /// Samples every grid point strictly before `t` — the run loop calls
    /// this with the timestamp of the next pending event, so the model
    /// state at each such grid point is final and the sample is exact.
    pub fn sample_grid_before(&self, t: SimTime) {
        loop {
            let next = {
                let s = self.inner.borrow();
                if s.next >= t {
                    return;
                }
                s.next
            };
            self.sample_at(next);
            let mut s = self.inner.borrow_mut();
            let every = s.every;
            s.next = next + every;
        }
    }

    /// Closes the run at `end` (the last event time): samples any grid
    /// point up to and including `end`, then one final partial window
    /// at `end` itself so the delta invariant (`Σ windows == total -
    /// base`) holds exactly over the recorded points.
    pub fn finish(&self, end: SimTime) {
        loop {
            let next = {
                let s = self.inner.borrow();
                if s.next > end {
                    break;
                }
                s.next
            };
            self.sample_at(next);
            let mut s = self.inner.borrow_mut();
            let every = s.every;
            s.next = next + every;
        }
        let needs_tail = self.inner.borrow().last_sample != Some(end);
        if needs_tail {
            self.sample_at(end);
        }
    }

    /// Plain-data copy of everything recorded: the form a run returns
    /// and every exporter reads.
    pub fn dump(&self) -> SeriesDump {
        let s = self.inner.borrow();
        SeriesDump {
            every: s.every,
            samples: s.samples,
            dropped: s.dropped.get(),
            series: s
                .series
                .iter()
                .map(|sr| SeriesData {
                    name: sr.name.to_string(),
                    kind: sr.kind,
                    base: sr.base,
                    total: sr.total,
                    sum: sr.sum,
                    count: sr.count,
                    min: if sr.count > 0 { sr.min } else { 0.0 },
                    max: if sr.count > 0 { sr.max } else { 0.0 },
                    last: sr.last,
                    evicted: sr.evicted,
                    points: sr.ring.iter().copied().collect(),
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for SeriesSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.inner.borrow();
        f.debug_struct("SeriesSet")
            .field("every", &s.every)
            .field("series", &s.series.len())
            .field("samples", &s.samples)
            .field("next", &s.next)
            .finish()
    }
}

/// One dumped series: aggregates plus the retained window ring.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesData {
    /// Full dotted key.
    pub name: String,
    /// Counter (windows are deltas) or gauge (windows are values).
    pub kind: SeriesKind,
    /// Counter value at registration (0 for gauges).
    pub base: f64,
    /// Final cumulative value (counters) / final sample (gauges).
    pub total: f64,
    /// Σ window values over **all** windows, evicted included. For
    /// counters this equals `total - base` exactly.
    pub sum: f64,
    /// Windows taken (evicted included).
    pub count: u64,
    /// Smallest window value.
    pub min: f64,
    /// Largest window value.
    pub max: f64,
    /// Most recent window value.
    pub last: f64,
    /// Windows evicted from the ring.
    pub evicted: u64,
    /// Retained `(grid instant, window value)` pairs, oldest first.
    pub points: Vec<(SimTime, f64)>,
}

impl SeriesData {
    /// Mean window value over all windows taken.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A thread-safe, plain-data dump of a [`SeriesSet`] — the unit the
/// exporters (chrome counters, JSONL/CSV, report tables) consume.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesDump {
    /// Sampling period.
    pub every: SimDuration,
    /// Grid samples taken.
    pub samples: u64,
    /// Total ring evictions across series (`obs.samples_dropped`).
    pub dropped: u64,
    /// The tracked series.
    pub series: Vec<SeriesData>,
}

impl SeriesDump {
    /// The series named exactly `name`, if tracked.
    pub fn series_named(&self, name: &str) -> Option<&SeriesData> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Full JSON document (round-trips through [`SeriesDump::from_json`]).
    pub fn to_json(&self) -> Json {
        let series = self
            .series
            .iter()
            .map(|s| {
                let points = s
                    .points
                    .iter()
                    .map(|(t, v)| Json::Arr(vec![Json::from(t.as_ps()), Json::Num(*v)]))
                    .collect();
                Json::obj()
                    .with("name", s.name.as_str())
                    .with("kind", s.kind.as_str())
                    .with("base", s.base)
                    .with("total", s.total)
                    .with("sum", s.sum)
                    .with("count", s.count)
                    .with("min", s.min)
                    .with("max", s.max)
                    .with("last", s.last)
                    .with("evicted", s.evicted)
                    .with("points", Json::Arr(points))
            })
            .collect();
        Json::obj()
            .with("every_ps", self.every.as_ps())
            .with("samples", self.samples)
            .with("samples_dropped", self.dropped)
            .with("series", Json::Arr(series))
    }

    /// Parses a document produced by [`SeriesDump::to_json`].
    pub fn from_json(doc: &Json) -> Option<SeriesDump> {
        let series = doc
            .get("series")?
            .items()
            .iter()
            .map(|s| {
                let points = s
                    .get("points")?
                    .items()
                    .iter()
                    .map(|p| Some((SimTime(p.idx(0)?.as_u64()?), p.idx(1)?.as_f64()?)))
                    .collect::<Option<Vec<_>>>()?;
                Some(SeriesData {
                    name: s.get("name")?.as_str()?.to_string(),
                    kind: SeriesKind::parse(s.get("kind")?.as_str()?)?,
                    base: s.get("base")?.as_f64()?,
                    total: s.get("total")?.as_f64()?,
                    sum: s.get("sum")?.as_f64()?,
                    count: s.get("count")?.as_u64()?,
                    min: s.get("min")?.as_f64()?,
                    max: s.get("max")?.as_f64()?,
                    last: s.get("last")?.as_f64()?,
                    evicted: s.get("evicted")?.as_u64()?,
                    points,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(SeriesDump {
            every: SimDuration(doc.get("every_ps")?.as_u64()?),
            samples: doc.get("samples")?.as_u64()?,
            dropped: doc.get("samples_dropped")?.as_u64()?,
            series,
        })
    }

    /// JSONL form: one meta object line, then one compact object per
    /// series — the `--series-out foo.jsonl` format.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &Json::obj()
                .with("every_ps", self.every.as_ps())
                .with("samples", self.samples)
                .with("samples_dropped", self.dropped)
                .with("series", self.series.len())
                .render_compact(),
        );
        out.push('\n');
        let all = self.to_json();
        for s in all.get("series").map(Json::items).unwrap_or_default() {
            out.push_str(&s.render_compact());
            out.push('\n');
        }
        out
    }

    /// CSV form (`series,kind,t_ps,value` rows) — the
    /// `--series-out foo.csv` format.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,kind,t_ps,value\n");
        for s in &self.series {
            for (t, v) in &s.points {
                out.push_str(&format!(
                    "{},{},{},{v}\n",
                    s.name,
                    s.kind.as_str(),
                    t.as_ps()
                ));
            }
        }
        out
    }

    /// Chrome trace counter events (`"ph": "C"`), one per retained
    /// window, plottable in `chrome://tracing` / Perfetto alongside the
    /// Timeline's causal spans.
    pub fn chrome_counter_events(&self) -> Vec<Json> {
        let mut events = Vec::new();
        for s in &self.series {
            for (t, v) in &s.points {
                events.push(
                    Json::obj()
                        .with("name", s.name.as_str())
                        .with("cat", "series")
                        .with("ph", "C")
                        .with("ts", t.as_us_f64())
                        .with("pid", 0i64)
                        .with("args", Json::obj().with("value", *v)),
                );
            }
        }
        events
    }

    /// Appends this dump's counter events into an existing chrome-trace
    /// document's `traceEvents` array (the Timeline export), so series
    /// render alongside the causal spans.
    pub fn merge_into_chrome(&self, doc: Json) -> Json {
        let Json::Obj(mut entries) = doc else {
            return doc;
        };
        for (k, v) in entries.iter_mut() {
            if k == "traceEvents" {
                if let Json::Arr(items) = v {
                    items.extend(self.chrome_counter_events());
                }
            }
        }
        Json::Obj(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Registry;

    fn set_with_counter() -> (SeriesSet, Counter) {
        let set = SeriesSet::new(SimDuration::from_us(10), 8);
        let c = Counter::detached();
        set.track_counter("engine.events", &c);
        (set, c)
    }

    #[test]
    fn counter_windows_are_deltas_and_sum_to_total() {
        let (set, c) = set_with_counter();
        c.add(5);
        set.sample_at(SimTime::from_us(10));
        c.add(2);
        set.sample_at(SimTime::from_us(20));
        set.sample_at(SimTime::from_us(30));
        let d = set.dump();
        let s = &d.series[0];
        assert_eq!(
            s.points,
            vec![
                (SimTime::from_us(10), 5.0),
                (SimTime::from_us(20), 2.0),
                (SimTime::from_us(30), 0.0),
            ]
        );
        assert_eq!(s.sum, s.total - s.base);
        assert_eq!(s.total, 7.0);
        assert_eq!((s.min, s.max, s.last), (0.0, 5.0, 0.0));
    }

    #[test]
    fn tracking_starts_from_the_current_value() {
        let set = SeriesSet::new(SimDuration::from_us(10), 8);
        let c = Counter::detached();
        c.add(100);
        set.track_counter("pre", &c);
        c.add(3);
        set.sample_at(SimTime::from_us(10));
        let s = &set.dump().series[0];
        assert_eq!(s.base, 100.0);
        assert_eq!(s.points[0].1, 3.0);
        assert_eq!(s.sum, s.total - s.base);
    }

    #[test]
    fn eviction_keeps_aggregates_and_counts_drops() {
        let reg = Registry::new();
        let set = SeriesSet::new(SimDuration::from_us(1), 4);
        set.attach_probe(&reg.probe("obs"));
        let c = Counter::detached();
        set.track_counter("x", &c);
        for i in 1..=10u64 {
            c.add(i);
            set.sample_at(SimTime::from_us(i));
        }
        let d = set.dump();
        let s = &d.series[0];
        assert_eq!(s.points.len(), 4, "ring is capacity-bounded");
        assert_eq!(s.evicted, 6);
        assert_eq!(d.dropped, 6);
        assert_eq!(reg.snapshot().counter("obs.samples_dropped"), 6);
        // The delta invariant survives eviction: aggregates cover every
        // window, not just the retained ones.
        assert_eq!(s.sum, s.total - s.base);
        assert_eq!(s.total, (1..=10u64).sum::<u64>() as f64);
    }

    #[test]
    fn grid_sampling_stops_before_pending_time() {
        let (set, c) = set_with_counter();
        c.add(1);
        // Next pending event at t=35us: grid points 10, 20, 30 are
        // final; 40 is not.
        set.sample_grid_before(SimTime::from_us(35));
        let last_point = |set: &SeriesSet| set.dump().series[0].points.last().map(|p| p.0);
        assert_eq!(set.dump().samples, 3);
        assert_eq!(last_point(&set), Some(SimTime::from_us(30)));
        // A pending event exactly on the grid point must block it.
        set.sample_grid_before(SimTime::from_us(40));
        assert_eq!(set.dump().samples, 3);
        assert_eq!(last_point(&set), Some(SimTime::from_us(30)));
    }

    #[test]
    fn finish_takes_the_tail_window() {
        let (set, c) = set_with_counter();
        set.sample_grid_before(SimTime::from_us(25)); // 10, 20
        c.add(9);
        set.finish(SimTime::from_us(25));
        let s = &set.dump().series[0];
        assert_eq!(s.points.last(), Some(&(SimTime::from_us(25), 9.0)));
        assert_eq!(s.sum, s.total - s.base);
        // Finishing exactly on a grid point takes no duplicate sample.
        let (set2, _c2) = set_with_counter();
        set2.finish(SimTime::from_us(20));
        let d2 = set2.dump();
        assert_eq!(
            d2.series[0]
                .points
                .iter()
                .map(|(t, _)| *t)
                .collect::<Vec<_>>(),
            vec![SimTime::from_us(10), SimTime::from_us(20)]
        );
    }

    #[test]
    fn gauge_series_sample_values() {
        let set = SeriesSet::new(SimDuration::from_us(10), 8);
        let g = Gauge::default();
        set.track_gauge("depth", &g);
        g.set(3.0);
        set.sample_at(SimTime::from_us(10));
        g.set(1.5);
        set.sample_at(SimTime::from_us(20));
        let s = &set.dump().series[0];
        assert_eq!(
            s.points,
            vec![(SimTime::from_us(10), 3.0), (SimTime::from_us(20), 1.5),]
        );
        assert_eq!((s.min, s.max, s.last, s.total), (1.5, 3.0, 1.5, 1.5));
    }

    #[test]
    fn dump_json_round_trips() {
        let (set, c) = set_with_counter();
        let g = Gauge::default();
        set.track_gauge("depth", &g);
        c.add(4);
        g.set(2.5);
        set.sample_at(SimTime::from_us(10));
        c.add(1);
        set.sample_at(SimTime::from_us(20));
        let dump = set.dump();
        let text = dump.to_json().render_pretty();
        let parsed = SeriesDump::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, dump);
    }

    #[test]
    fn exports_have_the_advertised_shapes() {
        let (set, c) = set_with_counter();
        c.add(4);
        set.sample_at(SimTime::from_us(10));
        let dump = set.dump();

        let jsonl = dump.to_jsonl();
        let mut lines = jsonl.lines();
        let meta = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(meta.get("series").unwrap().as_u64(), Some(1));
        assert!(Json::parse(lines.next().unwrap()).is_ok());

        let csv = dump.to_csv();
        assert!(csv.starts_with("series,kind,t_ps,value\n"));
        assert!(csv.contains("engine.events,counter,10000000,4"));

        let events = dump.chrome_counter_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(
            events[0]
                .get("args")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(4.0)
        );

        // Merging into a timeline-style doc appends, losing nothing.
        let doc = Json::obj()
            .with("traceEvents", Json::Arr(vec![Json::obj().with("ph", "X")]))
            .with("displayTimeUnit", "ms");
        let merged = dump.merge_into_chrome(doc);
        assert_eq!(merged.get("traceEvents").unwrap().items().len(), 2);
        assert_eq!(merged.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
    }
}
