//! Observability: probes, a hierarchical metric registry, a typed
//! timeline of simulated-time spans, and per-PDU critical-path analysis.
//!
//! The paper's conclusions all rest on counting things — interrupts per
//! PDU (§2.1.2), cache words invalidated (§2.3), DMA transactions and
//! bus words (§2.5), cells per reassembly lane (§2.6). Every component
//! in the workspace publishes those tallies through this module instead
//! of hand-rolling its own stat structs:
//!
//! * [`Registry`] — one shared, hierarchical store of counters and
//!   gauges, keyed by dotted paths such as
//!   `node0.board.rx.cells` or `node1.host.bus.dma_words`.
//! * [`Probe`] — a cheap handle scoped to one component (`board.rx`,
//!   `host.intr`, `bus`); components request their instruments from it
//!   at construction and then increment [`Counter`] handles directly —
//!   an `Rc<Cell<u64>>` bump, no lookup on the hot path.
//! * [`Timeline`] — typed spans/instants in simulated picosecond time,
//!   exportable as Chrome trace-event JSON for `chrome://tracing` /
//!   Perfetto. A timeline is a cheap-clone shared handle, so every
//!   layer of a node (stack, driver, board halves) can hold one and
//!   open its own spans without signature ripple.
//! * [`TraceCtx`] — the causal identity of one PDU (source host +
//!   PDU id), minted at send time and carried through fragmentation,
//!   descriptors, cells, the fabric, reassembly, and delivery. Spans
//!   keyed by a ctx form the PDU's whole-path trace.
//! * [`CriticalPath`] — turns one ctx's span set into a latency
//!   anatomy: every picosecond between first span start and last span
//!   end is attributed to exactly one [`Stage`], so the stages sum to
//!   the observed end-to-end time by construction.
//! * [`Snapshot`] — a deterministic (BTreeMap-ordered) read-out of the
//!   whole registry, the unit the report layer and the bench binaries
//!   consume.
//! * [`Histogram`] — the one distribution type: exact count, min, max,
//!   and mean over [`SimDuration`] samples, with log-linear buckets that
//!   resolve percentiles to within 1/32.
//!
//! Components constructed standalone (unit tests, micro-experiments)
//! use [`Probe::detached`], which owns a private registry; the
//! `Testbed` builder threads one shared registry through every layer.
//! The simulation is single-threaded by design, so registry handles are
//! `Rc`-based and deliberately `!Send`; [`Histogram`] is a plain value.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::json::Json;
use crate::time::{SimDuration, SimTime};

pub mod series;

/// A monotonically increasing event count.
///
/// Cloning shares the underlying cell: the component keeps one clone for
/// hot-path increments while the registry keeps another for snapshots.
#[derive(Debug, Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// A counter not registered anywhere (placeholder/testing).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A last-value-wins measurement (queue depth, free buffers, …).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Rc<Cell<f64>>);

impl Gauge {
    /// Sets the current value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

/// Linear sub-buckets per power of two in [`Histogram`]: every bucket
/// is at most `1/SUB_BUCKETS` of its lower edge wide.
const SUB_BUCKETS: u64 = 32;

/// Bucket index of a picosecond value. Values below `2 * SUB_BUCKETS`
/// get one exact bucket each; above that, octave `s` (values in
/// `[2^(s+5), 2^(s+6))`) splits into 32 equal sub-buckets, so the index
/// is `32 * s + (ps >> s)` — monotone and gap-free.
fn bucket_of(ps: u64) -> usize {
    if ps < 2 * SUB_BUCKETS {
        return ps as usize;
    }
    let shift = 63 - ps.leading_zeros() - SUB_BUCKETS.trailing_zeros();
    (SUB_BUCKETS * u64::from(shift) + (ps >> shift)) as usize
}

/// Largest picosecond value that falls in bucket `idx`.
fn bucket_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    let shift = (idx / SUB_BUCKETS).saturating_sub(1);
    let mant = idx - SUB_BUCKETS * shift;
    // u128: the top bucket's bound is exactly u64::MAX.
    (((u128::from(mant) + 1) << shift) - 1) as u64
}

/// The distribution of a set of [`SimDuration`] samples — per-stage
/// critical-path latencies, round-trip times, inter-delivery gaps.
///
/// Sample count, min, max, and mean are exact. Percentiles come from
/// log-linear buckets over picoseconds (32 linear sub-buckets per power
/// of two, HDR-style): the estimate is the upper bound of the bucket
/// holding the nearest-rank sample, clamped to `[min, max]`, so it is
/// never below the exact percentile and at most 1/32 above it. That
/// resolution is finer than the 5 % `regress` gates that watch the
/// percentile headlines.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: u64,
    min: SimDuration,
    max: SimDuration,
    /// Σ `as_us_f64()` in observe order — the plain mean's numerator.
    sum_us: f64,
    /// Sample counts by [`bucket_of`] index, grown to the largest seen.
    buckets: Vec<u64>,
}

impl Histogram {
    /// Adds one sample.
    pub fn observe(&mut self, d: SimDuration) {
        if self.samples == 0 {
            self.min = d;
            self.max = d;
        } else {
            self.min = self.min.min(d);
            self.max = self.max.max(d);
        }
        self.samples += 1;
        self.sum_us += d.as_us_f64();
        let idx = bucket_of(d.as_ps());
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// The `p`-th quantile (`0.0..=1.0`) in microseconds: the upper bound
    /// of the bucket holding the nearest-rank sample, clamped to
    /// `[min, max]`. Zero when empty.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.samples as f64).ceil() as u64).max(1);
        let mut seen = 0;
        let idx = self
            .buckets
            .iter()
            .position(|&n| {
                seen += n;
                seen >= rank
            })
            .expect("bucket counts sum to the sample count");
        let ps = bucket_upper(idx).clamp(self.min.as_ps(), self.max.as_ps());
        SimDuration::from_ps(ps).as_us_f64()
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.samples
    }

    /// Plain mean in microseconds, summed in observe order (zero when
    /// empty).
    pub fn mean_us(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_us / self.samples as f64
        }
    }

    /// Smallest sample in microseconds (zero when empty).
    pub fn min_us(&self) -> f64 {
        self.min.as_us_f64()
    }

    /// Largest sample in microseconds (zero when empty).
    pub fn max_us(&self) -> f64 {
        self.max.as_us_f64()
    }

    /// Summary of every sample so far, in microseconds.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            mean: self.mean_us(),
            min: self.min_us(),
            max: self.max_us(),
            samples: self.samples,
            p50: self.percentile_us(0.50),
            p95: self.percentile_us(0.95),
            p99: self.percentile_us(0.99),
        }
    }
}

/// Read-out of a [`Histogram`], in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Plain mean of the samples.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub samples: u64,
    /// Median, estimated from the buckets (see [`Histogram`]).
    pub p50: f64,
    /// 95th percentile, same estimation.
    pub p95: f64,
    /// 99th percentile, same estimation.
    pub p99: f64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
}

/// The shared metric store. Cloning is cheap (one `Rc`); all clones view
/// the same instruments.
#[derive(Debug, Clone, Default)]
pub struct Registry(Rc<RefCell<RegistryInner>>);

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A probe rooted at `scope` (empty string for the registry root).
    pub fn probe(&self, scope: &str) -> Probe {
        Probe {
            reg: self.clone(),
            scope: Rc::from(scope),
        }
    }

    /// The counter at exactly `path`, registering it at zero if absent.
    pub fn counter(&self, path: &str) -> Counter {
        self.0
            .borrow_mut()
            .counters
            .entry(path.to_string())
            .or_default()
            .clone()
    }

    /// The gauge at exactly `path`, registering it if absent.
    pub fn gauge(&self, path: &str) -> Gauge {
        self.0
            .borrow_mut()
            .gauges
            .entry(path.to_string())
            .or_default()
            .clone()
    }

    /// The counter at exactly `path` if it is already registered.
    /// Unlike [`Registry::counter`] this never creates the key — the
    /// read-only form the sampling plane uses, so turning sampling on
    /// can never change a snapshot's key set.
    pub fn find_counter(&self, path: &str) -> Option<Counter> {
        self.0.borrow().counters.get(path).cloned()
    }

    /// The gauge at exactly `path` if already registered (never creates).
    pub fn find_gauge(&self, path: &str) -> Option<Gauge> {
        self.0.borrow().gauges.get(path).cloned()
    }

    /// Registered counter paths starting with `prefix`, in path order —
    /// how the sampler enumerates e.g. every `engine.dispatch.*` key.
    pub fn counter_paths_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.0
            .borrow()
            .counters
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// A deterministic point-in-time read-out of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.0.borrow();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
        }
    }
}

/// A handle scoped to one component's corner of the registry.
///
/// The scope path is a shared `Rc<str>`: cloning a probe or deriving a
/// child never copies the path bytes, and instruments resolve their
/// dotted key exactly once, at registration — increments afterwards are
/// plain `Rc<Cell>` bumps with no string work at all.
#[derive(Debug, Clone)]
pub struct Probe {
    reg: Registry,
    scope: Rc<str>,
}

impl Probe {
    /// A probe over a fresh private registry — for components built
    /// standalone (unit tests, micro-experiments).
    pub fn detached() -> Probe {
        Registry::new().probe("")
    }

    /// This probe's dotted scope path (may be empty at the root).
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// A child probe: `probe("board").scoped("rx")` → scope `board.rx`.
    pub fn scoped(&self, sub: &str) -> Probe {
        Probe {
            reg: self.reg.clone(),
            scope: Rc::from(self.join(sub)),
        }
    }

    fn join(&self, name: &str) -> String {
        if self.scope.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.scope, name)
        }
    }

    /// The counter `scope.name`, registering it at zero if absent.
    pub fn counter(&self, name: &str) -> Counter {
        self.reg.counter(&self.join(name))
    }

    /// The gauge `scope.name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.reg.gauge(&self.join(name))
    }
}

/// A deterministic read-out of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by full dotted path.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by full dotted path.
    pub gauges: BTreeMap<String, f64>,
}

impl Snapshot {
    /// The counter at `path`, zero if it was never registered.
    pub fn counter(&self, path: &str) -> u64 {
        self.counters.get(path).copied().unwrap_or(0)
    }

    /// The gauge at `path`, zero if absent.
    pub fn gauge(&self, path: &str) -> f64 {
        self.gauges.get(path).copied().unwrap_or(0.0)
    }

    /// Counters whose path ends with `.suffix`, in path order.
    pub fn counters_with_suffix<'a>(
        &'a self,
        suffix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters.iter().filter_map(move |(k, &v)| {
            let stripped = k.strip_suffix(suffix)?;
            if stripped.ends_with('.') || stripped.is_empty() {
                Some((k.as_str(), v))
            } else {
                None
            }
        })
    }

    /// Renders the snapshot as a JSON object:
    /// `{"counters": {...}, "gauges": {...}}`.
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .fold(Json::obj(), |j, (k, &v)| j.with(k, v));
        let gauges = self
            .gauges
            .iter()
            .fold(Json::obj(), |j, (k, &v)| j.with(k, v));
        Json::obj()
            .with("counters", counters)
            .with("gauges", gauges)
    }
}

/// The causal identity of one PDU: the sending host's model-level
/// address and a per-sender PDU number. For the UDP/IP path this is
/// exactly the IP header's `(src, id)` pair, so the receive side can
/// re-mint the same ctx from the wire header; raw-ATM senders mint from
/// a per-node sequence. The ctx rides on descriptors and cells as
/// simulation-side metadata (no bytes on the modelled wire change).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceCtx {
    /// Model-level address of the sending host (IP `src`).
    pub host: u16,
    /// Per-sender PDU number (IP `id` for UDP/IP).
    pub pdu: u32,
}

impl std::fmt::Display for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}:p{}", self.host, self.pdu)
    }
}

/// One recorded timeline event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Track (maps to a Chrome trace thread): `host0.cpu`, `board1.rx`, `bus0`.
    pub track: String,
    /// Event name shown in the viewer.
    pub name: String,
    /// Start time.
    pub at: SimTime,
    /// Span length; `None` marks an instant event.
    pub dur: Option<SimDuration>,
    /// The PDU this event belongs to, when the layer knows it.
    pub ctx: Option<TraceCtx>,
}

impl TimelineEvent {
    /// Span end time (equals `at` for instants).
    pub fn end(&self) -> SimTime {
        match self.dur {
            Some(d) => self.at + d,
            None => self.at,
        }
    }
}

/// An interned timeline string (a track or span name): a dense index
/// into the timeline's symbol table. Hot paths cache `SymId`s once (at
/// `set_timeline` / construction time) and emit spans by id — a couple
/// of machine words copied, no `String` allocated per event. The cold
/// export edge ([`Timeline::events`], [`Timeline::to_chrome_json`])
/// resolves ids back to the exact same strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(u32);

/// The timeline's string interner. Ids are assigned in first-intern
/// order, so a deterministic run yields a deterministic table.
#[derive(Debug, Default)]
struct SymTable {
    names: Vec<Rc<str>>,
    lookup: std::collections::HashMap<Rc<str>, SymId>,
}

impl SymTable {
    fn intern(&mut self, s: &str) -> SymId {
        if let Some(&id) = self.lookup.get(s) {
            return id;
        }
        let id = SymId(self.names.len() as u32);
        let name: Rc<str> = Rc::from(s);
        self.names.push(name.clone());
        self.lookup.insert(name, id);
        id
    }

    /// Lookup without inserting (queries for strings never interned
    /// simply match nothing).
    fn get(&self, s: &str) -> Option<SymId> {
        self.lookup.get(s).copied()
    }

    fn resolve(&self, id: SymId) -> &str {
        &self.names[id.0 as usize]
    }
}

/// Internal storage form of one timeline event: strings as `SymId`s, so
/// a record is a few plain words (`Copy`, no heap).
#[derive(Debug, Clone, Copy)]
struct TimelineRecord {
    track: SymId,
    name: SymId,
    at: SimTime,
    dur: Option<SimDuration>,
    ctx: Option<TraceCtx>,
}

#[derive(Debug, Default)]
struct TimelineInner {
    enabled: bool,
    capacity: usize,
    syms: SymTable,
    events: std::collections::VecDeque<TimelineRecord>,
    dropped: Counter,
}

impl TimelineInner {
    fn push_record(&mut self, r: TimelineRecord) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped.incr();
        }
        self.events.push_back(r);
    }

    fn resolve_event(&self, r: &TimelineRecord) -> TimelineEvent {
        TimelineEvent {
            track: self.syms.resolve(r.track).to_string(),
            name: self.syms.resolve(r.name).to_string(),
            at: r.at,
            dur: r.dur,
            ctx: r.ctx,
        }
    }
}

/// Typed spans and instants in simulated time, bounded like the trace
/// ring: when full, the **oldest** events are evicted and counted in a
/// registry-visible `dropped` counter so truncation is never silent.
///
/// A `Timeline` is a cheap-clone shared handle (like [`Counter`]): the
/// testbed creates one and hands clones to the stack, driver, and board
/// halves, which each open spans on their own tracks. A
/// default-constructed timeline is detached (capacity 0, disabled) so
/// components built standalone pay nothing.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    inner: Rc<RefCell<TimelineInner>>,
}

impl Timeline {
    /// A disabled timeline with the given capacity and a detached
    /// dropped-events counter.
    pub fn new(capacity: usize) -> Timeline {
        let tl = Timeline::default();
        tl.inner.borrow_mut().capacity = capacity;
        tl
    }

    /// A timeline whose `dropped` counter is registered on `probe` as
    /// `<scope>.timeline.dropped`.
    pub fn with_probe(capacity: usize, probe: &Probe) -> Timeline {
        let t = Timeline::new(capacity);
        t.inner.borrow_mut().dropped = probe.scoped("timeline").counter("dropped");
        t
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.inner.borrow_mut().enabled = on;
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.borrow().enabled
    }

    /// Interns `s` into this timeline's symbol table, returning a
    /// [`SymId`] usable with the `*_sym` emission methods. Interning is
    /// idempotent; hot paths call this once at wiring time and keep the
    /// id.
    pub fn intern(&self, s: &str) -> SymId {
        self.inner.borrow_mut().syms.intern(s)
    }

    /// Records a span belonging to PDU `ctx`.
    pub fn span_ctx(
        &self,
        track: &str,
        name: impl AsRef<str>,
        ctx: TraceCtx,
        start: SimTime,
        end: SimTime,
    ) {
        let mut t = self.inner.borrow_mut();
        if !t.enabled {
            return;
        }
        let track = t.syms.intern(track);
        let name = t.syms.intern(name.as_ref());
        t.push_record(TimelineRecord {
            track,
            name,
            at: start,
            dur: Some(end.saturating_since(start)),
            ctx: Some(ctx),
        });
    }

    /// Records an instant belonging to PDU `ctx`.
    pub fn instant_ctx(&self, track: &str, name: impl AsRef<str>, ctx: TraceCtx, at: SimTime) {
        let mut t = self.inner.borrow_mut();
        if !t.enabled {
            return;
        }
        let track = t.syms.intern(track);
        let name = t.syms.intern(name.as_ref());
        t.push_record(TimelineRecord {
            track,
            name,
            at,
            dur: None,
            ctx: Some(ctx),
        });
    }

    /// Records a span outside any PDU, on pre-interned symbols — the
    /// hot-path form.
    pub fn span_sym(&self, track: SymId, name: SymId, start: SimTime, end: SimTime) {
        let mut t = self.inner.borrow_mut();
        if !t.enabled {
            return;
        }
        t.push_record(TimelineRecord {
            track,
            name,
            at: start,
            dur: Some(end.saturating_since(start)),
            ctx: None,
        });
    }

    /// [`Timeline::span_ctx`] with pre-interned symbols.
    pub fn span_ctx_sym(
        &self,
        track: SymId,
        name: SymId,
        ctx: TraceCtx,
        start: SimTime,
        end: SimTime,
    ) {
        let mut t = self.inner.borrow_mut();
        if !t.enabled {
            return;
        }
        t.push_record(TimelineRecord {
            track,
            name,
            at: start,
            dur: Some(end.saturating_since(start)),
            ctx: Some(ctx),
        });
    }

    /// Records an instant outside any PDU, on pre-interned symbols.
    pub fn instant_sym(&self, track: SymId, name: SymId, at: SimTime) {
        let mut t = self.inner.borrow_mut();
        if !t.enabled {
            return;
        }
        t.push_record(TimelineRecord {
            track,
            name,
            at,
            dur: None,
            ctx: None,
        });
    }

    /// [`Timeline::instant_ctx`] with pre-interned symbols.
    pub fn instant_ctx_sym(&self, track: SymId, name: SymId, ctx: TraceCtx, at: SimTime) {
        let mut t = self.inner.borrow_mut();
        if !t.enabled {
            return;
        }
        t.push_record(TimelineRecord {
            track,
            name,
            at,
            dur: None,
            ctx: Some(ctx),
        });
    }

    /// Recorded events, oldest first (symbols resolved back to strings).
    pub fn events(&self) -> Vec<TimelineEvent> {
        let inner = self.inner.borrow();
        inner
            .events
            .iter()
            .map(|r| inner.resolve_event(r))
            .collect()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every event belonging to `ctx`, oldest first.
    pub fn events_for(&self, ctx: TraceCtx) -> Vec<TimelineEvent> {
        let inner = self.inner.borrow();
        inner
            .events
            .iter()
            .filter(|r| r.ctx == Some(ctx))
            .map(|r| inner.resolve_event(r))
            .collect()
    }

    /// The distinct PDU contexts seen, in first-appearance order.
    pub fn ctxs(&self) -> Vec<TraceCtx> {
        let inner = self.inner.borrow();
        let mut out = Vec::new();
        for e in &inner.events {
            if let Some(c) = e.ctx {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Events evicted because the timeline was full.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped.get()
    }

    /// All spans on `track` whose name equals `name`, oldest first.
    pub fn spans_named(&self, track: &str, name: &str) -> Vec<TimelineEvent> {
        let inner = self.inner.borrow();
        let (Some(tid), Some(nid)) = (inner.syms.get(track), inner.syms.get(name)) else {
            return Vec::new();
        };
        inner
            .events
            .iter()
            .filter(|r| r.track == tid && r.name == nid)
            .map(|r| inner.resolve_event(r))
            .collect()
    }

    /// Exports the Chrome trace-event JSON document (the format
    /// `chrome://tracing` and Perfetto load): complete (`"X"`) events
    /// for spans, instant (`"i"`) events for instants, one trace "thread"
    /// per track, timestamps in microseconds of simulated time. Events
    /// with a [`TraceCtx`] carry it under `args.ctx` so a PDU can be
    /// followed across tracks in the viewer.
    ///
    /// A timeline that evicted events (ring capacity hit mid-run) is a
    /// *partial* export: the document then leads with a global
    /// `"partial export"` instant carrying the eviction count under
    /// `args.dropped`, so downstream consumers can tell a truncated
    /// trace from a complete one instead of silently missing the oldest
    /// spans.
    pub fn to_chrome_json(&self) -> Json {
        let inner = self.inner.borrow();
        // Tracks in first-appearance order, as interned ids; names are
        // resolved only at the render edge below.
        let mut tracks: Vec<SymId> = Vec::new();
        for ev in &inner.events {
            if !tracks.contains(&ev.track) {
                tracks.push(ev.track);
            }
        }
        let mut events = Vec::new();
        for ev in &inner.events {
            let tid = tracks.iter().position(|t| *t == ev.track).unwrap() as i64;
            let mut obj = Json::obj()
                .with("name", inner.syms.resolve(ev.name))
                .with("cat", "sim")
                .with("ph", if ev.dur.is_some() { "X" } else { "i" })
                .with("ts", ev.at.as_us_f64())
                .with("pid", 0i64)
                .with("tid", tid);
            match ev.dur {
                Some(d) => obj = obj.with("dur", d.as_us_f64()),
                None => obj = obj.with("s", "t"),
            }
            if let Some(c) = ev.ctx {
                obj = obj.with("args", Json::obj().with("ctx", c.to_string().as_str()));
            }
            events.push(obj);
        }
        // Thread-name metadata so the viewer labels tracks.
        for (tid, track) in tracks.iter().enumerate() {
            events.push(
                Json::obj()
                    .with("name", "thread_name")
                    .with("ph", "M")
                    .with("pid", 0i64)
                    .with("tid", tid as i64)
                    .with("args", Json::obj().with("name", inner.syms.resolve(*track))),
            );
        }
        let dropped = inner.dropped.get();
        if dropped > 0 {
            let first_ts = inner
                .events
                .front()
                .map(|e| e.at.as_us_f64())
                .unwrap_or(0.0);
            events.push(
                Json::obj()
                    .with("name", "partial export")
                    .with("cat", "sim")
                    .with("ph", "i")
                    .with("ts", first_ts)
                    .with("pid", 0i64)
                    .with("s", "g")
                    .with("args", Json::obj().with("dropped", dropped)),
            );
        }
        Json::obj()
            .with("traceEvents", Json::Arr(events))
            .with("displayTimeUnit", "ms")
    }
}

/// The latency-anatomy stages a PDU's wall time is attributed to —
/// the paper's §4 decomposition, as machine-checkable categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Host CPU running protocol/driver/app code (send, UDP/IP in and
    /// out, drain, delivery).
    ProtocolCpu,
    /// Waiting for the memory bus before a DMA transfer could start.
    BusWait,
    /// DMA data actually moving over the bus (tx fetch / rx store).
    DmaTransfer,
    /// Adaptor firmware (i80960) segmentation/launch work.
    AdaptorFw,
    /// Cells serialising onto and propagating over the striped lanes.
    Wire,
    /// Queueing inside the switch fabric.
    SwitchQueue,
    /// Reassembly window on the receive board not covered by DMA or
    /// firmware work (waiting for the PDU's remaining cells).
    ReassemblyWait,
    /// Descriptor pushed, host not yet draining: interrupt-suppression
    /// delay plus handler/dispatch.
    InterruptDelay,
    /// Anything the span names don't classify.
    Other,
}

impl Stage {
    /// Every stage, in the order tables render them.
    pub const ALL: [Stage; 9] = [
        Stage::ProtocolCpu,
        Stage::BusWait,
        Stage::DmaTransfer,
        Stage::AdaptorFw,
        Stage::Wire,
        Stage::SwitchQueue,
        Stage::ReassemblyWait,
        Stage::InterruptDelay,
        Stage::Other,
    ];

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::ProtocolCpu => "protocol CPU",
            Stage::BusWait => "bus wait",
            Stage::DmaTransfer => "DMA transfer",
            Stage::AdaptorFw => "adaptor firmware",
            Stage::Wire => "wire",
            Stage::SwitchQueue => "switch queueing",
            Stage::ReassemblyWait => "reassembly wait",
            Stage::InterruptDelay => "interrupt delay",
            Stage::Other => "other",
        }
    }

    /// Classifies a span by its name. The span-naming convention is the
    /// contract between the instrumented layers and this analyzer:
    /// `app.*`/`proto.*`/`driver.*`/`drain*` are host CPU, `bus.wait`
    /// is bus arbitration, `dma.*` is data on the bus, `fw.*` is
    /// firmware, `lane*` is the wire, `switch*` the fabric, `sar*` the
    /// reassembly window, and `intr.wait` the interrupt delay.
    pub fn of_span(name: &str) -> Stage {
        if name.starts_with("bus.wait") {
            Stage::BusWait
        } else if name.starts_with("dma.") {
            Stage::DmaTransfer
        } else if name.starts_with("fw.") {
            Stage::AdaptorFw
        } else if name.starts_with("lane") {
            Stage::Wire
        } else if name.starts_with("switch") {
            Stage::SwitchQueue
        } else if name.starts_with("sar") {
            Stage::ReassemblyWait
        } else if name.starts_with("intr.wait") {
            Stage::InterruptDelay
        } else if name.starts_with("app.")
            || name.starts_with("proto.")
            || name.starts_with("driver.")
            || name.starts_with("drain")
            || name.starts_with("intr")
        {
            Stage::ProtocolCpu
        } else {
            Stage::Other
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One PDU's analyzed whole-path trace: its spans, the end-to-end
/// window, and wall time attributed per [`Stage`] such that the stages
/// sum exactly to `end - start`.
#[derive(Debug, Clone)]
pub struct PduPath {
    /// The PDU.
    pub ctx: TraceCtx,
    /// Earliest span start.
    pub start: SimTime,
    /// Latest span end.
    pub end: SimTime,
    /// Wall time per stage, in [`Stage::ALL`] order (zeros included).
    pub stages: Vec<(Stage, SimDuration)>,
    /// The PDU's spans, sorted by start time (ties: longer first).
    pub spans: Vec<TimelineEvent>,
}

impl PduPath {
    /// End-to-end latency (`end - start`).
    pub fn total(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Wall time attributed to one stage.
    pub fn stage(&self, s: Stage) -> SimDuration {
        self.stages
            .iter()
            .find(|(st, _)| *st == s)
            .map(|&(_, d)| d)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Sum of all stage attributions (equals [`PduPath::total`] by
    /// construction; asserted by the analyzer).
    pub fn stage_sum(&self) -> SimDuration {
        SimDuration::from_ps(self.stages.iter().map(|&(_, d)| d.as_ps()).sum())
    }

    /// The span tree as indented text: nesting by time containment,
    /// one line per span with track, window, and duration.
    pub fn render_tree(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "PDU {} | {:.1} us end-to-end ({:.1}..{:.1} us)",
            self.ctx,
            self.total().as_us_f64(),
            self.start.as_us_f64(),
            self.end.as_us_f64()
        );
        let mut stack: Vec<SimTime> = Vec::new();
        for s in &self.spans {
            // Nest only under spans that strictly contain this one;
            // partially-overlapping pipeline neighbours are siblings.
            while let Some(&top) = stack.last() {
                if s.at >= top || s.end() > top {
                    stack.pop();
                } else {
                    break;
                }
            }
            let _ = writeln!(
                out,
                "{}{} [{}] {:.1}..{:.1} us ({:.2} us)",
                "  ".repeat(stack.len() + 1),
                s.name,
                s.track,
                s.at.as_us_f64(),
                s.end().as_us_f64(),
                s.dur.unwrap_or(SimDuration::ZERO).as_us_f64()
            );
            stack.push(s.end());
        }
        out
    }

    /// The per-stage attribution as an aligned table (µs and share),
    /// with the sum-check line the acceptance criteria ask for.
    pub fn render_stage_table(&self) -> String {
        use std::fmt::Write as _;
        let total = self.total().as_us_f64().max(f64::MIN_POSITIVE);
        let mut out = String::new();
        for &(stage, d) in &self.stages {
            if d == SimDuration::ZERO {
                continue;
            }
            let us = d.as_us_f64();
            let _ = writeln!(
                out,
                "  {:<18} {:>8.2} us  {:>5.1} %",
                stage.label(),
                us,
                100.0 * us / total
            );
        }
        let _ = writeln!(
            out,
            "  {:<18} {:>8.2} us  (= end-to-end: {})",
            "total",
            self.stage_sum().as_us_f64(),
            if self.stage_sum() == self.total() {
                "exact"
            } else {
                "MISMATCH"
            }
        );
        out
    }
}

/// Attributes every picosecond of a PDU's end-to-end window to one
/// [`Stage`] by sweeping the PDU's span set:
///
/// * Segment boundaries are the sorted, deduplicated span start/end
///   times, so every segment has a fixed set of covering spans.
/// * A covered segment belongs to its **innermost** active span (the
///   latest-starting; ties broken by earliest end) — a `dma.rx` span
///   inside the reassembly window wins its segment, and the residue of
///   the window is genuine reassembly wait.
/// * An uncovered segment (a gap) belongs to the next span to start,
///   i.e. the resource the PDU was waiting on; a gap's right edge is
///   always some span's start, so the attribution is total.
///
/// Stages therefore tile `[start, end]` exactly: their sum equals the
/// observed end-to-end latency by construction (and is asserted).
#[derive(Debug)]
pub struct CriticalPath;

impl CriticalPath {
    /// Analyzes one PDU. `None` when the timeline holds no spans for it.
    pub fn analyze(timeline: &Timeline, ctx: TraceCtx) -> Option<PduPath> {
        let mut spans: Vec<TimelineEvent> = timeline
            .events_for(ctx)
            .into_iter()
            .filter(|e| e.dur.is_some())
            .collect();
        if spans.is_empty() {
            return None;
        }
        spans.sort_by_key(|s| (s.at, std::cmp::Reverse(s.end())));
        let start = spans.iter().map(|s| s.at).min().expect("non-empty");
        let end = spans.iter().map(|s| s.end()).max().expect("non-empty");

        let mut bounds: Vec<SimTime> = Vec::with_capacity(spans.len() * 2);
        for s in &spans {
            bounds.push(s.at);
            bounds.push(s.end());
        }
        bounds.sort_unstable();
        bounds.dedup();

        let mut acc: BTreeMap<Stage, u64> = BTreeMap::new();
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            let seg = b.saturating_since(a).as_ps();
            if seg == 0 {
                continue;
            }
            // Innermost active span: latest start, then earliest end.
            let owner = spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.at <= a && s.end() >= b)
                .max_by_key(|(i, s)| (s.at, std::cmp::Reverse(s.end()), *i))
                .map(|(_, s)| s);
            let stage = match owner {
                Some(s) => Stage::of_span(&s.name),
                // Gap: attribute to the next span to start (what the PDU
                // was waiting for). `b` is always a span start here.
                None => spans
                    .iter()
                    .filter(|s| s.at == b)
                    .min_by_key(|s| s.end())
                    .map(|s| Stage::of_span(&s.name))
                    .unwrap_or(Stage::Other),
            };
            *acc.entry(stage).or_insert(0) += seg;
        }

        let stages: Vec<(Stage, SimDuration)> = Stage::ALL
            .iter()
            .map(|&s| (s, SimDuration::from_ps(acc.get(&s).copied().unwrap_or(0))))
            .collect();
        let path = PduPath {
            ctx,
            start,
            end,
            stages,
            spans,
        };
        debug_assert_eq!(
            path.stage_sum(),
            path.total(),
            "stage attribution must tile the end-to-end window for {ctx}"
        );
        Some(path)
    }

    /// Analyzes every PDU the timeline has spans for, in
    /// first-appearance order.
    pub fn analyze_all(timeline: &Timeline) -> Vec<PduPath> {
        timeline
            .ctxs()
            .into_iter()
            .filter_map(|c| Self::analyze(timeline, c))
            .collect()
    }

    /// Per-stage latency distributions over a set of analyzed PDUs, as
    /// `(stage, summary-in-µs)` rows in [`Stage::ALL`] order. Stages
    /// with zero time across every PDU are omitted.
    pub fn stage_percentiles(paths: &[PduPath]) -> Vec<(Stage, HistSummary)> {
        let mut out = Vec::new();
        for &stage in &Stage::ALL {
            let mut h = Histogram::default();
            let mut any = false;
            for p in paths {
                let d = p.stage(stage);
                any |= !d.is_zero();
                h.observe(d);
            }
            if any {
                out.push((stage, h.summary()));
            }
        }
        out
    }

    /// End-to-end latency distribution (µs) over a set of analyzed PDUs.
    pub fn e2e_summary(paths: &[PduPath]) -> HistSummary {
        let mut h = Histogram::default();
        for p in paths {
            h.observe(p.total());
        }
        h.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_share() {
        let reg = Registry::new();
        let probe = reg.probe("board").scoped("rx");
        let c = probe.counter("cells");
        c.add(3);
        probe.counter("cells").incr(); // same underlying cell
        assert_eq!(c.get(), 4);
        assert_eq!(reg.snapshot().counter("board.rx.cells"), 4);
        assert_eq!(reg.snapshot().counter("board.rx.missing"), 0);
    }

    #[test]
    fn detached_probes_do_not_collide() {
        let a = Probe::detached();
        let b = Probe::detached();
        a.counter("x").add(5);
        assert_eq!(b.counter("x").get(), 0);
    }

    #[test]
    fn snapshot_ordering_is_deterministic() {
        let reg = Registry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.counter("m.mid").add(3);
        let snap = reg.snapshot();
        let keys: Vec<&str> = snap.counters.keys().map(|s| s.as_str()).collect();
        assert_eq!(keys, vec!["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn suffix_query_finds_per_node_counters() {
        let reg = Registry::new();
        reg.counter("node0.board.rx.cells").add(1);
        reg.counter("node1.board.rx.cells").add(2);
        reg.counter("node1.board.rx.cells_rejected").add(9);
        let snap = reg.snapshot();
        let total: u64 = snap.counters_with_suffix("cells").map(|(_, v)| v).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn gauge_snapshot_reads_last_value() {
        let reg = Registry::new();
        let g = reg.gauge("q.depth");
        g.set(3.0);
        g.set(7.5);
        assert_eq!(reg.snapshot().gauge("q.depth"), 7.5);
        assert_eq!(reg.snapshot().gauge("q.missing"), 0.0);
    }

    #[test]
    fn observe_percentiles_estimate_from_buckets() {
        let mut h = Histogram::default();
        for i in 1..=100u64 {
            h.observe(SimDuration::from_us(i));
        }
        let s = h.summary();
        assert_eq!(s.samples, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        // Estimates never undershoot the nearest-rank sample, overshoot
        // it by at most one sub-bucket (1/32), and stay inside [min, max].
        let within =
            |v: f64, exact: f64| v >= exact && v <= (exact * (1.0 + 1.0 / 32.0)).min(100.0);
        assert!(within(s.p50, 50.0), "p50 {}", s.p50);
        assert!(within(s.p95, 95.0), "p95 {}", s.p95);
        assert!(within(s.p99, 99.0), "p99 {}", s.p99);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_of_constant_distribution_are_exact() {
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.observe(SimDuration::from_ns(42_123));
        }
        let s = h.summary();
        assert_eq!(s.p50, 42.123);
        assert_eq!(s.p95, 42.123);
        assert_eq!(s.p99, 42.123);
    }

    #[test]
    fn histogram_edge_cases() {
        let empty = Histogram::default().summary();
        assert_eq!(
            (empty.samples, empty.mean, empty.min, empty.max, empty.p99),
            (0, 0.0, 0.0, 0.0, 0.0)
        );
        // Zero, the smallest and the largest representable durations.
        let mut h = Histogram::default();
        for ps in [0, 1, u64::MAX] {
            h.observe(SimDuration::from_ps(ps));
        }
        assert_eq!(h.percentile_us(0.0), 0.0);
        assert_eq!(h.percentile_us(0.5), SimDuration::from_ps(1).as_us_f64());
        assert_eq!(
            h.percentile_us(1.0),
            SimDuration::from_ps(u64::MAX).as_us_f64()
        );
        // Bucket edges tile the picosecond axis with no gap or overlap.
        for idx in 1..bucket_of(u64::MAX) {
            assert_eq!(bucket_of(bucket_upper(idx - 1) + 1), idx);
            assert_eq!(bucket_of(bucket_upper(idx)), idx);
        }
        assert_eq!(bucket_upper(bucket_of(u64::MAX)), u64::MAX);
    }

    /// Log-uniform samples from 1 ps to 10 s.
    fn seeded_samples(seed: u64, n: usize) -> Vec<SimDuration> {
        let mut rng = crate::SimRng::new(seed);
        let span = (1e13f64).ln();
        (0..n)
            .map(|_| {
                SimDuration::from_ps((rng.gen_f64() * span).exp() as u64)
                    .max(SimDuration::from_ps(1))
            })
            .collect()
    }

    fn nearest_rank(sorted: &[SimDuration], p: f64) -> SimDuration {
        let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    fn histogram_of(samples: &[SimDuration]) -> Histogram {
        let mut h = Histogram::default();
        for &d in samples {
            h.observe(d);
        }
        h
    }

    #[test]
    fn seeded_percentiles_are_within_one_sub_bucket() {
        for seed in 0..16 {
            let mut samples = seeded_samples(seed, 1000);
            let h = histogram_of(&samples);
            samples.sort();
            let (min, max) = (samples[0].as_us_f64(), samples[999].as_us_f64());
            for p in [0.50, 0.95, 0.99] {
                let exact = nearest_rank(&samples, p).as_us_f64();
                let got = h.percentile_us(p);
                assert!(
                    got >= exact && got <= exact * (1.0 + 1.0 / 32.0),
                    "seed {seed} p{p}: {got} vs exact {exact}"
                );
                assert!(got >= min && got <= max, "seed {seed} p{p}: {got}");
            }
        }
    }

    #[test]
    fn ten_percent_shift_moves_every_percentile_past_the_gate() {
        // A 5 % regression gate must see a 10 % slowdown wherever the
        // percentile happens to sit inside its bucket. √2 buckets hide
        // most such shifts; 1/32 buckets bound the estimate's error to
        // 3.1 %, so the reported ratio stays above 1.1 / (1 + 1/32).
        for seed in 0..16 {
            let samples = seeded_samples(seed, 1000);
            let shifted: Vec<SimDuration> = samples
                .iter()
                .map(|d| SimDuration::from_ps(d.as_ps() * 11 / 10))
                .collect();
            let (a, b) = (histogram_of(&samples), histogram_of(&shifted));
            for p in [0.50, 0.95, 0.99] {
                let ratio = b.percentile_us(p) / a.percentile_us(p);
                assert!(ratio > 1.05, "seed {seed} p{p}: moved only {ratio}");
            }
        }
    }

    #[test]
    fn snapshot_to_json_round_trips() {
        let reg = Registry::new();
        reg.counter("a.b").add(42);
        reg.gauge("g").set(1.5);
        let text = reg.snapshot().to_json().render_pretty();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("counters").unwrap().get("a.b").unwrap().as_u64(),
            Some(42)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("g").unwrap().as_f64(),
            Some(1.5)
        );
        assert!(matches!(&doc, Json::Obj(e) if e.len() == 2), "{text}");
    }

    #[test]
    fn timeline_records_spans_and_exports_chrome_json() {
        let tl = Timeline::new(16);
        tl.set_enabled(true);
        let (cpu, intr) = (tl.intern("host0.cpu"), tl.intern("intr"));
        tl.span_sym(cpu, intr, SimTime::from_us(10), SimTime::from_us(85));
        let (rx, cell) = (tl.intern("board0.rx"), tl.intern("cell"));
        tl.instant_sym(rx, cell, SimTime::from_us(12));
        let doc = tl.to_chrome_json();
        let evs = doc.get("traceEvents").unwrap().items();
        // 2 events + 2 thread_name metadata records.
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(evs[0].get("dur").unwrap().as_f64(), Some(75.0));
        assert_eq!(evs[1].get("ph").unwrap().as_str(), Some("i"));
        // Round-trip through the parser.
        let text = doc.render_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn timeline_disabled_records_nothing() {
        let tl = Timeline::new(4);
        tl.instant_sym(tl.intern("t"), tl.intern("x"), SimTime::ZERO);
        assert_eq!(tl.events().len(), 0);
    }

    #[test]
    fn timeline_eviction_feeds_registry_counter() {
        let reg = Registry::new();
        let probe = reg.probe("sim");
        let tl = Timeline::with_probe(2, &probe);
        tl.set_enabled(true);
        for i in 0..5u64 {
            tl.instant_sym(
                tl.intern("t"),
                tl.intern(&format!("e{i}")),
                SimTime::from_us(i),
            );
        }
        assert_eq!(tl.events().len(), 2);
        assert_eq!(tl.dropped(), 3);
        assert_eq!(reg.snapshot().counter("sim.timeline.dropped"), 3);
    }

    #[test]
    fn timeline_clones_share_the_ring() {
        let tl = Timeline::new(8);
        tl.set_enabled(true);
        let clone = tl.clone();
        clone.instant_sym(tl.intern("t"), tl.intern("from-clone"), SimTime::ZERO);
        assert_eq!(tl.events().len(), 1);
        assert_eq!(tl.events()[0].name, "from-clone");
    }

    #[test]
    fn ctx_events_filter_and_export() {
        let tl = Timeline::new(16);
        tl.set_enabled(true);
        let a = TraceCtx { host: 0, pdu: 1 };
        let b = TraceCtx { host: 0, pdu: 2 };
        tl.span_ctx(
            "n0.proto",
            "proto.tx",
            a,
            SimTime::ZERO,
            SimTime::from_us(5),
        );
        tl.span_ctx(
            "n0.proto",
            "proto.tx",
            b,
            SimTime::from_us(5),
            SimTime::from_us(9),
        );
        tl.instant_sym(tl.intern("n0.app"), tl.intern("send"), SimTime::ZERO); // no ctx
        assert_eq!(tl.events_for(a).len(), 1);
        assert_eq!(tl.ctxs(), vec![a, b]);
        let doc = tl.to_chrome_json();
        let evs = doc.get("traceEvents").unwrap().items();
        assert_eq!(
            evs[0].get("args").unwrap().get("ctx").unwrap().as_str(),
            Some("h0:p1")
        );
    }

    /// A hand-built span set exercising nesting, gaps, and the sum
    /// invariant:
    ///
    /// ```text
    /// 0        10        20        30        40        50
    /// [ proto.tx ][ fw.tx               ]          [ drain ]
    ///               [dma.tx]    (gap → intr.wait span at 40)
    ///                              [intr.wait        ]
    /// ```
    #[test]
    fn critical_path_attributes_every_picosecond() {
        let tl = Timeline::new(64);
        tl.set_enabled(true);
        let ctx = TraceCtx { host: 0, pdu: 7 };
        let us = SimTime::from_us;
        tl.span_ctx("n0.proto", "proto.tx", ctx, us(0), us(10));
        tl.span_ctx("n0.board.tx", "fw.tx", ctx, us(10), us(30));
        tl.span_ctx("n0.board.tx.dma", "dma.tx", ctx, us(14), us(20));
        tl.span_ctx("n1.host", "intr.wait", ctx, us(30), us(45));
        tl.span_ctx("n1.host", "drain", ctx, us(45), us(50));
        let p = CriticalPath::analyze(&tl, ctx).expect("spans exist");
        assert_eq!(p.total(), SimDuration::from_us(50));
        assert_eq!(p.stage_sum(), p.total());
        // proto.tx 10 + drain 5 = 15 protocol CPU.
        assert_eq!(p.stage(Stage::ProtocolCpu), SimDuration::from_us(15));
        // dma.tx wins its 6 us inside fw.tx; fw keeps the rest (14 us).
        assert_eq!(p.stage(Stage::DmaTransfer), SimDuration::from_us(6));
        assert_eq!(p.stage(Stage::AdaptorFw), SimDuration::from_us(14));
        assert_eq!(p.stage(Stage::InterruptDelay), SimDuration::from_us(15));
        let tree = p.render_tree();
        // dma.tx is nested one level deeper than fw.tx.
        let fw_line = tree.lines().find(|l| l.contains("fw.tx")).unwrap();
        let dma_line = tree.lines().find(|l| l.contains("dma.tx")).unwrap();
        let indent = |l: &str| l.chars().take_while(|c| *c == ' ').count();
        assert!(indent(dma_line) > indent(fw_line), "{tree}");
        let table = p.render_stage_table();
        assert!(table.contains("exact"), "{table}");
    }

    #[test]
    fn critical_path_gap_goes_to_next_span() {
        let tl = Timeline::new(16);
        tl.set_enabled(true);
        let ctx = TraceCtx { host: 1, pdu: 3 };
        let us = SimTime::from_us;
        tl.span_ctx("a", "proto.tx", ctx, us(0), us(10));
        // 10..25 uncovered, then a DMA span: the gap is DMA wait.
        tl.span_ctx("b", "dma.rx", ctx, us(25), us(30));
        let p = CriticalPath::analyze(&tl, ctx).unwrap();
        assert_eq!(p.stage(Stage::ProtocolCpu), SimDuration::from_us(10));
        assert_eq!(p.stage(Stage::DmaTransfer), SimDuration::from_us(20));
        assert_eq!(p.stage_sum(), p.total());
    }

    #[test]
    fn stage_percentiles_summarise_paths() {
        let tl = Timeline::new(64);
        tl.set_enabled(true);
        let us = SimTime::from_us;
        for i in 0..4u32 {
            let ctx = TraceCtx { host: 0, pdu: i };
            let base = SimTime::from_us(100 * i as u64);
            tl.span_ctx("p", "proto.tx", ctx, base, base + SimDuration::from_us(10));
            tl.span_ctx(
                "d",
                "dma.tx",
                ctx,
                base + SimDuration::from_us(10),
                base + SimDuration::from_us(10 + 2 * (i as u64 + 1)),
            );
        }
        let _ = us; // keep the helper idiom consistent with other tests
        let paths = CriticalPath::analyze_all(&tl);
        assert_eq!(paths.len(), 4);
        let rows = CriticalPath::stage_percentiles(&paths);
        let (_, proto) = rows.iter().find(|(s, _)| *s == Stage::ProtocolCpu).unwrap();
        assert_eq!(proto.samples, 4);
        assert_eq!(proto.min, 10.0);
        let (_, dma) = rows.iter().find(|(s, _)| *s == Stage::DmaTransfer).unwrap();
        assert_eq!(dma.min, 2.0);
        assert_eq!(dma.max, 8.0);
        let e2e = CriticalPath::e2e_summary(&paths);
        assert_eq!(e2e.samples, 4);
        assert_eq!(e2e.max, 18.0);
    }
}
