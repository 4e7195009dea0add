//! Turns the child reports of one workload into named metrics and
//! correctness findings.

use std::sync::OnceLock;

use osiris::sim::Json;

use crate::calibrate::REFERENCE_NS;
use crate::child::{EVENT_KINDS, STAGES};
use crate::stats::{supported, Summary};
use crate::workload::Workload;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json` and the result files.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// The direction spelled `name`, if any.
    pub fn parse(name: &str) -> Option<Better> {
        match name {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// Table 1's round trip for 1-byte UDP/IP messages on a DS5000/200 pair.
const PAPER_RTT_US: f64 = 598.0;

/// Which report a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What a user of the system sees; bounded in `BENCHMARK.json`.
    EndToEnd,
    /// One layer's share of the work or time.
    PerLayer,
    /// Printed beside the others but not bounded: the unscaled host
    /// times, the host's slowdown, and the ping-pong's round trips.
    Reference,
}

impl Kind {
    /// The section name in `BENCHMARK.json` and the result files.
    pub fn name(self) -> &'static str {
        match self {
            Kind::EndToEnd => "end_to_end",
            Kind::PerLayer => "per_layer",
            Kind::Reference => "reference",
        }
    }
}

/// The name, unit and direction of one metric.
#[derive(Debug)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Report section.
    pub kind: Kind,
}

/// Per-message registry counts: metric name and child count name.
const PER_MESSAGE: [(&str, &str); 10] = [
    ("sim.events_per_msg", "events"),
    ("atm.switch.overflow_per_msg", "switch_overflow"),
    ("atm.switch.ecn_marks_per_msg", "switch_ecn_marks"),
    ("board.rx.cells_per_msg", "rx_cells"),
    ("board.rx.reaped_per_msg", "reaped"),
    ("board.rx.no_buffer_drops_per_msg", "no_buffer_drops"),
    ("mem.bus.dma_words_per_msg", "dma_words"),
    ("mem.bus.cpu_words_per_msg", "cpu_words"),
    ("proto.retransmits_per_msg", "retransmits"),
    ("proto.block_acks_per_msg", "block_acks"),
];

/// Every metric this tool reports, in report order. `BENCHMARK.json`
/// lists the end-to-end and per-layer entries in the same order.
pub fn catalogue() -> &'static [Spec] {
    static CATALOGUE: OnceLock<Vec<Spec>> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        use Better::{Higher, Lower};
        let mut c: Vec<(Kind, String, &'static str, Better)> = [
            ("msgs_per_s", "msg/s", Higher),
            ("setup_s", "s", Lower),
            ("peak_rss_mb", "MB", Lower),
            ("goodput_mbps", "Mbps", Higher),
            ("delivered_ratio", "fraction", Higher),
        ]
        .into_iter()
        .map(|(n, u, b)| (Kind::EndToEnd, n.to_string(), u, b))
        .collect();
        let mut layer = |name: String, unit, better| c.push((Kind::PerLayer, name, unit, better));
        layer("sim.queue.pop_ns".into(), "ns", Lower);
        layer("sim.queue.pop_share".into(), "fraction", Lower);
        for k in EVENT_KINDS {
            layer(format!("core.handle.{k}.ns"), "ns", Lower);
            layer(format!("core.handle.{k}.share"), "fraction", Lower);
        }
        layer("trace.unattributed_share".into(), "fraction", Lower);
        layer("trace.overhead_pct".into(), "%", Lower);
        layer("sim.events_per_s".into(), "1/s", Higher);
        let counts = PER_MESSAGE.iter().map(|(n, _)| *n);
        for name in counts.chain([
            "proto.gave_up",
            "atm.slab.high_water",
            "host.interrupts_per_pdu",
        ]) {
            layer(name.into(), "count", Lower);
        }
        for (_, s) in STAGES {
            layer(format!("stage.{s}.mean_us"), "us", Lower);
        }
        layer("stage.e2e.p50_us".into(), "us", Lower);
        layer("stage.e2e.p99_us".into(), "us", Lower);
        for (name, unit, better) in [
            ("unscaled_msgs_per_s", "msg/s", Higher),
            ("unscaled_setup_s", "s", Lower),
            ("host_slowdown", "x", Lower),
            ("rtt_p50_us", "us", Lower),
            ("rtt_p9999_us", "us", Lower),
            ("rtt_mean_us", "us", Lower),
            ("paper_err_pct", "%", Lower),
        ] {
            c.push((Kind::Reference, name.into(), unit, better));
        }
        c.into_iter()
            .map(|(kind, name, unit, better)| Spec {
                name,
                unit,
                better,
                kind,
            })
            .collect()
    })
}

/// One named metric with its raw values.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, unit, direction and section.
    pub spec: &'static Spec,
    /// One value per run (a single value for traced, anatomy and
    /// deterministic metrics).
    pub values: Vec<f64>,
    /// Samples behind the reported value: runs, or the events, round
    /// trips or PDUs a single-run value was computed over.
    pub samples: usize,
}

impl Metric {
    fn new(name: &str, values: Vec<f64>) -> Metric {
        let spec = catalogue()
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        Metric {
            spec,
            samples: values.len(),
            values,
        }
    }

    fn over(mut self, samples: usize) -> Metric {
        self.samples = samples;
        self
    }

    /// Median and quartiles of the values.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.values)
    }
}

/// The child reports of one workload.
#[derive(Debug)]
pub struct Runs {
    /// The workload.
    pub workload: Workload,
    /// Messages per source in the measured runs.
    pub length: u64,
    /// One report per untraced repetition.
    pub reps: Vec<Json>,
    /// The traced run, when one was made.
    pub traced: Option<Json>,
    /// The anatomy run, when one was made.
    pub anatomy: Option<Json>,
}

/// Everything the benchmark concludes about one workload.
#[derive(Debug)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Every metric measured: the end-to-end ones always, the per-layer
    /// and reference ones only with a traced run.
    pub metrics: Vec<Metric>,
    /// Correctness violations; any makes the benchmark fail.
    pub violations: Vec<String>,
    /// Datagrams asked for over all untraced repetitions.
    pub attempted: u64,
    /// Of those, datagrams not delivered intact.
    pub failed: u64,
}

fn get<'a>(j: &'a Json, key: &str) -> &'a Json {
    j.get(key)
        .unwrap_or_else(|| panic!("child report lacks `{key}`"))
}

fn num(j: &Json, key: &str) -> f64 {
    get(j, key)
        .as_f64()
        .unwrap_or_else(|| panic!("child report field `{key}` is not a number"))
}

fn count(j: &Json, key: &str) -> u64 {
    num(j, key) as u64
}

/// How much slower than the quiet reference host the host ran during
/// one repetition: the median probe slice against the reference slice.
fn slowdown(rep: &Json) -> f64 {
    let slices: Vec<f64> = get(rep, "probe_ns")
        .items()
        .iter()
        .map(|v| v.as_f64().expect("probe slices are numbers"))
        .collect();
    Summary::of(&slices).median / REFERENCE_NS
}

/// The factor a repetition's host times are scaled by: its slowdown
/// when the host ran slower than the reference, else 1.
fn contention(rep: &Json) -> f64 {
    slowdown(rep).max(1.0)
}

/// Derives every metric of one workload and checks its outputs.
pub fn summarise(runs: &Runs) -> WorkloadResult {
    let w = runs.workload;
    let messages = w.messages(runs.length) as f64;
    let datagrams = w.datagrams(runs.length);
    let mut violations = Vec::new();

    let first = runs.reps.first().expect("at least one repetition");
    let reference = get(first, "virtual").render_compact();
    let mut attempted = 0;
    let mut failed = 0;
    for (i, rep) in runs.reps.iter().enumerate() {
        let v = get(rep, "virtual");
        let (delivered, bad) = (count(v, "delivered"), count(v, "verify_failures"));
        if bad > 0 {
            violations.push(format!("rep {i}: {bad} payload verify failures"));
        }
        if delivered > datagrams {
            violations.push(format!(
                "rep {i}: {delivered} datagrams delivered, only {datagrams} sent"
            ));
        }
        if v.render_compact() != reference {
            violations.push(format!("rep {i}: virtual outputs differ from rep 0"));
        }
        attempted += datagrams;
        failed += (datagrams + bad).saturating_sub(delivered);
    }

    let per_rep = |f: &dyn Fn(&Json) -> f64| runs.reps.iter().map(f).collect::<Vec<f64>>();
    let unscaled_msgs_per_s = |r: &Json| messages / num(r, "wall_s");
    let mut metrics = vec![
        Metric::new(
            "msgs_per_s",
            per_rep(&|r| unscaled_msgs_per_s(r) * contention(r)),
        ),
        Metric::new("setup_s", per_rep(&|r| num(r, "setup_s") / contention(r))),
        Metric::new("peak_rss_mb", per_rep(&|r| num(r, "rss_mb"))),
        Metric::new(
            "goodput_mbps",
            per_rep(&|r| num(get(r, "virtual"), "goodput_mbps")),
        ),
        Metric::new(
            "delivered_ratio",
            per_rep(&|r| {
                let v = get(r, "virtual");
                (num(v, "delivered") - num(v, "verify_failures")) / datagrams as f64
            }),
        ),
        Metric::new("unscaled_msgs_per_s", per_rep(&unscaled_msgs_per_s)),
        Metric::new("unscaled_setup_s", per_rep(&|r| num(r, "setup_s"))),
        Metric::new("host_slowdown", per_rep(&slowdown)),
    ];

    if let (Some(traced), Some(anatomy)) = (&runs.traced, &runs.anatomy) {
        if get(traced, "virtual").render_compact() != reference {
            violations.push("traced run: virtual outputs differ from the untraced runs".into());
        }
        let untraced_wall = Summary::of(&per_rep(&|r| num(r, "wall_s"))).median;
        metrics.extend(traced_metrics(traced, untraced_wall, &mut violations));
        metrics.push(Metric::new(
            "sim.events_per_s",
            per_rep(&|r| num(get(r, "virtual"), "dispatched") / num(r, "wall_s")),
        ));
        metrics.extend(count_metrics(get(first, "counts"), messages));
        metrics.extend(anatomy_metrics(anatomy, &mut violations));
        if w == Workload::PingPong {
            metrics.extend(rtt_metrics(get(traced, "rtt"), &mut violations));
        }
    }
    WorkloadResult {
        workload: w,
        metrics,
        violations,
        attempted,
        failed,
    }
}

/// Host time of the traced run, split between the queue and the
/// handlers by event variant; the remainder is loop and timer cost.
fn traced_metrics(t: &Json, untraced_wall: f64, violations: &mut Vec<String>) -> Vec<Metric> {
    let loop_ns = num(t, "loop_ns");
    let pops = count(t, "pops") as usize;
    let pop_ns = num(t, "pop_ns");
    let (handle_ns, handled) = (get(t, "handle_ns"), get(t, "handled"));
    let dispatch = get(get(t, "virtual"), "dispatch");
    let mut out = vec![
        Metric::new("sim.queue.pop_ns", vec![pop_ns / pops.max(1) as f64]).over(pops),
        Metric::new("sim.queue.pop_share", vec![pop_ns / loop_ns]),
    ];
    let mut attributed = pop_ns;
    for k in EVENT_KINDS {
        let (ns, n) = (num(handle_ns, k), count(handled, k));
        if n != count(dispatch, k) {
            violations.push(format!(
                "traced run: {n} `{k}` events handled, engine.dispatch.{k} says {}",
                count(dispatch, k)
            ));
        }
        attributed += ns;
        let mean = if n == 0 { 0.0 } else { ns / n as f64 };
        out.push(Metric::new(&format!("core.handle.{k}.ns"), vec![mean]).over(n as usize));
        out.push(Metric::new(
            &format!("core.handle.{k}.share"),
            vec![ns / loop_ns],
        ));
    }
    let unattributed = (loop_ns - attributed) / loop_ns;
    if unattributed >= 0.10 {
        eprintln!(
            "warning: {:.1} % of the traced loop is unattributed (loop and timer cost)",
            unattributed * 100.0
        );
    }
    out.push(Metric::new("trace.unattributed_share", vec![unattributed]));
    out.push(Metric::new(
        "trace.overhead_pct",
        vec![(num(t, "wall_s") / untraced_wall - 1.0) * 100.0],
    ));
    out
}

/// Deterministic registry counts of the first repetition, per message.
fn count_metrics(c: &Json, messages: f64) -> Vec<Metric> {
    let mut out: Vec<Metric> = PER_MESSAGE
        .iter()
        .map(|&(name, key)| Metric::new(name, vec![num(c, key) / messages]))
        .collect();
    out.push(Metric::new("proto.gave_up", vec![num(c, "gave_up")]));
    out.push(Metric::new(
        "atm.slab.high_water",
        vec![num(c, "slab_high_water")],
    ));
    out.push(Metric::new(
        "host.interrupts_per_pdu",
        vec![num(c, "interrupts") / num(c, "rx_pdus").max(1.0)],
    ));
    out
}

/// Exact virtual-time stage means and end-to-end percentiles of the
/// anatomy run's PDUs.
fn anatomy_metrics(a: &Json, violations: &mut Vec<String>) -> Vec<Metric> {
    let pdus = count(a, "pdus") as usize;
    if pdus == 0 {
        violations.push("anatomy run: no PDU was traced".into());
        return Vec::new();
    }
    let dropped = count(a, "dropped");
    if dropped > 0 {
        violations.push(format!("anatomy run: the timeline dropped {dropped} spans"));
    }
    let bad = count(a, "verify_failures");
    if bad > 0 {
        violations.push(format!("anatomy run: {bad} payload verify failures"));
    }
    if !supported(pdus, 9900) {
        eprintln!("note: {pdus} traced PDUs leave fewer than 10 beyond stage.e2e.p99_us");
    }
    let means = get(a, "stage_mean_us");
    let mut out = Vec::new();
    let mut sum = 0.0;
    for (_, s) in STAGES {
        let v = num(means, s);
        sum += v;
        out.push(Metric::new(&format!("stage.{s}.mean_us"), vec![v]).over(pdus));
    }
    let e2e = num(a, "e2e_mean_us");
    if (sum - e2e).abs() > 1e-6 * e2e {
        violations.push(format!(
            "anatomy run: stage means sum to {sum} us, end-to-end mean is {e2e} us"
        ));
    }
    for (name, key) in [
        ("stage.e2e.p50_us", "e2e_p50_us"),
        ("stage.e2e.p99_us", "e2e_p99_us"),
    ] {
        out.push(Metric::new(name, vec![num(a, key)]).over(pdus));
    }
    out
}

/// The ping-pong's round trips, taken exactly from outside the model
/// (successive client sends), checked against the model's own mean.
fn rtt_metrics(r: &Json, violations: &mut Vec<String>) -> Vec<Metric> {
    let n = count(r, "samples") as usize;
    let model_n = count(r, "model_count") as usize;
    if n == 0 || n + 1 != model_n {
        violations.push(format!(
            "pingpong: {n} round trips seen from outside, the model recorded {model_n}"
        ));
        return Vec::new();
    }
    // The outside samples miss only the final round trip, which shifts
    // the mean by at most one sample's range over the count.
    let (mean, model_mean) = (num(r, "mean_us"), num(r, "model_mean_us"));
    let slack = (num(r, "model_max_us") - num(r, "model_min_us")) / n as f64 + 1e-9 * model_mean;
    if (mean - model_mean).abs() > slack {
        violations.push(format!(
            "pingpong: outside mean round trip {mean} us, model mean {model_mean} us"
        ));
    }
    if !supported(n, 9999) {
        eprintln!("note: {n} round trips leave fewer than 10 beyond rtt_p9999_us");
    }
    vec![
        Metric::new("rtt_p50_us", vec![num(r, "p50_us")]).over(n),
        Metric::new("rtt_p9999_us", vec![num(r, "p9999_us")]).over(n),
        Metric::new("rtt_mean_us", vec![mean]).over(n),
        Metric::new(
            "paper_err_pct",
            vec![(model_mean - PAPER_RTT_US).abs() / PAPER_RTT_US * 100.0],
        )
        .over(model_n),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_limits() {
        let mut names: Vec<&str> = catalogue().iter().map(|s| s.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(names.iter().all(|n| n.len() <= 64));
        let layers = catalogue().iter().filter(|s| s.kind == Kind::PerLayer);
        assert!(layers.count() <= 128);
    }

    #[test]
    fn only_a_slow_host_scales_host_times() {
        let rep = |slices: &[f64]| {
            Json::obj().with(
                "probe_ns",
                Json::Arr(slices.iter().map(|&v| Json::Num(v)).collect()),
            )
        };
        let slow = rep(&[1.5 * REFERENCE_NS, 99.0, 1.5 * REFERENCE_NS]);
        assert_eq!(slowdown(&slow), 1.5);
        assert_eq!(contention(&slow), 1.5);
        let quiet = rep(&[0.5 * REFERENCE_NS]);
        assert_eq!(slowdown(&quiet), 0.5);
        assert_eq!(contention(&quiet), 1.0);
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for kind in [Kind::EndToEnd, Kind::PerLayer] {
            let listed: Vec<(String, String, String)> = doc
                .get(kind.name())
                .expect("section")
                .items()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = catalogue()
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| (s.name.clone(), s.unit.into(), s.better.name().into()))
                .collect();
            assert_eq!(listed, ours, "{} differs", kind.name());
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
