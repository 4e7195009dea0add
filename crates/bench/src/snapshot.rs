//! `BENCH_*.json` performance snapshots and the regression comparator.
//!
//! Every regeneration binary accepts `--bench-out <path>`; it then
//! writes a [`BenchSnapshot`] — its named headline metrics, the full
//! series it printed, a registry counter read-out, and the critical-path
//! stage percentiles of a traced representative run — as one JSON
//! document. `osiris-bench regress <old.json> <new.json>` compares two
//! snapshots headline by headline and exits non-zero when any metric
//! moved the wrong way by more than the threshold; with `--exact` it
//! fails on any change to a headline, a series point or a stage row,
//! which is what CI runs against the committed baselines of the
//! deterministic (virtual-time) benches.

use osiris::experiments::StageAnatomy;
use osiris::sim::{Json, Snapshot};

use crate::results::ExperimentResult;

/// Which direction is good for a headline metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughput-like: a drop is a regression.
    Higher,
    /// Latency-like: a rise is a regression.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// One named headline metric — the numbers `regress` guards.
#[derive(Debug, Clone)]
pub struct Headline {
    /// Stable metric name (e.g. `peak_double_cell_mbps`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit ("Mbps", "us").
    pub unit: String,
    /// Which direction is good.
    pub better: Better,
}

/// One stage row of the critical-path percentiles (µs).
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage label (`protocol CPU`, `DMA transfer`, …) or `end-to-end`.
    pub stage: String,
    /// Mean over the traced PDUs.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
}

/// The machine a snapshot was measured on. Wall-clock headlines are only
/// comparable between snapshots of the same host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostRecord {
    /// `std::thread::available_parallelism()` (0 if unknown).
    pub available_parallelism: usize,
    /// The first `model name` line of `/proc/cpuinfo` ("unknown" if none).
    pub cpu_model: String,
}

impl HostRecord {
    /// The host this process runs on.
    pub fn current() -> HostRecord {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostRecord {
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
        }
    }
}

/// The snapshot document a bench binary emits for `--bench-out`.
#[derive(Debug, Clone)]
pub struct BenchSnapshot {
    /// Which bench produced it ("fig2", "table1", …).
    pub name: String,
    /// The guarded metrics.
    pub headlines: Vec<Headline>,
    /// The full series the bench printed, one document per table.
    pub results: Vec<ExperimentResult>,
    /// Critical-path stage percentiles from a traced representative run
    /// (ends with the `end-to-end` row when present).
    pub stages: Vec<StageRow>,
    /// Registry counters of the traced run.
    pub counters: Vec<(String, u64)>,
    /// Timeline evictions during the traced run (non-zero taints the
    /// stage rows).
    pub dropped_spans: u64,
    /// The measuring host; `None` for snapshots written before hosts were
    /// recorded.
    pub host: Option<HostRecord>,
}

impl BenchSnapshot {
    /// An empty snapshot for bench `name`, measured on this host.
    pub fn new(name: &str) -> BenchSnapshot {
        BenchSnapshot {
            name: name.to_string(),
            headlines: Vec::new(),
            results: Vec::new(),
            stages: Vec::new(),
            counters: Vec::new(),
            dropped_spans: 0,
            host: Some(HostRecord::current()),
        }
    }

    /// Adds one guarded headline metric.
    pub fn headline(&mut self, name: &str, value: f64, unit: &str, better: Better) {
        self.headlines.push(Headline {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            better,
        });
    }

    /// Archives a full series document next to the headlines.
    pub fn push_result(&mut self, r: &ExperimentResult) {
        self.results.push(r.clone());
    }

    /// Fills the stage-percentile rows, counters, and the drop count
    /// from a traced run's anatomy.
    pub fn set_anatomy(&mut self, a: &StageAnatomy) {
        self.stages = a
            .stages
            .iter()
            .map(|(s, h)| StageRow {
                stage: s.label().to_string(),
                mean_us: h.mean,
                p50_us: h.p50,
                p95_us: h.p95,
                p99_us: h.p99,
            })
            .collect();
        self.stages.push(StageRow {
            stage: "end-to-end".to_string(),
            mean_us: a.e2e.mean,
            p50_us: a.e2e.p50,
            p95_us: a.e2e.p95,
            p99_us: a.e2e.p99,
        });
        self.dropped_spans = a.dropped_spans;
        self.set_counters(&a.snapshot);
    }

    /// Archives every non-zero counter of a registry read-out.
    pub fn set_counters(&mut self, snap: &Snapshot) {
        self.counters = snap
            .counters
            .iter()
            .filter(|(_, &v)| v != 0)
            .map(|(k, &v)| (k.clone(), v))
            .collect();
    }

    /// Serialises to pretty JSON (the `BENCH_<name>.json` file body).
    pub fn to_json(&self) -> String {
        let headlines = self
            .headlines
            .iter()
            .map(|h| {
                Json::obj()
                    .with("name", h.name.as_str())
                    .with("value", h.value)
                    .with("unit", h.unit.as_str())
                    .with("better", h.better.as_str())
            })
            .collect();
        let stages = self
            .stages
            .iter()
            .map(|s| {
                Json::obj()
                    .with("stage", s.stage.as_str())
                    .with("mean_us", s.mean_us)
                    .with("p50_us", s.p50_us)
                    .with("p95_us", s.p95_us)
                    .with("p99_us", s.p99_us)
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| Json::obj().with("name", k.as_str()).with("value", *v))
            .collect();
        let results = self.results.iter().map(|r| r.to_json_value()).collect();
        let mut doc = Json::obj().with("name", self.name.as_str());
        if let Some(h) = &self.host {
            doc = doc.with(
                "host",
                Json::obj()
                    .with("available_parallelism", h.available_parallelism)
                    .with("cpu_model", h.cpu_model.as_str()),
            );
        }
        doc.with("headlines", Json::Arr(headlines))
            .with("stages", Json::Arr(stages))
            .with("dropped_spans", self.dropped_spans)
            .with("counters", Json::Arr(counters))
            .with("results", Json::Arr(results))
            .render_pretty()
    }

    /// Parses a snapshot document back. A document without a `host`
    /// record parses with `host: None`.
    pub fn parse(text: &str) -> Result<BenchSnapshot, String> {
        let v = Json::parse(text).map_err(|e| format!("bad snapshot JSON: {e:?}"))?;
        let name = v
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("snapshot has no name")?
            .to_string();
        let mut out = BenchSnapshot::new(&name);
        out.host = v.get("host").map(|h| HostRecord {
            available_parallelism: h
                .get("available_parallelism")
                .and_then(|x| x.as_u64())
                .unwrap_or(0) as usize,
            cpu_model: h
                .get("cpu_model")
                .and_then(|x| x.as_str())
                .unwrap_or("unknown")
                .to_string(),
        });
        for h in v.get("headlines").map(|h| h.items()).unwrap_or(&[]) {
            let get_str = |k: &str| h.get(k).and_then(|x| x.as_str());
            let headline = Headline {
                name: get_str("name").ok_or("headline without name")?.to_string(),
                value: h
                    .get("value")
                    .and_then(|x| x.as_f64())
                    .ok_or("headline without value")?,
                unit: get_str("unit").unwrap_or("").to_string(),
                better: Better::parse(get_str("better").unwrap_or("higher"))
                    .ok_or("bad better direction")?,
            };
            out.headlines.push(headline);
        }
        for s in v.get("stages").map(|s| s.items()).unwrap_or(&[]) {
            let num = |k: &str| s.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
            out.stages.push(StageRow {
                stage: s
                    .get("stage")
                    .and_then(|x| x.as_str())
                    .unwrap_or("")
                    .to_string(),
                mean_us: num("mean_us"),
                p50_us: num("p50_us"),
                p95_us: num("p95_us"),
                p99_us: num("p99_us"),
            });
        }
        for c in v.get("counters").map(|c| c.items()).unwrap_or(&[]) {
            if let (Some(k), Some(n)) = (
                c.get("name").and_then(|x| x.as_str()),
                c.get("value").and_then(|x| x.as_u64()),
            ) {
                out.counters.push((k.to_string(), n));
            }
        }
        for r in v.get("results").map(|r| r.items()).unwrap_or(&[]) {
            out.results.push(ExperimentResult::from_json_value(r)?);
        }
        out.dropped_spans = v.get("dropped_spans").and_then(|d| d.as_u64()).unwrap_or(0);
        Ok(out)
    }
}

/// One headline's old-vs-new comparison.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// Signed change in percent of the baseline; `None` from a zero
    /// baseline, where the change is reported absolute.
    pub delta_pct: Option<f64>,
    /// True when the metric moved the wrong way past the threshold.
    pub regressed: bool,
}

/// The comparator's verdict over two snapshots.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Per-headline rows, in baseline order.
    pub rows: Vec<CompareRow>,
    /// Baseline headlines the candidate no longer reports (each counts
    /// as a failure: a silently vanished metric must not pass CI).
    pub missing: Vec<String>,
    /// The regression threshold used, in percent.
    pub threshold_pct: f64,
}

impl CompareReport {
    /// Number of failed checks (regressed rows + missing metrics).
    pub fn failures(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count() + self.missing.len()
    }

    /// Human-readable verdict table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.rows {
            let verdict = if r.regressed { "REGRESSED" } else { "ok" };
            let change = match r.delta_pct {
                Some(pct) => format!("{pct:>+6.1}%"),
                None => format!("{:>+6.1} abs", r.new - r.old),
            };
            let _ = writeln!(
                out,
                "  {:<32} {:>10.1} -> {:>10.1}  ({change})  {verdict}",
                r.name, r.old, r.new
            );
        }
        for m in &self.missing {
            let _ = writeln!(out, "  {m:<32} MISSING from the new snapshot");
        }
        let _ = writeln!(
            out,
            "  {} headline metric(s), threshold {}%, {} failure(s)",
            self.rows.len() + self.missing.len(),
            self.threshold_pct,
            self.failures()
        );
        out
    }
}

/// Compares every baseline headline against the candidate. A metric
/// regresses when it moves in its bad direction by more than
/// `threshold_pct` percent of the baseline value; from a zero baseline,
/// where no percentage exists, any move in the bad direction regresses.
pub fn compare(old: &BenchSnapshot, new: &BenchSnapshot, threshold_pct: f64) -> CompareReport {
    let mut report = CompareReport {
        rows: Vec::new(),
        missing: Vec::new(),
        threshold_pct,
    };
    for h in &old.headlines {
        let Some(n) = new.headlines.iter().find(|n| n.name == h.name) else {
            report.missing.push(h.name.clone());
            continue;
        };
        let delta_pct = (h.value != 0.0).then(|| (n.value - h.value) / h.value * 100.0);
        let worse = match h.better {
            Better::Higher => n.value < h.value,
            Better::Lower => n.value > h.value,
        };
        let regressed = worse
            && match delta_pct {
                Some(pct) => pct.abs() > threshold_pct,
                // No percentage of a zero baseline exists: any move counts.
                None => true,
            };
        report.rows.push(CompareRow {
            name: h.name.clone(),
            old: h.value,
            new: n.value,
            delta_pct,
            regressed,
        });
    }
    report
}

/// The `--exact` verdict over two snapshots of a deterministic bench.
#[derive(Debug, Clone)]
pub struct ExactReport {
    /// Every changed, vanished or added headline, series point and stage
    /// row (`what: old -> new`). Each one fails the gate.
    pub diffs: Vec<String>,
    /// Changed counters, in the same form: listed for diagnosis, not
    /// gated.
    pub counters: Vec<String>,
}

impl ExactReport {
    /// Number of failed checks.
    pub fn failures(&self) -> usize {
        self.diffs.len()
    }

    /// Human-readable diff.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diffs {
            let _ = writeln!(out, "  CHANGED {d}");
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  counters (diagnostic, not gated):");
            for c in &self.counters {
                let _ = writeln!(out, "    {c}");
            }
        }
        let _ = writeln!(
            out,
            "  exact: {} change(s) in headlines, series and stages",
            self.failures()
        );
        out
    }
}

/// A snapshot's gated values under `--exact`, each under a name that
/// says where it sits, rendered exactly (`{:?}` of an `f64` round-trips).
fn exact_values(s: &BenchSnapshot) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for h in &s.headlines {
        out.push((format!("headline {}", h.name), format!("{:?}", h.value)));
    }
    for r in &s.results {
        for series in &r.series {
            for p in &series.points {
                let at = format!("{} / {} @ x={}", r.id, series.name, p.x);
                out.push((format!("{at} measured"), format!("{:?}", p.measured)));
                if let Some(paper) = p.paper {
                    out.push((format!("{at} paper"), format!("{paper:?}")));
                }
            }
        }
    }
    for st in &s.stages {
        for (col, v) in [
            ("mean_us", st.mean_us),
            ("p50_us", st.p50_us),
            ("p95_us", st.p95_us),
            ("p99_us", st.p99_us),
        ] {
            out.push((format!("stage {} {col}", st.stage), format!("{v:?}")));
        }
    }
    out
}

/// `what: old -> new` for every key whose value differs, vanished or
/// appeared between `old` and `new`.
fn keyed_diff(old: &[(String, String)], new: &[(String, String)]) -> Vec<String> {
    fn find<'a>(list: &'a [(String, String)], k: &str) -> Option<&'a String> {
        list.iter().find(|(key, _)| key == k).map(|(_, v)| v)
    }
    let mut out = Vec::new();
    for (k, v) in old {
        match find(new, k) {
            Some(n) if n == v => {}
            Some(n) => out.push(format!("{k}: {v} -> {n}")),
            None => out.push(format!("{k}: {v} -> missing")),
        }
    }
    for (k, v) in new {
        if find(old, k).is_none() {
            out.push(format!("{k}: absent -> {v}"));
        }
    }
    out
}

/// Compares two snapshots of a deterministic bench value for value: any
/// change to a headline, a series point or a stage row is a failure.
/// Counters are compared too but only listed — they carry diagnostic
/// detail that older baselines may lack or hold in excess.
pub fn compare_exact(old: &BenchSnapshot, new: &BenchSnapshot) -> ExactReport {
    let counters = |s: &BenchSnapshot| -> Vec<(String, String)> {
        s.counters
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect()
    };
    ExactReport {
        diffs: keyed_diff(&exact_values(old), &exact_values(new)),
        counters: keyed_diff(&counters(old), &counters(new)),
    }
}

/// The path given with `--bench-out <path>`, when the process arguments
/// request a snapshot.
pub fn bench_out_path() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--bench-out" {
            return Some(args.next().expect("--bench-out needs a path"));
        }
    }
    None
}

/// True if the process arguments request the reduced `--quick` sweep
/// (CI smoke: a subset of sizes with fewer messages each).
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchSnapshot {
        let mut s = BenchSnapshot::new("fig2");
        s.headline("peak_double_cell_mbps", 380.0, "Mbps", Better::Higher);
        s.headline("rtt_us", 600.0, "us", Better::Lower);
        s.stages.push(StageRow {
            stage: "DMA transfer".into(),
            mean_us: 40.0,
            p50_us: 39.0,
            p95_us: 44.0,
            p99_us: 45.0,
        });
        s.counters.push(("node0.board.rx.cells".into(), 1234));
        s
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let s = sample();
        let parsed = BenchSnapshot::parse(&s.to_json()).unwrap();
        assert_eq!(parsed.name, "fig2");
        assert_eq!(parsed.headlines.len(), 2);
        assert_eq!(parsed.headlines[0].name, "peak_double_cell_mbps");
        assert_eq!(parsed.headlines[0].value, 380.0);
        assert_eq!(parsed.headlines[1].better, Better::Lower);
        assert_eq!(parsed.stages.len(), 1);
        assert_eq!(parsed.stages[0].p95_us, 44.0);
        assert_eq!(parsed.counters, vec![("node0.board.rx.cells".into(), 1234)]);
    }

    #[test]
    fn host_record_round_trips_and_old_baselines_still_parse() {
        let mut s = sample();
        s.host = Some(HostRecord {
            available_parallelism: 2,
            cpu_model: "Test CPU @ 2.0GHz".into(),
        });
        let parsed = BenchSnapshot::parse(&s.to_json()).unwrap();
        assert_eq!(parsed.host, s.host);
        // A snapshot from before host records: no `host` key at all.
        s.host = None;
        let json = s.to_json();
        assert!(!json.contains("\"host\""));
        let parsed = BenchSnapshot::parse(&json).unwrap();
        assert_eq!(parsed.host, None);
        assert_eq!(parsed.headlines.len(), 2);
    }

    #[test]
    fn identical_snapshots_pass() {
        let s = sample();
        let r = compare(&s, &s, 5.0);
        assert_eq!(r.failures(), 0);
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn injected_ten_percent_slowdown_is_caught() {
        let old = sample();
        let mut new = sample();
        // Throughput down 10%, latency up 10%: both must trip a 5% gate.
        new.headlines[0].value = 380.0 * 0.9;
        new.headlines[1].value = 600.0 * 1.1;
        let r = compare(&old, &new, 5.0);
        assert_eq!(r.failures(), 2, "{}", r.render());
        assert!(r.rows.iter().all(|row| row.regressed));
        // The same movement is fine under a sloppier 15% gate.
        assert_eq!(compare(&old, &new, 15.0).failures(), 0);
    }

    #[test]
    fn improvements_never_fail() {
        let old = sample();
        let mut new = sample();
        new.headlines[0].value = 380.0 * 1.2; // faster
        new.headlines[1].value = 600.0 * 0.8; // lower latency
        assert_eq!(compare(&old, &new, 5.0).failures(), 0);
    }

    #[test]
    fn any_rise_from_a_zero_baseline_regresses() {
        let mut old = sample();
        old.headline("gave_up_total", 0.0, "count", Better::Lower);
        let mut new = old.clone();
        new.headlines[2].value = 12.0;
        let r = compare(&old, &new, 5.0);
        assert_eq!(r.failures(), 1, "{}", r.render());
        assert!(r.rows[2].regressed);
        assert_eq!(r.rows[2].delta_pct, None);
        assert!(r.render().contains("+12.0 abs"), "{}", r.render());
        // Holding at zero passes, and so does a fall where lower is better.
        assert_eq!(compare(&old, &old, 5.0).failures(), 0);
        new.headlines[2].value = -1.0;
        assert_eq!(compare(&old, &new, 5.0).failures(), 0);
    }

    fn with_series(mut s: BenchSnapshot) -> BenchSnapshot {
        let mut r = ExperimentResult::new("fig2", "receive throughput", "Mbps");
        r.push_series(
            "double",
            &[1024, 65536],
            &[83.2, 447.4],
            Some(&[80.0, 379.0]),
        );
        s.push_result(&r);
        s
    }

    #[test]
    fn exact_passes_identical_snapshots_through_json() {
        let s = with_series(sample());
        let parsed = BenchSnapshot::parse(&s.to_json()).unwrap();
        assert_eq!(parsed.results.len(), 1);
        let r = compare_exact(&s, &parsed);
        assert_eq!(r.failures(), 0, "{}", r.render());
        assert!(r.counters.is_empty());
    }

    #[test]
    fn exact_fails_a_one_ulp_series_change() {
        let old = with_series(sample());
        let mut new = old.clone();
        let p = &mut new.results[0].series[0].points[1];
        p.measured = f64::from_bits(p.measured.to_bits() + 1);
        let r = compare_exact(&old, &new);
        assert_eq!(r.failures(), 1, "{}", r.render());
        assert!(r.diffs[0].starts_with("fig2 / double @ x=65536 measured"));
        // The threshold gate cannot see it.
        assert_eq!(compare(&old, &new, 5.0).failures(), 0);
    }

    #[test]
    fn exact_gates_headlines_and_stages_but_only_lists_counters() {
        let old = with_series(sample());
        let mut new = old.clone();
        new.headlines[0].value += 1.0; // an improvement still changes it
        new.stages[0].p99_us += 1.0;
        new.counters.clear();
        let r = compare_exact(&old, &new);
        assert_eq!(r.failures(), 2, "{}", r.render());
        assert_eq!(r.counters, vec!["node0.board.rx.cells: 1234 -> missing"]);
    }

    #[test]
    fn vanished_metric_fails() {
        let old = sample();
        let mut new = sample();
        new.headlines.remove(1);
        let r = compare(&old, &new, 5.0);
        assert_eq!(r.failures(), 1);
        assert_eq!(r.missing, vec!["rtt_us".to_string()]);
        assert!(r.render().contains("MISSING"));
    }
}
