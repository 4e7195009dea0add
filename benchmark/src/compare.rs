//! `compare PARENT.json CHANGE.json`: judges a change against its
//! parent from two `run --out` result files and the bounds in
//! `BENCHMARK.json`, one row per workload for every end-to-end metric.
//!
//! The rule: a metric whose parent spread (quartile distance over the
//! median) is wider than its bound is unresolved, unless every change
//! run beats every parent run; a change median worse than the parent's
//! by more than the bound is a regression; a gain needs the change to
//! win nine tenths of the paired runs and to move the median by more
//! than the parent's own quartile distance.

use std::process::ExitCode;

use osiris::sim::Json;

use crate::metrics::Better;
use crate::stats::Summary;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Raw values of `metric` on `workload` in a result file.
fn raw(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values: Vec<f64> = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("raw")?
        .items()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!values.is_empty()).then_some(values)
}

/// Share of index-paired runs the change wins; ties count for neither.
pub fn win_rate(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| match better {
            Better::Higher => c > p,
            Better::Lower => c < p,
        })
        .count();
    wins as f64 / pairs as f64
}

/// The verdict on one metric of one workload.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> &'static str {
    let (p, c) = (Summary::of(parent), Summary::of(change));
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let gain = sign * (c.median - p.median);
    let every_run_better = change
        .iter()
        .all(|&x| parent.iter().all(|&y| sign * (x - y) > 0.0));
    let improved = win_rate(parent, change, better) >= 0.9 && gain > p.q3 - p.q1;
    if parent.iter().chain(change).all(|&v| v == parent[0]) {
        "identical"
    } else if p.spread() > bound && !every_run_better {
        "unresolved"
    } else if -gain > bound * p.median.abs() {
        "REGRESSED"
    } else if improved {
        "improved"
    } else {
        "within bound"
    }
}

/// Runs the `compare` subcommand; exits 1 when any metric regressed.
pub fn command(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut bounds = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            bounds = it.next().ok_or("--bounds needs a file")?.clone();
        } else {
            paths.push(a.clone());
        }
    }
    let [parent_path, change_path] = paths.as_slice() else {
        return Err("compare needs PARENT.json and CHANGE.json".to_string());
    };
    let (parent, change, bench) = (load(parent_path)?, load(change_path)?, load(&bounds)?);

    if parent.get("host") != change.get("host") {
        println!("WARNING: the two result files come from different hosts; wall-clock metrics are not comparable");
    }
    let workloads: Vec<String> = bench
        .get("workloads")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name")?.as_str().map(String::from))
        .collect();
    let mut regressed = false;
    for m in bench.get("end_to_end").map(Json::items).unwrap_or_default() {
        let field = |k: &str| m.get(k).ok_or(format!("{bounds}: metric lacks `{k}`"));
        let name = field("name")?.as_str().ok_or("metric name")?;
        let better = Better::parse(field("better")?.as_str().unwrap_or(""))
            .ok_or(format!("{name}: `better` must be higher or lower"))?;
        let bound = field("bound")?.as_f64().ok_or("bound")?;
        println!();
        println!(
            "{name} [{}], {} is better, bound {:.1} %",
            field("unit")?.as_str().unwrap_or(""),
            better.name(),
            bound * 100.0
        );
        println!(
            "  {:<16} {:>40} {:>40} {:>6}  verdict",
            "workload", "parent median [q1, q3]", "change median [q1, q3]", "wins"
        );
        for w in &workloads {
            let (Some(p), Some(c)) = (raw(&parent, w, name), raw(&change, w, name)) else {
                println!("  {w:<16} missing from a result file");
                continue;
            };
            let verdict = judge(&p, &c, better, bound);
            regressed |= verdict == "REGRESSED";
            let (ps, cs) = (Summary::of(&p), Summary::of(&c));
            let show = |s: &Summary| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            println!(
                "  {w:<16} {:>40} {:>40} {:>5.0}%  {verdict}",
                show(&ps),
                show(&cs),
                win_rate(&p, &c, better) * 100.0
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Throughput 20 % down: a regression at a 10 % bound.
        let slower = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(judge(&parent, &slower, Better::Higher, 0.10), "REGRESSED");
        // 20 % up and winning every pair: a gain.
        let faster = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&parent, &faster, Better::Higher, 0.10), "improved");
        assert_eq!(win_rate(&parent, &faster, Better::Higher), 1.0);
        // Noise inside the bound.
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        assert_eq!(judge(&parent, &same, Better::Higher, 0.10), "within bound");
        // A parent wider than the bound cannot resolve a small move.
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(judge(&noisy, &slower, Better::Higher, 0.10), "unresolved");
        // ... unless every change run beats every parent run.
        let far = [200.0, 201.0, 202.0, 203.0, 204.0];
        assert_eq!(judge(&noisy, &far, Better::Higher, 0.10), "improved");
        // Deterministic outputs that did not move.
        assert_eq!(
            judge(&[5.0, 5.0], &[5.0], Better::Lower, 0.005),
            "identical"
        );
        // Lower is better: a 1 % rise breaks a 0.5 % bound.
        assert_eq!(
            judge(&[5.0, 5.0], &[5.05], Better::Lower, 0.005),
            "REGRESSED"
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        assert_eq!(win_rate(&[1.0, 2.0], &[1.0, 3.0], Better::Higher), 0.5);
        assert_eq!(win_rate(&[1.0, 2.0], &[1.0, 3.0], Better::Lower), 0.0);
        assert_eq!(win_rate(&[], &[1.0], Better::Lower), 0.0);
    }
}
