//! `osiris-benchmark`: the one benchmark every performance claim about
//! the OSIRIS reproduction is measured with.
//!
//! ```text
//! osiris-benchmark run [--workload NAME]... [--seed N] [--reps R] [--seconds S]
//!                      [--trace 0|1] [--quick] [--out FILE]
//! osiris-benchmark compare PARENT.json CHANGE.json [--bounds BENCHMARK.json]
//! osiris-benchmark child --workload NAME --seed N --mode run|traced|anatomy [--quick]
//! ```
//!
//! `run` measures each workload in repetitions, every one a fresh child
//! process spawned one at a time, round-robin across workloads. It
//! prints every metric with unit, median, quartiles and sample count,
//! optionally writes the same data as JSON, and ends with a one-line
//! JSON summary. It exits non-zero when any correctness check fails.

mod calibrate;
mod child;
mod compare;
mod metrics;
mod stats;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use osiris::sim::Json;

use child::Mode;
use metrics::{summarise, Kind, Metric, Runs, WorkloadResult};
use workload::Workload;

const USAGE: &str = "usage:
  osiris-benchmark run [--workload NAME]... [--seed N] [--reps R] [--seconds S]
                       [--trace 0|1] [--quick] [--out FILE]
  osiris-benchmark compare PARENT.json CHANGE.json [--bounds BENCHMARK.json]
  osiris-benchmark child --workload NAME --seed N --mode run|traced|anatomy [--quick]";

/// Repetitions per workload when neither `--reps` nor `--seconds` is set.
const DEFAULT_REPS: usize = 7;

/// Fewest repetitions a `--seconds` run makes, however long they take.
const MIN_TIMED_REPS: usize = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(rest),
        Some("child") => child_command(rest),
        Some("compare") => compare::command(rest),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("osiris-benchmark: {msg}");
        ExitCode::from(2)
    })
}

/// Options of `run`.
#[derive(Debug)]
struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    reps: Option<usize>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: cannot parse `{v}`\n{USAGE}"))
}

fn parse_workload(v: &str) -> Result<Workload, String> {
    Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`\n{USAGE}"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workloads: Vec::new(),
        seed: 42,
        reps: None,
        seconds: None,
        trace: true,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag {
            "--workload" => {
                let w = parse_workload(value()?)?;
                if !a.workloads.contains(&w) {
                    a.workloads.push(w);
                }
            }
            "--seed" => a.seed = parse(flag, value()?)?,
            "--reps" => {
                let r: usize = parse(flag, value()?)?;
                if r == 0 {
                    return Err(format!("--reps must be at least 1\n{USAGE}"));
                }
                a.reps = Some(r);
            }
            "--seconds" => {
                let s: f64 = parse(flag, value()?)?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be a non-negative number\n{USAGE}"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`\n{USAGE}")),
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(value()?.to_string()),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    Ok(a)
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let floor = a.reps.unwrap_or(if a.seconds.is_some() {
        MIN_TIMED_REPS
    } else {
        DEFAULT_REPS
    });
    let mut runs: Vec<Runs> = a
        .workloads
        .iter()
        .map(|&w| Runs {
            workload: w,
            length: w.length(a.quick),
            reps: Vec::new(),
            traced: None,
            anatomy: None,
        })
        .collect();
    // Repetitions go round-robin across workloads, so a slow period on
    // a shared host hits every workload rather than one. Past the floor,
    // a round starts only if a round of the mean length so far would end
    // within `--seconds`, so a run keeps to its time.
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let mean_round = if rounds == 0 {
            0.0
        } else {
            elapsed / rounds as f64
        };
        if rounds >= floor && elapsed + mean_round > a.seconds.unwrap_or(0.0) {
            break;
        }
        for r in &mut runs {
            r.reps.push(spawn_child(r.workload, &a, Mode::Run)?);
        }
        rounds += 1;
    }
    if a.trace {
        for r in &mut runs {
            r.traced = Some(spawn_child(r.workload, &a, Mode::Traced)?);
            r.anatomy = Some(spawn_child(r.workload, &a, Mode::Anatomy)?);
        }
    }

    let results: Vec<WorkloadResult> = runs.iter().map(summarise).collect();
    let host = host_record();
    print_report(&a, rounds, &host, &results);
    let correct = results.iter().all(|r| r.violations.is_empty());
    if let Some(path) = &a.out {
        let doc = results_json(&a, rounds, host, &results, correct);
        std::fs::write(path, doc.render_pretty() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", summary_line(&a, &results, correct).render_compact());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one child measurement to completion and parses its report.
fn spawn_child(w: Workload, a: &RunArgs, mode: Mode) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name(), "--mode", mode.name()])
        .args(["--seed", &a.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot spawn the {} child: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} child failed ({})",
            w.name(),
            mode.name(),
            out.status
        ));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    Json::parse(text.trim()).map_err(|e| format!("child report: {e}"))
}

fn child_command(args: &[String]) -> Result<ExitCode, String> {
    let (mut w, mut seed, mut mode, mut quick) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag {
            "--workload" => w = Some(parse_workload(value()?)?),
            "--seed" => seed = Some(parse::<u64>(flag, value()?)?),
            "--mode" => {
                let v = value()?;
                mode = Some(Mode::parse(v).ok_or_else(|| format!("unknown mode `{v}`"))?);
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    let (Some(w), Some(seed), Some(mode)) = (w, seed, mode) else {
        return Err(format!(
            "child needs --workload, --seed and --mode\n{USAGE}"
        ));
    };
    println!("{}", child::measure(w, seed, quick, mode)?.render_compact());
    Ok(ExitCode::SUCCESS)
}

/// Where the numbers were measured: wall-clock results from different
/// hosts must never be compared blindly.
fn host_record() -> Json {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    Json::obj()
        .with("available_parallelism", threads)
        .with("cpu_model", cpu)
        .with("kernel", kernel)
}

fn fmt_num(x: f64) -> String {
    if x == 0.0 || (1e-3..1e9).contains(&x.abs()) {
        format!("{x:.6}")
    } else {
        format!("{x:.6e}")
    }
}

fn print_rows(title: &str, r: &WorkloadResult, kind: Kind) {
    let mut rows = r.metrics.iter().filter(|m| m.spec.kind == kind).peekable();
    if rows.peek().is_none() {
        return;
    }
    println!("  {title}");
    for m in rows {
        let s = m.summary();
        println!(
            "  {:<36} {:<9} {:>18} {:>18} {:>18} {:>8}",
            m.spec.name,
            m.spec.unit,
            fmt_num(s.median),
            fmt_num(s.q1),
            fmt_num(s.q3),
            m.samples
        );
    }
}

fn print_report(a: &RunArgs, rounds: usize, host: &Json, results: &[WorkloadResult]) {
    let field = |k: &str| match host.get(k) {
        Some(Json::Str(s)) => s.clone(),
        Some(v) => v.render_compact(),
        None => String::new(),
    };
    println!(
        "osiris-benchmark: seed {}, {rounds} reps per workload{}{}",
        a.seed,
        if a.trace { ", traced" } else { "" },
        if a.quick { ", quick" } else { "" }
    );
    println!(
        "host: {} threads, {}, kernel {}",
        field("available_parallelism"),
        field("cpu_model"),
        field("kernel")
    );
    for r in results {
        println!();
        println!(
            "{} ({} datagrams asked, {} not delivered intact)",
            r.workload.name(),
            r.attempted,
            r.failed
        );
        println!(
            "  {:<36} {:<9} {:>18} {:>18} {:>18} {:>8}",
            "metric", "unit", "median", "q1", "q3", "n"
        );
        print_rows("end to end", r, Kind::EndToEnd);
        print_rows("per layer", r, Kind::PerLayer);
        print_rows("reference", r, Kind::Reference);
        for v in &r.violations {
            println!("  VIOLATION: {v}");
        }
    }
}

fn metric_json(m: &Metric) -> Json {
    let s = m.summary();
    Json::obj()
        .with("kind", m.spec.kind.name())
        .with("unit", m.spec.unit)
        .with("better", m.spec.better.name())
        .with("median", s.median)
        .with("q1", s.q1)
        .with("q3", s.q3)
        .with("n", m.samples)
        .with(
            "raw",
            Json::Arr(m.values.iter().map(|&v| Json::Num(v)).collect()),
        )
}

fn results_json(
    a: &RunArgs,
    rounds: usize,
    host: Json,
    results: &[WorkloadResult],
    correct: bool,
) -> Json {
    let workloads = results.iter().fold(Json::obj(), |j, r| {
        let metrics = r
            .metrics
            .iter()
            .fold(Json::obj(), |j, m| j.with(&m.spec.name, metric_json(m)));
        j.with(
            r.workload.name(),
            Json::obj()
                .with("length", r.workload.length(a.quick))
                .with("attempted", r.attempted)
                .with("failed", r.failed)
                .with(
                    "violations",
                    Json::Arr(
                        r.violations
                            .iter()
                            .map(|v| Json::from(v.as_str()))
                            .collect(),
                    ),
                )
                .with("metrics", metrics),
        )
    });
    Json::obj()
        .with("seed", a.seed)
        .with("reps", rounds)
        .with("quick", a.quick)
        .with("traced", a.trace)
        .with("host", host)
        .with("correct", correct)
        .with("workloads", workloads)
}

/// The closing one-line summary: end-to-end medians without `--trace`,
/// per-layer values with it. Names carry a `workload/` prefix when more
/// than one workload ran.
fn summary_line(a: &RunArgs, results: &[WorkloadResult], correct: bool) -> Json {
    let prefix = results.len() > 1;
    let kind = if a.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    let mut metrics = Json::obj();
    for r in results {
        for m in r.metrics.iter().filter(|m| m.spec.kind == kind) {
            let name = if prefix {
                format!("{}/{}", r.workload.name(), m.spec.name)
            } else {
                m.spec.name.clone()
            };
            metrics = metrics.with(
                &name,
                Json::obj()
                    .with("value", m.summary().median)
                    .with("unit", m.spec.unit),
            );
        }
    }
    Json::obj()
        .with("correct", correct)
        .with(
            "attempted",
            results.iter().map(|r| r.attempted).sum::<u64>(),
        )
        .with("failed", results.iter().map(|r| r.failed).sum::<u64>())
        .with("metrics", metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_options_parse() {
        let a = parse_run(&args(
            "--workload pingpong --seed 9 --seconds 20 --trace 0 --out r.json",
        ))
        .expect("valid");
        assert_eq!(a.workloads, vec![Workload::PingPong]);
        assert_eq!((a.seed, a.seconds, a.trace), (9, Some(20.0), false));
        assert_eq!(a.out.as_deref(), Some("r.json"));
        let a = parse_run(&[]).expect("defaults");
        assert_eq!(a.workloads, Workload::ALL.to_vec());
        assert!(a.trace && a.reps.is_none());
        for bad in ["--trace 2", "--reps 0", "--workload x", "--seed", "--bogus"] {
            assert!(parse_run(&args(bad)).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn result_documents_round_trip_through_json() {
        let doc = Json::obj()
            .with("seed", 42u64)
            .with("correct", true)
            .with(
                "raw",
                Json::Arr(
                    [0.1, 1e-7, 12345.678901234567, 2.0 / 3.0, -4.25]
                        .iter()
                        .map(|&v| Json::Num(v))
                        .collect(),
                ),
            )
            .with("host", Json::obj().with("cpu_model", "a \"quoted\" cpu"));
        for text in [doc.render_pretty(), doc.render_compact()] {
            let back = Json::parse(&text).expect("parses");
            assert_eq!(back, doc);
            let raw: Vec<f64> = back
                .get("raw")
                .expect("raw")
                .items()
                .iter()
                .map(|v| v.as_f64().expect("number"))
                .collect();
            assert_eq!(raw[2].to_bits(), 12345.678901234567f64.to_bits());
            assert_eq!(raw[3].to_bits(), (2.0f64 / 3.0).to_bits());
        }
    }
}
