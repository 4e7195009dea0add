//! Smoke test: a quick run of every workload reports every metric that
//! `BENCHMARK.json` names, and the one-workload form the benchmark is
//! driven with ends in the summary line it promises.

use std::process::Command;

use osiris::sim::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Json, section: &str) -> Vec<String> {
    doc.get(section)
        .expect(section)
        .items()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("name").into())
        .collect()
}

fn run(args: &[&str]) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_osiris-benchmark"))
        .arg("run")
        .args(args)
        .output()
        .expect("spawn osiris-benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "run {args:?} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output");
    let summary = Json::parse(last).expect("last line is JSON");
    (stdout, summary)
}

#[test]
fn quick_run_reports_every_metric_of_every_workload() {
    let doc = benchmark_json();
    let (stdout, summary) = run(&["--quick", "--reps", "2"]);
    let rows: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for section in ["end_to_end", "per_layer"] {
        for name in names(&doc, section) {
            let seen = rows.iter().filter(|&&r| r == name).count();
            assert_eq!(
                seen, 4,
                "`{name}` should be reported for all four workloads"
            );
        }
    }
    for w in names(&doc, "workloads") {
        assert!(rows.contains(&w.as_str()), "workload {w} missing");
    }
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(0));
}

#[test]
fn one_workload_form_prints_the_end_to_end_summary() {
    let doc = benchmark_json();
    let (_, summary) = run(&[
        "--workload",
        "pingpong",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--quick",
    ]);
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
    assert!(summary.get("attempted").and_then(Json::as_u64) >= Some(1));
    let metrics = match summary.get("metrics") {
        Some(Json::Obj(entries)) => entries,
        other => panic!("metrics must be an object, got {other:?}"),
    };
    let keys: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, names(&doc, "end_to_end"));
    for (name, m) in metrics {
        let v = m.get("value").and_then(Json::as_f64).expect("value");
        assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
        assert!(m.get("unit").and_then(Json::as_str).is_some());
    }
}
