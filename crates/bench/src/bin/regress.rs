//! Compares two `BENCH_*.json` snapshots headline by headline:
//!
//! ```text
//! cargo run -p osiris-bench --bin regress -- <old.json> <new.json> [--threshold pct | --exact]
//! ```
//!
//! Exits 0 when every guarded metric held (moves in the good direction
//! are always fine), 1 when any metric regressed past the threshold or
//! vanished from the new snapshot, 2 on usage/parse errors. With
//! `--exact`, for benches whose output is deterministic, any change to a
//! headline, a series point or a stage row fails and the diff is
//! printed; counters are listed but not gated. CI runs this against the
//! committed baselines after the bench smoke.

use osiris_bench::snapshot::{compare, compare_exact, BenchSnapshot, HostRecord};

fn fail(msg: &str) -> ! {
    eprintln!("regress: {msg}");
    eprintln!("usage: regress <old.json> <new.json> [--threshold pct | --exact]");
    std::process::exit(2);
}

fn load(path: &str) -> BenchSnapshot {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    BenchSnapshot::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

/// One-line description of a snapshot's host.
fn describe(host: Option<&HostRecord>) -> String {
    match host {
        Some(h) => format!("{}, {} threads", h.cpu_model, h.available_parallelism),
        None => "unrecorded".to_string(),
    }
}

fn main() {
    let mut threshold = 5.0f64;
    let mut exact = false;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--exact" {
            exact = true;
        } else if a == "--threshold" {
            let v = args
                .next()
                .unwrap_or_else(|| fail("--threshold needs a value"));
            threshold = v
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad threshold {v:?}")));
        } else {
            paths.push(a);
        }
    }
    if paths.len() != 2 {
        fail("expected exactly two snapshot paths");
    }
    let (old, new) = (load(&paths[0]), load(&paths[1]));
    if old.name != new.name {
        fail(&format!(
            "snapshots are from different benches: {:?} vs {:?}",
            old.name, new.name
        ));
    }
    println!(
        "regress {}: {} (baseline) vs {} (candidate)",
        old.name, paths[0], paths[1]
    );
    println!("  baseline host:  {}", describe(old.host.as_ref()));
    println!("  candidate host: {}", describe(new.host.as_ref()));
    if old.host != new.host {
        println!("WARN: different hosts — wall-clock headlines are not comparable");
    }
    let failures = if exact {
        let report = compare_exact(&old, &new);
        print!("{}", report.render());
        report.failures()
    } else {
        let report = compare(&old, &new, threshold);
        print!("{}", report.render());
        report.failures()
    };
    if new.dropped_spans > 0 {
        println!(
            "WARN: candidate dropped {} spans — its stage rows are incomplete",
            new.dropped_spans
        );
    }
    std::process::exit(if failures > 0 { 1 } else { 0 });
}
