//! Regenerates the **congestion-control matrix**: incast degree × cell
//! loss × scheme → goodput and tail, on an N-to-1 incast through the
//! bounded switch. Every column runs the one selective-repeat transport:
//! `saw` is stop-and-wait ARQ (a window of 1), `sr` the base window of 8,
//! and `sr+ecn` / `sr+pace` add a congestion controller to it.
//!
//! Every column must converge with no datagram abandoned. The headlines
//! CI locks exactly: at 64 senders and 1% cell loss, stop-and-wait's
//! goodput, the best windowed scheme's goodput and tail, and their ratio.
//! Deterministic: the same config and seed reproduce `BENCH_cc.json`
//! bit-identically.

use osiris::config::TestbedConfig;
use osiris::experiments::{cc_sweep, CcSweepPoint, CC_SCHEMES};
use osiris::report;
use osiris_bench::{bench_out_path, quick_requested, BenchSnapshot, Better, ExperimentResult};

fn main() {
    // The full matrix runs the headline incast degrees at a clean link
    // and 1% loss; `--quick` keeps one small lossy incast as a smoke.
    let (senders, rates): (Vec<usize>, Vec<f64>) = if quick_requested() {
        (vec![8], vec![1e-2])
    } else {
        (vec![16, 64], vec![0.0, 1e-2])
    };
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = if quick_requested() { 8 } else { 16 };
    cfg.warmup = 0;
    cfg.window = 8;
    let points = cc_sweep(&cfg, &senders, &rates);

    let at = |n: usize, r: f64, s: &str| -> &CcSweepPoint {
        points
            .iter()
            .find(|p| p.senders == n && (p.loss_rate - r).abs() < 1e-12 && p.scheme == s)
            .expect("matrix cell missing")
    };
    let head_n = *senders.last().expect("nonempty");
    let saw = at(head_n, 1e-2, "saw");
    let best_sr = points
        .iter()
        .filter(|p| p.senders == head_n && (p.loss_rate - 1e-2).abs() < 1e-12 && p.scheme != "saw")
        .max_by(|a, b| a.goodput_mbps.total_cmp(&b.goodput_mbps))
        .expect("an sr scheme ran");
    let ratio = best_sr.goodput_mbps / saw.goodput_mbps.max(1e-9);
    assert!(
        points.iter().all(|p| p.converged && p.gave_up == 0),
        "every scheme must converge without abandoning datagrams"
    );
    // A congestion controller that leaves every cell of the full matrix
    // exactly as plain `sr` left it never binds. The quick smoke is too
    // small for this: 8 senders under window 8 defer no datagram, so all
    // selective-repeat columns coincide there.
    if !quick_requested() {
        for (name, _, _) in CC_SCHEMES.iter().filter(|(n, _, _)| n.starts_with("sr+")) {
            let binds = points.iter().filter(|p| p.scheme == *name).any(|p| {
                let sr = at(p.senders, p.loss_rate, "sr");
                p.goodput_mbps != sr.goodput_mbps || p.p99_gap_us != sr.p99_gap_us
            });
            assert!(
                binds,
                "{name} equals sr in every cell: the scheme never binds"
            );
        }
    }

    // Series per scheme: goodput across the (senders × rate) grid,
    // x = senders * 1000 + loss permille (a flat deterministic axis).
    let xs: Vec<u64> = points
        .iter()
        .filter(|p| p.scheme == "saw")
        .map(|p| (p.senders * 1000) as u64 + (p.loss_rate * 1e3).round() as u64)
        .collect();
    let mut r = ExperimentResult::new("cc", "Incast goodput: transport/CC matrix (Mbps)", "Mbps");
    let mut names: Vec<&str> = Vec::new();
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for (name, _, _) in CC_SCHEMES {
        let ys: Vec<f64> = points
            .iter()
            .filter(|p| p.scheme == *name)
            .map(|p| p.goodput_mbps)
            .collect();
        r.push_series(name, &xs, &ys, None);
        names.push(name);
        columns.push(ys);
    }

    if let Some(path) = bench_out_path() {
        let mut snap = BenchSnapshot::new("cc");
        snap.headline(
            "saw_goodput_64x1pct_mbps",
            saw.goodput_mbps,
            "Mbps",
            Better::Higher,
        );
        snap.headline(
            "best_sr_goodput_64x1pct_mbps",
            best_sr.goodput_mbps,
            "Mbps",
            Better::Higher,
        );
        snap.headline("sr_over_saw_ratio", ratio, "x", Better::Higher);
        snap.headline(
            "best_sr_p99_gap_64x1pct_us",
            best_sr.p99_gap_us,
            "us",
            Better::Lower,
        );
        snap.push_result(&r);
        std::fs::write(&path, snap.to_json()).expect("write bench snapshot");
        eprintln!("wrote {path}");
    }
    println!(
        "{}",
        report::series(
            "Congestion-control matrix: incast goodput (Mbps)",
            "senders*1000 + loss permille",
            &xs,
            &names,
            &columns,
        )
    );
    println!(
        "headline: {head_n}-sender incast at 1% loss — saw {:.1} Mbps, best sr ({}) {:.1} Mbps, ratio {:.2}x",
        saw.goodput_mbps, best_sr.scheme, best_sr.goodput_mbps, ratio
    );
    for p in &points {
        println!(
            "  {:>2} senders, loss {:>4.0e}, {:<9}: {:>7.1} Mbps{}, p99 gap {:>8.1} us, {} retrans ({} sack, {} dup), {} blk acks, {} deferred, {} marked, {} overflow, {} gave up",
            p.senders,
            p.loss_rate,
            p.scheme,
            p.goodput_mbps,
            if p.converged { "" } else { " (STARVED)" },
            p.p99_gap_us,
            p.retransmits,
            p.sack_retransmits,
            p.dup_datagrams,
            p.block_acks,
            p.deferred,
            p.ecn_marked,
            p.switch_overflow,
            p.gave_up,
        );
    }
}
