//! Regenerates the **loss sweep**: goodput and tail latency vs seeded
//! cell-loss rate, exercising the whole fault plane end to end — wire
//! faults in, CRC/checksum shields, reassembly-timeout reclaim, and
//! send-side retransmission pulling goodput back up.
//!
//! The paper's adaptor ran over an error-free fabric ("we have not
//! observed any cell loss"), so it has no figure to compare against;
//! this sweep is the reproduction's own stress artifact. The simulator
//! is deterministic: the same config and seed reproduce `BENCH_loss.json`
//! bit-identically, which is what lets CI gate on the committed baseline.

use osiris::config::TestbedConfig;
use osiris::experiments::loss_sweep;
use osiris::report;
use osiris_bench::{bench_out_path, quick_requested, BenchSnapshot, Better, ExperimentResult};

fn main() {
    // Full sweep spans four decades of per-cell loss; `--quick` keeps the
    // two points the headlines guard (clean link and 1e-3).
    let rates: Vec<f64> = if quick_requested() {
        vec![0.0, 1e-3]
    } else {
        vec![0.0, 1e-4, 1e-3, 1e-2]
    };
    // Small messages keep the per-datagram loss probability low enough
    // that 16 retries always converge, even at the 1e-2 extreme.
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = if quick_requested() { 12 } else { 24 };
    let points = loss_sweep(&cfg, &rates);

    let at = |r: f64| {
        points
            .iter()
            .find(|p| (p.loss_rate - r).abs() < 1e-12)
            .expect("sweep point missing")
    };
    let clean = at(0.0);
    let lossy = at(1e-3);
    assert!(
        lossy.goodput_mbps > 0.0,
        "reliable mode must converge to nonzero goodput at 1e-3"
    );
    let gave_up: u64 = points.iter().map(|p| p.gave_up).sum();
    let corrupt: u64 = points.iter().map(|p| p.corrupt_deliveries).sum();
    assert_eq!(corrupt, 0, "corrupted payload reached an application");

    // Loss rates are fractional, so the series' x axis is parts-per-million.
    let ppm: Vec<u64> = rates.iter().map(|r| (r * 1e6).round() as u64).collect();
    let goodput: Vec<f64> = points.iter().map(|p| p.goodput_mbps).collect();
    let p99: Vec<f64> = points.iter().map(|p| p.rtt_p99_us).collect();
    let retrans: Vec<f64> = points.iter().map(|p| p.retransmits as f64).collect();
    let reaps: Vec<f64> = points.iter().map(|p| p.timeout_reaps as f64).collect();

    let mut r = ExperimentResult::new("loss", "Goodput vs cell-loss rate (reliable mode)", "Mbps");
    r.push_series("goodput", &ppm, &goodput, None);
    let mut rt = ExperimentResult::new("loss_p99", "p99 RTT vs cell-loss rate", "us");
    rt.push_series("rtt_p99", &ppm, &p99, None);
    rt.push_series("retransmits", &ppm, &retrans, None);
    rt.push_series("timeout_reaps", &ppm, &reaps, None);

    if let Some(path) = bench_out_path() {
        let mut snap = BenchSnapshot::new("loss");
        snap.headline(
            "goodput_clean_mbps",
            clean.goodput_mbps,
            "Mbps",
            Better::Higher,
        );
        snap.headline(
            "goodput_at_loss_1e3_mbps",
            lossy.goodput_mbps,
            "Mbps",
            Better::Higher,
        );
        snap.headline("p99_at_loss_1e3_us", lossy.rtt_p99_us, "us", Better::Lower);
        snap.headline("gave_up_total", gave_up as f64, "datagrams", Better::Lower);
        snap.push_result(&r);
        snap.push_result(&rt);
        std::fs::write(&path, snap.to_json()).expect("write bench snapshot");
        eprintln!("wrote {path}");
    }
    println!(
        "{}",
        report::series(
            "Loss sweep: goodput under seeded cell loss (Mbps)",
            "loss ppm",
            &ppm,
            &["goodput"],
            std::slice::from_ref(&goodput),
        )
    );
    println!(
        "{}",
        report::series(
            "Loss sweep: recovery machinery (p99 us / counts)",
            "loss ppm",
            &ppm,
            &["p99 RTT (us)", "retransmits", "timeout reaps"],
            &[p99.clone(), retrans.clone(), reaps.clone()],
        )
    );
    for p in &points {
        println!(
            "  rate {:>8.0e}: {:>7.1} Mbps, p99 {:>8.1} us, {} retrans, {} reaps, {} dropped, {} corrupted, {} gave up",
            p.loss_rate,
            p.goodput_mbps,
            p.rtt_p99_us,
            p.retransmits,
            p.timeout_reaps,
            p.cells_dropped,
            p.cells_corrupted,
            p.gave_up
        );
    }
}
