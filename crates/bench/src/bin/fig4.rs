//! Regenerates **Figure 4: UDP/IP/OSIRIS transmit-side throughput**
//! (Mbps vs message size).
//!
//! "The maximal throughput achieved on the transmit side is currently 325
//! Mbps. This number is limited entirely by TurboChannel contention due
//! to the high overhead of single ATM cell payload sized DMA transfers."
//! (The transmit DMA controller had not yet received the double-cell
//! modification.) Series: DEC 3000/600, 3000/600 with UDP checksumming,
//! DEC 5000/200 — all single-cell transmit DMA.

use osiris::config::TestbedConfig;
use osiris::experiments::{stage_anatomy, transmit_throughput};
use osiris::report;
use osiris::Scenario;
use osiris_bench::{
    at_size, bench_out_path, figure_sizes, BenchSnapshot, Better, ExperimentResult,
};

fn main() {
    let sizes = figure_sizes();
    let mut alpha = Vec::new();
    let mut alpha_cs = Vec::new();
    let mut ds = Vec::new();
    for &size in &sizes {
        alpha.push(transmit_throughput(&at_size(
            TestbedConfig::dec3000_600_udp(),
            size,
        )));
        let mut cfg = at_size(TestbedConfig::dec3000_600_udp(), size);
        cfg.udp_checksum = true;
        alpha_cs.push(transmit_throughput(&cfg));
        ds.push(transmit_throughput(&at_size(
            TestbedConfig::ds5000_200_udp(),
            size,
        )));
    }
    let mut r = ExperimentResult::new("fig4", "transmit throughput", "Mbps");
    r.push_series("3000/600", &sizes, &alpha, None);
    r.push_series("3000/600+cs", &sizes, &alpha_cs, None);
    r.push_series("5000/200", &sizes, &ds, None);
    if let Some(path) = bench_out_path() {
        let mut snap = BenchSnapshot::new("fig4");
        snap.headline(
            "peak_tx_3000_600_mbps",
            *alpha.last().unwrap(),
            "Mbps",
            Better::Higher,
        );
        snap.headline(
            "peak_tx_5000_200_mbps",
            *ds.last().unwrap(),
            "Mbps",
            Better::Higher,
        );
        snap.push_result(&r);
        let cfg = at_size(TestbedConfig::dec3000_600_udp(), 16 * 1024);
        snap.set_anatomy(&stage_anatomy(Scenario::TxBench, &cfg));
        std::fs::write(&path, snap.to_json()).expect("write bench snapshot");
        eprintln!("wrote {path}");
    }
    let kb: Vec<u64> = sizes.iter().map(|s| s / 1024).collect();
    if std::env::args().any(|a| a == "--plot") {
        println!(
            "{}",
            report::ascii_plot(
                "Figure 4 (plot): transmit Mbps",
                "Throughput in Mbps",
                &kb,
                &["3000/600", "3000/600 + UDP-CS", "5000/200"],
                &[alpha.clone(), alpha_cs.clone(), ds.clone()],
                14,
            )
        );
        return;
    }
    println!(
        "{}",
        report::series(
            "Figure 4: UDP/IP transmit throughput (Mbps), single-cell DMA",
            "KB",
            &kb,
            &["3000/600", "3000/600 + UDP-CS", "5000/200"],
            &[alpha.clone(), alpha_cs.clone(), ds.clone()],
        )
    );
    println!(
        "{}",
        report::compare("peak transmit (3000/600)", 340.0, *alpha.last().unwrap())
    );
    println!(
        "{}",
        report::compare("peak transmit (5000/200)", 300.0, *ds.last().unwrap())
    );
    println!("  (paper: 'maximal throughput achieved on the transmit side is currently 325 Mbps')");
}
