//! Regenerates **Figure 3: DEC 3000/600 UDP/IP/OSIRIS receive-side
//! throughput** (Mbps vs message size).
//!
//! "With double cell length DMA, the throughput now approaches the full
//! link bandwidth of 516 Mbps for message sizes of 16 KB and larger. With
//! UDP checksumming turned on, the throughput decreases slightly to 438
//! Mbps … network data can be read and checksummed at close to 90 % of
//! the network link speed" — possible because the Alpha's crossbar lets
//! the checksum run concurrently with DMA and its cache is DMA-coherent.

use osiris::board::dma::DmaMode;
use osiris::config::TestbedConfig;
use osiris::experiments::{receive_throughput, stage_anatomy};
use osiris::report;
use osiris::Scenario;
use osiris_bench::{
    at_size, bench_out_path, figure_sizes, BenchSnapshot, Better, ExperimentResult,
};

fn main() {
    let sizes = figure_sizes();
    let mut series = vec![Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for &size in &sizes {
        let base = at_size(TestbedConfig::dec3000_600_udp(), size);
        for (i, (dma, cksum)) in [
            (DmaMode::DoubleCell, false),
            (DmaMode::DoubleCell, true),
            (DmaMode::SingleCell, false),
            (DmaMode::SingleCell, true),
        ]
        .into_iter()
        .enumerate()
        {
            let mut cfg = base.clone();
            cfg.rx_dma = dma;
            cfg.udp_checksum = cksum;
            // Checksummed runs need enough messages to reach the cache's
            // warm steady state (the coherent cache absorbs re-reads).
            if cksum {
                cfg.messages = cfg.messages.max(16);
            }
            series[i].push(receive_throughput(&cfg).mbps);
        }
    }
    let mut r = ExperimentResult::new("fig3", "DEC 3000/600 receive throughput", "Mbps");
    for (name, col) in ["double", "double+cs", "single", "single+cs"]
        .iter()
        .zip(&series)
    {
        r.push_series(name, &sizes, col, None);
    }
    if let Some(path) = bench_out_path() {
        let mut snap = BenchSnapshot::new("fig3");
        snap.headline(
            "peak_double_cell_mbps",
            *series[0].last().unwrap(),
            "Mbps",
            Better::Higher,
        );
        snap.headline(
            "peak_double_cell_checksum_mbps",
            *series[1].last().unwrap(),
            "Mbps",
            Better::Higher,
        );
        snap.push_result(&r);
        let mut cfg = at_size(TestbedConfig::dec3000_600_udp(), 16 * 1024);
        cfg.rx_dma = DmaMode::DoubleCell;
        snap.set_anatomy(&stage_anatomy(Scenario::RxBench, &cfg));
        std::fs::write(&path, snap.to_json()).expect("write bench snapshot");
        eprintln!("wrote {path}");
    }
    let kb: Vec<u64> = sizes.iter().map(|s| s / 1024).collect();
    if std::env::args().any(|a| a == "--plot") {
        println!(
            "{}",
            report::ascii_plot(
                "Figure 3 (plot): DEC 3000/600 receive Mbps",
                "Throughput in Mbps",
                &kb,
                &[
                    "double-cell",
                    "double-cell + UDP-CS",
                    "single-cell",
                    "single-cell + UDP-CS"
                ],
                &series,
                14,
            )
        );
        return;
    }
    println!(
        "{}",
        report::series(
            "Figure 3: DEC 3000/600 UDP/IP receive throughput (Mbps)",
            "KB",
            &kb,
            &[
                "double-cell",
                "double-cell + UDP-CS",
                "single-cell",
                "single-cell + UDP-CS"
            ],
            &series,
        )
    );
    println!(
        "{}",
        report::compare(
            "peak double-cell (link-bound)",
            516.0,
            *series[0].last().unwrap()
        )
    );
    println!(
        "{}",
        report::compare(
            "peak double-cell + checksum",
            438.0,
            *series[1].last().unwrap()
        )
    );
}
