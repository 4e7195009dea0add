//! Regenerates **Figure 2: DEC 5000/200 UDP/IP/OSIRIS receive-side
//! throughput** (Mbps vs message size).
//!
//! "The receiver processor of the OSIRIS board was programmed to generate
//! fictitious PDUs as fast as the receiving host could absorb them …
//! results measured with DMA transfer sizes of one and two cell payloads,
//! and with cache invalidation in the OSIRIS driver."
//!
//! Paper's peaks: 379 Mbps (double-cell DMA), 340 Mbps (single-cell),
//! 250 Mbps (single-cell with pessimistic cache invalidation).

use osiris::board::dma::DmaMode;
use osiris::config::TestbedConfig;
use osiris::experiments::{receive_throughput, stage_anatomy};
use osiris::host::driver::CacheStrategy;
use osiris::report;
use osiris::Scenario;
use osiris_bench::{
    at_size, bench_out_path, figure_sizes, BenchSnapshot, Better, ExperimentResult,
};

fn main() {
    let sizes = figure_sizes();
    let mut double = Vec::new();
    let mut single = Vec::new();
    let mut invalidated = Vec::new();
    for &size in &sizes {
        let base = at_size(TestbedConfig::ds5000_200_udp(), size);

        let mut cfg = base.clone();
        cfg.rx_dma = DmaMode::DoubleCell;
        double.push(receive_throughput(&cfg).mbps);

        single.push(receive_throughput(&base).mbps);

        let mut cfg = base.clone();
        cfg.cache_strategy = CacheStrategy::Eager;
        invalidated.push(receive_throughput(&cfg).mbps);
    }
    let mut r = ExperimentResult::new("fig2", "DEC 5000/200 receive throughput", "Mbps");
    r.push_series("double-cell", &sizes, &double, None);
    r.push_series("single-cell", &sizes, &single, None);
    r.push_series("single-cell+invalidate", &sizes, &invalidated, None);
    if let Some(path) = bench_out_path() {
        let mut snap = BenchSnapshot::new("fig2");
        snap.headline(
            "peak_double_cell_mbps",
            *double.last().unwrap(),
            "Mbps",
            Better::Higher,
        );
        snap.headline(
            "peak_single_cell_mbps",
            *single.last().unwrap(),
            "Mbps",
            Better::Higher,
        );
        snap.headline(
            "peak_invalidate_mbps",
            *invalidated.last().unwrap(),
            "Mbps",
            Better::Higher,
        );
        snap.push_result(&r);
        // Traced representative run for the stage percentiles.
        let cfg = at_size(TestbedConfig::ds5000_200_udp(), 16 * 1024);
        snap.set_anatomy(&stage_anatomy(Scenario::RxBench, &cfg));
        std::fs::write(&path, snap.to_json()).expect("write bench snapshot");
        eprintln!("wrote {path}");
    }
    let kb: Vec<u64> = sizes.iter().map(|s| s / 1024).collect();
    if std::env::args().any(|a| a == "--plot") {
        println!(
            "{}",
            report::ascii_plot(
                "Figure 2 (plot): DEC 5000/200 receive Mbps",
                "Throughput in Mbps",
                &kb,
                &[
                    "double-cell DMA",
                    "single-cell DMA",
                    "single-cell, cache invalidated"
                ],
                &[double.clone(), single.clone(), invalidated.clone()],
                14,
            )
        );
        return;
    }
    println!(
        "{}",
        report::series(
            "Figure 2: DEC 5000/200 UDP/IP receive throughput (Mbps)",
            "KB",
            &kb,
            &[
                "double-cell DMA",
                "single-cell DMA",
                "single-cell, cache invalidated"
            ],
            &[double.clone(), single.clone(), invalidated.clone()],
        )
    );
    println!(
        "{}",
        report::compare("peak double-cell DMA", 379.0, *double.last().unwrap())
    );
    println!(
        "{}",
        report::compare("peak single-cell DMA", 340.0, *single.last().unwrap())
    );
    println!(
        "{}",
        report::compare(
            "peak with invalidation",
            250.0,
            *invalidated.last().unwrap()
        )
    );
}
