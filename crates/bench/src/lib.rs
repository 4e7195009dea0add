//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary prints the same rows/series the paper reports, side by side
//! with the paper's numbers where the paper gives them, so EXPERIMENTS.md
//! can be refreshed by re-running:
//!
//! ```text
//! cargo run --release -p osiris-bench --bin table1
//! cargo run --release -p osiris-bench --bin fig2
//! cargo run --release -p osiris-bench --bin fig3
//! cargo run --release -p osiris-bench --bin fig4
//! cargo run --release -p osiris-bench --bin lessons
//! ```

use osiris::config::TestbedConfig;

pub mod results;
pub mod snapshot;
pub use results::ExperimentResult;
pub use snapshot::{bench_out_path, quick_requested, BenchSnapshot, Better};

/// The message sizes of Figures 2–4 (bytes): 1 KB to 256 KB, or a
/// three-point subset spanning the sweep under `--quick` (CI smoke).
pub fn figure_sizes() -> Vec<u64> {
    if quick_requested() {
        vec![1024, 16 * 1024, 64 * 1024]
    } else {
        (0..=8).map(|i| 1024u64 << i).collect()
    }
}

/// Messages per sweep point, scaled down for large messages so a full
/// sweep stays interactive while keeping several steady-state cycles.
/// `--quick` cuts each point to the minimum that still covers warm-up.
pub fn messages_for(size: u64) -> u64 {
    let full = match size {
        0..=4096 => 40,
        4097..=32768 => 24,
        32769..=131072 => 16,
        _ => 12,
    };
    if quick_requested() {
        (full / 4).max(6)
    } else {
        full
    }
}

/// Standard warm-up per sweep point.
pub const WARMUP: u64 = 3;

/// Applies sweep bookkeeping to a config.
pub fn at_size(mut cfg: TestbedConfig, size: u64) -> TestbedConfig {
    cfg.msg_size = size;
    cfg.messages = messages_for(size);
    cfg.warmup = WARMUP;
    cfg
}
