//! # osiris — the OSIRIS reproduction facade
//!
//! Everything the paper's evaluation (§4) needs, behind one API:
//!
//! * [`config::TestbedConfig`] — every knob the paper turns: machine
//!   generation, protocol layer, DMA transfer length, cache strategy,
//!   interrupt policy, reassembly strategy, link skew, UDP checksumming,
//!   data path (in-kernel / user-via-kernel / application device channel).
//! * [`node::HostNode`] — one complete host (CPU + cache + TURBOchannel,
//!   kernel driver, UDP/IP stack, both OSIRIS board halves), addressed
//!   by a typed [`node::NodeId`].
//! * [`fabric`] — cell transport between nodes: back-to-back striped
//!   links ([`fabric::BackToBack`]) or an output-queued AURORA switch
//!   routing by VCI ([`fabric::SwitchedFabric`]).
//! * [`scenario::Scenario`] — declarative topology + workload (`Pair`,
//!   `RxBench`, `TxBench`, `Incast`, `ManyPairs`) that assembles and seeds
//!   a testbed.
//! * [`testbed::Testbed`] — the discrete-event dispatcher over nodes and
//!   the fabric.
//! * [`experiments`] — the canned experiment runners that regenerate
//!   Table 1 and Figures 2–4, plus the "lessons" micro-experiments
//!   (interrupt suppression, DMA ceilings, PIO vs DMA, buffer
//!   fragmentation, skew, lock-free vs locked queues, fbufs).
//! * [`report`] — paper-style text rendering used by the bench binaries.
//!
//! ## Quickstart
//!
//! ```
//! use osiris::config::TestbedConfig;
//! use osiris::experiments;
//!
//! // Round-trip latency of 1024-byte messages over UDP/IP on a pair of
//! // DECstation 5000/200s (Table 1, row 2 column 2).
//! let mut cfg = TestbedConfig::ds5000_200_udp();
//! cfg.msg_size = 1024;
//! cfg.messages = 8;
//! let lat = experiments::round_trip_latency(&cfg);
//! assert!(lat.mean_us() > 100.0 && lat.mean_us() < 2000.0);
//! ```

pub mod config;
pub mod experiments;
pub mod fabric;
pub mod node;
pub mod report;
pub mod scenario;
pub mod testbed;

pub use config::{DataPath, Layer, TestbedConfig};
pub use experiments::{
    incast_throughput, receive_throughput, round_trip_latency, transmit_throughput, IncastReport,
    RxThroughputReport,
};
pub use fabric::{BackToBack, Delivery, Fabric, SwitchedFabric};
pub use node::{HostNode, NodeId, Role};
pub use scenario::{RunOutcome, Scenario};
pub use testbed::Testbed;

// Re-export the substrate crates so downstream users need one dependency.
pub use osiris_adc as adc;
pub use osiris_atm as atm;
pub use osiris_board as board;
pub use osiris_fbuf as fbuf;
pub use osiris_host as host;
pub use osiris_mem as mem;
pub use osiris_proto as proto;
pub use osiris_sim as sim;
