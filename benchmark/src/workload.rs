//! The four benchmark workloads: which scenario each runs, at what
//! length, and how every input is derived from the seed.
//!
//! All traffic is simulated; no real link or loopback is involved.
//! Every run builds its testbed from scratch, so the modelled caches
//! start empty and the receive free rings start full.

use osiris::atm::sar::ReassemblyMode;
use osiris::config::{TestbedConfig, TouchMode};
use osiris::proto::stack::CcScheme;
use osiris::sim::{FaultPlan, SimDuration};
use osiris::Scenario;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 2: one DS5000/200 absorbing 16 KB UDP/IP messages from its
    /// own receive processor, single-cell DMA, gated by the 48-buffer
    /// free ring. No tx, switch or transport.
    RxStream,
    /// Table 1: a back-to-back pair exchanging 1-byte UDP/IP messages,
    /// one outstanding, the client writing each message before it sends.
    PingPong,
    /// 64 reliable senders into one receiver through the bounded switch
    /// under 1 % uniform cell loss: the only workload with switch drops,
    /// retransmissions and timer-heavy queues.
    Incast64Lossy,
    /// 32 independent lossless, unreliable 8 KB streams through the
    /// switch: the same tx, switch and rx layers as the incast, but
    /// uncontended and with no transport.
    Pairs32,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::RxStream,
        Workload::PingPong,
        Workload::Incast64Lossy,
        Workload::Pairs32,
    ];

    /// The workload's name on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RxStream => "rx_stream",
            Workload::PingPong => "pingpong",
            Workload::Incast64Lossy => "incast64_lossy",
            Workload::Pairs32 => "pairs32",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn scenario(self) -> Scenario {
        match self {
            Workload::RxStream => Scenario::RxBench,
            Workload::PingPong => Scenario::Pair,
            Workload::Incast64Lossy => Scenario::Incast { senders: 64 },
            Workload::Pairs32 => Scenario::ManyPairs { pairs: 32 },
        }
    }

    /// Nodes that originate workload messages.
    fn sources(self) -> u64 {
        match self {
            Workload::RxStream | Workload::PingPong => 1,
            Workload::Incast64Lossy => 64,
            Workload::Pairs32 => 32,
        }
    }

    /// Messages per source in a measured run (`--quick`: about 1 %).
    /// Each run takes about 0.7–1.3 s on the reference host, so a timed
    /// run takes a median over many repetitions. The ping-pong's 100 001
    /// round trips give the 100 000 samples its p99.99 needs.
    pub fn length(self, quick: bool) -> u64 {
        let full = match self {
            Workload::RxStream => 7_000,
            Workload::PingPong => 100_001,
            Workload::Incast64Lossy => 80,
            Workload::Pairs32 => 200,
        };
        if quick {
            (full / 100).max(2)
        } else {
            full
        }
    }

    /// Messages per source in the anatomy run: at least 1024 PDUs traced
    /// end to end, so ten lie beyond the 99th percentile (a ping-pong
    /// round trip is two PDUs; the incast's acks are PDUs too).
    pub fn anatomy_length(self, quick: bool) -> u64 {
        let full = match self {
            Workload::RxStream => 1024,
            Workload::PingPong => 512,
            Workload::Incast64Lossy => 16,
            Workload::Pairs32 => 32,
        };
        if quick {
            (full / 16).max(1)
        } else {
            full
        }
    }

    /// Workload messages in a run of `length` per source: the unit of
    /// `msgs_per_s` (a ping-pong message is one round trip).
    pub fn messages(self, length: u64) -> u64 {
        length * self.sources()
    }

    /// One-way datagrams the workload asks the network to deliver.
    pub fn datagrams(self, length: u64) -> u64 {
        match self {
            Workload::PingPong => 2 * length,
            _ => self.messages(length),
        }
    }

    /// The scenario and its configuration for `length` messages per
    /// source. `seed` drives the frame allocator's scattering and, on
    /// the lossy incast, the fault plan.
    pub fn build(self, seed: u64, length: u64) -> (Scenario, TestbedConfig) {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.seed = seed;
        cfg.messages = length;
        cfg.warmup = 0;
        match self {
            Workload::RxStream => cfg.msg_size = 16 * 1024,
            Workload::PingPong => {
                cfg.msg_size = 1;
                cfg.touch = TouchMode::WritePerMessage;
            }
            Workload::Incast64Lossy => {
                cfg.msg_size = 1024;
                cfg.reliable = true;
                cfg.cc = CcScheme::Ecn;
                // Window 8 loses a message outright on some seeds (the
                // sender gives up after 16 retries); window 4 delivers
                // every message on every seed tried.
                cfg.window = 4;
                cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
                cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
                cfg.sim.faults = FaultPlan::uniform_loss(0.01, 4, seed);
                cfg.sim.faults.switch_max_queue_cells = Some(512);
                cfg.ecn_threshold_cells = Some(128);
            }
            Workload::Pairs32 => {
                cfg.msg_size = 8 * 1024;
                cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
            }
        }
        (self.scenario(), cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn seed_reaches_the_config_and_the_fault_plan() {
        let (_, cfg) = Workload::Incast64Lossy.build(7, 3);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.sim.faults.seed, 7);
        assert_eq!(cfg.messages, 3);
    }

    #[test]
    fn pingpong_asks_for_both_directions() {
        assert_eq!(Workload::PingPong.messages(10), 10);
        assert_eq!(Workload::PingPong.datagrams(10), 20);
        assert_eq!(Workload::Incast64Lossy.datagrams(10), 640);
    }
}
