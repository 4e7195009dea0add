//! Cross-crate integration tests: the full two-host testbed, end to end.

use osiris::atm::sar::ReassemblyMode;
use osiris::atm::stripe::SkewConfig;
use osiris::board::dma::DmaMode;
use osiris::config::{DataPath, Layer, TestbedConfig, TouchMode};
use osiris::experiments::{receive_throughput, round_trip_latency, transmit_throughput};
use osiris::sim::SimDuration;

fn base() -> TestbedConfig {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.messages = 5;
    cfg
}

#[test]
fn latency_grows_monotonically_with_size() {
    let mut last = 0.0;
    for size in [1u64, 512, 4096, 20_000] {
        let mut cfg = base();
        cfg.msg_size = size;
        cfg.touch = TouchMode::WritePerMessage;
        let lat = round_trip_latency(&cfg);
        assert!(
            lat.mean_us() > last,
            "latency must grow with size: {} us at {size} B after {last}",
            lat.mean_us()
        );
        last = lat.mean_us();
    }
}

#[test]
fn udp_costs_more_than_raw_atm_everywhere() {
    for size in [1u64, 4096] {
        let mut udp = base();
        udp.msg_size = size;
        let mut atm = base();
        atm.layer = Layer::RawAtm;
        atm.msg_size = size;
        assert!(round_trip_latency(&udp).mean_us() > round_trip_latency(&atm).mean_us());
    }
}

#[test]
fn multi_fragment_udp_messages_survive_the_full_path() {
    // 100 KB = 7 fragments; exercises IP reassembly over real buffers.
    let mut cfg = base();
    cfg.msg_size = 100_000;
    cfg.messages = 3;
    let lat = round_trip_latency(&cfg); // asserts verify_failures == 0 inside
    assert_eq!(lat.count(), 3);
}

#[test]
fn raw_atm_large_pdus_chain_buffers() {
    let mut cfg = base();
    cfg.layer = Layer::RawAtm;
    cfg.msg_size = 60_000; // 4 receive buffers per PDU
    cfg.messages = 3;
    let lat = round_trip_latency(&cfg);
    assert_eq!(lat.count(), 3);
}

#[test]
fn adc_equals_kernel_but_user_pays_crossings() {
    let run = |path| {
        let mut cfg = base();
        cfg.msg_size = 2048;
        cfg.data_path = path;
        round_trip_latency(&cfg).mean_us()
    };
    let kernel = run(DataPath::Kernel);
    let adc = run(DataPath::Adc);
    let user = run(DataPath::UserViaKernel);
    assert!(
        (adc - kernel).abs() / kernel < 0.05,
        "ADC {adc} vs kernel {kernel}"
    );
    // Two crossings per message, four per round trip: 4 × 20 us = 80 us.
    assert!(user > kernel + 60.0, "user {user} vs kernel {kernel}");
}

#[test]
fn double_cell_dma_beats_single_cell_on_receive() {
    let mut cfg = base();
    cfg.msg_size = 32 * 1024;
    cfg.messages = 12;
    cfg.warmup = 2;
    let single = receive_throughput(&cfg).mbps;
    cfg.rx_dma = DmaMode::DoubleCell;
    let double = receive_throughput(&cfg).mbps;
    assert!(double > single * 1.05, "double {double} vs single {single}");
}

#[test]
fn alpha_receive_approaches_link_payload_rate() {
    let mut cfg = TestbedConfig::dec3000_600_udp();
    cfg.msg_size = 128 * 1024;
    cfg.messages = 10;
    cfg.warmup = 2;
    cfg.rx_dma = DmaMode::DoubleCell;
    let mbps = receive_throughput(&cfg).mbps;
    assert!(
        (450.0..560.0).contains(&mbps),
        "expected near 516 Mbps, got {mbps}"
    );
}

#[test]
fn transmit_is_bounded_by_single_cell_ceiling() {
    for mk in [
        TestbedConfig::ds5000_200_udp,
        TestbedConfig::dec3000_600_udp,
    ] {
        let mut cfg = mk();
        cfg.msg_size = 64 * 1024;
        cfg.messages = 10;
        cfg.warmup = 2;
        let mbps = transmit_throughput(&cfg);
        assert!(
            mbps < 367.0,
            "{}: tx {mbps} exceeds the 367 Mbps ceiling",
            cfg.machine.name
        );
        assert!(
            mbps > 150.0,
            "{}: tx {mbps} implausibly slow",
            cfg.machine.name
        );
    }
}

#[test]
fn skewed_stripes_work_with_both_strategies() {
    for reassembly in [
        ReassemblyMode::FourWay { lanes: 4 },
        ReassemblyMode::SeqNum { max_cells: 4096 },
    ] {
        let mut cfg = base();
        cfg.msg_size = 10_000;
        cfg.messages = 4;
        cfg.skew = SkewConfig::mux_skew();
        cfg.reassembly = reassembly;
        let lat = round_trip_latency(&cfg);
        assert_eq!(lat.count(), 4, "{reassembly:?} under skew");
    }
}

#[test]
fn switch_queueing_jitter_is_survivable_with_fourway() {
    let mut cfg = base();
    cfg.msg_size = 6000;
    cfg.messages = 4;
    cfg.skew = SkewConfig::switch_queueing(SimDuration::from_us(15));
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    let lat = round_trip_latency(&cfg);
    assert_eq!(lat.count(), 4);
}

#[test]
fn experiments_are_deterministic_per_seed() {
    let mut cfg = base();
    cfg.msg_size = 3000;
    let a = round_trip_latency(&cfg);
    let b = round_trip_latency(&cfg);
    assert_eq!(
        a.mean_us().to_bits(),
        b.mean_us().to_bits(),
        "same seed, same result"
    );
    let mut cfg2 = cfg.clone();
    cfg2.seed = 777;
    // A different seed changes frame placement; results stay in family but
    // need not be bit-identical.
    let c = round_trip_latency(&cfg2);
    assert!((c.mean_us() - a.mean_us()).abs() / a.mean_us() < 0.2);
}

#[test]
fn eager_invalidation_costs_throughput_on_the_decstation() {
    use osiris::host::driver::CacheStrategy;
    let mut cfg = base();
    cfg.msg_size = 32 * 1024;
    cfg.messages = 12;
    cfg.warmup = 2;
    let lazy = receive_throughput(&cfg).mbps;
    cfg.cache_strategy = CacheStrategy::Eager;
    let eager = receive_throughput(&cfg).mbps;
    assert!(lazy > eager * 1.15, "lazy {lazy} vs eager {eager}");
}
