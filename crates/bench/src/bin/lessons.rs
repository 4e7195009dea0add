//! Regenerates the in-text numbers and "lessons" of §2 and §3: the
//! results the paper states in prose rather than in a table or figure.

use osiris::board::descriptor::{DescRing, Descriptor, LockedRing};
use osiris::config::TestbedConfig;
use osiris::experiments::{dma_ceilings, interrupt_suppression, pio_vs_dma, skew_vs_merging};
use osiris::host::machine::{HostMachine, MachineSpec};
use osiris::host::wiring::WiringMode;
use osiris::mem::PhysAddr;
use osiris::proto::frag::{fragment_buffer_count, fragment_layout, page_aligned_mtu};
use osiris::report;
use osiris::sim::{SimDuration, SimTime};
use osiris::Scenario;
use osiris_bench::{bench_out_path, BenchSnapshot, Better};

fn section(title: &str) {
    println!("\n==== {title} ====");
}

fn main() {
    section("§2.5.1 DMA ceilings (TURBOchannel arithmetic)");
    let paper = [366.7, 463.2, 502.9, 586.7, 651.9];
    for (row, p) in dma_ceilings().into_iter().zip(paper) {
        println!(
            "{}",
            report::compare(&format!("{} B {}", row.0, row.1), p, row.2)
        );
    }
    println!("  (paper quotes 367 / 463 / 503 / 587 Mbps)");

    section("§2.1.2 interrupt cost and suppression");
    let ds = MachineSpec::ds5000_200();
    println!(
        "interrupt service: {} (paper: 75 us);  UDP/IP PDU service ≈ {} us (paper: ~200 us)",
        ds.costs.interrupt_service,
        (ds.costs.driver_pdu
            + ds.costs.driver_buffer
            + ds.costs.ip_fixed
            + ds.costs.udp_fixed
            + ds.costs.thread_dispatch
            + ds.costs.interrupt_service)
            .as_us_f64()
    );
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 4096;
    cfg.messages = 30;
    cfg.warmup = 3;
    let (per_pdu, transition) = interrupt_suppression(&cfg);
    println!(
        "interrupts per PDU under a 4 KB burst: traditional {per_pdu:.2}, OSIRIS {transition:.2}"
    );

    section("§2.2 physical buffer fragmentation (16 KB message)");
    for (label, mtu) in [
        ("MTU = 4 KB (misaligned)", 4096u32),
        (
            "MTU = page + IP header (aligned)",
            page_aligned_mtu(1, 4096),
        ),
    ] {
        let plan = fragment_layout(16 * 1024, mtu);
        let bufs: u32 = (0..plan.count())
            .map(|i| fragment_buffer_count(plan.offset_of(i) % 4096, plan.size(i), 4096))
            .sum();
        println!(
            "{label:<36} {} fragments, {bufs} physical buffers",
            plan.count()
        );
    }
    println!("  (paper: 'up to 14 physical buffers' misaligned; aligned boundaries fix it)");
    let (d, sg) = osiris::experiments::virtual_dma_setup_cost(MachineSpec::ds5000_200(), 4);
    println!(
        "16 KB message setup: {d:.1} us via per-buffer descriptors, {sg:.1} us via an\n\
         IOMMU scatter/gather map — 'fragmentation is a potential performance concern\n\
         even when virtual DMA is available'"
    );

    section("§2.3 lazy cache invalidation feasibility");
    println!(
        "receive rotation: 48 buffers x 16 KB = {} KB >> 64 KB data cache;",
        48 * 16
    );
    println!("a line must survive 47 intervening buffers to go stale — the paper saw none.");
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 16 * 1024;
    cfg.messages = 16;
    cfg.warmup = 2;
    use osiris::experiments::receive_throughput;
    use osiris::host::driver::CacheStrategy;
    let lazy = receive_throughput(&cfg).mbps;
    cfg.cache_strategy = CacheStrategy::Eager;
    let eager = receive_throughput(&cfg).mbps;
    println!("16 KB receive throughput: lazy {lazy:.0} Mbps vs eager-invalidate {eager:.0} Mbps");

    section("§2.4 page wiring");
    let h = HostMachine::boot(MachineSpec::ds5000_200(), 1);
    println!(
        "per-page cost: Mach standard {} vs low-level {} (authors switched to the latter)",
        WiringMode::MachStandard.cost_per_page(&h),
        WiringMode::LowLevel.cost_per_page(&h)
    );

    section("§2.6 striping skew vs double-cell combining");
    let (aligned, skewed) = skew_vs_merging(MachineSpec::ds5000_200());
    println!(
        "double-cell merges per cell: aligned lanes {aligned:.2}, mux-skewed lanes {skewed:.2}"
    );
    println!("  ('once skew is introduced, the probability that two successive cells");
    println!("    will be received in order is greatly reduced')");

    section("§2.7 DMA versus PIO (application access rate, 64 KB)");
    for m in [MachineSpec::ds5000_200(), MachineSpec::dec3000_600()] {
        let (pio, dma) = pio_vs_dma(m);
        println!(
            "{:<14} PIO {pio:>6.0} Mbps   DMA+CPU-read {dma:>6.0} Mbps",
            m.name
        );
    }
    println!("  (and CPU-side checksum on the 5000/200 caps near the paper's 80 Mbps)");

    section("§2.1.1 lock-free vs test-and-set queues (contended enqueue latency)");
    lock_comparison();

    section("§3.1 moving 16 KB across a protection domain (us per message)");
    for m in [MachineSpec::ds5000_200(), MachineSpec::dec3000_600()] {
        let (copy, uncached, cached) = osiris::experiments::cross_domain_delivery(m, 16 * 1024);
        println!(
            "{:<14} copy {copy:>6.0}   uncached fbuf {uncached:>5.0}   cached fbuf {cached:>4.0}  ({:.0}x)",
            m.name,
            uncached / cached
        );
    }
    println!("  (paper: cached vs uncached is 'an order of magnitude difference';");
    println!("   copying is what fbufs exist to avoid)");

    section("§3.1 prioritised traffic under receiver overload");
    let r = osiris::experiments::priority_under_overload(MachineSpec::ds5000_200(), 24);
    println!(
        "high priority: {}/{} delivered;  low priority: {}/{} delivered, {} shed on the board",
        r.hi_delivered, r.hi_offered, r.lo_delivered, r.lo_offered, r.shed_on_board
    );
    println!(
        "host buffer pops spent on shed PDUs: {} ('before they have consumed any",
        r.host_work_for_shed
    );
    println!("  processing resources on the host')");

    section("critical-path attribution over a 1024 B ping-pong (µs per stage)");
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 8;
    let anatomy = osiris::experiments::stage_anatomy(Scenario::Pair, &cfg);
    print!(
        "{}",
        report::stage_table(
            &format!("stage percentiles over {} traced PDUs", anatomy.pdus),
            &anatomy.stages,
            &anatomy.e2e,
        )
    );
    if let Some(warn) = report::dropped_spans_warning(&anatomy.snapshot) {
        println!("{warn}");
    }

    if let Some(path) = bench_out_path() {
        let mut snap = BenchSnapshot::new("lessons");
        snap.headline(
            "interrupts_per_pdu_suppressed",
            transition,
            "intr/PDU",
            Better::Lower,
        );
        snap.headline("rx_16k_lazy_mbps", lazy, "Mbps", Better::Higher);
        snap.headline("e2e_p99_1024b_us", anatomy.e2e.p99, "us", Better::Lower);
        snap.set_anatomy(&anatomy);
        std::fs::write(&path, snap.to_json()).expect("write bench snapshot");
        eprintln!("wrote {path}");
    }

    section("§3.2 ADC data-path savings");
    let h = HostMachine::boot(MachineSpec::ds5000_200(), 1);
    println!(
        "domain crossings avoided per message: 2 x syscall = {}",
        SimDuration::from_ps(h.spec.costs.syscall.as_ps() * 2)
    );
    println!("run `table1 -- --adc` for the end-to-end latency comparison.");
}

/// §2.1.1: compare enqueue latency for the lock-free ring vs the
/// test-and-set ring when host and board hit the queue back to back.
fn lock_comparison() {
    let d = Descriptor::tx(PhysAddr(0x1000), 100, osiris::atm::Vci(1), true);
    // Lock-free: producer check + push, no serialisation against the
    // consumer. TURBOchannel costs: 1 load + 4 stores.
    let mut free_ring = DescRing::new(64);
    let (_, c1) = free_ring.producer_check();
    let c2 = free_ring.push(d).unwrap();
    let tc_cycle_ns = 40.0;
    let lock_free_ns = (c1.loads + c2.loads) as f64 * 15.0 * tc_cycle_ns
        + (c1.stores + c2.stores) as f64 * 3.0 * tc_cycle_ns;

    // Locked: same ring work plus lock acquire/release, and the host must
    // wait out the board's critical section (2 us hold, arriving midway).
    let mut locked = LockedRing::new(64);
    let hold = SimDuration::from_us(2);
    // Board holds the lock first.
    let (_, _, _) = locked.with_lock(SimTime::ZERO, hold, |r| r.push(d).unwrap());
    let (_, grant, costs) = locked.with_lock(SimTime::from_us(1), hold, |r| r.pop());
    let waited = grant.start.since(SimTime::from_us(1));
    let locked_ns = lock_free_ns
        + (costs.loads as f64 * 15.0 + costs.stores as f64 * 3.0) * tc_cycle_ns
        + waited.as_ns_f64();

    println!(
        "lock-free enqueue:   {:>7.0} ns (no waiting possible)",
        lock_free_ns
    );
    println!(
        "test-and-set enqueue:{:>7.0} ns (incl. {} waiting on the peer)",
        locked_ns, waited
    );
}
