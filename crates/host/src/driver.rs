//! The kernel OSIRIS device driver.
//!
//! Implements the host side of the §2.1 protocol:
//!
//! * **Transmit**: wire the PDU's pages (§2.4, amortised — already-wired
//!   pages are free), check the lock-free transmit ring for space with a
//!   single TURBOchannel load, push one descriptor per physical buffer
//!   (chained PDUs, §2.5.2), and advance the head pointer. A full queue
//!   blocks the caller; the board wakes it at half-empty (§2.1.2).
//! * **Receive**: the interrupt handler schedules a drain thread that pops
//!   descriptors until the ring is empty, applies the configured cache
//!   strategy (§2.3), assembles buffer chains into PDUs, and hands them
//!   up. Consumed buffers are recycled to the *same path's* free ring —
//!   the per-stream-reuse rule that makes lazy invalidation safe even for
//!   unreliable protocols (§2.3, condition 3).
//!
//! The driver charges every cost it incurs: CPU time for bookkeeping,
//! TURBOchannel words for ring operations (the `RingCosts` reported by the
//! queue), and invalidation cycles per the cache strategy.

use osiris_atm::Vci;
use osiris_board::descriptor::{Descriptor, RingCosts};
use osiris_board::rx::RxProcessor;
use osiris_board::tx::TxProcessor;
use osiris_mem::{AddressSpace, PhysBuffer, VirtAddr};
use osiris_sim::obs::{Counter, Probe};
use osiris_sim::{FxHashMap, SimDuration, SimTime, SmallVec, Timeline, TraceCtx};

use crate::machine::HostMachine;
use crate::wiring::WiringService;

/// How the driver keeps the data cache honest after DMA (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStrategy {
    /// Invalidate every received buffer before delivery (pessimistic; the
    /// "single cell DMA, cache invalidated" series of Figure 2).
    Eager,
    /// Deliver without invalidating; rely on protocol checksums to detect
    /// stale reads and recover by invalidate-and-retry.
    Lazy,
    /// The hardware keeps the cache coherent (DEC 3000/600); nothing to do.
    HardwareCoherent,
}

/// A PDU's receive descriptors, in order: inline up to four buffers (a
/// 64 KB PDU in the paper's 16 KB receive buffers; every measured PDU
/// fits in one), spilling to the heap beyond.
pub type RxChain = SmallVec<Descriptor, 4>;

/// A PDU assembled from receive descriptors, ready for the protocol stack.
#[derive(Debug, Clone)]
pub struct DeliveredPdu {
    /// The PDU's VCI (the path key).
    pub vci: Vci,
    /// The buffers holding the data, in order.
    pub bufs: RxChain,
    /// Total data length.
    pub len: u32,
    /// When the driver finished its work on this PDU.
    pub ready_at: SimTime,
    /// Causal identity, taken from the PDU's descriptors (None when the
    /// board delivered untraced traffic).
    pub ctx: Option<TraceCtx>,
}

/// Result of one receive drain. The caller keeps one and hands it to
/// every [`OsirisDriver::drain_receive`], so the delivery list is reused.
#[derive(Debug, Default)]
pub struct DrainOutcome {
    /// PDUs handed to the protocol stack, in completion order.
    pub delivered: Vec<DeliveredPdu>,
    /// When the drain thread went back to sleep.
    pub finished_at: SimTime,
}

/// Result of a transmit attempt.
#[derive(Debug, Clone, Copy)]
pub struct SendOutcome {
    /// When the descriptors became visible to the board (meaningless if
    /// `blocked`).
    pub queued_at: SimTime,
    /// True if the ring was full; the caller must retry after the wakeup.
    pub blocked: bool,
}

/// The kernel driver instance for one queue page.
#[derive(Debug)]
pub struct OsirisDriver {
    /// Cache strategy in force.
    pub cache_strategy: CacheStrategy,
    /// Wiring service in force.
    pub wiring: WiringService,
    /// The dual-port queue page this driver manages (kernel: 0).
    pub page: usize,
    buffer_bytes: u32,
    /// Each VCI's in-progress chain; the entry stays (empty) between PDUs.
    partial: FxHashMap<Vci, RxChain>,
    /// When each in-progress chain's first descriptor was popped, for the
    /// per-PDU receive span.
    chain_started: FxHashMap<Vci, SimTime>,
    stats: DriverCounters,
    timeline: Timeline,
    /// Timeline track for this driver's CPU spans (`<scope>.driver`).
    track: String,
    /// The driver runs on one CPU: successive per-PDU spans on this track
    /// are clamped so they never overlap.
    span_floor: SimTime,
}

/// The driver's registry-visible counters (scope `<probe>.driver`).
#[derive(Debug, Clone)]
struct DriverCounters {
    pdus_sent: Counter,
    tx_buffers: Counter,
    tx_blocks: Counter,
    pdus_received: Counter,
    rx_buffers: Counter,
    err_pdus: Counter,
    recycled: Counter,
}

impl DriverCounters {
    fn with_probe(probe: &Probe) -> Self {
        let p = probe.scoped("driver");
        DriverCounters {
            pdus_sent: p.counter("pdus_sent"),
            tx_buffers: p.counter("tx_buffers"),
            tx_blocks: p.counter("tx_blocks"),
            pdus_received: p.counter("pdus_received"),
            rx_buffers: p.counter("rx_buffers"),
            err_pdus: p.counter("err_pdus"),
            recycled: p.counter("recycled"),
        }
    }
}

impl OsirisDriver {
    /// A driver for `page` using `buffer_bytes` receive buffers,
    /// publishing its counters under `<scope>.driver`.
    pub fn with_probe(
        page: usize,
        buffer_bytes: u32,
        cache_strategy: CacheStrategy,
        wiring: WiringService,
        probe: &Probe,
    ) -> Self {
        OsirisDriver {
            cache_strategy,
            wiring,
            page,
            buffer_bytes,
            partial: FxHashMap::default(),
            chain_started: FxHashMap::default(),
            stats: DriverCounters::with_probe(probe),
            timeline: Timeline::default(),
            track: probe.scoped("driver").scope().to_string(),
            span_floor: SimTime::ZERO,
        }
    }

    /// Attaches the timeline this driver records its per-PDU spans on
    /// (disabled/detached by default).
    pub fn set_timeline(&mut self, timeline: &Timeline) {
        self.timeline = timeline.clone();
    }

    /// Allocates `count` physically contiguous, permanently wired receive
    /// buffers and loads them into this page's free ring. Returns when the
    /// provisioning completed (boot-time cost, not in any critical path).
    pub fn provision_receive_buffers(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        rx: &mut RxProcessor,
        count: usize,
    ) -> SimTime {
        let pages_per_buf = (self.buffer_bytes as usize).div_ceil(host.spec.page_size);
        let mut t = now;
        for _ in 0..count {
            let frames = host
                .alloc
                .alloc_contiguous(pages_per_buf)
                .expect("contiguous receive-buffer pool exhausted");
            let addr = host.phys.frame_addr(frames[0]);
            let desc = Descriptor::tx(addr, self.buffer_bytes, Vci(0), false);
            let cost = rx
                .free_ring_mut(self.page)
                .push(desc)
                .expect("free ring sized for provisioning");
            t = self.charge_ring(t, host, cost);
        }
        t
    }

    /// Queues one PDU (a chain of physical buffers) on transmit queue
    /// `self.page`. `wire` names the virtual range to pin first, if any;
    /// `ctx` is stamped onto every descriptor of the chain for tracing.
    #[allow(clippy::too_many_arguments)]
    pub fn send_pdu(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        tx: &mut TxProcessor,
        vci: Vci,
        buffers: &[PhysBuffer],
        wire: Option<(&mut AddressSpace, VirtAddr, u64)>,
        ctx: Option<TraceCtx>,
    ) -> SendOutcome {
        assert!(!buffers.is_empty(), "cannot send an empty PDU");
        let mut t = now;

        // §2.4: pin the pages (amortised; re-wiring is free).
        if let Some((asp, va, len)) = wire {
            let (g, _) = self
                .wiring
                .wire(t, host, asp, va, len)
                .expect("wiring unmapped PDU");
            t = g.finish;
        }

        // One load to check for space; the ring must fit the whole chain.
        let ring = tx.queue(self.page);
        let (_, check_cost) = ring.producer_check();
        t = self.charge_ring(t, host, check_cost);
        if (ring.capacity() - ring.len()) < buffers.len() as u32 {
            self.stats.tx_blocks.incr();
            tx.set_host_waiting(self.page);
            return SendOutcome {
                queued_at: t,
                blocked: true,
            };
        }

        // Per-PDU and per-buffer driver work (§2.2's multiplier).
        t = host.run_software(t, host.spec.costs.driver_pdu).finish;
        let n = buffers.len();
        for (i, b) in buffers.iter().enumerate() {
            t = host.run_software(t, host.spec.costs.driver_buffer).finish;
            let d = Descriptor::tx(b.addr, b.len, vci, i == n - 1).with_ctx(ctx);
            let cost = tx
                .queue_mut(self.page)
                .push(d)
                .expect("space checked above");
            t = self.charge_ring(t, host, cost);
            self.stats.tx_buffers.incr();
        }
        self.stats.pdus_sent.incr();
        if let Some(c) = ctx.filter(|_| self.timeline.is_enabled()) {
            let from = now.max(self.span_floor);
            if t > from {
                self.timeline.span_ctx(&self.track, "driver.tx", c, from, t);
                self.span_floor = t;
            }
        }
        SendOutcome {
            queued_at: t,
            blocked: false,
        }
    }

    /// Drains this page's receive ring: called from the thread the
    /// interrupt handler scheduled (the caller charges interrupt +
    /// dispatch and passes the resulting start time). `out` is cleared
    /// and refilled: the delivered PDUs in completion order, and when
    /// the drain thread went back to sleep.
    pub fn drain_receive(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        rx: &mut RxProcessor,
        out: &mut DrainOutcome,
    ) {
        out.delivered.clear();
        let mut t = now;
        loop {
            // "wait until the receive queue is not empty" — one load.
            let (empty, check) = rx.rx_ring(self.page).consumer_check();
            t = self.charge_ring(t, host, check);
            if empty {
                break;
            }
            let t_desc = t;
            let (desc, cost) = rx.rx_ring_mut(self.page).pop().expect("checked non-empty");
            t = self.charge_ring(t, host, cost);
            t = host.run_software(t, host.spec.costs.driver_buffer).finish;
            self.stats.rx_buffers.incr();

            // §2.3: cache strategy, charged per buffer before delivery.
            if self.cache_strategy == CacheStrategy::Eager {
                t = host
                    .invalidate_cache(t, desc.addr, desc.len as usize)
                    .finish;
            }

            let chain = self.partial.entry(desc.vci).or_default();
            if chain.is_empty() {
                self.chain_started.insert(desc.vci, t_desc);
            }
            chain.push(desc);
            if desc.eop {
                let bufs = std::mem::take(chain);
                let started = self.chain_started.remove(&desc.vci).unwrap_or(now);
                t = host.run_software(t, host.spec.costs.driver_pdu).finish;
                if desc.err {
                    // Board-flagged CRC failure: recycle, never deliver.
                    self.stats.err_pdus.incr();
                    t = self.recycle(t, host, rx, &bufs);
                } else {
                    let len = bufs.iter().map(|d| d.len).sum();
                    let ctx = bufs.iter().find_map(|d| d.ctx);
                    if let Some(c) = ctx.filter(|_| self.timeline.is_enabled()) {
                        let from = started.max(self.span_floor);
                        if t > from {
                            self.timeline.span_ctx(&self.track, "driver.rx", c, from, t);
                            self.span_floor = t;
                        }
                    }
                    self.stats.pdus_received.incr();
                    out.delivered.push(DeliveredPdu {
                        vci: desc.vci,
                        bufs,
                        len,
                        ready_at: t,
                        ctx,
                    });
                }
            }
        }
        out.finished_at = t;
    }

    /// Returns consumed buffers to this page's free ring (per-path reuse:
    /// the §2.3 security rule falls out of the page-per-path structure).
    pub fn recycle(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        rx: &mut RxProcessor,
        bufs: &[Descriptor],
    ) -> SimTime {
        let mut t = now;
        for d in bufs {
            // Reset to a full-size, flag-free free buffer.
            let fresh = Descriptor::tx(d.addr, self.buffer_bytes, Vci(0), false);
            let cost = rx
                .free_ring_mut(self.page)
                .push(fresh)
                .expect("free ring cannot overflow: buffers are conserved");
            t = self.charge_ring(t, host, cost);
            self.stats.recycled.incr();
        }
        t
    }

    /// Charges a ring operation's loads/stores as TURBOchannel PIO, with
    /// the CPU stalled for the duration.
    fn charge_ring(&self, now: SimTime, host: &mut HostMachine, cost: RingCosts) -> SimTime {
        let mut t = now.max(host.cpu.free_at());
        if cost.loads > 0 {
            let g = host.mem_sys.pio_read(t, cost.loads);
            host.cpu.acquire(g.start, g.finish.since(g.start));
            t = g.finish;
        }
        if cost.stores > 0 {
            let g = host.mem_sys.pio_write(t, cost.stores);
            host.cpu.acquire(g.start, g.finish.since(g.start));
            t = g.finish;
        }
        t
    }
}

/// Convenience: the end-to-end cost of taking the receive interrupt and
/// waking the drain thread (what stands between a descriptor push and
/// [`OsirisDriver::drain_receive`]).
pub fn interrupt_to_thread(now: SimTime, host: &mut HostMachine) -> SimTime {
    let g = host.take_interrupt(now);
    let d = host.run_software(g.finish, host.spec.costs.thread_dispatch);
    d.finish
}

/// The §2.7 programmed-I/O alternative: the CPU copies `bytes` from the
/// board FIFO into an application buffer, leaving the data in the cache.
/// Returns the completion time. (No DMA, no invalidation — but every word
/// crosses the TURBOchannel at PIO-read cost and is written through to
/// memory.)
pub fn pio_receive(now: SimTime, host: &mut HostMachine, bytes: u64) -> SimTime {
    let words = bytes.div_ceil(4);
    let g = host.mem_sys.pio_read(now, words);
    host.cpu.acquire(g.start, g.finish.since(g.start));
    // Write the data to the app buffer (write-through traffic).
    let w = host.mem_sys.cpu_mem_access(g.finish, words * 4);
    let c = host.run_cpu(
        g.finish,
        SimDuration::from_ps(host.spec.cpu_clock.cycles(words).as_ps()),
    );
    w.finish.max(c.finish)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;
    use crate::wiring::WiringMode;
    use osiris_atm::stripe::SkewConfig;
    use osiris_atm::{CellSlab, LinkSpec, StripedLink};
    use osiris_board::dpram::DpramLayout;
    use osiris_board::rx::RxConfig;
    use osiris_board::tx::TxConfig;
    use osiris_mem::PhysAddr;
    use osiris_sim::Registry;

    struct Rig {
        host: HostMachine,
        tx: TxProcessor,
        rx: RxProcessor,
        drv: OsirisDriver,
        /// Holds the driver's counters under `driver.*`.
        reg: Registry,
        link: StripedLink,
        slab: CellSlab,
    }

    fn rig() -> Rig {
        let host = HostMachine::boot(MachineSpec::ds5000_200(), 5);
        let tx = TxProcessor::new(TxConfig::paper_default(), DpramLayout::paper_default());
        let rx = RxProcessor::new(RxConfig::paper_default(), DpramLayout::paper_default());
        let reg = Registry::new();
        let drv = OsirisDriver::with_probe(
            0,
            16 * 1024,
            CacheStrategy::Lazy,
            WiringService {
                mode: WiringMode::LowLevel,
            },
            &reg.probe(""),
        );
        let link = StripedLink::new(LinkSpec::sts3c_back_to_back(), &SkewConfig::none());
        Rig {
            host,
            tx,
            rx,
            drv,
            reg,
            link,
            slab: CellSlab::new(),
        }
    }

    #[test]
    fn provisioning_fills_free_ring() {
        let mut r = rig();
        let t = r
            .drv
            .provision_receive_buffers(SimTime::ZERO, &mut r.host, &mut r.rx, 16);
        assert_eq!(r.rx.free_ring(0).len(), 16);
        assert!(t > SimTime::ZERO, "provisioning costs TURBOchannel stores");
    }

    #[test]
    fn send_queues_descriptor_chain() {
        let mut r = rig();
        let bufs = [
            PhysBuffer::new(PhysAddr(0x8000), 3000),
            PhysBuffer::new(PhysAddr(0x10000), 1096),
        ];
        let out = r.drv.send_pdu(
            SimTime::ZERO,
            &mut r.host,
            &mut r.tx,
            Vci(9),
            &bufs,
            None,
            None,
        );
        assert!(!out.blocked);
        assert_eq!(r.tx.queue(0).len(), 2);
        let descs: Vec<_> = r.tx.queue(0).iter_live().copied().collect();
        assert!(!descs[0].eop);
        assert!(descs[1].eop);
        assert_eq!(r.reg.snapshot().counters["driver.pdus_sent"], 1);
        // The board can now transmit it.
        let t = r.tx.service(
            out.queued_at,
            &mut r.host.mem_sys,
            &r.host.phys,
            &mut r.link,
            &mut r.slab,
        );
        assert_eq!(t.unwrap().pdu_bytes, 4096);
    }

    #[test]
    fn full_ring_blocks_and_sets_waiting() {
        let mut r = rig();
        let buf = [PhysBuffer::new(PhysAddr(0x8000), 100)];
        let mut t = SimTime::ZERO;
        let mut blocked = false;
        for _ in 0..70 {
            let out = r
                .drv
                .send_pdu(t, &mut r.host, &mut r.tx, Vci(1), &buf, None, None);
            t = out.queued_at;
            if out.blocked {
                blocked = true;
                break;
            }
        }
        assert!(blocked, "63-slot ring must fill");
        assert_eq!(r.reg.snapshot().counters["driver.tx_blocks"], 1);
    }

    #[test]
    fn wiring_is_amortised_across_sends() {
        let mut r = rig();
        let mut asp = AddressSpace::new(4096);
        let region = asp.alloc_and_map(8192, &mut r.host.alloc).unwrap();
        let bufs = asp.translate(region.base, 8192).unwrap();
        let o1 = r.drv.send_pdu(
            SimTime::ZERO,
            &mut r.host,
            &mut r.tx,
            Vci(1),
            &bufs,
            Some((&mut asp, region.base, region.len)),
            None,
        );
        // Second send of the same (already wired) region starts from o1 time.
        let o2 = r.drv.send_pdu(
            o1.queued_at,
            &mut r.host,
            &mut r.tx,
            Vci(1),
            &bufs,
            Some((&mut asp, region.base, region.len)),
            None,
        );
        let d1 = o1.queued_at.since(SimTime::ZERO);
        let d2 = o2.queued_at.since(o1.queued_at);
        assert!(d2 < d1, "re-wiring must be free: {d1} vs {d2}");
    }

    /// End-to-end through the board: host A sends, board delivers to rx,
    /// driver drains, data intact.
    #[test]
    fn loopback_send_receive_roundtrip() {
        let mut r = rig();
        r.drv
            .provision_receive_buffers(SimTime::ZERO, &mut r.host, &mut r.rx, 8);
        // Place a message in memory.
        let msg: Vec<u8> = (0..5000u32).map(|i| (i % 253) as u8).collect();
        r.host.phys.write(PhysAddr(0x10_0000), &msg);
        let bufs = [PhysBuffer::new(PhysAddr(0x10_0000), 5000)];
        let out = r.drv.send_pdu(
            SimTime::ZERO,
            &mut r.host,
            &mut r.tx,
            Vci(7),
            &bufs,
            None,
            None,
        );
        r.tx.service(
            out.queued_at,
            &mut r.host.mem_sys,
            &r.host.phys,
            &mut r.link,
            &mut r.slab,
        )
        .expect("PDU queued");
        // Feed arrivals into the same host's rx half (loopback).
        let mut intr_at = None;
        for &(at, lane, cr) in r.tx.arrivals() {
            let o = r.rx.receive_cell(
                at,
                lane,
                &r.slab.remove(cr),
                &mut r.host.mem_sys,
                &mut r.host.cache,
                &mut r.host.phys,
            );
            if let Some(t) = o.interrupt_at {
                intr_at.get_or_insert(t);
            }
        }
        let t = interrupt_to_thread(intr_at.expect("one interrupt"), &mut r.host);
        let mut drained = DrainOutcome::default();
        r.drv.drain_receive(t, &mut r.host, &mut r.rx, &mut drained);
        assert_eq!(drained.delivered.len(), 1);
        let pdu = &drained.delivered[0];
        assert_eq!(pdu.len, 5000);
        assert_eq!(pdu.vci, Vci(7));
        // Verify delivered bytes.
        let d = &pdu.bufs[0];
        assert_eq!(r.host.phys.read(d.addr, 5000), &msg[..]);
        // Recycle returns the buffer to the free ring.
        let before = r.rx.free_ring(0).len();
        r.drv
            .recycle(drained.finished_at, &mut r.host, &mut r.rx, &pdu.bufs);
        assert_eq!(r.rx.free_ring(0).len(), before + 1);
    }

    #[test]
    fn eager_strategy_costs_more_than_lazy() {
        // Deliver the same PDU under both strategies; eager pays the
        // invalidation cycles.
        fn run(strategy: CacheStrategy) -> SimDuration {
            let mut r = rig();
            r.drv.cache_strategy = strategy;
            r.drv
                .provision_receive_buffers(SimTime::ZERO, &mut r.host, &mut r.rx, 8);
            let msg = vec![1u8; 16 * 1024 - 100];
            r.host.phys.write(PhysAddr(0x10_0000), &msg);
            let bufs = [PhysBuffer::new(PhysAddr(0x10_0000), msg.len() as u32)];
            let out = r.drv.send_pdu(
                SimTime::ZERO,
                &mut r.host,
                &mut r.tx,
                Vci(1),
                &bufs,
                None,
                None,
            );
            let txo =
                r.tx.service(
                    out.queued_at,
                    &mut r.host.mem_sys,
                    &r.host.phys,
                    &mut r.link,
                    &mut r.slab,
                )
                .unwrap();
            for &(at, lane, cr) in r.tx.arrivals() {
                r.rx.receive_cell(
                    at,
                    lane,
                    &r.slab.remove(cr),
                    &mut r.host.mem_sys,
                    &mut r.host.cache,
                    &mut r.host.phys,
                );
            }
            let start = txo.finished_at + SimDuration::from_us(100);
            let mut o = DrainOutcome::default();
            r.drv.drain_receive(start, &mut r.host, &mut r.rx, &mut o);
            o.finished_at.since(start)
        }
        let lazy = run(CacheStrategy::Lazy);
        let eager = run(CacheStrategy::Eager);
        // 16 KB = 4096 words ≈ 164 us of invalidation at 1 cycle/word.
        assert!(
            eager.as_ps() > lazy.as_ps() + SimDuration::from_us(100).as_ps(),
            "eager {eager} should exceed lazy {lazy} by the invalidate cost"
        );
    }

    #[test]
    fn board_flagged_crc_error_is_recycled_not_delivered() {
        let mut r = rig();
        r.drv
            .provision_receive_buffers(SimTime::ZERO, &mut r.host, &mut r.rx, 8);
        let msg = vec![5u8; 2000];
        r.host.phys.write(PhysAddr(0x10_0000), &msg);
        let bufs = [PhysBuffer::new(PhysAddr(0x10_0000), 2000)];
        let out = r.drv.send_pdu(
            SimTime::ZERO,
            &mut r.host,
            &mut r.tx,
            Vci(1),
            &bufs,
            None,
            None,
        );
        let txo =
            r.tx.service(
                out.queued_at,
                &mut r.host.mem_sys,
                &r.host.phys,
                &mut r.link,
                &mut r.slab,
            )
            .unwrap();
        let free_before = r.rx.free_ring(0).len();
        for (i, &(at, lane, cr)) in r.tx.arrivals().iter().enumerate() {
            if i == 1 {
                r.slab.get_mut(cr).corrupt_bit(3, 3);
            }
            r.rx.receive_cell(
                at,
                lane,
                &r.slab.remove(cr),
                &mut r.host.mem_sys,
                &mut r.host.cache,
                &mut r.host.phys,
            );
        }
        let mut o = DrainOutcome::default();
        r.drv.drain_receive(
            txo.finished_at + SimDuration::from_ms(1),
            &mut r.host,
            &mut r.rx,
            &mut o,
        );
        assert!(o.delivered.is_empty());
        assert_eq!(r.reg.snapshot().counters["driver.err_pdus"], 1);
        assert_eq!(r.rx.free_ring(0).len(), free_before, "buffer recycled");
    }

    #[test]
    fn pio_receive_is_slower_than_dma_path() {
        let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 1);
        let t = pio_receive(SimTime::ZERO, &mut host, 16 * 1024);
        let mbps = t.since(SimTime::ZERO).mbps_for_bytes(16 * 1024);
        // 15 cycles/word PIO read ≈ 53 Mbps — far below even the
        // invalidation-penalised DMA path (§2.7).
        assert!(mbps < 60.0, "PIO {mbps} Mbps should be dismal");
    }
}
