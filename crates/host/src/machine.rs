//! Machine models and CPU cost accounting.
//!
//! Two machines carry the paper's evaluation (§4):
//!
//! * **DECstation 5000/200** — 25 MHz MIPS R3000, 64 KB direct-mapped
//!   write-through data cache with *no* DMA coherence, and a memory system
//!   in which "all memory transactions occupy the TURBOchannel and no part
//!   of a DMA transaction can overlap with the CPU accessing main memory".
//! * **DEC 3000/600** — 175 MHz Alpha, buffered crossbar ("allows
//!   cache/memory transactions to occur concurrently with DMA transfers"),
//!   DMA writes update the cache.
//!
//! Software costs are calibrated against the numbers the paper publishes:
//! 75 µs interrupt service and ~200 µs UDP/IP PDU service on the 5000/200
//! (§2.1.2), with the Alpha's fixed costs scaled to reproduce Table 1's
//! measured ratios. Every constant lives here, in one place, so the
//! benches in EXPERIMENTS.md can cite them.

use osiris_mem::{
    AllocPolicy, BusSpec, CacheSpec, DataCache, FrameAllocator, MemorySystem, PhysAddr, PhysMemory,
};
use osiris_sim::obs::{Counter, Probe};
use osiris_sim::resource::Grant;
use osiris_sim::{Clock, FifoResource, SimDuration, SimTime};

/// Calibrated software path costs for one machine.
#[derive(Debug, Clone, Copy)]
pub struct SoftwareCosts {
    /// Fielding one board interrupt (paper: 75 µs on the 5000/200).
    pub interrupt_service: SimDuration,
    /// Scheduling the driver thread signalled by the handler.
    pub thread_dispatch: SimDuration,
    /// Per-PDU driver bookkeeping (either direction).
    pub driver_pdu: SimDuration,
    /// Per-physical-buffer driver work — the §2.2 cost that buffer
    /// fragmentation multiplies.
    pub driver_buffer: SimDuration,
    /// IP input/output processing per packet (checksum-free fixed path).
    pub ip_fixed: SimDuration,
    /// UDP input/output processing per packet (excluding data checksum).
    pub udp_fixed: SimDuration,
    /// Test-program work per message (generate/consume bookkeeping).
    pub app_fixed: SimDuration,
    /// One protection-domain crossing (trap + return).
    pub syscall: SimDuration,
    /// CPU cycles per 32-bit word of checksum arithmetic (memory traffic
    /// is charged separately through the cache model).
    pub checksum_cycles_per_word: u64,
    /// CPU cycles per word of explicit cache invalidation. The paper says
    /// ~1 cycle per word *plus* "the cost of subsequent cache misses caused
    /// by the invalidation of unrelated cached data"; the effective figure
    /// folds those misses in.
    pub invalidate_cycles_per_word: u64,
    /// Fraction of fixed software costs that is memory traffic. On a
    /// shared-bus machine this traffic occupies the TURBOchannel and
    /// steals DMA bandwidth (§4: "memory writes and cache fills that
    /// result from CPU activity reduce DMA performance").
    pub sw_mem_fraction: f64,
}

/// A machine: clock, bus/memory topology, cache geometry, software costs.
#[derive(Debug, Clone, Copy)]
pub struct MachineSpec {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// CPU clock.
    pub cpu_clock: Clock,
    /// Bus and memory-system constants.
    pub bus: BusSpec,
    /// Data-cache geometry and coherence.
    pub cache: CacheSpec,
    /// Calibrated software costs.
    pub costs: SoftwareCosts,
    /// VM page size.
    pub page_size: usize,
    /// Physical memory size for simulations.
    pub mem_bytes: usize,
}

impl MachineSpec {
    /// The DECstation 5000/200 (25 MHz R3000).
    pub fn ds5000_200() -> Self {
        MachineSpec {
            name: "DEC 5000/200",
            cpu_clock: Clock::from_mhz(25),
            bus: BusSpec::ds5000_200(),
            cache: CacheSpec::decstation_5000_200(),
            costs: SoftwareCosts {
                interrupt_service: SimDuration::from_us(75),
                thread_dispatch: SimDuration::from_us(14),
                driver_pdu: SimDuration::from_us(16),
                driver_buffer: SimDuration::from_us(7),
                ip_fixed: SimDuration::from_us(36),
                udp_fixed: SimDuration::from_us(26),
                app_fixed: SimDuration::from_us(10),
                syscall: SimDuration::from_us(20),
                checksum_cycles_per_word: 3,
                invalidate_cycles_per_word: 1,
                sw_mem_fraction: 0.35,
            },
            page_size: 4096,
            mem_bytes: 32 << 20,
        }
    }

    /// The DEC 3000/600 (175 MHz Alpha).
    pub fn dec3000_600() -> Self {
        MachineSpec {
            name: "DEC 3000/600",
            cpu_clock: Clock::from_mhz(175),
            bus: BusSpec::dec3000_600(),
            cache: CacheSpec::dec_3000_600(),
            costs: SoftwareCosts {
                interrupt_service: SimDuration::from_us(30),
                thread_dispatch: SimDuration::from_us(6),
                driver_pdu: SimDuration::from_us(8),
                driver_buffer: SimDuration::from_us(3),
                ip_fixed: SimDuration::from_us(22),
                udp_fixed: SimDuration::from_us(15),
                app_fixed: SimDuration::from_us(4),
                syscall: SimDuration::from_us(8),
                checksum_cycles_per_word: 2,
                invalidate_cycles_per_word: 1,
                sw_mem_fraction: 0.25,
            },
            page_size: 4096,
            mem_bytes: 64 << 20,
        }
    }
}

/// The live CPU / cache / memory complex of one host.
#[derive(Debug)]
pub struct HostMachine {
    /// The machine's constants.
    pub spec: MachineSpec,
    /// Bus + memory-port arbitration.
    pub mem_sys: MemorySystem,
    /// Data cache (with real line contents).
    pub cache: DataCache,
    /// Physical memory (with real byte contents).
    pub phys: PhysMemory,
    /// Page-frame allocator (scattered policy: steady-state fragmentation).
    pub alloc: FrameAllocator,
    /// The CPU as a serially shared resource.
    pub cpu: FifoResource,
    interrupts_taken: Counter,
    invalidated_words: Counter,
}

/// Result of a CPU read through the cache: when it finished and how many
/// bytes came back stale (served from lines DMA had silently bypassed).
#[derive(Debug, Clone, Copy)]
pub struct ReadResult {
    /// Completion grant on the CPU.
    pub grant: Grant,
    /// Bytes whose cached copy disagreed with memory.
    pub stale_bytes: u64,
}

impl HostMachine {
    /// Boots a machine: zeroed memory, cold cache, fragmented allocator,
    /// detached counters (standalone use).
    pub fn boot(spec: MachineSpec, alloc_seed: u64) -> Self {
        HostMachine::boot_with_probe(spec, alloc_seed, &Probe::detached())
    }

    /// Boots a machine whose memory system publishes under `<scope>.bus`
    /// and whose own counters publish under `<scope>.host`.
    pub fn boot_with_probe(spec: MachineSpec, alloc_seed: u64, probe: &Probe) -> Self {
        let phys = PhysMemory::new(spec.mem_bytes, spec.page_size);
        let alloc = FrameAllocator::new(&phys, AllocPolicy::Scattered, alloc_seed);
        let p = probe.scoped("host");
        HostMachine {
            mem_sys: MemorySystem::with_probe(spec.bus, probe),
            cache: DataCache::new(spec.cache),
            phys,
            alloc,
            cpu: FifoResource::default(),
            interrupts_taken: p.counter("interrupts_taken"),
            invalidated_words: p.counter("invalidated_words"),
            spec,
        }
    }

    /// Runs `d` of software on the CPU (FIFO with everything else).
    pub fn run_cpu(&mut self, now: SimTime, d: SimDuration) -> Grant {
        self.cpu.acquire(now, d)
    }

    /// Runs `cycles` CPU cycles.
    pub fn run_cycles(&mut self, now: SimTime, cycles: u64) -> Grant {
        self.run_cpu(now, self.spec.cpu_clock.cycles(cycles))
    }

    /// Runs `d` of *software* — CPU time of which `sw_mem_fraction` is
    /// memory traffic that additionally occupies the memory path (and
    /// therefore, on a shared-bus machine, delays DMA).
    pub fn run_software(&mut self, now: SimTime, d: SimDuration) -> Grant {
        let g = self.cpu.acquire(now, d);
        let mem_ps = (d.as_ps() as f64 * self.spec.costs.sw_mem_fraction) as u64;
        if mem_ps > 0 {
            // The traffic lands on the bus over the same interval; model
            // it as one reservation of the aggregate duration.
            let m = match self.spec.bus.topology {
                osiris_mem::MemTopology::SharedBus => Some(
                    self.mem_sys
                        .pio_like_mem(g.start, SimDuration::from_ps(mem_ps)),
                ),
                osiris_mem::MemTopology::Crossbar => None,
            };
            if let Some(mg) = m {
                return Grant {
                    start: g.start,
                    finish: g.finish.max(mg.finish),
                };
            }
        }
        g
    }

    /// Fields one board interrupt: charges the handler cost and counts it.
    pub fn take_interrupt(&mut self, now: SimTime) -> Grant {
        self.interrupts_taken.incr();
        self.run_software(now, self.spec.costs.interrupt_service)
    }

    /// Interrupts fielded so far.
    pub fn interrupts_taken(&self) -> u64 {
        self.interrupts_taken.get()
    }

    /// CPU read of `buf.len()` bytes at `addr` through the cache, charging
    /// hit cycles on the CPU and line fills on the memory system. Returns
    /// the (possibly stale!) bytes in `buf`.
    pub fn cpu_read(&mut self, now: SimTime, addr: PhysAddr, buf: &mut [u8]) -> ReadResult {
        let access = self.cache.read(&self.phys, addr, buf);
        // Hit bytes cost ~1 cycle per word on the CPU.
        let hit_words = access.hit_bytes.div_ceil(4);
        let cpu_grant = self.run_cycles(now, hit_words.max(1));
        // Misses are line fills on the memory path (bus on the 5000/200).
        let line = self.spec.cache.line_size as u64;
        let finish = if access.missed_lines > 0 {
            let g = self.mem_sys.cpu_mem_burst(now, access.missed_lines, line);
            g.finish.max(cpu_grant.finish)
        } else {
            cpu_grant.finish
        };
        ReadResult {
            grant: Grant {
                start: cpu_grant.start,
                finish,
            },
            stale_bytes: access.stale_bytes,
        }
    }

    /// CPU write of `data` at `addr`: write-through traffic on the memory
    /// path plus a cycle per word on the CPU.
    pub fn cpu_write(&mut self, now: SimTime, addr: PhysAddr, data: &[u8]) -> Grant {
        self.cache.write(&mut self.phys, addr, data);
        let words = (data.len() as u64).div_ceil(4);
        let cpu_grant = self.run_cycles(now, words.max(1));
        // Write-through: one memory transaction per small burst; model as
        // a single burst of `words` words (write buffers coalesce).
        let g = self.mem_sys.cpu_mem_access(now, words * 4);
        Grant {
            start: cpu_grant.start,
            finish: cpu_grant.finish.max(g.finish),
        }
    }

    /// Explicitly invalidates `[addr, addr+len)`: the §2.3 cost of one CPU
    /// cycle per word.
    pub fn invalidate_cache(&mut self, now: SimTime, addr: PhysAddr, len: usize) -> Grant {
        let words = self.cache.invalidate(addr, len);
        self.invalidated_words.add(words);
        self.run_cycles(now, words * self.spec.costs.invalidate_cycles_per_word)
    }
}

/// The Internet one's-complement checksum (RFC 1071) over a byte slice.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_reflect_the_paper() {
        let ds = MachineSpec::ds5000_200();
        assert_eq!(ds.costs.interrupt_service, SimDuration::from_us(75));
        assert!(!ds.cache.coherent_dma);
        let alpha = MachineSpec::dec3000_600();
        assert!(alpha.cache.coherent_dma);
        assert!(alpha.costs.interrupt_service < ds.costs.interrupt_service);
    }

    #[test]
    fn interrupt_charges_cpu() {
        let mut h = HostMachine::boot(MachineSpec::ds5000_200(), 1);
        let g = h.take_interrupt(SimTime::ZERO);
        assert_eq!(g.finish, SimTime::from_us(75));
        assert_eq!(h.interrupts_taken(), 1);
        // A second interrupt queues behind the first on the CPU.
        let g2 = h.take_interrupt(SimTime::from_us(10));
        assert_eq!(g2.start, SimTime::from_us(75));
    }

    #[test]
    fn cpu_read_charges_fills_then_hits() {
        let mut h = HostMachine::boot(MachineSpec::ds5000_200(), 1);
        h.phys.write(PhysAddr(0x1000), &[9u8; 256]);
        let mut buf = [0u8; 256];
        let cold = h.cpu_read(SimTime::ZERO, PhysAddr(0x1000), &mut buf);
        assert_eq!(buf, [9u8; 256]);
        let warm = h.cpu_read(cold.grant.finish, PhysAddr(0x1000), &mut buf);
        let cold_t = cold.grant.finish.since(cold.grant.start);
        let warm_t = warm.grant.finish.since(warm.grant.start);
        assert!(
            warm_t < cold_t,
            "cached read must be faster: {warm_t} vs {cold_t}"
        );
    }

    /// The protocol stack's checksum read: `len` bytes at `addr` through
    /// the cache, then the checksum arithmetic on the CPU. Returns the
    /// span, the checksum over what the CPU saw, and the stale bytes.
    fn checksum(
        h: &mut HostMachine,
        now: SimTime,
        addr: PhysAddr,
        len: usize,
    ) -> (Grant, u16, u64) {
        let mut buf = vec![0u8; len];
        let rr = h.cpu_read(now, addr, &mut buf);
        let words = (len as u64).div_ceil(4);
        let arith = h.run_cycles(
            rr.grant.finish,
            words * h.spec.costs.checksum_cycles_per_word,
        );
        let span = Grant {
            start: rr.grant.start,
            finish: arith.finish,
        };
        (span, internet_checksum(&buf), rr.stale_bytes)
    }

    #[test]
    fn ds5000_checksum_rate_is_about_80_mbps() {
        // §4: "the maximal throughput decreases to 80 Mbps" when the CPU
        // reads (checksums) the data on the 5000/200.
        let mut h = HostMachine::boot(MachineSpec::ds5000_200(), 1);
        let len = 64 * 1024;
        let (g, _ck, _stale) = checksum(&mut h, SimTime::ZERO, PhysAddr(0), len);
        let mbps = g.finish.since(g.start).mbps_for_bytes(len as u64);
        assert!(
            (60.0..120.0).contains(&mbps),
            "checksum rate {mbps} Mbps out of band"
        );
    }

    #[test]
    fn alpha_checksum_is_much_faster() {
        let mut ds = HostMachine::boot(MachineSpec::ds5000_200(), 1);
        let mut ax = HostMachine::boot(MachineSpec::dec3000_600(), 1);
        let len = 64 * 1024;
        let (g1, _, _) = checksum(&mut ds, SimTime::ZERO, PhysAddr(0), len);
        let (g2, _, _) = checksum(&mut ax, SimTime::ZERO, PhysAddr(0), len);
        let r1 = g1.finish.since(g1.start).mbps_for_bytes(len as u64);
        let r2 = g2.finish.since(g2.start).mbps_for_bytes(len as u64);
        assert!(r2 > 3.0 * r1, "Alpha {r2} should dwarf DS {r1}");
    }

    #[test]
    fn stale_read_detected_and_recovered_via_invalidate() {
        let mut h = HostMachine::boot(MachineSpec::ds5000_200(), 1);
        h.phys.write(PhysAddr(0x2000), &[1u8; 64]);
        let mut buf = [0u8; 64];
        let t0 = h
            .cpu_read(SimTime::ZERO, PhysAddr(0x2000), &mut buf)
            .grant
            .finish;
        // Incoherent DMA overwrites memory behind the cache's back.
        let data = [2u8; 64];
        h.cache.dma_write(&mut h.phys, PhysAddr(0x2000), &data);
        let rr = h.cpu_read(t0, PhysAddr(0x2000), &mut buf);
        assert!(rr.stale_bytes > 0, "must read stale bytes");
        assert_eq!(buf, [1u8; 64], "stale contents are the OLD bytes");
        // Lazy recovery: invalidate, re-read.
        let g = h.invalidate_cache(rr.grant.finish, PhysAddr(0x2000), 64);
        let rr2 = h.cpu_read(g.finish, PhysAddr(0x2000), &mut buf);
        assert_eq!(rr2.stale_bytes, 0);
        assert_eq!(buf, [2u8; 64]);
    }

    #[test]
    fn internet_checksum_vectors() {
        // RFC 1071 example: 0001 f203 f4f5 f6f7 → sum 0xddf2, cksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), 0x220d);
        // Odd length pads with zero.
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00u16);
        assert_eq!(internet_checksum(&[]), 0xFFFF);
    }

    #[test]
    fn checksum_sees_stale_data_on_incoherent_machine() {
        let mut h = HostMachine::boot(MachineSpec::ds5000_200(), 1);
        h.phys.write(PhysAddr(0x3000), &[0xAAu8; 128]);
        let mut buf = [0u8; 128];
        let t = h
            .cpu_read(SimTime::ZERO, PhysAddr(0x3000), &mut buf)
            .grant
            .finish;
        let (_, ck_before, _) = checksum(&mut h, t, PhysAddr(0x3000), 128);
        h.cache
            .dma_write(&mut h.phys, PhysAddr(0x3000), &[0x55u8; 128]);
        let (_, ck_stale, stale) = checksum(&mut h, t, PhysAddr(0x3000), 128);
        assert_eq!(ck_stale, ck_before, "checksum computed over stale bytes");
        assert!(stale > 0);
        let truth = internet_checksum(&[0x55u8; 128]);
        assert_ne!(ck_stale, truth);
    }

    #[test]
    fn writes_land_in_memory_and_cache() {
        let mut h = HostMachine::boot(MachineSpec::dec3000_600(), 1);
        h.cpu_write(SimTime::ZERO, PhysAddr(0x4000), b"net");
        assert_eq!(h.phys.read(PhysAddr(0x4000), 3), b"net");
    }
}
