//! TURBOchannel and memory-system cost model.
//!
//! §2.5.1 gives the constants this module is built from: the TURBOchannel
//! moves one 32-bit word per 40 ns cycle (800 Mbps peak) and a DMA
//! transaction pays a fixed overhead of **13 cycles for reads** (board ←
//! host memory, the transmit direction) and **8 cycles for writes** (board
//! → host memory, the receive direction). Hence the paper's ceilings:
//!
//! * 44-byte (11-word) transfers: tx 11/(11+13)·800 = 367 Mbps,
//!   rx 11/(11+8)·800 = 463 Mbps;
//! * 88-byte (22-word) transfers: tx 503 Mbps, rx 587 Mbps.
//!
//! The module also models the *topology* difference that separates
//! Figures 2 and 3:
//!
//! * [`MemTopology::SharedBus`] (DECstation 5000/200): every memory
//!   transaction — DMA, cache fill, write-through — occupies the one bus,
//!   so CPU activity steals DMA bandwidth and vice versa.
//! * [`MemTopology::Crossbar`] (DEC 3000/600): DMA and CPU/memory traffic
//!   proceed concurrently; CPU fills run on a separate memory port.

use osiris_sim::obs::{Counter, Probe};
use osiris_sim::resource::Grant;
use osiris_sim::{Clock, FifoResource, SimDuration, SimTime};

/// How the CPU, memory and I/O bus are interconnected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemTopology {
    /// One shared path: CPU memory traffic and DMA serialise (5000/200).
    SharedBus,
    /// Buffered crossbar: CPU memory traffic bypasses the I/O bus (3000/600).
    Crossbar,
}

/// Cost constants for one machine's bus and memory system.
#[derive(Debug, Clone, Copy)]
pub struct BusSpec {
    /// I/O bus clock (TURBOchannel: 25 MHz, 40 ns cycles).
    pub clock: Clock,
    /// Bus word size in bytes (TURBOchannel: 4).
    pub word_bytes: u64,
    /// Fixed cycles before a DMA read (board reads host memory; transmit).
    pub dma_read_overhead_cycles: u64,
    /// Fixed cycles before a DMA write (board writes host memory; receive).
    pub dma_write_overhead_cycles: u64,
    /// Cycles per word for programmed-I/O reads from board memory
    /// ("accesses to the dual-port memory across the TURBOchannel are
    /// expensive" — single-word reads stall the CPU for the full round trip).
    pub pio_read_cycles_per_word: u64,
    /// Cycles per word for programmed-I/O writes (write buffers help).
    pub pio_write_cycles_per_word: u64,
    /// Interconnect topology.
    pub topology: MemTopology,
    /// Fixed nanoseconds to start a CPU↔memory transaction (row access,
    /// arbitration).
    pub mem_access_overhead_ns: u64,
    /// Nanoseconds per 32-bit word of CPU↔memory data movement.
    pub mem_ns_per_word: u64,
}

impl BusSpec {
    /// DECstation 5000/200 constants (§2.5.1, §2.7, reference \[15\]).
    pub fn ds5000_200() -> Self {
        BusSpec {
            clock: Clock::from_mhz(25),
            word_bytes: 4,
            dma_read_overhead_cycles: 13,
            dma_write_overhead_cycles: 8,
            pio_read_cycles_per_word: 15,
            pio_write_cycles_per_word: 3,
            topology: MemTopology::SharedBus,
            // One-word cache lines: every miss is its own transaction.
            // ~280 ns/word ⇒ ≈ 80–110 Mbps CPU read bandwidth once the
            // checksum loop's own cycles are added (§4: "80 Mbps").
            mem_access_overhead_ns: 160,
            mem_ns_per_word: 120,
        }
    }

    /// DEC 3000/600 constants: same TURBOchannel, crossbar memory.
    pub fn dec3000_600() -> Self {
        BusSpec {
            clock: Clock::from_mhz(25),
            word_bytes: 4,
            dma_read_overhead_cycles: 13,
            dma_write_overhead_cycles: 8,
            pio_read_cycles_per_word: 15,
            pio_write_cycles_per_word: 3,
            topology: MemTopology::Crossbar,
            // 32-byte lines amortise the overhead across 8 words.
            mem_access_overhead_ns: 120,
            mem_ns_per_word: 25,
        }
    }

    /// Words needed for `bytes` (rounded up).
    pub fn words(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.word_bytes)
    }

    /// Duration of a DMA read moving `bytes` (overhead + data).
    pub fn dma_read_time(&self, bytes: u64) -> SimDuration {
        self.clock
            .cycles(self.dma_read_overhead_cycles + self.words(bytes))
    }

    /// Duration of a DMA write moving `bytes` (overhead + data).
    pub fn dma_write_time(&self, bytes: u64) -> SimDuration {
        self.clock
            .cycles(self.dma_write_overhead_cycles + self.words(bytes))
    }

    /// Duration of one CPU↔memory transaction of `bytes`.
    pub fn mem_access_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_ns(self.mem_access_overhead_ns + self.mem_ns_per_word * self.words(bytes))
    }

    /// Peak DMA throughput in Mbps for fixed-size transfers of `bytes` in
    /// the given direction — the paper's ceiling formula.
    pub fn dma_ceiling_mbps(&self, bytes: u64, write_to_host: bool) -> f64 {
        let t = if write_to_host {
            self.dma_write_time(bytes)
        } else {
            self.dma_read_time(bytes)
        };
        t.mbps_for_bytes(bytes)
    }
}

/// The most recently costed DMA write length, so the receive stream's run
/// of equal-length transfers (one per cell) costs its words and duration
/// once. Writes only: the board's receive side issues one write per cell,
/// 87–100 % of them the same length as the last one on the benchmark
/// workloads, while the transmit side's reads alternate header and payload
/// lengths and never repeat on a 1-byte round trip.
#[derive(Debug, Clone, Copy)]
struct WriteCost {
    bytes: u64,
    words: u64,
    time: SimDuration,
}

impl WriteCost {
    fn of(spec: &BusSpec, bytes: u64) -> WriteCost {
        WriteCost {
            bytes,
            words: spec.words(bytes),
            time: spec.dma_write_time(bytes),
        }
    }
}

/// The arbitrated bus plus (on crossbar machines) a separate memory port.
///
/// Word traffic is published through `osiris-sim::obs` under the probe's
/// `bus` scope: `words` (every word moved), split exhaustively into
/// `dma_words` (board-mastered transfers) and `cpu_words` (CPU-driven
/// fills, write-backs and PIO) — the §2.5 accounting that report
/// consumers and the cross-layer consistency tests rely on.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    /// Cost constants; private so the cached write cost below cannot go
    /// stale.
    spec: BusSpec,
    last_write: WriteCost,
    bus: FifoResource,
    mem_port: FifoResource,
    c_words: Counter,
    c_dma_words: Counter,
    c_cpu_words: Counter,
    c_dma_transactions: Counter,
}

impl MemorySystem {
    /// A new, idle memory system with a detached probe (standalone use).
    pub fn new(spec: BusSpec) -> Self {
        MemorySystem::with_probe(spec, &Probe::detached())
    }

    /// A memory system publishing its counters under `<scope>.bus`.
    pub fn with_probe(spec: BusSpec, probe: &Probe) -> Self {
        let p = probe.scoped("bus");
        MemorySystem {
            spec,
            last_write: WriteCost::of(&spec, 0),
            bus: FifoResource::new("turbochannel"),
            mem_port: FifoResource::new("mem-port"),
            c_words: p.counter("words"),
            c_dma_words: p.counter("dma_words"),
            c_cpu_words: p.counter("cpu_words"),
            c_dma_transactions: p.counter("dma_transactions"),
        }
    }

    /// The cost constants in force.
    pub fn spec(&self) -> &BusSpec {
        &self.spec
    }

    #[inline]
    fn count_dma(&self, words: u64) {
        self.c_words.add(words);
        self.c_dma_words.add(words);
        self.c_dma_transactions.incr();
    }

    #[inline]
    fn count_cpu(&self, words: u64) {
        self.c_words.add(words);
        self.c_cpu_words.add(words);
    }

    /// DMA read of `bytes` from host memory (transmit direction).
    pub fn dma_read(&mut self, now: SimTime, bytes: u64) -> Grant {
        self.count_dma(self.spec.words(bytes));
        self.bus.acquire(now, self.spec.dma_read_time(bytes))
    }

    /// DMA write of `bytes` to host memory (receive direction).
    pub fn dma_write(&mut self, now: SimTime, bytes: u64) -> Grant {
        if self.last_write.bytes != bytes {
            self.last_write = WriteCost::of(&self.spec, bytes);
        }
        let WriteCost { words, time, .. } = self.last_write;
        self.count_dma(words);
        self.bus.acquire(now, time)
    }

    /// One CPU↔memory transaction (cache-line fill or write-back) of
    /// `bytes`. Routed over the bus on [`MemTopology::SharedBus`] machines,
    /// over the private memory port on crossbar machines.
    pub fn cpu_mem_access(&mut self, now: SimTime, bytes: u64) -> Grant {
        self.count_cpu(self.spec.words(bytes));
        let d = self.spec.mem_access_time(bytes);
        match self.spec.topology {
            MemTopology::SharedBus => self.bus.acquire(now, d),
            MemTopology::Crossbar => self.mem_port.acquire(now, d),
        }
    }

    /// `n` back-to-back CPU↔memory transactions of `bytes` each, reserved
    /// as one block (used for bulk fills where per-line events would be
    /// wasteful).
    pub fn cpu_mem_burst(&mut self, now: SimTime, n: u64, bytes: u64) -> Grant {
        self.count_cpu(n * self.spec.words(bytes));
        let d = self.spec.mem_access_time(bytes);
        let total = SimDuration::from_ps(d.as_ps() * n);
        match self.spec.topology {
            MemTopology::SharedBus => self.bus.acquire(now, total),
            MemTopology::Crossbar => self.mem_port.acquire(now, total),
        }
    }

    /// Programmed-I/O read of `words` words across the bus.
    pub fn pio_read(&mut self, now: SimTime, words: u64) -> Grant {
        self.count_cpu(words);
        let d = self
            .spec
            .clock
            .cycles(self.spec.pio_read_cycles_per_word * words);
        self.bus.acquire(now, d)
    }

    /// Programmed-I/O write of `words` words across the bus.
    pub fn pio_write(&mut self, now: SimTime, words: u64) -> Grant {
        self.count_cpu(words);
        let d = self
            .spec
            .clock
            .cycles(self.spec.pio_write_cycles_per_word * words);
        self.bus.acquire(now, d)
    }

    /// Reserves an arbitrary duration of bus time (software-generated
    /// memory traffic folded into fixed CPU costs; see
    /// `osiris-host::HostMachine::run_software`).
    pub fn pio_like_mem(&mut self, now: SimTime, d: SimDuration) -> Grant {
        self.bus.acquire(now, d)
    }

    /// Total 32-bit words moved (`dma_words + cpu_words`, always).
    pub fn words(&self) -> u64 {
        self.c_words.get()
    }

    /// Words moved by board-mastered DMA.
    pub fn dma_words(&self) -> u64 {
        self.c_dma_words.get()
    }

    /// Words moved by CPU-driven traffic (fills, write-backs, PIO).
    pub fn cpu_words(&self) -> u64 {
        self.c_cpu_words.get()
    }

    /// Number of DMA transactions (each pays the fixed overhead).
    pub fn dma_transactions(&self) -> u64 {
        self.c_dma_transactions.get()
    }

    /// The underlying bus resource (utilisation diagnostics).
    pub fn bus(&self) -> &FifoResource {
        &self.bus
    }

    /// The memory-port resource (crossbar machines; idle otherwise).
    pub fn mem_port(&self) -> &FifoResource {
        &self.mem_port
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dma_ceilings() {
        let spec = BusSpec::ds5000_200();
        // Single-cell (44 B): tx 367, rx 463 Mbps.
        assert!((spec.dma_ceiling_mbps(44, false) - 366.7).abs() < 1.0);
        assert!((spec.dma_ceiling_mbps(44, true) - 463.2).abs() < 1.0);
        // Double-cell (88 B): tx 503, rx 587 Mbps.
        assert!((spec.dma_ceiling_mbps(88, false) - 502.9).abs() < 1.0);
        assert!((spec.dma_ceiling_mbps(88, true) - 586.7).abs() < 1.0);
    }

    #[test]
    fn words_round_up() {
        let spec = BusSpec::ds5000_200();
        assert_eq!(spec.words(1), 1);
        assert_eq!(spec.words(4), 1);
        assert_eq!(spec.words(5), 2);
        assert_eq!(spec.words(44), 11);
    }

    #[test]
    fn shared_bus_serialises_dma_and_cpu() {
        let mut ms = MemorySystem::new(BusSpec::ds5000_200());
        let t0 = SimTime::ZERO;
        let g1 = ms.dma_write(t0, 44); // (8 + 11) * 40 ns = 760 ns
        assert_eq!(g1.finish, SimTime::from_ns(760));
        let g2 = ms.cpu_mem_access(t0, 4); // queues behind the DMA
        assert_eq!(g2.start, SimTime::from_ns(760));
        assert_eq!(g2.finish, SimTime::from_ns(760 + 160 + 120));
    }

    #[test]
    fn crossbar_lets_dma_and_cpu_overlap() {
        let mut ms = MemorySystem::new(BusSpec::dec3000_600());
        let t0 = SimTime::ZERO;
        let g1 = ms.dma_write(t0, 44);
        let g2 = ms.cpu_mem_access(t0, 32);
        // Both start immediately: independent resources.
        assert_eq!(g1.start, t0);
        assert_eq!(g2.start, t0);
    }

    #[test]
    fn pio_reads_are_expensive() {
        let mut ms = MemorySystem::new(BusSpec::ds5000_200());
        // 11 words at 15 cycles/word = 165 cycles = 6.6 us per 44 bytes:
        // ~53 Mbps, the paper's reason to prefer DMA on this machine.
        let g = ms.pio_read(SimTime::ZERO, 11);
        let mbps = g.finish.since(g.start).mbps_for_bytes(44);
        assert!(mbps < 60.0, "PIO should be slow, got {mbps}");
    }

    #[test]
    fn burst_reserves_n_transactions() {
        let mut ms = MemorySystem::new(BusSpec::ds5000_200());
        let one = ms.spec().mem_access_time(4);
        let g = ms.cpu_mem_burst(SimTime::ZERO, 10, 4);
        assert_eq!(g.finish.since(g.start).as_ps(), one.as_ps() * 10);
    }

    #[test]
    fn word_counters_split_exhaustively() {
        use osiris_sim::Registry;
        let reg = Registry::new();
        let mut ms = MemorySystem::with_probe(BusSpec::ds5000_200(), &reg.probe("node0"));
        let t0 = SimTime::ZERO;
        ms.dma_write(t0, 44); // 11 words
        ms.dma_read(t0, 88); // 22 words
        ms.cpu_mem_access(t0, 4); // 1 word
        ms.cpu_mem_burst(t0, 3, 4); // 3 words
        ms.pio_read(t0, 5);
        ms.pio_write(t0, 7);
        ms.pio_like_mem(t0, SimDuration::from_ns(100)); // duration only: no words
        assert_eq!(ms.dma_words(), 33);
        assert_eq!(ms.cpu_words(), 16);
        assert_eq!(ms.words(), ms.dma_words() + ms.cpu_words());
        assert_eq!(ms.dma_transactions(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("node0.bus.words"), 49);
        assert_eq!(snap.counter("node0.bus.dma_words"), 33);
        assert_eq!(snap.counter("node0.bus.cpu_words"), 16);
    }

    /// The write cost cache never changes a grant: alternating lengths
    /// over one page (every access a miss) and repeats of each (every
    /// access a hit) both match the spec's closed forms, with reads
    /// interleaved.
    #[test]
    fn cached_dma_costs_match_the_spec() {
        for spec in [BusSpec::ds5000_200(), BusSpec::dec3000_600()] {
            let mut ms = MemorySystem::new(spec);
            let mut t = SimTime::ZERO;
            let mut words = 0;
            for len in 1..=4096u64 {
                let other = 4097 - len;
                for bytes in [len, other, other, len, len] {
                    let w = ms.dma_write(t, bytes);
                    assert_eq!(w.finish.since(w.start), spec.dma_write_time(bytes));
                    let r = ms.dma_read(w.finish, bytes);
                    assert_eq!(r.finish.since(r.start), spec.dma_read_time(bytes));
                    t = r.finish;
                    words += 2 * spec.words(bytes);
                }
            }
            assert_eq!(ms.dma_words(), words);
        }
    }

    #[test]
    fn utilisation_tracks_busy_time() {
        let mut ms = MemorySystem::new(BusSpec::ds5000_200());
        ms.dma_write(SimTime::ZERO, 44);
        assert_eq!(ms.bus().total_busy(), SimDuration::from_ns(760));
        assert_eq!(ms.mem_port().total_busy(), SimDuration::ZERO);
    }
}
