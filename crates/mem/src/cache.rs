//! Direct-mapped data cache with real per-line data copies.
//!
//! §2.3: the DECstation 5000/200 "does not guarantee a coherent view of
//! memory contents after a DMA transfer into main memory", so CPU reads may
//! return stale data unless the OS explicitly invalidates, at ~1 cycle per
//! 32-bit word. The DEC 3000/600 updates the cache during DMA.
//!
//! This model keeps an actual copy of each cached line's bytes. After an
//! incoherent DMA write, a hit on an un-invalidated line returns the **old**
//! bytes — exactly the failure the paper's lazy-invalidation scheme detects
//! via checksums and repairs by invalidating and re-reading.
//!
//! # Example
//!
//! ```
//! use osiris_mem::{CacheSpec, DataCache, PhysAddr, PhysMemory};
//!
//! let mut cache = DataCache::new(CacheSpec::decstation_5000_200());
//! let mut mem = PhysMemory::new(1 << 16, 4096);
//! mem.write(PhysAddr(0), &[1u8; 8]);
//! let mut buf = [0u8; 8];
//! cache.read(&mem, PhysAddr(0), &mut buf); // now cached
//!
//! // DMA overwrites memory behind the (incoherent) cache's back...
//! cache.dma_write(&mut mem, PhysAddr(0), &[2u8; 8]);
//! let acc = cache.read(&mem, PhysAddr(0), &mut buf);
//! assert_eq!(buf, [1u8; 8]);       // genuinely stale bytes!
//! assert_eq!(acc.stale_bytes, 8);
//!
//! // ...until the driver invalidates (§2.3).
//! cache.invalidate(PhysAddr(0), 8);
//! cache.read(&mem, PhysAddr(0), &mut buf);
//! assert_eq!(buf, [2u8; 8]);
//! ```

use crate::phys::{PhysAddr, PhysMemory};

/// Cache geometry and cost constants.
#[derive(Debug, Clone, Copy)]
pub struct CacheSpec {
    /// Total data capacity in bytes (DECstation 5000/200: 64 KB).
    pub size: usize,
    /// Line size in bytes (R3000 D-cache: 4; Alpha: 32).
    pub line_size: usize,
    /// True if DMA writes update cached lines (DEC 3000/600), false if DMA
    /// bypasses the cache leaving stale lines (DECstation 5000/200).
    pub coherent_dma: bool,
}

impl CacheSpec {
    /// DECstation 5000/200: 64 KB direct-mapped, one-word lines,
    /// no DMA coherence.
    pub fn decstation_5000_200() -> Self {
        CacheSpec {
            size: 64 * 1024,
            line_size: 4,
            coherent_dma: false,
        }
    }

    /// DEC 3000/600: 2 MB board cache modelled as the coherence-relevant
    /// level — 32-byte lines, updated by DMA.
    pub fn dec_3000_600() -> Self {
        CacheSpec {
            size: 2 * 1024 * 1024,
            line_size: 32,
            coherent_dma: true,
        }
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        self.size / self.line_size
    }

    /// 32-bit words per line.
    pub fn words_per_line(&self) -> usize {
        self.line_size / 4
    }
}

/// Result of a CPU read through the cache; the host converts these counts
/// into CPU cycles and bus transactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheAccess {
    /// Bytes served from already-resident lines.
    pub hit_bytes: u64,
    /// Lines filled from memory (each fill is a bus transaction on the
    /// 5000/200, a crossbar memory access on the 3000/600).
    pub missed_lines: u64,
    /// Bytes served from resident lines whose contents no longer match
    /// memory (stale after incoherent DMA). Diagnostic only — the returned
    /// data really is the stale copy.
    pub stale_bytes: u64,
}

/// A direct-mapped, write-through, no-write-allocate data cache.
#[derive(Clone)]
pub struct DataCache {
    spec: CacheSpec,
    /// Per-line tag: the line number (`addr / line_size`) resident in that
    /// slot, or `None` for an invalid line.
    tags: Vec<Option<u64>>,
    /// Per-line data copies, `spec.size` bytes.
    data: Vec<u8>,
}

impl std::fmt::Debug for DataCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataCache")
            .field("size", &self.spec.size)
            .field("line_size", &self.spec.line_size)
            .field("coherent_dma", &self.spec.coherent_dma)
            .finish()
    }
}

impl DataCache {
    /// An empty (all-invalid) cache.
    pub fn new(spec: CacheSpec) -> Self {
        assert!(spec.line_size.is_power_of_two() && spec.line_size >= 4);
        assert!(spec.size.is_multiple_of(spec.line_size));
        DataCache {
            tags: vec![None; spec.lines()],
            data: vec![0; spec.size],
            spec,
        }
    }

    fn line_no(&self, addr: PhysAddr) -> u64 {
        addr.0 / self.spec.line_size as u64
    }

    fn slot_of_line(&self, line_no: u64) -> usize {
        (line_no % self.spec.lines() as u64) as usize
    }

    /// CPU read of `buf.len()` bytes at `addr` through the cache.
    ///
    /// Hit bytes come from the cache's own copy (possibly stale); misses
    /// fill whole lines from `mem`. Returns hit/miss/stale accounting.
    pub fn read(&mut self, mem: &PhysMemory, addr: PhysAddr, buf: &mut [u8]) -> CacheAccess {
        let mut acc = CacheAccess::default();
        let ls = self.spec.line_size as u64;
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr.0 + pos as u64;
            let ln = self.line_no(PhysAddr(a));
            let line_base = ln * ls;
            let off_in_line = (a - line_base) as usize;
            let take = ((ls as usize) - off_in_line).min(buf.len() - pos);
            let slot = self.slot_of_line(ln);
            let slot_base = slot * self.spec.line_size;

            if self.tags[slot] == Some(ln) {
                // Hit: serve from the cache copy.
                let src = &self.data[slot_base + off_in_line..slot_base + off_in_line + take];
                buf[pos..pos + take].copy_from_slice(src);
                acc.hit_bytes += take as u64;
                let truth = mem.read(PhysAddr(line_base + off_in_line as u64), take);
                if truth != src {
                    acc.stale_bytes += take as u64;
                }
            } else {
                // Miss: fill the whole line from memory, evicting the
                // previous occupant of the slot.
                let line_bytes = mem.read(PhysAddr(line_base), self.spec.line_size);
                self.data[slot_base..slot_base + self.spec.line_size].copy_from_slice(line_bytes);
                self.tags[slot] = Some(ln);
                buf[pos..pos + take].copy_from_slice(
                    &self.data[slot_base + off_in_line..slot_base + off_in_line + take],
                );
                acc.missed_lines += 1;
            }
            pos += take;
        }
        acc
    }

    /// CPU write of `data` at `addr`: write-through (memory always updated),
    /// no-write-allocate (only resident lines are refreshed).
    pub fn write(&mut self, mem: &mut PhysMemory, addr: PhysAddr, data: &[u8]) {
        mem.write(addr, data);
        self.refresh_resident(addr, data);
    }

    /// A DMA write to main memory. On a coherent machine resident lines are
    /// updated; on an incoherent one they are left stale — subsequent reads
    /// return the old bytes until [`DataCache::invalidate`] runs.
    #[inline]
    pub fn dma_write(&mut self, mem: &mut PhysMemory, addr: PhysAddr, data: &[u8]) {
        mem.write(addr, data);
        if self.spec.coherent_dma {
            self.refresh_resident(addr, data);
        }
    }

    /// Invalidates all lines overlapping `[addr, addr+len)`. Returns the
    /// number of 32-bit words invalidated — the paper's cost metric
    /// (~1 CPU cycle per word on the 5000/200).
    pub fn invalidate(&mut self, addr: PhysAddr, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let ls = self.spec.line_size as u64;
        let first = addr.0 / ls;
        let last = (addr.0 + len as u64 - 1) / ls;
        let mut words = 0;
        for ln in first..=last {
            let slot = self.slot_of_line(ln);
            if self.tags[slot] == Some(ln) {
                self.tags[slot] = None;
            }
            // The invalidate instruction pays per word regardless of
            // whether the line was resident.
            words += self.spec.words_per_line() as u64;
        }
        words
    }

    /// Invalidates the entire cache (the DECstation's cache-swap trick).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(None);
    }

    fn refresh_resident(&mut self, addr: PhysAddr, data: &[u8]) {
        let ls = self.spec.line_size as u64;
        let mut pos = 0usize;
        while pos < data.len() {
            let a = addr.0 + pos as u64;
            let ln = a / ls;
            let line_base = ln * ls;
            let off = (a - line_base) as usize;
            let take = (self.spec.line_size - off).min(data.len() - pos);
            let slot = self.slot_of_line(ln);
            if self.tags[slot] == Some(ln) {
                let base = slot * self.spec.line_size;
                self.data[base + off..base + off + take].copy_from_slice(&data[pos..pos + take]);
            }
            pos += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(coherent: bool) -> (DataCache, PhysMemory) {
        let spec = CacheSpec {
            size: 1024,
            line_size: 16,
            coherent_dma: coherent,
        };
        (DataCache::new(spec), PhysMemory::new(16 * 4096, 4096))
    }

    #[test]
    fn miss_then_hit() {
        let (mut c, mut m) = setup(false);
        m.write(PhysAddr(64), b"hello world!!!!!");
        let mut buf = [0u8; 16];
        let a1 = c.read(&m, PhysAddr(64), &mut buf);
        assert_eq!(a1.missed_lines, 1);
        assert_eq!(a1.hit_bytes, 0);
        assert_eq!(&buf, b"hello world!!!!!");
        let a2 = c.read(&m, PhysAddr(64), &mut buf);
        assert_eq!(a2.missed_lines, 0);
        assert_eq!(a2.hit_bytes, 16);
        assert_eq!(a2.stale_bytes, 0);
    }

    #[test]
    fn unaligned_read_spans_lines() {
        let (mut c, mut m) = setup(false);
        m.write(PhysAddr(0), &(0u8..64).collect::<Vec<_>>());
        let mut buf = [0u8; 20];
        let a = c.read(&m, PhysAddr(10), &mut buf);
        // Bytes 10..30 span lines [0,16) and [16,32).
        assert_eq!(a.missed_lines, 2);
        assert_eq!(buf.to_vec(), (10u8..30).collect::<Vec<_>>());
    }

    #[test]
    fn incoherent_dma_leaves_stale_data() {
        let (mut c, mut m) = setup(false);
        m.write(PhysAddr(128), &[1u8; 16]);
        let mut buf = [0u8; 16];
        c.read(&m, PhysAddr(128), &mut buf); // cache the old contents
        c.dma_write(&mut m, PhysAddr(128), &[2u8; 16]);
        let a = c.read(&m, PhysAddr(128), &mut buf);
        // The read *hits* and returns the OLD bytes — genuine staleness.
        assert_eq!(buf, [1u8; 16]);
        assert_eq!(a.stale_bytes, 16);
        // After invalidation the fresh data is fetched.
        let words = c.invalidate(PhysAddr(128), 16);
        assert_eq!(words, 4);
        let a = c.read(&m, PhysAddr(128), &mut buf);
        assert_eq!(buf, [2u8; 16]);
        assert_eq!(a.missed_lines, 1);
        assert_eq!(a.stale_bytes, 0);
    }

    #[test]
    fn coherent_dma_updates_cache() {
        let (mut c, mut m) = setup(true);
        m.write(PhysAddr(128), &[1u8; 16]);
        let mut buf = [0u8; 16];
        c.read(&m, PhysAddr(128), &mut buf);
        c.dma_write(&mut m, PhysAddr(128), &[2u8; 16]);
        let a = c.read(&m, PhysAddr(128), &mut buf);
        assert_eq!(buf, [2u8; 16]);
        assert_eq!(a.stale_bytes, 0);
        assert_eq!(a.hit_bytes, 16);
    }

    #[test]
    fn write_through_updates_memory_immediately() {
        let (mut c, mut m) = setup(false);
        c.write(&mut m, PhysAddr(500), b"data");
        assert_eq!(m.read(PhysAddr(500), 4), b"data");
    }

    #[test]
    fn write_refreshes_resident_line_only() {
        let (mut c, mut m) = setup(false);
        m.write(PhysAddr(0), &[7u8; 16]);
        let mut buf = [0u8; 16];
        c.read(&m, PhysAddr(0), &mut buf); // line resident
        c.write(&mut m, PhysAddr(4), &[9u8; 4]);
        let a = c.read(&m, PhysAddr(0), &mut buf);
        assert_eq!(a.hit_bytes, 16);
        assert_eq!(a.stale_bytes, 0, "write-through must keep cache in sync");
        assert_eq!(&buf[4..8], &[9u8; 4]);
    }

    #[test]
    fn eviction_by_aliasing_address() {
        // Cache is 1024 B with 16 B lines → addresses 1024 apart alias.
        let (mut c, mut m) = setup(false);
        m.write(PhysAddr(0), &[1u8; 16]);
        m.write(PhysAddr(1024), &[2u8; 16]);
        let mut buf = [0u8; 16];
        c.read(&m, PhysAddr(0), &mut buf);
        assert_eq!(c.read(&m, PhysAddr(0), &mut buf).hit_bytes, 16);
        c.read(&m, PhysAddr(1024), &mut buf);
        assert_eq!(buf, [2u8; 16]);
        assert_eq!(c.read(&m, PhysAddr(1024), &mut buf).hit_bytes, 16);
        let a = c.read(&m, PhysAddr(0), &mut buf);
        assert_eq!(a.hit_bytes, 0, "aliasing read must evict");
    }

    #[test]
    fn invalidate_cost_covers_nonresident_lines_too() {
        let (mut c, _m) = setup(false);
        // 64 bytes = 4 lines of 16 B = 16 words, resident or not.
        assert_eq!(c.invalidate(PhysAddr(0), 64), 16);
        assert_eq!(c.invalidate(PhysAddr(0), 0), 0);
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let (mut c, mut m) = setup(false);
        m.write(PhysAddr(0), &[3u8; 64]);
        let mut buf = [0u8; 64];
        c.read(&m, PhysAddr(0), &mut buf);
        assert_eq!(c.read(&m, PhysAddr(0), &mut buf).hit_bytes, 64);
        c.invalidate_all();
        assert_eq!(c.read(&m, PhysAddr(0), &mut buf).hit_bytes, 0);
    }

    #[test]
    fn paper_spec_geometries() {
        let ds = CacheSpec::decstation_5000_200();
        assert_eq!(ds.lines(), 16384);
        assert_eq!(ds.words_per_line(), 1);
        assert!(!ds.coherent_dma);
        let alpha = CacheSpec::dec_3000_600();
        assert!(alpha.coherent_dma);
    }
}
