//! Physical memory and frame allocation.
//!
//! Memory holds real bytes: payloads, headers and checksums flow through it
//! end to end, so the test suite can verify data integrity through every
//! datapath (DMA, PIO, stale-cache recovery).
//!
//! The frame allocator is where §2.2 of the paper lives: on a long-running
//! system, physically contiguous frames are the exception, so a virtually
//! contiguous message usually maps to one physical buffer *per page*. The
//! allocator supports three policies so experiments can compare:
//!
//! * [`AllocPolicy::Scattered`] — steady-state fragmentation (default);
//!   frames come from a deterministically shuffled free list.
//! * [`AllocPolicy::Sequential`] — a freshly booted machine; frames are
//!   handed out in address order (adjacent allocations coalesce).
//! * [`AllocPolicy::BestEffortContiguous`] — the OS support the authors say
//!   they were "currently experimenting with": try to find a contiguous
//!   run, fall back to scattered frames.

use osiris_sim::SimRng;

/// A physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Byte offset addition.
    #[inline]
    pub fn offset(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }
}

/// Physical memory with real contents.
#[derive(Clone)]
pub struct PhysMemory {
    bytes: Vec<u8>,
    page_size: usize,
}

impl std::fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMemory")
            .field("size", &self.bytes.len())
            .field("page_size", &self.page_size)
            .finish()
    }
}

impl PhysMemory {
    /// `size` bytes of zeroed memory with the given page size.
    ///
    /// # Panics
    /// Panics unless `page_size` is a power of two dividing `size`.
    pub fn new(size: usize, page_size: usize) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(
            size.is_multiple_of(page_size),
            "memory size must be page-aligned"
        );
        PhysMemory {
            bytes: vec![0; size],
            page_size,
        }
    }

    /// Number of page frames.
    pub fn frames(&self) -> usize {
        self.bytes.len() / self.page_size
    }

    /// Base address of frame `f`.
    pub fn frame_addr(&self, f: usize) -> PhysAddr {
        assert!(f < self.frames(), "frame {f} out of range");
        PhysAddr((f * self.page_size) as u64)
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Panics
    /// Panics on out-of-range access (a model bug, analogous to a bus error).
    #[inline]
    pub fn read(&self, addr: PhysAddr, len: usize) -> &[u8] {
        let start = addr.0 as usize;
        &self.bytes[start..start + len]
    }

    /// Writes `data` at `addr`.
    #[inline]
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        let start = addr.0 as usize;
        self.bytes[start..start + data.len()].copy_from_slice(data);
    }

    /// Fills `len` bytes at `addr` with `value`.
    pub fn fill(&mut self, addr: PhysAddr, len: usize, value: u8) {
        let start = addr.0 as usize;
        self.bytes[start..start + len].fill(value);
    }
}

/// Frame allocation policy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Hand out frames in ascending address order (fresh machine).
    Sequential,
    /// Hand out frames from a shuffled free list (steady-state
    /// fragmentation — the common case the paper describes).
    Scattered,
    /// Search for a physically contiguous run first; fall back to scattered.
    BestEffortContiguous,
}

/// Allocates page frames from a [`PhysMemory`].
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    /// Free frames; plain allocation pops from the back.
    free: Vec<u32>,
    /// Each frame's position in `free`, or [`IN_USE`]: taking a given
    /// frame out of the free list is O(1).
    slot: Vec<u32>,
    policy: AllocPolicy,
    total_frames: usize,
}

/// [`FrameAllocator::slot`] entry of an allocated frame.
const IN_USE: u32 = u32::MAX;

impl FrameAllocator {
    /// An allocator over all frames of `mem` using `policy`. `seed` drives
    /// the deterministic shuffle used by [`AllocPolicy::Scattered`].
    pub fn new(mem: &PhysMemory, policy: AllocPolicy, seed: u64) -> Self {
        let n = mem.frames();
        assert!(n < IN_USE as usize, "too many frames");
        let mut free: Vec<u32> = (0..n as u32).collect();
        if matches!(
            policy,
            AllocPolicy::Scattered | AllocPolicy::BestEffortContiguous
        ) {
            let mut rng = SimRng::new(seed);
            rng.shuffle(&mut free);
        }
        // Pop from the back; reverse so Sequential pops ascending.
        free.reverse();
        let mut slot = vec![0; n];
        for (pos, &f) in free.iter().enumerate() {
            slot[f as usize] = pos as u32;
        }
        FrameAllocator {
            free,
            slot,
            policy,
            total_frames: n,
        }
    }

    /// Number of free frames.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Allocates `n` frames. Returns frame indices in mapping order, or
    /// `None` if memory is exhausted.
    pub fn alloc(&mut self, n: usize) -> Option<Vec<usize>> {
        if n == 0 {
            return Some(Vec::new());
        }
        if self.free.len() < n {
            return None;
        }
        if self.policy == AllocPolicy::BestEffortContiguous {
            if let Some(run) = self.find_contiguous_run(n) {
                for &f in &run {
                    self.take(f);
                }
                return Some(run);
            }
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let f = self.free.pop().expect("checked above") as usize;
            self.slot[f] = IN_USE;
            out.push(f);
        }
        Some(out)
    }

    /// Allocates `n` *physically contiguous* frames regardless of policy,
    /// or `None` if no run exists. Used for the driver's receive-buffer
    /// pool (the paper's 16 KB buffers), which traditional systems carve
    /// out of a statically allocated contiguous region (§2.2).
    pub fn alloc_contiguous(&mut self, n: usize) -> Option<Vec<usize>> {
        if n == 0 {
            return Some(Vec::new());
        }
        let run = self.find_contiguous_run(n)?;
        for &f in &run {
            self.take(f);
        }
        Some(run)
    }

    /// Returns frames to the free pool.
    ///
    /// # Panics
    /// Panics on double free.
    pub fn free(&mut self, frames: &[usize]) {
        for &f in frames {
            assert!(self.slot[f] == IN_USE, "double free of frame {f}");
            self.slot[f] = self.free.len() as u32;
            self.free.push(f as u32);
        }
    }

    /// Takes a given free frame out of the free list: the list's last
    /// frame moves into its place.
    fn take(&mut self, frame: usize) {
        let pos = self.slot[frame];
        assert!(pos != IN_USE, "frame not free");
        self.free.swap_remove(pos as usize);
        if let Some(&moved) = self.free.get(pos as usize) {
            self.slot[moved as usize] = pos;
        }
        self.slot[frame] = IN_USE;
    }

    fn find_contiguous_run(&self, n: usize) -> Option<Vec<usize>> {
        // O(frames) scan over the slot index; fine at simulation scale.
        let mut run_start = 0;
        let mut run_len = 0;
        for f in 0..self.total_frames {
            if self.slot[f] == IN_USE {
                run_len = 0;
            } else {
                if run_len == 0 {
                    run_start = f;
                }
                run_len += 1;
                if run_len == n {
                    return Some((run_start..run_start + n).collect());
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PhysMemory {
        PhysMemory::new(64 * 4096, 4096)
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mem();
        m.write(PhysAddr(100), b"osiris");
        assert_eq!(m.read(PhysAddr(100), 6), b"osiris");
        m.fill(PhysAddr(200), 4, 0xAB);
        assert_eq!(m.read(PhysAddr(200), 4), &[0xAB; 4]);
    }

    #[test]
    fn frame_geometry() {
        let m = mem();
        assert_eq!(m.frames(), 64);
        assert_eq!(m.frame_addr(3), PhysAddr(3 * 4096));
    }

    #[test]
    #[should_panic]
    fn out_of_range_read_panics() {
        let m = mem();
        let _ = m.read(PhysAddr((64 * 4096) as u64 - 2), 4);
    }

    #[test]
    fn sequential_alloc_is_contiguous() {
        let m = mem();
        let mut a = FrameAllocator::new(&m, AllocPolicy::Sequential, 0);
        let frames = a.alloc(4).unwrap();
        assert_eq!(frames, vec![0, 1, 2, 3]);
    }

    #[test]
    fn scattered_alloc_is_noncontiguous() {
        let m = mem();
        let mut a = FrameAllocator::new(&m, AllocPolicy::Scattered, 42);
        let frames = a.alloc(8).unwrap();
        // With 64 shuffled frames the odds of 8 sequential ones are nil.
        let contiguous = frames.windows(2).all(|w| w[1] == w[0] + 1);
        assert!(
            !contiguous,
            "scattered policy produced a contiguous run: {frames:?}"
        );
    }

    #[test]
    fn scattered_is_deterministic_per_seed() {
        let m = mem();
        let mut a = FrameAllocator::new(&m, AllocPolicy::Scattered, 7);
        let mut b = FrameAllocator::new(&m, AllocPolicy::Scattered, 7);
        assert_eq!(a.alloc(16), b.alloc(16));
    }

    #[test]
    fn alloc_exhaustion_returns_none() {
        let m = mem();
        let mut a = FrameAllocator::new(&m, AllocPolicy::Sequential, 0);
        assert!(a.alloc(64).is_some());
        assert_eq!(a.alloc(1), None);
    }

    #[test]
    fn free_recycles_frames() {
        let m = mem();
        let mut a = FrameAllocator::new(&m, AllocPolicy::Sequential, 0);
        let f = a.alloc(64).unwrap();
        a.free(&f[..10]);
        assert_eq!(a.free_frames(), 10);
        assert!(a.alloc(10).is_some());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let m = mem();
        let mut a = FrameAllocator::new(&m, AllocPolicy::Sequential, 0);
        let f = a.alloc(2).unwrap();
        a.free(&f);
        a.free(&f);
    }

    #[test]
    fn best_effort_finds_contiguous_when_available() {
        let m = mem();
        let mut a = FrameAllocator::new(&m, AllocPolicy::BestEffortContiguous, 3);
        let frames = a.alloc(4).unwrap();
        assert!(frames.windows(2).all(|w| w[1] == w[0] + 1), "{frames:?}");
    }

    #[test]
    fn best_effort_falls_back_when_fragmented() {
        let m = mem();
        let mut a = FrameAllocator::new(&m, AllocPolicy::BestEffortContiguous, 3);
        // Chessboard the memory: allocate everything, free every other frame.
        let all = a.alloc(64).unwrap();
        let evens: Vec<usize> = (0..64).filter(|f| f % 2 == 0).collect();
        // `all` is a permutation of 0..64; free exactly the even frames.
        let to_free: Vec<usize> = all.iter().copied().filter(|f| evens.contains(f)).collect();
        a.free(&to_free);
        // No 2-frame contiguous run exists, but allocation still succeeds.
        let frames = a.alloc(2).unwrap();
        assert!(frames.windows(2).any(|w| w[1] != w[0] + 1) || frames.len() < 2);
    }

    #[test]
    fn alloc_zero_is_empty() {
        let m = mem();
        let mut a = FrameAllocator::new(&m, AllocPolicy::Sequential, 0);
        assert_eq!(a.alloc(0), Some(vec![]));
    }
}
