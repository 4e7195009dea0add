//! # osiris-fbuf — fast buffers (§3.1)
//!
//! "The fbuf mechanism … combines two well-known techniques for
//! transferring data across protection domains: page remapping and shared
//! memory." An fbuf that is already mapped into a path's sequence of
//! domains is **cached**; transferring it costs almost nothing. An
//! **uncached** fbuf must be mapped into each domain as it crosses, paying
//! page-remap costs — "an order of magnitude difference in how fast the
//! data can be transferred across a domain boundary".
//!
//! The OSIRIS driver "maintains queues of preallocated cached fbufs for
//! the 16 most recently used data paths, plus a single queue of
//! preallocated uncached fbufs"; the board's early-demultiplexing decision
//! (VCI → path) picks which queue a reassembly buffer comes from.
//!
//! # Example
//!
//! ```
//! use osiris_fbuf::{FbufAllocator, FbufCosts, FbufSource};
//! use osiris_host::machine::{HostMachine, MachineSpec};
//! use osiris_mem::PhysAddr;
//! use osiris_sim::SimTime;
//!
//! let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 1);
//! let costs = FbufCosts::for_machine(&host);
//! let mut fbufs = FbufAllocator::new(costs, PhysAddr(0x10_0000), 16 * 1024, 8);
//!
//! // First use of a path: uncached, pays per-page mapping on transfer.
//! let (mut fb, src) = fbufs.alloc_for_path(3).unwrap();
//! assert_eq!(src, FbufSource::Uncached);
//! fbufs.transfer(SimTime::ZERO, &mut host, &mut fb, 3);
//! fbufs.release(fb);
//!
//! // The path is now warm: cached fbufs, order-of-magnitude cheaper.
//! let (_, src) = fbufs.alloc_for_path(3).unwrap();
//! assert_eq!(src, FbufSource::Cached);
//! ```

use std::collections::VecDeque;

use osiris_host::machine::HostMachine;
use osiris_mem::PhysAddr;
use osiris_sim::obs::{Counter, Probe};
use osiris_sim::resource::Grant;
use osiris_sim::{SimDuration, SimTime};

/// How many paths keep preallocated cached fbufs (the paper: 16 MRU).
pub const CACHED_PATHS: usize = 16;

/// Identifies an fbuf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FbufId(pub u64);

/// One fast buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fbuf {
    /// Identity.
    pub id: FbufId,
    /// Physically contiguous storage.
    pub addr: PhysAddr,
    /// Size in bytes.
    pub len: u32,
    /// The path whose domain sequence this fbuf is currently mapped into
    /// (`None` = uncached).
    pub cached_for: Option<u32>,
}

/// Where an allocation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FbufSource {
    /// Preallocated and already mapped for the requesting path.
    Cached,
    /// Taken from the uncached pool; the first transfer will pay mapping.
    Uncached,
}

/// Transfer-cost model. The cached/uncached split is the experiment knob;
/// absolute values follow the fbufs paper's order-of-magnitude claim.
#[derive(Debug, Clone, Copy)]
pub struct FbufCosts {
    /// Handing a cached fbuf across one domain boundary (bookkeeping +
    /// pointer passing through shared memory).
    pub cached_transfer: SimDuration,
    /// Per-page remap cost for an uncached fbuf crossing a boundary.
    pub uncached_map_per_page: SimDuration,
    /// Fixed VM overhead per uncached transfer.
    pub uncached_fixed: SimDuration,
}

impl FbufCosts {
    /// Costs scaled to the host (the Alpha's VM operations are faster).
    pub fn for_machine(h: &HostMachine) -> Self {
        match h.spec.bus.topology {
            osiris_mem::MemTopology::SharedBus => FbufCosts {
                cached_transfer: SimDuration::from_us(18),
                uncached_map_per_page: SimDuration::from_us(40),
                uncached_fixed: SimDuration::from_us(60),
            },
            osiris_mem::MemTopology::Crossbar => FbufCosts {
                cached_transfer: SimDuration::from_us(7),
                uncached_map_per_page: SimDuration::from_us(16),
                uncached_fixed: SimDuration::from_us(25),
            },
        }
    }
}

#[derive(Debug)]
struct PathQueue {
    path: u32,
    bufs: VecDeque<Fbuf>,
}

/// The allocator's registry-visible counters (scope `<probe>.fbuf`).
#[derive(Debug, Clone)]
struct FbufCounters {
    cached_hits: Counter,
    uncached_allocs: Counter,
    evictions: Counter,
}

impl FbufCounters {
    fn with_probe(probe: &Probe) -> Self {
        let p = probe.scoped("fbuf");
        FbufCounters {
            cached_hits: p.counter("cached_hits"),
            uncached_allocs: p.counter("uncached_allocs"),
            evictions: p.counter("evictions"),
        }
    }
}

/// The driver's fbuf allocator: per-path cached queues (MRU-limited) plus
/// the shared uncached pool.
#[derive(Debug)]
pub struct FbufAllocator {
    costs: FbufCosts,
    /// MRU-ordered (front = most recent) path queues, at most
    /// [`CACHED_PATHS`] of them.
    paths: Vec<PathQueue>,
    uncached: VecDeque<Fbuf>,
    stats: FbufCounters,
}

impl FbufAllocator {
    /// An allocator with detached counters (standalone use). See
    /// [`FbufAllocator::with_probe`].
    pub fn new(costs: FbufCosts, base: PhysAddr, buf_len: u32, pool: usize) -> Self {
        FbufAllocator::with_probe(costs, base, buf_len, pool, &Probe::detached())
    }

    /// An allocator over a preallocated pool of `pool` uncached fbufs of
    /// `buf_len` bytes each, carved from `base` (physically contiguous;
    /// provisioning cost is a boot-time affair), publishing its counters
    /// under `<scope>.fbuf`.
    pub fn with_probe(
        costs: FbufCosts,
        base: PhysAddr,
        buf_len: u32,
        pool: usize,
        probe: &Probe,
    ) -> Self {
        let uncached = (0..pool)
            .map(|i| Fbuf {
                id: FbufId(i as u64),
                addr: base.offset(i as u64 * buf_len as u64),
                len: buf_len,
                cached_for: None,
            })
            .collect();
        FbufAllocator {
            costs,
            paths: Vec::new(),
            uncached,
            stats: FbufCounters::with_probe(probe),
        }
    }

    /// Allocates a reassembly buffer for `path` — the decision the OSIRIS
    /// receive processor makes per incoming PDU: "it checks to see if
    /// there is a preallocated fbuf for the VCI of the incoming packet. If
    /// not, it uses a buffer from the queue of uncached fbufs."
    pub fn alloc_for_path(&mut self, path: u32) -> Option<(Fbuf, FbufSource)> {
        if let Some(idx) = self.paths.iter().position(|p| p.path == path) {
            // MRU maintenance.
            let mut q = self.paths.remove(idx);
            if let Some(buf) = q.bufs.pop_front() {
                self.paths.insert(0, q);
                self.stats.cached_hits.incr();
                return Some((buf, FbufSource::Cached));
            }
            self.paths.insert(0, q);
        }
        let buf = self.uncached.pop_front()?;
        self.stats.uncached_allocs.incr();
        Some((buf, FbufSource::Uncached))
    }

    /// Returns an fbuf after the application consumed it. A buffer that
    /// crossed domains for a path stays mapped (cached) for that path;
    /// caching a new path may evict the least-recently-used one, whose
    /// buffers fall back to the uncached pool (their mappings are torn
    /// down lazily).
    pub fn release(&mut self, mut buf: Fbuf) {
        match buf.cached_for {
            Some(path) => {
                if let Some(idx) = self.paths.iter().position(|p| p.path == path) {
                    self.paths[idx].bufs.push_back(buf);
                    return;
                }
                // New cached path: make room.
                if self.paths.len() == CACHED_PATHS {
                    let evicted = self.paths.pop().expect("non-empty");
                    self.stats.evictions.incr();
                    for mut b in evicted.bufs {
                        b.cached_for = None;
                        self.uncached.push_back(b);
                    }
                }
                let mut q = PathQueue {
                    path,
                    bufs: VecDeque::new(),
                };
                q.bufs.push_back(buf);
                self.paths.insert(0, q);
            }
            None => {
                buf.cached_for = None;
                self.uncached.push_back(buf);
            }
        }
    }

    /// Transfers an fbuf across one protection-domain boundary along
    /// `path`, charging the CPU. A cached fbuf is cheap; an uncached one
    /// pays per-page remapping and *becomes* cached for the path.
    pub fn transfer(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        buf: &mut Fbuf,
        path: u32,
    ) -> Grant {
        let cost = if buf.cached_for == Some(path) {
            self.costs.cached_transfer
        } else {
            let pages = (buf.len as u64).div_ceil(host.spec.page_size as u64);
            buf.cached_for = Some(path);
            self.costs.uncached_fixed
                + SimDuration::from_ps(self.costs.uncached_map_per_page.as_ps() * pages)
        };
        host.run_cpu(now, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osiris_host::machine::MachineSpec;
    use osiris_sim::Registry;

    /// A host and an allocator whose counters land in the returned
    /// registry under `fbuf.*`.
    fn setup() -> (HostMachine, FbufAllocator, Registry) {
        let host = HostMachine::boot(MachineSpec::ds5000_200(), 2);
        let costs = FbufCosts::for_machine(&host);
        let reg = Registry::new();
        let alloc =
            FbufAllocator::with_probe(costs, PhysAddr(0x10_0000), 16 * 1024, 64, &reg.probe(""));
        (host, alloc, reg)
    }

    #[test]
    fn first_use_is_uncached_then_cached() {
        let (mut host, mut alloc, reg) = setup();
        let (mut buf, src) = alloc.alloc_for_path(5).unwrap();
        assert_eq!(src, FbufSource::Uncached);
        alloc.transfer(SimTime::ZERO, &mut host, &mut buf, 5);
        alloc.release(buf);
        // Second allocation for the same path hits the cache.
        let (buf2, src2) = alloc.alloc_for_path(5).unwrap();
        assert_eq!(src2, FbufSource::Cached);
        assert_eq!(buf2.cached_for, Some(5));
        assert_eq!(reg.snapshot().counters["fbuf.cached_hits"], 1);
        assert_eq!(reg.snapshot().counters["fbuf.uncached_allocs"], 1);
    }

    #[test]
    fn cached_transfer_is_order_of_magnitude_faster() {
        let (mut host, mut alloc, _) = setup();
        let (mut buf, _) = alloc.alloc_for_path(1).unwrap();
        let g1 = alloc.transfer(SimTime::ZERO, &mut host, &mut buf, 1);
        let uncached_cost = g1.finish.since(g1.start);
        let g2 = alloc.transfer(g1.finish, &mut host, &mut buf, 1);
        let cached_cost = g2.finish.since(g2.start);
        assert!(
            uncached_cost.as_ps() >= 10 * cached_cost.as_ps(),
            "order of magnitude: {uncached_cost} vs {cached_cost}"
        );
    }

    #[test]
    fn mru_eviction_at_17_paths() {
        let (mut host, mut alloc, reg) = setup();
        // Cache one buffer for paths 0..16.
        for path in 0..17u32 {
            let (mut buf, _) = alloc.alloc_for_path(path).unwrap();
            alloc.transfer(SimTime::ZERO, &mut host, &mut buf, path);
            alloc.release(buf);
        }
        assert_eq!(reg.snapshot().counters["fbuf.evictions"], 1);
        // Path 0 was least recently used → evicted → next alloc uncached.
        let (_, src) = alloc.alloc_for_path(0).unwrap();
        assert_eq!(src, FbufSource::Uncached);
        // Path 16 is still cached.
        let (_, src) = alloc.alloc_for_path(16).unwrap();
        assert_eq!(src, FbufSource::Cached);
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let (_, mut alloc, _) = setup();
        for _ in 0..64 {
            assert!(alloc.alloc_for_path(9).is_some());
        }
        assert!(alloc.alloc_for_path(9).is_none());
    }

    #[test]
    fn release_uncached_goes_back_to_pool() {
        let (_, mut alloc, _) = setup();
        let (buf, _) = alloc.alloc_for_path(3).unwrap();
        alloc.release(buf); // never transferred → still uncached
                            // The whole pool of 64 is available again.
        for _ in 0..64 {
            assert!(alloc.alloc_for_path(9).is_some());
        }
        assert!(alloc.alloc_for_path(9).is_none());
    }

    #[test]
    fn touching_a_path_refreshes_mru_order() {
        let (mut host, mut alloc, _) = setup();
        for path in 0..16u32 {
            let (mut b, _) = alloc.alloc_for_path(path).unwrap();
            alloc.transfer(SimTime::ZERO, &mut host, &mut b, path);
            alloc.release(b);
        }
        // Touch path 0 (making path 1 the LRU), then cache path 99.
        let (b0, s0) = alloc.alloc_for_path(0).unwrap();
        assert_eq!(s0, FbufSource::Cached);
        alloc.release(b0);
        let (mut b99, _) = alloc.alloc_for_path(99).unwrap();
        alloc.transfer(SimTime::ZERO, &mut host, &mut b99, 99);
        alloc.release(b99);
        // Path 1 should have been evicted, path 0 retained.
        let (_, s1) = alloc.alloc_for_path(1).unwrap();
        assert_eq!(s1, FbufSource::Uncached);
        let (_, s0b) = alloc.alloc_for_path(0).unwrap();
        assert_eq!(s0b, FbufSource::Cached);
    }

    #[test]
    fn alpha_costs_are_lower() {
        let ds = HostMachine::boot(MachineSpec::ds5000_200(), 1);
        let ax = HostMachine::boot(MachineSpec::dec3000_600(), 1);
        let cds = FbufCosts::for_machine(&ds);
        let cax = FbufCosts::for_machine(&ax);
        assert!(cax.cached_transfer < cds.cached_transfer);
        assert!(cax.uncached_map_per_page < cds.uncached_map_per_page);
    }
}
