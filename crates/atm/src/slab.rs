//! Slab arena for in-flight cells.
//!
//! The paper's central software lesson (§2.5, §4) is that per-cell work —
//! copies, allocations, bookkeeping — caps delivered bandwidth long before
//! the link does. The simulator used to embody the same pathology: every
//! 53-byte cell travelled the stripe → switch → rx path as an owned
//! [`Cell`] that was cloned at each hand-off. [`CellSlab`] replaces that
//! with arena semantics: cells live in slab slots and move through the
//! pipeline as copyable 4-byte [`CellRef`] handles. Freed slots go on a
//! free list and are recycled for subsequent inserts, so a steady-state
//! run allocates a bounded working set no matter how many cells it pushes.
//!
//! The slab is observability-friendly: `cells.slab_recycled` counts every
//! insert satisfied from the free list (proof that recycling, not fresh
//! allocation, is carrying the steady state), and `cells.slab_high_water`
//! records the peak number of live slots.

use crate::cell::Cell;
use osiris_sim::obs::{Counter, Gauge};
use osiris_sim::Probe;

/// A copyable handle to a cell parked in a [`CellSlab`].
///
/// Handles are move tokens, not borrows: whoever holds the `CellRef` owns
/// the slot, and the slot stays live until [`CellSlab::remove`] (or
/// [`CellSlab::free`]) consumes the handle. The type is deliberately tiny
/// (4 bytes) so events that carry cells — e.g. the testbed's
/// `CellArrival` — stay small and cheap to shuffle through the event
/// queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellRef(u32);

/// A free-list slab of [`Cell`]s addressed by [`CellRef`] handles.
///
/// Not a general-purpose allocator: it is single-threaded like the rest of
/// the simulator, panics on use-after-free (that is always a model bug,
/// exactly like the kernel's causality assert), and never shrinks — the
/// working set of a run is its high-water mark.
#[derive(Debug, Default)]
pub struct CellSlab {
    slots: Vec<Option<Cell>>,
    free: Vec<u32>,
    recycled: Counter,
    high_water: Gauge,
}

impl CellSlab {
    /// An empty slab with detached (unregistered) instrumentation.
    pub fn new() -> CellSlab {
        CellSlab::default()
    }

    /// Registers the slab's counters under `probe` (conventionally the
    /// registry's `cells` scope): `slab_recycled` and `slab_high_water`.
    /// Existing totals carry over.
    pub fn attach_probe(&mut self, probe: &Probe) {
        let recycled = probe.counter("slab_recycled");
        recycled.add(self.recycled.get());
        self.recycled = recycled;
        let high_water = probe.gauge("slab_high_water");
        high_water.set(self.high_water.get());
        self.high_water = high_water;
    }

    /// Parks a cell, preferring a recycled slot off the free list.
    #[inline]
    pub fn insert(&mut self, cell: Cell) -> CellRef {
        if let Some(idx) = self.free.pop() {
            debug_assert!(self.slots[idx as usize].is_none());
            self.slots[idx as usize] = Some(cell);
            self.recycled.incr();
            CellRef(idx)
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Some(cell));
            self.high_water.set(self.slots.len() as f64);
            CellRef(idx)
        }
    }

    /// Takes the cell out, freeing the slot for recycling.
    ///
    /// # Panics
    /// Panics on a stale handle (double-remove) — a model bug.
    #[inline]
    pub fn remove(&mut self, r: CellRef) -> Cell {
        let cell = self.slots[r.0 as usize]
            .take()
            .expect("CellRef used after free");
        self.free.push(r.0);
        cell
    }

    /// Drops the cell without reading it (e.g. a dropped/unroutable cell).
    #[inline]
    pub fn free(&mut self, r: CellRef) {
        self.remove(r);
    }

    /// Borrows the cell behind a live handle.
    ///
    /// # Panics
    /// Panics on a stale handle.
    #[inline]
    pub fn get(&self, r: CellRef) -> &Cell {
        self.slots[r.0 as usize]
            .as_ref()
            .expect("CellRef used after free")
    }

    /// Mutably borrows the cell behind a live handle.
    ///
    /// # Panics
    /// Panics on a stale handle.
    #[inline]
    pub fn get_mut(&mut self, r: CellRef) -> &mut Cell {
        self.slots[r.0 as usize]
            .as_mut()
            .expect("CellRef used after free")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vci::Vci;
    use osiris_sim::Registry;

    fn cell(seq: u16) -> Cell {
        Cell::data(Vci(5), seq, &[seq as u8; 4])
    }

    #[test]
    fn insert_get_remove_round_trips() {
        let mut slab = CellSlab::new();
        let a = slab.insert(cell(1));
        let b = slab.insert(cell(2));
        assert_eq!(slab.get(a).aal.seq, 1);
        assert_eq!(slab.get(b).aal.seq, 2);
        let out = slab.remove(a);
        assert_eq!(out.aal.seq, 1);
        assert_eq!(slab.get(b).aal.seq, 2);
    }

    #[test]
    fn freed_slots_are_recycled_and_counted() {
        let reg = Registry::new();
        let mut slab = CellSlab::new();
        slab.attach_probe(&reg.probe("cells"));
        let a = slab.insert(cell(1));
        slab.free(a);
        let b = slab.insert(cell(2));
        // Same physical slot, fresh contents.
        assert_eq!(a, b);
        assert_eq!(slab.get(b).aal.seq, 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cells.slab_recycled"), 1);
        assert_eq!(snap.gauge("cells.slab_high_water"), 1.0);
    }

    #[test]
    fn steady_state_traffic_reuses_a_bounded_working_set() {
        let reg = Registry::new();
        let mut slab = CellSlab::new();
        slab.attach_probe(&reg.probe("cells"));
        // 32 in flight at a time, 100 generations.
        let mut live = Vec::new();
        for gen in 0..100u16 {
            for i in 0..32u16 {
                live.push(slab.insert(cell(gen * 32 + i)));
            }
            for r in live.drain(..) {
                slab.remove(r);
            }
        }
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("cells.slab_high_water"), 32.0);
        assert_eq!(snap.counter("cells.slab_recycled"), 99 * 32);
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut slab = CellSlab::new();
        let r = slab.insert(cell(9));
        slab.get_mut(r).header.last_cell = true;
        assert!(slab.get(r).header.last_cell);
    }

    #[test]
    #[should_panic(expected = "CellRef used after free")]
    fn use_after_free_panics() {
        let mut slab = CellSlab::new();
        let r = slab.insert(cell(1));
        slab.remove(r);
        let _ = slab.get(r);
    }
}
