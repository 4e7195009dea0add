//! The receive processor — reassembly firmware on the receive-side i80960.
//!
//! "The microprocessor reads from a FIFO the VCI and AAL information that
//! is stripped from cells as they are received. By examining this
//! information, and using other information from the host (such as a list
//! of reassembly buffers), the microprocessor determines the appropriate
//! host memory address at which the payload of each received cell is to be
//! stored." (§1)
//!
//! The pieces reproduced here:
//!
//! * **Early demultiplexing** (§3.1): the VCI selects a queue page — and
//!   therefore a free-buffer queue pre-loaded with buffers already mapped
//!   for the right path (fbufs) or owned by the right application (ADCs).
//! * **Interrupt suppression** (§2.1.2): an interrupt is asserted only per
//!   the configured [`InterruptPolicy`].
//! * **Double-cell DMA combining** (§2.5.1): "the microprocessor can look
//!   at two cell headers before deciding what to do with their associated
//!   payloads" — a pending payload is held briefly and merged with its
//!   successor when the two land contiguously in host memory. Skew defeats
//!   the optimisation by making successive cells non-contiguous, which the
//!   skew experiments quantify.
//! * **Page-boundary-stop DMA** (§2.5.2), via [`plan_dma`].
//! * **Overload shedding** (§3.1): when a path's free-buffer queue is
//!   empty, the PDU is dropped *on the board*, "before they have consumed
//!   any processing resources on the host".

use std::collections::HashSet;

use osiris_atm::sar::{check_lanes, CellDisposition, PduComplete, Reassembler, ReassemblyMode};
use osiris_atm::{Cell, Vci};
use osiris_mem::{DataCache, MemorySystem, PhysAddr, PhysMemory};
use osiris_sim::obs::{Counter, Probe};
use osiris_sim::{FifoResource, FxHashMap, SimDuration, SimTime, SymId, Timeline, TraceCtx};

use crate::descriptor::{DescRing, Descriptor};

/// One cell's worth of payload (merge-window arithmetic).
const CELL_MAX: usize = 44;
use crate::dma::{plan_dma, DmaMode};
use crate::dpram::{DpramLayout, QUEUE_PAGES};
use crate::interrupt::InterruptPolicy;
use crate::tx::FirmwareSpec;

/// Receive-half configuration.
#[derive(Debug, Clone, Copy)]
pub struct RxConfig {
    /// DMA transfer-length rule for storing payloads to host memory.
    pub dma_mode: DmaMode,
    /// Reassembly strategy (§2.6).
    pub reassembly: ReassemblyMode,
    /// Interrupt policy (§2.1.2).
    pub interrupt_policy: InterruptPolicy,
    /// Host page size (page-boundary-stop rule).
    pub page_size: u64,
    /// Receive buffer size supplied by the host (paper: 16 KB).
    pub buffer_bytes: u32,
    /// How long a pending payload may wait for a combinable successor
    /// before being flushed (double-cell mode).
    pub lookahead_window: SimDuration,
    /// Largest PDU the reassembler accepts.
    pub max_pdu_bytes: u32,
    /// Per-VCI reassembly timeout: a PDU whose first cell is older than
    /// this without completing is abandoned and its physical buffers
    /// reclaimed (see [`RxProcessor::reap_stale`]). `None` (the paper's
    /// firmware) waits forever — a dropped cell wedges the VCI.
    pub reassembly_timeout: Option<SimDuration>,
    /// Firmware budgets.
    pub fw: FirmwareSpec,
}

impl RxConfig {
    /// The configuration the paper measured with (single-cell DMA, 16 KB
    /// buffers, transition interrupts, in-order reassembly).
    pub fn paper_default() -> Self {
        RxConfig {
            dma_mode: DmaMode::SingleCell,
            reassembly: ReassemblyMode::InOrder,
            interrupt_policy: InterruptPolicy::OnTransition,
            page_size: 4096,
            buffer_bytes: 16 * 1024,
            lookahead_window: SimDuration::from_us(6),
            max_pdu_bytes: 256 * 1024,
            reassembly_timeout: None,
            fw: FirmwareSpec::paper_default(),
        }
    }
}

/// Completion information surfaced to the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxPduInfo {
    /// The PDU's VCI.
    pub vci: Vci,
    /// Reassembler-local PDU number.
    pub pdu: u64,
    /// Data length.
    pub len: u32,
    /// CRC verdict.
    pub crc_ok: bool,
    /// True if the PDU was shed for lack of buffers (nothing delivered).
    pub dropped: bool,
}

/// What one cell's processing did. The descriptors it pushed to the
/// receive rings are in [`RxProcessor::pushed`] until the next call.
#[derive(Debug, Default, Clone, Copy)]
pub struct RxOutcome {
    /// If an interrupt must be asserted: when.
    pub interrupt_at: Option<SimTime>,
    /// If a payload is now pending for double-cell combining: the deadline
    /// by which [`RxProcessor::flush_pending`] must be called.
    pub flush_deadline: Option<(u64, SimTime)>,
    /// Set when the cell completed (or finished shedding) a PDU: the
    /// last one, when a SeqNum cell completed several.
    pub completed: Option<RxPduInfo>,
}

/// One open PDU's receive buffers. Records are recycled through
/// [`Datapath::spare`], so their two lists keep their capacity across
/// PDUs.
#[derive(Debug)]
struct PduBufState {
    page: usize,
    bufs: Vec<Option<Descriptor>>,
    buf_fill: Vec<u32>,
    pushed_upto: usize,
    poisoned: bool,
    /// Trace identity carried by the PDU's cells (first cell wins).
    ctx: Option<TraceCtx>,
    /// When the PDU's first cell reached the firmware — the start of its
    /// reassembly window on the timeline.
    first_at: SimTime,
}

impl PduBufState {
    /// `spare` reset for a PDU starting now on `page`, or a fresh record.
    fn reuse(spare: Option<PduBufState>, page: usize, first_at: SimTime) -> Self {
        let (mut bufs, mut buf_fill) =
            spare.map_or_else(Default::default, |s| (s.bufs, s.buf_fill));
        bufs.clear();
        buf_fill.clear();
        PduBufState {
            page,
            bufs,
            buf_fill,
            pushed_upto: 0,
            poisoned: false,
            ctx: None,
            first_at,
        }
    }
}

/// The receive half's registry-visible counters (scope `<probe>.rx`).
#[derive(Debug, Clone)]
struct RxCounters {
    cells: Counter,
    pdus_delivered: Counter,
    pdus_dropped_no_buffer: Counter,
    pdus_crc_failed: Counter,
    cells_rejected: Counter,
    cells_unknown_vci: Counter,
    pdus_dropped_timeout: Counter,
    dma_transactions: Counter,
    double_cell_merges: Counter,
    /// Interrupt opportunities: descriptor pushes that would interrupt
    /// under a fire-always policy.
    intr_raised: Counter,
    /// Opportunities the configured policy elected not to assert; the
    /// host takes exactly `intr_raised - intr_suppressed` rx interrupts.
    intr_suppressed: Counter,
    violations: Counter,
}

impl RxCounters {
    fn with_probe(probe: &Probe) -> Self {
        let p = probe.scoped("rx");
        RxCounters {
            cells: p.counter("cells"),
            pdus_delivered: p.counter("pdus_delivered"),
            pdus_dropped_no_buffer: p.counter("pdus_dropped_no_buffer"),
            pdus_crc_failed: p.counter("pdus_crc_failed"),
            cells_rejected: p.counter("cells_rejected"),
            cells_unknown_vci: p.counter("cells_unknown_vci"),
            pdus_dropped_timeout: p.counter("pdus_dropped_timeout"),
            dma_transactions: p.counter("dma_transactions"),
            double_cell_merges: p.counter("double_cell_merges"),
            intr_raised: p.counter("intr_raised"),
            intr_suppressed: p.counter("intr_suppressed"),
            violations: p.counter("violations"),
        }
    }
}

/// A payload held back for double-cell combining; its bytes are in
/// [`Datapath::pending_data`].
#[derive(Debug)]
struct PendingDma {
    key: (Vci, u64),
    addr: PhysAddr,
    buf_index: usize,
    gen: u64,
    ready: SimTime,
    ctx: Option<TraceCtx>,
}

/// One VCI's receive state, found with one probe per cell: its
/// early-demultiplexing binding, its reassembler and the buffer state of
/// its open PDUs.
#[derive(Debug)]
struct VciRecord {
    /// The queue page the VCI is bound to; `None` for a VCI first seen
    /// while no binding existed (promiscuous, page 0).
    page: Option<usize>,
    reasm: Reassembler,
    /// Open PDUs by reassembler-local number — usually one, a few when
    /// lanes lag or a lost cell leaves a PDU for the reassembly timeout.
    open: Vec<(u64, PduBufState)>,
}

impl VciRecord {
    fn new(cfg: &RxConfig) -> Self {
        VciRecord {
            page: None,
            reasm: Reassembler::new(cfg.reassembly, cfg.max_pdu_bytes),
            open: Vec::new(),
        }
    }
}

/// The receive half of the board.
#[derive(Debug)]
pub struct RxProcessor {
    /// Per-VCI state: binding, reassembler and open PDUs.
    vcis: FxHashMap<Vci, VciRecord>,
    /// VCIs with a binding. Zero means promiscuous: every VCI lands on
    /// the kernel page (0).
    bound: usize,
    /// Everything else. Split from `vcis` so a PDU's state can be updated
    /// in place while the datapath stores its payload.
    dp: Datapath,
    /// Reap-sweep scratch: the stale `(vci, pdu)` keys, sorted.
    stale: Vec<(Vci, u64)>,
}

/// The firmware's shared receive machinery: rings, DMA, counters and
/// tracing.
#[derive(Debug)]
struct Datapath {
    cfg: RxConfig,
    /// The firmware's per-cell budget (`rx_cell_cycles`, plus
    /// `rx_reorder_extra_cycles` off InOrder) and per-PDU completion
    /// budget, costed once from `cfg.fw`.
    cell_time: SimDuration,
    pdu_time: SimDuration,
    engine: FifoResource,
    free_rings: Vec<DescRing>,
    rx_rings: Vec<DescRing>,
    pending: Option<PendingDma>,
    /// The bytes of `pending` (stale while `pending` is `None`).
    pending_data: Vec<u8>,
    pending_gen: u64,
    /// Descriptors the current call pushed: `(push_time, page, descriptor)`.
    pushed: Vec<(SimTime, usize, Descriptor)>,
    /// Closed PDUs' buffer records, reused by the next PDU to open.
    spare: Vec<PduBufState>,
    authorized: Vec<Option<HashSet<u64>>>,
    stats: RxCounters,
    /// Per-PDU tracing sink (detached/disabled until the harness installs
    /// a shared timeline via [`RxProcessor::set_timeline`]).
    timeline: Timeline,
    /// Track prefix for this processor's spans (`<scope>.rx`).
    track: String,
    /// Interned track/name keys for hot-path span emission — no string
    /// allocation per cell; the symbols resolve back to the exact same
    /// strings at export time. Interned with the timeline by
    /// [`RxProcessor::set_timeline`]; until then the timeline is detached
    /// and records nothing.
    syms: Option<RxSyms>,
    /// End of the last DMA grant this processor issued — bus-wait spans
    /// are clamped to start here so same-track spans never overlap.
    last_dma_end: SimTime,
    /// End of the last `sar.reasm` span — fragments pipeline through the
    /// reassembler, so each window is clamped to start after the previous
    /// one closed (the clipped head is genuine waiting, attributed to the
    /// neighbouring stages by the critical-path analyzer).
    sar_span_floor: SimTime,
}

/// Interned timeline keys for the receive hot path (see [`SymId`]).
#[derive(Debug, Clone, Copy)]
struct RxSyms {
    track: SymId,
    dma_track: SymId,
    sar_reasm: SymId,
    reasm_timeout: SymId,
    bus_wait: SymId,
    dma_rx: SymId,
}

impl RxSyms {
    fn intern(timeline: &Timeline, track: &str) -> RxSyms {
        RxSyms {
            track: timeline.intern(track),
            dma_track: timeline.intern(&format!("{track}.dma")),
            sar_reasm: timeline.intern("sar.reasm"),
            reasm_timeout: timeline.intern("reasm.timeout"),
            bus_wait: timeline.intern("bus.wait"),
            dma_rx: timeline.intern("dma.rx"),
        }
    }
}

impl RxProcessor {
    /// A receive processor with one free/receive ring pair per page and
    /// detached counters (standalone use).
    pub fn new(cfg: RxConfig, layout: DpramLayout) -> Self {
        RxProcessor::with_probe(cfg, layout, &Probe::detached())
    }

    /// A receive processor publishing its counters under `<scope>.rx`.
    ///
    /// # Panics
    /// Panics if a FourWay reassembly names more than
    /// [`osiris_atm::sar::MAX_LANES`] lanes (rejected here, not when the
    /// first cell of a VCI arrives).
    pub fn with_probe(cfg: RxConfig, layout: DpramLayout, probe: &Probe) -> Self {
        if let ReassemblyMode::FourWay { lanes } = cfg.reassembly {
            check_lanes(lanes);
        }
        let track = probe.scoped("rx").scope().to_string();
        let extra = match cfg.reassembly {
            ReassemblyMode::InOrder => 0,
            _ => cfg.fw.rx_reorder_extra_cycles,
        };
        RxProcessor {
            vcis: FxHashMap::default(),
            bound: 0,
            dp: Datapath {
                cell_time: cfg.fw.clock.cycles(cfg.fw.rx_cell_cycles + extra),
                pdu_time: cfg.fw.clock.cycles(cfg.fw.rx_pdu_cycles),
                cfg,
                engine: FifoResource::default(),
                free_rings: (0..QUEUE_PAGES)
                    .map(|_| DescRing::new(layout.free_ring_slots))
                    .collect(),
                rx_rings: (0..QUEUE_PAGES)
                    .map(|_| DescRing::new(layout.rx_ring_slots))
                    .collect(),
                pending: None,
                pending_data: Vec::new(),
                pending_gen: 0,
                pushed: Vec::new(),
                spare: Vec::new(),
                authorized: vec![None; QUEUE_PAGES],
                stats: RxCounters::with_probe(probe),
                timeline: Timeline::default(),
                track,
                syms: None,
                last_dma_end: SimTime::ZERO,
                sar_span_floor: SimTime::ZERO,
            },
            stale: Vec::new(),
        }
    }

    /// Installs the shared timeline this processor opens its per-PDU
    /// spans on (`sar.reasm` on `<scope>.rx`, `bus.wait`/`dma.rx` on
    /// `<scope>.rx.dma`).
    pub fn set_timeline(&mut self, timeline: &Timeline) {
        self.dp.timeline = timeline.clone();
        self.dp.syms = Some(RxSyms::intern(timeline, &self.dp.track));
    }

    /// Binds a VCI to a queue page (the early-demultiplexing table).
    ///
    /// While the table is empty the board is promiscuous: every VCI lands
    /// on the kernel page (0). Once any binding exists, cells on unbound
    /// VCIs are dropped on the board and counted (`cells_unknown_vci`) —
    /// they must not silently alias onto page 0's buffers.
    pub fn bind_vci(&mut self, vci: Vci, page: usize) {
        assert!(page < QUEUE_PAGES);
        let cfg = &self.dp.cfg;
        let rec = self.vcis.entry(vci).or_insert_with(|| VciRecord::new(cfg));
        if rec.page.replace(page).is_none() {
            self.bound += 1;
        }
    }

    /// Restricts `page`'s free buffers to the given frames (§3.2).
    /// Unauthorized free-buffer descriptors are discarded (and counted as
    /// violations) instead of being used for DMA.
    pub fn set_authorized_frames(&mut self, page: usize, frames: Option<HashSet<u64>>) {
        self.dp.authorized[page] = frames;
    }

    /// Host-side access to the free-buffer ring of `page`.
    pub fn free_ring_mut(&mut self, page: usize) -> &mut DescRing {
        &mut self.dp.free_rings[page]
    }

    /// Host-side access to the receive ring of `page`.
    pub fn rx_ring_mut(&mut self, page: usize) -> &mut DescRing {
        &mut self.dp.rx_rings[page]
    }

    /// Read-only receive-ring access.
    pub fn rx_ring(&self, page: usize) -> &DescRing {
        &self.dp.rx_rings[page]
    }

    /// Read-only free-ring access.
    pub fn free_ring(&self, page: usize) -> &DescRing {
        &self.dp.free_rings[page]
    }

    /// When the receive engine next goes idle.
    pub fn engine_free_at(&self) -> SimTime {
        self.dp.engine.free_at()
    }

    /// The descriptors the last [`RxProcessor::receive_cell`] or
    /// [`RxProcessor::reap_stale`] call pushed to the receive rings, as
    /// `(push_time, page, descriptor)` in push order.
    pub fn pushed(&self) -> &[(SimTime, usize, Descriptor)] {
        &self.dp.pushed
    }

    /// Processes one cell arriving on `lane` at `now`.
    pub fn receive_cell(
        &mut self,
        now: SimTime,
        lane: usize,
        cell: &Cell,
        mem: &mut MemorySystem,
        cache: &mut DataCache,
        phys: &mut PhysMemory,
    ) -> RxOutcome {
        let dp = &mut self.dp;
        dp.stats.cells.incr();
        dp.pushed.clear();
        let mut out = RxOutcome::default();

        // Firmware budget for this cell.
        let t_fw = dp.engine.acquire(now, dp.cell_time).finish;

        let vci = cell.header.vci;
        // Early demultiplexing: an unbound VCI must not alias onto page 0's
        // buffers once any binding exists — drop it on the board, counted.
        // (An empty table means promiscuous standalone use: everything is
        // kernel traffic on page 0.)
        let rec = if self.bound == 0 {
            let cfg = &dp.cfg;
            self.vcis.entry(vci).or_insert_with(|| VciRecord::new(cfg))
        } else {
            match self.vcis.get_mut(&vci) {
                Some(rec) if rec.page.is_some() => rec,
                _ => {
                    dp.stats.cells_unknown_vci.incr();
                    return out;
                }
            }
        };
        let page = rec.page.unwrap_or(0);
        let disp: CellDisposition = match rec.reasm.receive(lane, cell) {
            Ok(d) => d,
            Err(_) => {
                dp.stats.cells_rejected.incr();
                return out;
            }
        };

        // The PDU's buffer state is updated where it lives.
        let key = (vci, disp.pdu);
        let slot = match rec.open.iter().position(|(p, _)| *p == disp.pdu) {
            Some(slot) => slot,
            None => {
                let state = PduBufState::reuse(dp.spare.pop(), page, now);
                rec.open.push((disp.pdu, state));
                rec.open.len() - 1
            }
        };
        let state = &mut rec.open[slot].1;
        if state.ctx.is_none() {
            state.ctx = cell.ctx;
        }

        // Store the payload unless the PDU is being shed.
        let mut t_done = t_fw;
        if !state.poisoned {
            t_done = dp.store_payload(
                t_fw,
                key,
                state,
                disp.offset,
                cell,
                mem,
                cache,
                phys,
                &mut out,
            );
        }

        // Completion (also reached while shedding: the reassembler still
        // tracks cell counts so the stream stays framed).
        if disp.completed {
            let complete = rec.reasm.take_completed().expect("completed PDU is parked");
            let (_, state) = rec.open.swap_remove(slot);
            dp.complete_pdu(t_fw, t_done, vci, state, complete, &mut out);
        }
        // Under SeqNum the cell may also have completed PDUs whose cells
        // overtook it; they close right behind it. Their cells were
        // stored under the PDU number their stash disposition named.
        while let Some(complete) = rec.reasm.take_replayed() {
            if let Some(slot) = rec.open.iter().position(|(p, _)| *p == complete.pdu) {
                let (_, state) = rec.open.swap_remove(slot);
                dp.complete_pdu(t_fw, t_done, vci, state, complete, &mut out);
            }
        }
        out
    }

    /// Flushes the pending double-cell payload if `gen` still names it.
    /// Returns true if a flush happened.
    pub fn flush_pending(
        &mut self,
        now: SimTime,
        gen: u64,
        mem: &mut MemorySystem,
        cache: &mut DataCache,
        phys: &mut PhysMemory,
    ) -> bool {
        let dp = &mut self.dp;
        match &dp.pending {
            Some(p) if p.gen == gen => {}
            _ => return false,
        }
        let p = dp.pending.take().expect("checked");
        let data = std::mem::take(&mut dp.pending_data);
        dp.issue_dma(now.max(p.ready), p.addr, &data, p.ctx, mem, cache, phys);
        dp.pending_data = data;
        true
    }

    /// Number of PDU reassemblies currently holding state (and possibly
    /// physical buffers). The harness keeps its reap tick armed while
    /// this is nonzero.
    pub fn partial_pdus(&self) -> usize {
        self.vcis.values().map(|r| r.open.len()).sum()
    }

    /// Abandons reassemblies whose first cell arrived more than the
    /// configured [`RxConfig::reassembly_timeout`] ago: the per-VCI
    /// reassembler is resynchronised ([`Reassembler::abort`]) and the
    /// PDU's physical buffers are reclaimed. Counted as
    /// `pdus_dropped_timeout`.
    ///
    /// Buffers not yet handed to the host go straight back to the page's
    /// free ring. If part of the PDU's chain was already pushed to the
    /// receive ring (multi-buffer PDUs), the chain is closed with an
    /// errored EOP descriptor so the host driver recycles the whole chain
    /// through its normal error path — buffer conservation holds either
    /// way. A no-op when no timeout is configured.
    pub fn reap_stale(&mut self, now: SimTime) -> RxOutcome {
        let mut out = RxOutcome::default();
        self.dp.pushed.clear();
        let Some(timeout) = self.dp.cfg.reassembly_timeout else {
            return out;
        };
        let mut stale = std::mem::take(&mut self.stale);
        stale.clear();
        stale.extend(self.vcis.iter().flat_map(|(&vci, r)| {
            r.open
                .iter()
                .filter(|(_, s)| s.first_at + timeout <= now)
                .map(move |&(pdu, _)| (vci, pdu))
        }));
        // HashMap iteration order is arbitrary; sort for determinism.
        stale.sort_unstable_by_key(|&(v, p)| (v.0, p));
        let dp = &mut self.dp;
        for &key in &stale {
            let rec = self.vcis.get_mut(&key.0).expect("listed above");
            let slot = rec
                .open
                .iter()
                .position(|(p, _)| *p == key.1)
                .expect("listed above");
            let state = &mut rec.open[slot].1;
            let page = state.page;
            let pushed_upto = state.pushed_upto;
            let ctx = state.ctx;
            if pushed_upto > 0 {
                // Close the host-side chain. Reuse the first unpushed
                // buffer as the errored-EOP carrier; if the PDU stalled
                // exactly at a buffer boundary there is none, so borrow
                // one from the free ring (the driver recycles it right
                // back along with the rest of the chain).
                let unpushed = state.bufs.iter().flatten().nth(pushed_upto).copied();
                let Some(closer) = unpushed.or_else(|| dp.free_rings[page].pop().map(|(d, _)| d))
                else {
                    // Nothing anywhere to carry the EOP (free ring
                    // drained and no unpushed buffer). Keep the state,
                    // shed, and retry at the next sweep, once the host
                    // has returned buffers.
                    state.poisoned = true;
                    state.bufs.clear();
                    state.buf_fill.clear();
                    continue;
                };
                let desc = Descriptor {
                    addr: closer.addr,
                    len: 0,
                    vci: key.0,
                    eop: true,
                    err: true,
                    ctx,
                };
                dp.push_rx(now, page, desc, &mut out);
                // The closer went to the host with the chain.
                let skip = pushed_upto + unpushed.is_some() as usize;
                let (_, state) = rec.open.swap_remove(slot);
                for &d in state.bufs.iter().flatten().skip(skip) {
                    let _ = dp.free_rings[page].push(d);
                }
                dp.spare.push(state);
            } else {
                let (_, state) = rec.open.swap_remove(slot);
                for &d in state.bufs.iter().flatten() {
                    let _ = dp.free_rings[page].push(d);
                }
                dp.spare.push(state);
            }
            // Drop a pending double-cell payload aimed at the dead PDU so
            // it is not flushed into a recycled buffer later.
            if dp.pending.as_ref().is_some_and(|p| p.key == key) {
                dp.pending = None;
            }
            rec.reasm.abort(key.1);
            dp.stats.pdus_dropped_timeout.incr();
            if let (Some(c), Some(s)) = (ctx, dp.syms) {
                dp.timeline.instant(s.track, s.reasm_timeout, Some(c), now);
            }
        }
        self.stale = stale;
        out
    }
}

impl Datapath {
    /// Stores one cell's payload into `state`'s buffers, handling buffer
    /// allocation, buffer-boundary straddles, double-cell combining, and
    /// buffer-full pushes. Returns when the payload is in host memory.
    #[allow(clippy::too_many_arguments)]
    fn store_payload(
        &mut self,
        t_fw: SimTime,
        key: (Vci, u64),
        state: &mut PduBufState,
        offset: u32,
        cell: &Cell,
        mem: &mut MemorySystem,
        cache: &mut DataCache,
        phys: &mut PhysMemory,
        out: &mut RxOutcome,
    ) -> SimTime {
        let bb = self.cfg.buffer_bytes;
        let data = cell.data_bytes();
        if data.is_empty() {
            return t_fw;
        }
        let ctx = state.ctx;
        let mut t_done = t_fw;

        // The payload's pieces are its intersections with the receive
        // buffers `first_bi..=last_bi`. Every touched buffer is allocated
        // before any byte moves.
        let first_bi = (offset / bb) as usize;
        let last_bi = ((offset + data.len() as u32 - 1) / bb) as usize;
        for bi in first_bi..=last_bi {
            if !self.ensure_buffer(state, bi) {
                // No free buffer: shed the whole PDU from here on.
                state.poisoned = true;
                return t_fw;
            }
        }

        let is_last = cell.aal.eom || cell.header.last_cell;
        let mut off = offset;
        let mut rest = data;
        for bi in first_bi..=last_bi {
            let in_buf = off % bb;
            let take = ((bb - in_buf) as usize).min(rest.len());
            let (bytes, tail) = rest.split_at(take);
            off += take as u32;
            rest = tail;

            let buf = state.bufs[bi].expect("ensured");
            let addr = buf.addr.offset(in_buf as u64);
            state.buf_fill[bi] += bytes.len() as u32;
            let fills_buffer = state.buf_fill[bi] >= bb;
            let must_issue = is_last || fills_buffer || bi < last_bi;

            if self.cfg.dma_mode != DmaMode::SingleCell {
                t_done = t_done.max(self.double_cell_store(
                    t_fw, key, bi, addr, bytes, ctx, must_issue, mem, cache, phys, out,
                ));
            } else {
                t_done = t_done.max(self.issue_dma(t_fw, addr, bytes, ctx, mem, cache, phys));
            }

            // Push buffers that are now full (in order).
            if fills_buffer && state.pushed_upto == bi {
                let desc = Descriptor {
                    addr: buf.addr,
                    len: bb,
                    vci: key.0,
                    eop: false,
                    err: false,
                    ctx,
                };
                state.pushed_upto = bi + 1;
                self.push_rx(t_done, state.page, desc, out);
            }
        }
        t_done
    }

    /// The double-cell combining path. Holds a lone mid-buffer payload as
    /// pending; merges a contiguous successor into one 88-byte transaction.
    #[allow(clippy::too_many_arguments)]
    fn double_cell_store(
        &mut self,
        t_fw: SimTime,
        key: (Vci, u64),
        bi: usize,
        addr: PhysAddr,
        bytes: &[u8],
        ctx: Option<TraceCtx>,
        must_issue: bool,
        mem: &mut MemorySystem,
        cache: &mut DataCache,
        phys: &mut PhysMemory,
        out: &mut RxOutcome,
    ) -> SimTime {
        // Try to merge with the pending payload. DoubleCell caps the
        // combined transaction at 88 bytes; the ideal Arbitrary
        // controller has no cap (it still stops at page boundaries via
        // plan_dma).
        // Merging beyond a page buys nothing (plan_dma splits there), so
        // the ideal controller issues once a page's worth has gathered.
        let cap = self
            .cfg
            .dma_mode
            .max_len()
            .map(|c| c as usize)
            .unwrap_or(self.cfg.page_size as usize);
        if let Some(p) = self.pending.take() {
            let held = self.pending_data.len();
            let contiguous = p.key == key
                && p.buf_index == bi
                && p.addr.offset(held as u64) == addr
                && held + bytes.len() <= cap;
            let mut data = std::mem::take(&mut self.pending_data);
            if contiguous {
                data.extend_from_slice(bytes);
                self.stats.double_cell_merges.incr();
                if must_issue || data.len() + CELL_MAX > cap {
                    let t = self.issue_dma(t_fw.max(p.ready), p.addr, &data, ctx, mem, cache, phys);
                    self.pending_data = data;
                    return t;
                }
                // Arbitrary mode: keep accumulating.
                self.pending_data = data;
                self.pending_gen += 1;
                let gen = self.pending_gen;
                self.pending = Some(PendingDma {
                    key,
                    addr: p.addr,
                    buf_index: bi,
                    gen,
                    ready: p.ready,
                    ctx,
                });
                out.flush_deadline = Some((gen, t_fw + self.cfg.lookahead_window));
                return t_fw;
            }
            // Not combinable: flush the pending payload on its own.
            self.issue_dma(t_fw.max(p.ready), p.addr, &data, p.ctx, mem, cache, phys);
            self.pending_data = data;
        }

        if must_issue {
            return self.issue_dma(t_fw, addr, bytes, ctx, mem, cache, phys);
        }

        // Hold this payload, waiting for a combinable successor.
        self.pending_gen += 1;
        let gen = self.pending_gen;
        self.pending_data.clear();
        self.pending_data.extend_from_slice(bytes);
        self.pending = Some(PendingDma {
            key,
            addr,
            buf_index: bi,
            gen,
            ready: t_fw,
            ctx,
        });
        out.flush_deadline = Some((gen, t_fw + self.cfg.lookahead_window));
        // The data is not yet in memory; the caller must not treat the
        // buffer as complete (it cannot be: pending is always mid-buffer).
        t_fw
    }

    /// Issues the DMA transactions for one contiguous payload (page-
    /// boundary-stop rule applies) and writes the bytes through the
    /// coherence model. Returns the completion time.
    #[allow(clippy::too_many_arguments)]
    fn issue_dma(
        &mut self,
        at: SimTime,
        addr: PhysAddr,
        data: &[u8],
        ctx: Option<TraceCtx>,
        mem: &mut MemorySystem,
        cache: &mut DataCache,
        phys: &mut PhysMemory,
    ) -> SimTime {
        let mut t = at;
        let mut off = 0usize;
        let traced = ctx.filter(|_| self.timeline.is_enabled()).zip(self.syms);
        for xfer in plan_dma(
            self.cfg.dma_mode,
            addr,
            data.len() as u32,
            self.cfg.page_size,
        ) {
            let g = mem.dma_write(t, xfer.len as u64);
            if let Some((c, s)) = traced {
                // Bus arbitration (clamped behind our previous grant so
                // spans on the DMA track never overlap), then the data.
                let wait_from = t.max(self.last_dma_end);
                if g.start > wait_from {
                    self.timeline
                        .span(s.dma_track, s.bus_wait, Some(c), wait_from, g.start);
                }
                self.timeline
                    .span(s.dma_track, s.dma_rx, Some(c), g.start, g.finish);
            }
            self.last_dma_end = self.last_dma_end.max(g.finish);
            t = g.finish;
            cache.dma_write(phys, xfer.addr, &data[off..off + xfer.len as usize]);
            off += xfer.len as usize;
            self.stats.dma_transactions.incr();
        }
        t
    }

    /// Allocates buffer `bi` for a PDU from its page's free ring.
    fn ensure_buffer(&mut self, state: &mut PduBufState, bi: usize) -> bool {
        if state.bufs.len() <= bi {
            state.bufs.resize(bi + 1, None);
            state.buf_fill.resize(bi + 1, 0);
        }
        if state.bufs[bi].is_some() {
            return true;
        }
        let page = state.page;
        loop {
            match self.free_rings[page].pop() {
                Some((desc, _cost)) => {
                    // §3.2: an ADC may only offer buffers inside its
                    // authorized page list; others are rejected on the
                    // board and the violation reported to the kernel.
                    if let Some(frames) = &self.authorized[page] {
                        let ps = self.cfg.page_size;
                        let first = desc.addr.0 / ps;
                        let last = (desc.addr.0 + desc.len.max(1) as u64 - 1) / ps;
                        if (first..=last).any(|f| !frames.contains(&f)) {
                            self.stats.violations.incr();
                            continue; // discard, try the next buffer
                        }
                    }
                    debug_assert!(
                        desc.len >= self.cfg.buffer_bytes,
                        "undersized receive buffer"
                    );
                    state.bufs[bi] = Some(desc);
                    return true;
                }
                None => return false,
            }
        }
    }

    /// Closes a PDU the reassembler completed: `t_fw` is when its last
    /// cell left the firmware and `t_done` when that cell's payload DMA
    /// landed. A shed PDU recycles its buffers; a delivered one pushes
    /// its remaining descriptors. Either way the record goes back to
    /// [`Datapath::spare`] and `out.completed` names the PDU.
    fn complete_pdu(
        &mut self,
        t_fw: SimTime,
        t_done: SimTime,
        vci: Vci,
        state: PduBufState,
        complete: PduComplete,
        out: &mut RxOutcome,
    ) {
        // The completion bookkeeping runs on the 80960 right after the
        // cell's own processing; the descriptor push additionally waits
        // for the payload DMA to land (t_done).
        let pdu_fw = self.engine.acquire(t_fw, self.pdu_time);
        let t_pdu = pdu_fw.finish.max(t_done);
        let dropped = state.poisoned;
        if dropped {
            // Shed: recycle the buffers we still hold.
            for &d in state.bufs.iter().flatten().skip(state.pushed_upto) {
                let _ = self.free_rings[state.page].push(d);
            }
            self.stats.pdus_dropped_no_buffer.incr();
        } else {
            // The PDU's reassembly window: first cell at the firmware to
            // descriptor push. DMA/bus spans nest inside it; the residue
            // is genuine waiting for the PDU's other cells.
            if let Some(ctx) = state.ctx {
                let from = state.first_at.max(self.sar_span_floor);
                if let (true, Some(s)) = (t_pdu > from, self.syms) {
                    self.timeline
                        .span(s.track, s.sar_reasm, Some(ctx), from, t_pdu);
                }
                self.sar_span_floor = self.sar_span_floor.max(t_pdu);
            }
            // Push the remaining buffers in order; EOP on the last.
            self.finish_pdu(t_pdu, &state, vci, complete.len, complete.crc_ok, out);
            self.stats.pdus_delivered.incr();
            if !complete.crc_ok {
                self.stats.pdus_crc_failed.incr();
            }
        }
        self.spare.push(state);
        out.completed = Some(RxPduInfo {
            vci,
            pdu: complete.pdu,
            len: complete.len,
            crc_ok: complete.crc_ok,
            dropped,
        });
    }

    /// Pushes remaining buffers of a completed PDU (EOP + error flag on the
    /// last) to the receive ring.
    fn finish_pdu(
        &mut self,
        t: SimTime,
        state: &PduBufState,
        vci: Vci,
        pdu_len: u32,
        crc_ok: bool,
        out: &mut RxOutcome,
    ) {
        let bb = self.cfg.buffer_bytes;
        let page = state.page;
        let n_bufs = (pdu_len as usize).div_ceil(bb as usize).max(1);
        for bi in state.pushed_upto..n_bufs {
            let buf = state.bufs[bi].expect("filled buffer exists");
            let is_last = bi == n_bufs - 1;
            let len = if is_last {
                pdu_len - bi as u32 * bb
            } else {
                bb
            };
            let desc = Descriptor {
                addr: buf.addr,
                len,
                vci,
                eop: is_last,
                err: is_last && !crc_ok,
                ctx: state.ctx,
            };
            self.push_rx(t, page, desc, out);
        }
        // Over-allocated buffers (can happen when a shed/short PDU grabbed
        // more slots than its final length needed) go back to the free ring.
        for &d in state
            .bufs
            .iter()
            .flatten()
            .skip(n_bufs.max(state.pushed_upto))
        {
            let _ = self.free_rings[page].push(d);
        }
    }

    /// Pushes one descriptor to a receive ring and applies the interrupt
    /// policy.
    fn push_rx(&mut self, t: SimTime, page: usize, desc: Descriptor, out: &mut RxOutcome) {
        let len_before = self.rx_rings[page].len();
        self.rx_rings[page]
            .push(desc)
            .expect("receive ring overflow: host not draining");
        self.pushed.push((t, page, desc));
        let fire = match self.cfg.interrupt_policy {
            InterruptPolicy::PerPdu => desc.eop,
            InterruptPolicy::OnTransition => len_before == 0,
        };
        self.stats.intr_raised.incr();
        if fire {
            out.interrupt_at = Some(match out.interrupt_at {
                Some(existing) => existing.min(t),
                None => t,
            });
        } else {
            self.stats.intr_suppressed.incr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osiris_atm::sar::{FramingMode, Segmenter};
    use osiris_mem::{BusSpec, CacheSpec};
    use osiris_sim::Registry;

    struct Rig {
        rx: RxProcessor,
        /// Holds the processor's counters under `board.rx.*`.
        reg: Registry,
        mem: MemorySystem,
        cache: DataCache,
        phys: PhysMemory,
    }

    fn rig(cfg: RxConfig) -> Rig {
        let reg = Registry::new();
        let mut rx =
            RxProcessor::with_probe(cfg, DpramLayout::paper_default(), &reg.probe("board"));
        let phys = PhysMemory::new(4 << 20, 4096);
        // Load the kernel page's free ring with 16 KB buffers at known
        // addresses (physically contiguous, as the paper's driver uses).
        for i in 0..32u64 {
            rx.free_ring_mut(0)
                .push(Descriptor::tx(
                    PhysAddr(0x10_0000 + i * 0x4000),
                    16 * 1024,
                    Vci(0),
                    false,
                ))
                .unwrap();
        }
        Rig {
            rx,
            reg,
            mem: MemorySystem::with_probe(BusSpec::ds5000_200(), &Probe::detached()),
            cache: DataCache::new(CacheSpec::dec_3000_600()),
            phys,
        }
    }

    fn cells_for(data: &[u8], vci: Vci) -> Vec<Cell> {
        Segmenter {
            framing: FramingMode::EndOfPdu,
        }
        .segment(vci, &[data])
    }

    /// One call's outcome with the descriptors it pushed.
    struct Fed {
        out: RxOutcome,
        pushed: Vec<(SimTime, usize, Descriptor)>,
    }

    impl std::ops::Deref for Fed {
        type Target = RxOutcome;

        fn deref(&self) -> &RxOutcome {
            &self.out
        }
    }

    fn feed(rig: &mut Rig, cells: &[Cell], start: SimTime) -> (Vec<Fed>, SimTime) {
        let mut outs = Vec::new();
        let mut t = start;
        for c in cells {
            let out = rig
                .rx
                .receive_cell(t, 0, c, &mut rig.mem, &mut rig.cache, &mut rig.phys);
            // Pace arrivals at link speed-ish to keep the engine realistic.
            t += SimDuration::from_ns(700);
            outs.push(Fed {
                out,
                pushed: rig.rx.pushed().to_vec(),
            });
        }
        (outs, t)
    }

    #[test]
    fn single_pdu_lands_in_host_memory() {
        let mut r = rig(RxConfig::paper_default());
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let cells = cells_for(&data, Vci(0));
        let (outs, _) = feed(&mut r, &cells, SimTime::ZERO);
        let last = outs.last().unwrap();
        let info = last.completed.expect("PDU completes");
        assert!(info.crc_ok);
        assert_eq!(info.len, 1000);
        // One buffer pushed, EOP set, correct length, data intact.
        let pushed: Vec<_> = outs.iter().flat_map(|o| o.pushed.iter()).collect();
        assert_eq!(pushed.len(), 1);
        let (_, page, desc) = pushed[0];
        assert_eq!(*page, 0);
        assert!(desc.eop);
        assert!(!desc.err);
        assert_eq!(desc.len, 1000);
        assert_eq!(r.phys.read(desc.addr, 1000), &data[..]);
    }

    #[test]
    fn seqnum_delivers_a_pdu_that_overtook_its_predecessor() {
        // PDU 1 (one cell) overtakes PDU 0's tail: arrivals a0, b0, a1.
        // The cell a1 closes both PDUs, each with its own EOP.
        let mut cfg = RxConfig::paper_default();
        cfg.reassembly = ReassemblyMode::SeqNum { max_cells: 64 };
        let mut r = rig(cfg);
        let a: Vec<u8> = (0..80u32).map(|i| i as u8).collect();
        let b = vec![0xb5u8; 20];
        let (ca, cb) = (cells_for(&a, Vci(0)), cells_for(&b, Vci(0)));
        let (outs, _) = feed(
            &mut r,
            &[ca[0].clone(), cb[0].clone(), ca[1].clone()],
            SimTime::ZERO,
        );
        let info = outs[2].completed.expect("a1 completes");
        assert_eq!((info.pdu, info.len, info.crc_ok), (1, 20, true));
        let eops: Vec<Descriptor> = outs
            .iter()
            .flat_map(|o| o.pushed.iter())
            .map(|&(_, _, d)| d)
            .filter(|d| d.eop)
            .collect();
        assert_eq!(eops.len(), 2, "both PDUs delivered");
        assert_eq!((eops[0].len, eops[1].len), (80, 20));
        assert!(eops.iter().all(|d| !d.err));
        assert_eq!(r.phys.read(eops[0].addr, 80), &a[..]);
        assert_eq!(r.phys.read(eops[1].addr, 20), &b[..]);
        assert_eq!(r.rx.partial_pdus(), 0);
    }

    #[test]
    fn transition_interrupt_fires_once_for_burst() {
        let mut r = rig(RxConfig::paper_default());
        let data = vec![7u8; 500];
        let mut interrupts = 0;
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            let cells = cells_for(&data, Vci(0));
            let (outs, t2) = feed(&mut r, &cells, t);
            t = t2;
            interrupts += outs.iter().filter(|o| o.interrupt_at.is_some()).count();
        }
        // The host never drains the ring, so only the first PDU fires.
        assert_eq!(interrupts, 1);
        let snap = r.reg.snapshot();
        let raised = snap.counters["board.rx.intr_raised"];
        assert_eq!(raised - snap.counters["board.rx.intr_suppressed"], 1);
        assert_eq!(snap.counters["board.rx.pdus_delivered"], 5);
    }

    #[test]
    fn per_pdu_interrupt_fires_every_time() {
        let mut cfg = RxConfig::paper_default();
        cfg.interrupt_policy = InterruptPolicy::PerPdu;
        let mut r = rig(cfg);
        let data = vec![7u8; 500];
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            let cells = cells_for(&data, Vci(0));
            let (_, t2) = feed(&mut r, &cells, t);
            t = t2;
        }
        let snap = r.reg.snapshot();
        let raised = snap.counters["board.rx.intr_raised"];
        assert_eq!(raised - snap.counters["board.rx.intr_suppressed"], 5);
    }

    #[test]
    fn early_demux_routes_by_vci() {
        let mut r = rig(RxConfig::paper_default());
        r.rx.bind_vci(Vci(42), 3);
        for i in 0..4u64 {
            r.rx.free_ring_mut(3)
                .push(Descriptor::tx(
                    PhysAddr(0x20_0000 + i * 0x4000),
                    16 * 1024,
                    Vci(0),
                    false,
                ))
                .unwrap();
        }
        let data = vec![1u8; 200];
        let cells = cells_for(&data, Vci(42));
        let (outs, _) = feed(&mut r, &cells, SimTime::ZERO);
        let pushed: Vec<_> = outs.iter().flat_map(|o| o.pushed.iter()).collect();
        assert_eq!(pushed.len(), 1);
        assert_eq!(pushed[0].1, 3, "descriptor must land on the bound page");
        assert_eq!(r.rx.rx_ring(3).len(), 1);
        assert_eq!(r.rx.rx_ring(0).len(), 0);
    }

    #[test]
    fn no_free_buffer_sheds_pdu_on_board() {
        let mut cfg = RxConfig::paper_default();
        cfg.interrupt_policy = InterruptPolicy::OnTransition;
        let reg = Registry::new();
        let mut rx =
            RxProcessor::with_probe(cfg, DpramLayout::paper_default(), &reg.probe("board"));
        let mut mem = MemorySystem::with_probe(BusSpec::ds5000_200(), &Probe::detached());
        let mut cache = DataCache::new(CacheSpec::dec_3000_600());
        let mut phys = PhysMemory::new(1 << 20, 4096);
        // No buffers in any free ring.
        let data = vec![9u8; 300];
        let cells = cells_for(&data, Vci(0));
        let mut completed = None;
        let mut t = SimTime::ZERO;
        for c in &cells {
            let out = rx.receive_cell(t, 0, c, &mut mem, &mut cache, &mut phys);
            t += SimDuration::from_ns(700);
            assert!(rx.pushed().is_empty(), "shed PDU must not reach the host");
            assert!(out.interrupt_at.is_none());
            completed = out.completed.or(completed);
        }
        let info = completed.expect("shedding still frames the stream");
        assert!(info.dropped);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["board.rx.pdus_dropped_no_buffer"], 1);
        assert_eq!(snap.counters["board.rx.pdus_delivered"], 0);
    }

    #[test]
    fn multi_buffer_pdu_spans_and_sets_eop_on_last() {
        let mut r = rig(RxConfig::paper_default());
        let n = 40_000usize; // > 2 buffers of 16 KB
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        let cells = cells_for(&data, Vci(0));
        let (outs, _) = feed(&mut r, &cells, SimTime::ZERO);
        let pushed: Vec<_> = outs.iter().flat_map(|o| o.pushed.iter().copied()).collect();
        assert_eq!(pushed.len(), 3);
        assert_eq!(pushed[0].2.len, 16 * 1024);
        assert!(!pushed[0].2.eop);
        assert_eq!(pushed[1].2.len, 16 * 1024);
        let last = pushed[2].2;
        assert!(last.eop);
        assert_eq!(last.len as usize, n - 2 * 16 * 1024);
        // Reconstruct and verify the whole PDU from host memory.
        let mut rebuilt = Vec::new();
        for (_, _, d) in &pushed {
            rebuilt.extend_from_slice(r.phys.read(d.addr, d.len as usize));
        }
        assert_eq!(rebuilt, data);
        // Push times are non-decreasing (buffers delivered in order).
        assert!(pushed.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn corrupted_pdu_delivers_err_flag() {
        let mut r = rig(RxConfig::paper_default());
        let data = vec![3u8; 400];
        let mut cells = cells_for(&data, Vci(0));
        cells[1].corrupt_bit(5, 1);
        let (outs, _) = feed(&mut r, &cells, SimTime::ZERO);
        let info = outs.last().unwrap().completed.unwrap();
        assert!(!info.crc_ok);
        let pushed: Vec<_> = outs.iter().flat_map(|o| o.pushed.iter()).collect();
        assert!(
            pushed.last().unwrap().2.err,
            "EOP descriptor must carry the error"
        );
        assert_eq!(r.reg.snapshot().counters["board.rx.pdus_crc_failed"], 1);
    }

    #[test]
    fn double_cell_mode_merges_contiguous_payloads() {
        let mut cfg = RxConfig::paper_default();
        cfg.dma_mode = DmaMode::DoubleCell;
        let mut r = rig(cfg);
        let data = vec![5u8; 44 * 8]; // 8 full cells
        let cells = cells_for(&data, Vci(0));
        let (outs, _) = feed(&mut r, &cells, SimTime::ZERO);
        assert!(outs.last().unwrap().completed.unwrap().crc_ok);
        // 8 cells pair into 4 merges.
        assert_eq!(r.reg.snapshot().counters["board.rx.double_cell_merges"], 4);
        assert!(
            r.reg.snapshot().counters["board.rx.dma_transactions"] < 8,
            "fewer transactions than cells"
        );
        // Data integrity preserved through merging.
        let pushed: Vec<_> = outs.iter().flat_map(|o| o.pushed.iter()).collect();
        assert_eq!(r.phys.read(pushed[0].2.addr, data.len()), &data[..]);
    }

    #[test]
    fn pending_payload_flushes_on_deadline() {
        let mut cfg = RxConfig::paper_default();
        cfg.dma_mode = DmaMode::DoubleCell;
        let mut r = rig(cfg);
        // A 3-cell PDU: cells 0+1 merge; cell 2 (EOM) issues immediately;
        // but feed only cell 0 and verify the pending flush path.
        let data = vec![8u8; 44 * 3];
        let cells = cells_for(&data, Vci(0));
        let out = r.rx.receive_cell(
            SimTime::ZERO,
            0,
            &cells[0],
            &mut r.mem,
            &mut r.cache,
            &mut r.phys,
        );
        let (gen, deadline) = out.flush_deadline.expect("first cell must pend");
        assert!(r.rx.pushed().is_empty());
        // Before the flush the bytes are NOT in host memory yet.
        let flushed =
            r.rx.flush_pending(deadline, gen, &mut r.mem, &mut r.cache, &mut r.phys);
        assert!(flushed);
        // A second flush with the same generation is a no-op.
        assert!(!r
            .rx
            .flush_pending(deadline, gen, &mut r.mem, &mut r.cache, &mut r.phys));
    }

    #[test]
    fn stale_flush_generation_is_ignored() {
        let mut cfg = RxConfig::paper_default();
        cfg.dma_mode = DmaMode::DoubleCell;
        let mut r = rig(cfg);
        let data = vec![8u8; 44 * 2];
        let cells = cells_for(&data, Vci(0));
        let out1 = r.rx.receive_cell(
            SimTime::ZERO,
            0,
            &cells[0],
            &mut r.mem,
            &mut r.cache,
            &mut r.phys,
        );
        let (gen1, _) = out1.flush_deadline.unwrap();
        // Cell 1 (EOM) merges and clears the pending slot.
        let out2 = r.rx.receive_cell(
            SimTime::from_us(1),
            0,
            &cells[1],
            &mut r.mem,
            &mut r.cache,
            &mut r.phys,
        );
        assert!(out2.completed.is_some());
        assert!(!r.rx.flush_pending(
            SimTime::from_us(9),
            gen1,
            &mut r.mem,
            &mut r.cache,
            &mut r.phys
        ));
    }

    #[test]
    fn unknown_vci_cells_are_counted_drops_once_bound() {
        let mut r = rig(RxConfig::paper_default());
        r.rx.bind_vci(Vci(42), 0);
        let data = vec![1u8; 200];
        let cells = cells_for(&data, Vci(7)); // unbound
        let (outs, _) = feed(&mut r, &cells, SimTime::ZERO);
        assert!(outs
            .iter()
            .all(|o| o.pushed.is_empty() && o.completed.is_none()));
        assert_eq!(
            r.reg.snapshot().counters["board.rx.cells_unknown_vci"],
            cells.len() as u64
        );
        assert_eq!(r.reg.snapshot().counters["board.rx.pdus_delivered"], 0);
        // Bound traffic still flows.
        let cells = cells_for(&data, Vci(42));
        let (outs, _) = feed(&mut r, &cells, SimTime::from_ms(1));
        assert!(outs.last().unwrap().completed.unwrap().crc_ok);
    }

    #[test]
    fn reassembly_timeout_reclaims_buffers_and_unwedges_the_vci() {
        let mut cfg = RxConfig::paper_default();
        cfg.reassembly_timeout = Some(SimDuration::from_ms(1));
        let mut r = rig(cfg);
        let free_before = r.rx.free_ring(0).len();
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let cells = cells_for(&data, Vci(0));
        // Lose the tail: the PDU can never complete on its own.
        let (outs, t) = feed(&mut r, &cells[..cells.len() - 1], SimTime::ZERO);
        assert!(outs.iter().all(|o| o.completed.is_none()));
        assert_eq!(r.rx.partial_pdus(), 1);
        assert_eq!(r.rx.free_ring(0).len(), free_before - 1);

        // Before the deadline nothing is reaped.
        r.rx.reap_stale(SimTime::from_us(100));
        assert!(r.rx.pushed().is_empty());
        assert_eq!(r.rx.partial_pdus(), 1);

        // After it, the buffer returns to the free ring and the VCI works
        // again.
        r.rx.reap_stale(t + SimDuration::from_ms(1));
        assert!(r.rx.pushed().is_empty(), "nothing was host-visible yet");
        assert_eq!(r.rx.partial_pdus(), 0);
        assert_eq!(r.rx.free_ring(0).len(), free_before);
        assert_eq!(
            r.reg.snapshot().counters["board.rx.pdus_dropped_timeout"],
            1
        );

        let (outs, _) = feed(&mut r, &cells, t + SimDuration::from_ms(2));
        let info = outs.last().unwrap().completed.expect("VCI unwedged");
        assert!(info.crc_ok);
        assert_eq!(info.len, 1000);
    }

    #[test]
    fn timeout_closes_a_partially_pushed_chain_with_an_errored_eop() {
        let mut cfg = RxConfig::paper_default();
        cfg.reassembly_timeout = Some(SimDuration::from_ms(1));
        let mut r = rig(cfg);
        let n = 40_000usize;
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        let cells = cells_for(&data, Vci(0));
        // Feed enough cells to push the first 16 KB buffer, then stall.
        let (outs, t) = feed(&mut r, &cells[..400], SimTime::ZERO);
        let pushed: Vec<_> = outs.iter().flat_map(|o| o.pushed.iter()).collect();
        assert_eq!(pushed.len(), 1, "first buffer reached the host");
        r.rx.reap_stale(t + SimDuration::from_ms(1));
        // The chain is closed host-side with an errored EOP descriptor.
        assert_eq!(r.rx.pushed().len(), 1);
        let (_, _, closer) = r.rx.pushed()[0];
        assert!(closer.eop && closer.err);
        assert_eq!(
            r.reg.snapshot().counters["board.rx.pdus_dropped_timeout"],
            1
        );
        assert_eq!(r.rx.partial_pdus(), 0);
        // Conservation: two descriptors live in the rx-ring chain, every
        // other buffer is back on (or still in) the free ring.
        assert_eq!(r.rx.free_ring(0).len() + r.rx.rx_ring(0).len(), 32);
    }

    #[test]
    fn cells_straddling_buffer_boundaries_split_exactly() {
        // 1000-byte buffers are not a multiple of 44, so cells 22
        // (bytes 968..1012) and 45 (1980..2024) each straddle a buffer
        // boundary and are stored as two pieces.
        for dma_mode in [DmaMode::SingleCell, DmaMode::DoubleCell] {
            let mut cfg = RxConfig::paper_default();
            cfg.buffer_bytes = 1000;
            cfg.dma_mode = dma_mode;
            let mut r = rig(cfg);
            let data: Vec<u8> = (0..2500u32).map(|i| (i * 7 % 251) as u8).collect();
            let cells = cells_for(&data, Vci(0));
            assert_eq!(cells.len(), 57);
            let (outs, _) = feed(&mut r, &cells, SimTime::ZERO);
            assert!(outs.last().unwrap().completed.unwrap().crc_ok);
            let pushed: Vec<Descriptor> = outs
                .iter()
                .flat_map(|o| o.pushed.iter().map(|&(_, _, d)| d))
                .collect();
            // The first three free-ring buffers, in order, 1000/1000/500.
            let lens: Vec<u32> = pushed.iter().map(|d| d.len).collect();
            assert_eq!(lens, vec![1000, 1000, 500], "{dma_mode:?}");
            for (i, d) in pushed.iter().enumerate() {
                assert_eq!(d.addr, PhysAddr(0x10_0000 + i as u64 * 0x4000));
                assert_eq!(d.eop, i == 2);
                assert!(!d.err);
                let at = i * 1000;
                assert_eq!(
                    r.phys.read(d.addr, d.len as usize),
                    &data[at..at + d.len as usize],
                    "{dma_mode:?} buffer {i}"
                );
            }
            if dma_mode == DmaMode::SingleCell {
                // One DMA per cell plus one per straddle.
                assert_eq!(
                    r.reg.snapshot().counters["board.rx.dma_transactions"],
                    57 + 2
                );
            }
            assert_eq!(r.rx.partial_pdus(), 0);
        }
    }

    #[test]
    fn single_cell_mode_issues_one_dma_per_cell() {
        let mut r = rig(RxConfig::paper_default());
        let data = vec![1u8; 44 * 4];
        let cells = cells_for(&data, Vci(0));
        feed(&mut r, &cells, SimTime::ZERO);
        assert_eq!(r.reg.snapshot().counters["board.rx.double_cell_merges"], 0);
        assert_eq!(r.reg.snapshot().counters["board.rx.dma_transactions"], 4);
    }
}
