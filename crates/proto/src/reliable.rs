//! The reliable transport: a windowed selective repeat with block acks.
//!
//! The paper's stack is unreliable UDP; this exists for the loss and
//! congestion-control experiments. Each host keeps a send window per
//! destination and a receive window per source. Up to the configured
//! window of datagrams is in flight per destination (a window of 1 is
//! stop-and-wait); the rest wait in a FIFO. The receiver summarizes its
//! window as one [`BLOCK_ACK_BYTES`] block ack, `base + bitmap`, sent
//! after every delivery and every duplicate. The sender releases what an
//! ack names, retransmits a hole early on SACK evidence, and otherwise
//! retransmits on an exponentially backed-off RTO until [`MAX_RETRIES`].
//! The RTO toward each destination is estimated from measured round trips
//! (Jacobson/Karn, RFC 6298): each accepted block ack samples the newest
//! never-retransmitted datagram it releases, and the RTO is the smoothed
//! round trip plus four mean deviations, never below [`RTO_INITIAL`].
//! The congestion-control schemes ([`CcScheme`]) ride on the same acks.

use std::collections::{BTreeMap, VecDeque};

use osiris_sim::obs::{Counter, Probe};
use osiris_sim::{SimDuration, SimTime, Timeline};

use crate::stack::{ProtoConfig, StackSyms, TxPacket};

/// The UDP port reserved for acknowledgements in reliable mode. Data
/// traffic must not use it.
pub const ACK_PORT: u16 = 1;

/// Acknowledgement datagram ids are minted in their own range so ack
/// traffic never punches holes into the receiver's contiguous *data*-id
/// window (ids below this are data, at/above are acks).
pub const ACK_ID_BASE: u32 = 0x8000_0000;

/// Wire size of a block acknowledgement payload:
/// `[base u32][bitmap u64][reserved u16][pace_ns u32][flags u8]`. The
/// reserved field is sent as zero, and an ack that carries anything else
/// there is dropped. An ack datagram of any other length is malformed and
/// dropped whole.
pub const BLOCK_ACK_BYTES: usize = 19;

/// Retransmission timeout before the first round-trip sample, and the
/// floor of every estimated one; doubled per expiry round.
pub const RTO_INITIAL: SimDuration = SimDuration::from_ms(2);

/// Ceiling of the retransmission backoff.
pub const RTO_MAX: SimDuration = SimDuration::from_ms(64);

/// Retries before a datagram is abandoned (bounds every run).
pub const MAX_RETRIES: u32 = 16;

/// Block acks showing a hole below newer acked data before the hole is
/// retransmitted without waiting for its RTO.
pub const SACK_THRESH: u32 = 2;

/// Block-ack flag bit: at least one cell of this flow crossed a switch
/// output queue above the ECN mark threshold since the last ack.
pub const ACK_FLAG_ECN: u8 = 0x01;

/// Congestion control layered on the selective-repeat window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcScheme {
    /// Window-limited only.
    None,
    /// ECN-style: the switch marks cells that cross an output-queue
    /// threshold, the receiver echoes the mark on its next block ack, and
    /// the sender halves its congestion window (at most once per window
    /// of data), growing it additively on clean acks.
    Ecn,
    /// Receiver-driven pacing: the receiver advertises its smoothed
    /// inter-delivery gap and the sender spaces datagram admissions by it.
    Pacing,
}

/// A decoded block acknowledgement (see [`BLOCK_ACK_BYTES`] for the wire
/// layout).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockAck {
    /// Cumulative ack: every datagram id below this has been delivered.
    pub(crate) base: u32,
    /// Selective bits for ids `base..base + 64`.
    pub(crate) bitmap: u64,
    /// Sent as zero; anything else marks the ack malformed.
    pub(crate) reserved: u16,
    /// Receiver's smoothed inter-delivery gap (receiver-driven pacing).
    pub(crate) pace_ns: u32,
    /// [`ACK_FLAG_ECN`] and future flag bits.
    pub(crate) flags: u8,
}

impl BlockAck {
    /// The big-endian wire payload.
    pub(crate) fn encode(&self) -> [u8; BLOCK_ACK_BYTES] {
        let mut p = [0u8; BLOCK_ACK_BYTES];
        p[0..4].copy_from_slice(&self.base.to_be_bytes());
        p[4..12].copy_from_slice(&self.bitmap.to_be_bytes());
        p[12..14].copy_from_slice(&self.reserved.to_be_bytes());
        p[14..18].copy_from_slice(&self.pace_ns.to_be_bytes());
        p[18] = self.flags;
        p
    }

    /// Decodes the big-endian wire payload.
    pub(crate) fn parse(payload: &[u8; BLOCK_ACK_BYTES]) -> Self {
        Self {
            base: u32::from_be_bytes(payload[0..4].try_into().expect("4 bytes")),
            bitmap: u64::from_be_bytes(payload[4..12].try_into().expect("8 bytes")),
            reserved: u16::from_be_bytes(payload[12..14].try_into().expect("2 bytes")),
            pace_ns: u32::from_be_bytes(payload[14..18].try_into().expect("4 bytes")),
            flags: payload[18],
        }
    }
}

/// Empties an acked or abandoned datagram's packet list into `spare`, so
/// the next datagram reuses its capacity.
fn recycle_packets(spare: &mut Vec<Vec<TxPacket>>, packets: &mut Vec<TxPacket>) {
    packets.clear();
    spare.push(std::mem::take(packets));
}

/// A datagram awaiting acknowledgement.
#[derive(Debug)]
struct PendingMsg {
    /// The driver-ready packets, kept for retransmission. They reference
    /// the application's (still-mapped) virtual buffers plus the header
    /// slab slots written at output time. Dropped the moment the
    /// datagram is acked or abandoned — a gave-up datagram must not keep
    /// its fragment buffers pinned. (The emptied list is recycled through
    /// `Reliable::packet_spare`.)
    packets: Vec<TxPacket>,
    /// When the datagram was admitted to the window; a retransmission
    /// leaves it alone, and only a never-retransmitted datagram's is
    /// sampled (Karn).
    sent_at: SimTime,
    /// When the RTO next expires.
    next_at: SimTime,
    retries: u32,
    /// Block acks that showed newer data acked while this id was still a
    /// hole (selective repeat's fast-retransmit evidence).
    sack_miss: u32,
}

/// Per-destination sender state. The pending map is a `BTreeMap` on
/// purpose: every scan (RTO expiry, SACK walk) iterates in id order, so
/// retransmit ordering is identical across runs — a `HashMap` here would
/// break the bit-identity contract.
#[derive(Debug)]
struct SendWindow {
    /// In-flight datagrams by id.
    pending: BTreeMap<u32, PendingMsg>,
    /// Built-but-unadmitted datagrams, FIFO.
    deferred: VecDeque<(u32, Vec<TxPacket>)>,
    /// The RTO new datagrams are armed with. The backoff ladder is
    /// carried *per destination*, not per datagram: new datagrams inherit
    /// it and a retransmission whose ack crossed it in flight (retries >
    /// 0, an ambiguous sample) cannot reset it. Only a clean round-trip
    /// sample re-derives it from the estimate, as
    /// `clamp(srtt + 4·rttvar, RTO_INITIAL, RTO_MAX)`.
    rto_cur: SimDuration,
    /// Smoothed round trip and its mean deviation, in picoseconds;
    /// `None` until the first clean sample.
    rtt: Option<(u64, u64)>,
    /// Congestion window in datagrams (ECN halves, clean acks grow).
    cwnd: u32,
    /// Receiver-advertised admission gap (pacing scheme).
    pace_gap: SimDuration,
    /// Earliest time pacing admits the next datagram.
    pace_ok_at: SimTime,
    /// Highest data id handed to this destination so far.
    last_sent_id: u32,
    /// Ids at-or-below this were in flight at the last ECN halving; the
    /// window halves at most once until the ack base passes it.
    ecn_guard: u32,
}

impl SendWindow {
    fn new(cfg: &ProtoConfig) -> Self {
        SendWindow {
            pending: BTreeMap::new(),
            deferred: VecDeque::new(),
            rto_cur: RTO_INITIAL,
            rtt: None,
            cwnd: cfg.window_cap(),
            pace_gap: SimDuration::ZERO,
            pace_ok_at: SimTime::ZERO,
            last_sent_id: 0,
            ecn_guard: 0,
        }
    }

    /// Folds round-trip sample `r` into the estimate (RFC 6298: the
    /// first sets SRTT = R and RTTVAR = R/2, each later one RTTVAR =
    /// (3·RTTVAR + |SRTT − R|)/4, then SRTT = (7·SRTT + R)/8) and
    /// re-derives the RTO from it.
    fn sample_rtt(&mut self, r: SimDuration) {
        let r = r.as_ps();
        let (srtt, rttvar) = match self.rtt {
            None => (r, r / 2),
            Some((srtt, rttvar)) => ((7 * srtt + r) / 8, (3 * rttvar + srtt.abs_diff(r)) / 4),
        };
        self.rtt = Some((srtt, rttvar));
        self.rto_cur = SimDuration::from_ps(srtt + 4 * rttvar).clamp(RTO_INITIAL, RTO_MAX);
    }

    /// Datagrams the schemes currently allow in flight.
    fn effective_window(&self, cfg: &ProtoConfig) -> u32 {
        let mut w = cfg.window_cap();
        match cfg.cc {
            CcScheme::Ecn => w = w.min(self.cwnd),
            CcScheme::None | CcScheme::Pacing => {}
        }
        w.max(1)
    }

    /// Admits deferred datagrams as far as the effective window (and
    /// pacing) allow, appending their packets to `out`.
    fn admit_deferred(&mut self, cfg: &ProtoConfig, now: SimTime, out: &mut Vec<TxPacket>) {
        while self.pending.len() < self.effective_window(cfg) as usize {
            if cfg.cc == CcScheme::Pacing && now < self.pace_ok_at {
                break;
            }
            let Some((id, pkts)) = self.deferred.pop_front() else {
                break;
            };
            if cfg.cc == CcScheme::Pacing {
                self.pace_ok_at = self.pace_ok_at.max(now) + self.pace_gap;
            }
            let rto = self.rto_cur;
            out.extend_from_slice(&pkts);
            self.pending.insert(
                id,
                PendingMsg {
                    packets: pkts,
                    sent_at: now,
                    next_at: now + rto,
                    retries: 0,
                    sack_miss: 0,
                },
            );
        }
    }
}

/// Per-source receiver state: the delivery record is the window itself —
/// `base` plus a 64-bit bitmap.
#[derive(Debug)]
struct RecvWindow {
    /// Every data id below this is resolved (delivered, or abandoned by a
    /// gave-up sender that moved on).
    base: u32,
    /// Bit `k` set ⇔ id `base + k` delivered.
    bitmap: u64,
    /// A cell of this flow was ECN-marked at the switch; echoed (and
    /// cleared) by the next block ack.
    ecn_pending: bool,
    /// Smoothed inter-delivery gap (the pacing advertisement).
    gap_ewma: SimDuration,
    last_deliver: Option<SimTime>,
}

impl RecvWindow {
    fn new() -> Self {
        RecvWindow {
            base: 1, // data ids start at 1
            bitmap: 0,
            ecn_pending: false,
            gap_ewma: SimDuration::ZERO,
            last_deliver: None,
        }
    }
}

/// The transport's registry-visible counters (scope `<probe>.stack`).
#[derive(Debug, Clone)]
pub(crate) struct TransportCounters {
    pub(crate) retransmits: Counter,
    pub(crate) gave_up: Counter,
    /// The `stack.window.*` family.
    pub(crate) w_deferred: Counter,
    pub(crate) w_sack_retransmits: Counter,
    pub(crate) w_block_acks: Counter,
    pub(crate) w_ecn_halvings: Counter,
    pub(crate) w_holes_abandoned: Counter,
}

impl TransportCounters {
    fn with_probe(probe: &Probe) -> Self {
        let p = probe.scoped("stack");
        let w = p.scoped("window");
        TransportCounters {
            retransmits: p.counter("retransmits"),
            gave_up: p.counter("gave_up"),
            w_deferred: w.counter("deferred"),
            w_sack_retransmits: w.counter("sack_retransmits"),
            w_block_acks: w.counter("block_acks"),
            w_ecn_halvings: w.counter("ecn_halvings"),
            w_holes_abandoned: w.counter("holes_abandoned"),
        }
    }
}

/// One host's reliable-transport state: its send and receive windows, the
/// packets ack processing released, and the transport's counters.
#[derive(Debug)]
pub(crate) struct Reliable {
    /// Per-destination send windows (BTreeMap so destination scans are
    /// ordered — see [`SendWindow`]).
    send: BTreeMap<u16, SendWindow>,
    /// Per-source receive windows.
    recv: BTreeMap<u16, RecvWindow>,
    /// Ack datagram id counter (its own range — see [`ACK_ID_BASE`]).
    ack_ip_id: u32,
    /// Packets admitted by ack processing (window slid, SACK retransmit,
    /// pacing release) for the caller to hand to the driver.
    released: Vec<TxPacket>,
    /// Emptied packet lists of acked datagrams, reused by the next
    /// datagram so steady-state traffic allocates nothing.
    packet_spare: Vec<Vec<TxPacket>>,
    pub(crate) stats: TransportCounters,
}

impl Reliable {
    /// Empty windows, counters published under `<scope>.stack`.
    pub(crate) fn with_probe(probe: &Probe) -> Self {
        Reliable {
            send: BTreeMap::new(),
            recv: BTreeMap::new(),
            ack_ip_id: ACK_ID_BASE,
            released: Vec::new(),
            packet_spare: Vec::new(),
            stats: TransportCounters::with_probe(probe),
        }
    }

    /// Mints the next acknowledgement datagram id.
    pub(crate) fn next_ack_id(&mut self) -> u32 {
        let id = self.ack_ip_id;
        self.ack_ip_id += 1;
        id
    }

    /// Holds data datagram `id` toward `dst` — its packets are
    /// `out[first..]`, built at `t` — for acknowledgement. The window
    /// admits up to its effective size and defers the rest (their packets
    /// leave `out`); deferred datagrams are released by ack processing or
    /// the timer.
    pub(crate) fn hold(
        &mut self,
        cfg: &ProtoConfig,
        dst: u16,
        id: u32,
        t: SimTime,
        out: &mut Vec<TxPacket>,
        first: usize,
    ) {
        let win = self.send.entry(dst).or_insert_with(|| SendWindow::new(cfg));
        win.last_sent_id = win.last_sent_id.max(id);
        let admit = win.pending.len() < win.effective_window(cfg) as usize
            && (cfg.cc != CcScheme::Pacing || t >= win.pace_ok_at);
        let mut held = self.packet_spare.pop().unwrap_or_default();
        held.reserve_exact(out.len() - first);
        held.extend_from_slice(&out[first..]);
        if admit {
            if cfg.cc == CcScheme::Pacing {
                win.pace_ok_at = win.pace_ok_at.max(t) + win.pace_gap;
            }
            let rto = win.rto_cur;
            win.pending.insert(
                id,
                PendingMsg {
                    packets: held,
                    sent_at: t,
                    next_at: t + rto,
                    retries: 0,
                    sack_miss: 0,
                },
            );
        } else {
            self.stats.w_deferred.incr();
            win.deferred.push_back((id, held));
            out.truncate(first);
        }
    }

    /// The block ack for `peer`'s flow: its receive window, the smoothed
    /// inter-delivery gap as the pace field, and the ECN echo (cleared).
    pub(crate) fn block_ack(&mut self, peer: u16) -> [u8; BLOCK_ACK_BYTES] {
        let win = self.recv.entry(peer).or_insert_with(RecvWindow::new);
        let pace_ns = (win.gap_ewma.as_ps() / 1_000).min(u32::MAX as u64) as u32;
        let payload = BlockAck {
            base: win.base,
            bitmap: win.bitmap,
            reserved: 0,
            pace_ns,
            flags: if win.ecn_pending { ACK_FLAG_ECN } else { 0 },
        }
        .encode();
        win.ecn_pending = false;
        self.stats.w_block_acks.incr();
        payload
    }

    /// Marks `peer`'s flow as having crossed the switch ECN threshold.
    pub(crate) fn note_ecn(&mut self, peer: u16) {
        self.recv
            .entry(peer)
            .or_insert_with(RecvWindow::new)
            .ecn_pending = true;
    }

    /// The RTO new datagrams toward `peer` are armed with (`None` before
    /// the first send).
    pub(crate) fn current_rto(&self, peer: u16) -> Option<SimDuration> {
        self.send.get(&peer).map(|w| w.rto_cur)
    }

    /// True while any datagram awaits acknowledgement or admission.
    pub(crate) fn has_unacked(&self) -> bool {
        self.send
            .values()
            .any(|w| !w.pending.is_empty() || !w.deferred.is_empty())
    }

    /// Moves the packets ack processing released onto `out`.
    pub(crate) fn take_released(&mut self, out: &mut Vec<TxPacket>) {
        out.append(&mut self.released);
    }

    /// The earliest pending timer: an RTO expiry, or — when pacing holds
    /// deferred datagrams back from an open window — the pacing release.
    pub(crate) fn next_retransmit_at(&self, cfg: &ProtoConfig) -> Option<SimTime> {
        let mut at: Option<SimTime> = None;
        let mut fold = |t: SimTime| at = Some(at.map_or(t, |a: SimTime| a.min(t)));
        for win in self.send.values() {
            for p in win.pending.values() {
                fold(p.next_at);
            }
            if cfg.cc == CcScheme::Pacing
                && !win.deferred.is_empty()
                && win.pending.len() < win.effective_window(cfg) as usize
            {
                fold(win.pace_ok_at);
            }
        }
        at
    }

    /// Collects every datagram whose RTO expired by `now` for
    /// retransmission (see [`crate::ProtoStack::poll_retransmit`]),
    /// recording a `proto.retransmit` instant on the stack's track for
    /// each.
    pub(crate) fn poll_retransmit(
        &mut self,
        cfg: &ProtoConfig,
        now: SimTime,
        out: &mut Vec<TxPacket>,
        timeline: &Timeline,
        syms: Option<StackSyms>,
    ) {
        let stats = &self.stats;
        let spare = &mut self.packet_spare;
        // BTreeMap iteration: destinations, then due ids, come out sorted.
        for win in self.send.values_mut() {
            if win.pending.values().any(|p| p.next_at <= now) {
                // One backoff escalation per expiry round, not per
                // datagram — a burst of simultaneous losses is one
                // congestion signal.
                win.rto_cur = (win.rto_cur + win.rto_cur).min(RTO_MAX);
            }
            let rto = win.rto_cur;
            win.pending.retain(|_, p| {
                if p.next_at > now {
                    return true;
                }
                if p.retries >= MAX_RETRIES {
                    // Free the packets now: a gave-up datagram must not
                    // keep fragment buffers pinned until some later reap.
                    recycle_packets(spare, &mut p.packets);
                    stats.gave_up.incr();
                    return false;
                }
                p.retries += 1;
                p.next_at = now + rto;
                p.sack_miss = 0;
                stats.retransmits.incr();
                if timeline.is_enabled() {
                    if let (Some(s), Some(pkt)) = (syms, p.packets.first()) {
                        timeline.instant(s.track, s.retransmit, Some(pkt.ctx), now);
                    }
                }
                out.extend_from_slice(&p.packets);
                true
            });
            // Give-ups (and pacing release) may have opened the window.
            win.admit_deferred(cfg, now, out);
        }
    }

    /// Applies a block ack from `from`: releases everything below
    /// `ack.base` or set in `ack.bitmap`, samples the round trip of the
    /// newest never-retransmitted datagram it releases (older ones' own
    /// acks were lost or overtaken, so their time measures ack loss, not
    /// the path), fast-retransmits holes with enough SACK evidence, runs
    /// the congestion-control update for the configured scheme, and
    /// refills the window from the deferred queue (released packets go
    /// to [`Reliable::take_released`]).
    ///
    /// The ack is wire input: one with a nonzero reserved field, one
    /// whose `base` lies beyond the next id this sender would send to
    /// `from`, or one whose bitmap names an id it never sent, cannot
    /// describe this flow. It is rejected whole — `false` — before it
    /// touches the window.
    pub(crate) fn process_block_ack(
        &mut self,
        cfg: &ProtoConfig,
        now: SimTime,
        from: u16,
        ack: BlockAck,
        timeline: &Timeline,
        syms: Option<StackSyms>,
    ) -> bool {
        let BlockAck {
            base,
            bitmap,
            reserved,
            pace_ns,
            flags,
        } = ack;
        if reserved != 0 {
            return false;
        }
        let Some(win) = self.send.get_mut(&from) else {
            return true;
        };
        // The highest id the ack shows as received, in u64 so a base near
        // u32::MAX cannot overflow.
        let highest_acked = if bitmap != 0 {
            Some(base as u64 + 63 - bitmap.leading_zeros() as u64)
        } else {
            (base as u64).checked_sub(1)
        };
        let last_sent = win.last_sent_id as u64;
        if base as u64 > last_sent + 1 || (bitmap != 0 && highest_acked > Some(last_sent)) {
            return false;
        }
        let acked_by =
            |id: u32| id < base || (id.wrapping_sub(base) < 64 && (bitmap >> (id - base)) & 1 == 1);
        let mut any_acked = false;
        // (sent_at, retries) of the newest clean datagram released; the
        // scan runs in id order, so the last one kept is the newest.
        let mut sample = None;
        let spare = &mut self.packet_spare;
        win.pending.retain(|&id, p| {
            if !acked_by(id) {
                return true;
            }
            any_acked = true;
            if p.retries == 0 {
                sample = Some((p.sent_at, p.retries));
            }
            recycle_packets(spare, &mut p.packets);
            false
        });
        if let Some((sent_at, retries)) = sample {
            debug_assert_eq!(
                retries, 0,
                "Karn: a retransmitted datagram is never sampled"
            );
            win.sample_rtt(now.saturating_since(sent_at));
            debug_assert!(
                (RTO_INITIAL..=RTO_MAX).contains(&win.rto_cur),
                "estimated RTO {:?} outside [RTO_INITIAL, RTO_MAX]",
                win.rto_cur
            );
        }
        // SACK: a hole below data this ack shows as received gains one
        // count of evidence; at the threshold it retransmits immediately
        // (no backoff escalation — loss already proven, not congestion
        // silence) and pushes its RTO out one period. `hi` fits in u32:
        // it is at most `last_sent_id`.
        if let Some(hi) = highest_acked {
            let rto = win.rto_cur;
            for (_, p) in win.pending.range_mut(..hi as u32) {
                p.sack_miss += 1;
                if p.sack_miss >= SACK_THRESH {
                    p.sack_miss = 0;
                    p.retries += 1;
                    p.next_at = now + rto;
                    self.stats.retransmits.incr();
                    self.stats.w_sack_retransmits.incr();
                    if timeline.is_enabled() {
                        if let (Some(s), Some(pkt)) = (syms, p.packets.first()) {
                            timeline.instant(s.track, s.retransmit, Some(pkt.ctx), now);
                        }
                    }
                    self.released.extend_from_slice(&p.packets);
                }
            }
        }
        match cfg.cc {
            CcScheme::Ecn => {
                if flags & ACK_FLAG_ECN != 0 {
                    if base > win.ecn_guard {
                        win.cwnd = (win.cwnd / 2).max(1);
                        win.ecn_guard = win.last_sent_id;
                        self.stats.w_ecn_halvings.incr();
                    }
                } else if any_acked {
                    win.cwnd = (win.cwnd + 1).min(cfg.window_cap());
                }
            }
            CcScheme::Pacing => {
                win.pace_gap = SimDuration::from_ps(pace_ns as u64 * 1_000);
            }
            CcScheme::None => {}
        }
        win.admit_deferred(cfg, now, &mut self.released);
        true
    }

    /// True when data datagram `id` from `src` was already delivered (or
    /// abandoned): ids below the receive window's base are resolved, ids
    /// inside it check their bitmap bit. Ack datagrams (ids at/above
    /// [`ACK_ID_BASE`]) bypass the window.
    pub(crate) fn is_duplicate(&mut self, src: u16, id: u32) -> bool {
        if id >= ACK_ID_BASE {
            return false;
        }
        let win = self.recv.entry(src).or_insert_with(RecvWindow::new);
        id < win.base || (id - win.base < 64 && (win.bitmap >> (id - win.base)) & 1 == 1)
    }

    /// True when `src`'s receive window has resolved past data id `id`,
    /// so a partial reassembly of it can never complete.
    pub(crate) fn resolved(&self, src: u16, id: u32) -> bool {
        id < ACK_ID_BASE && self.recv.get(&src).is_some_and(|w| id < w.base)
    }

    /// Records a delivery of data datagram `id` (acks are not recorded)
    /// in `src`'s receive window: slides the base over the contiguous
    /// prefix, force-advances past abandoned holes when a gave-up
    /// sender's data arrives beyond the bitmap, and updates the pacing
    /// EWMA.
    pub(crate) fn record_delivery(&mut self, now: SimTime, src: u16, id: u32) {
        if id >= ACK_ID_BASE {
            return;
        }
        let win = self.recv.entry(src).or_insert_with(RecvWindow::new);
        if id >= win.base + 64 {
            // The sender moved its window past holes it gave up on; the
            // unset bits shifted out are datagrams that will never arrive.
            let shift = id - 63 - win.base;
            let delivered_in_shift = if shift >= 64 {
                win.bitmap.count_ones()
            } else {
                (win.bitmap & ((1u64 << shift) - 1)).count_ones()
            };
            self.stats
                .w_holes_abandoned
                .add(shift as u64 - delivered_in_shift as u64);
            win.bitmap = if shift >= 64 { 0 } else { win.bitmap >> shift };
            win.base += shift;
        }
        win.bitmap |= 1u64 << (id - win.base);
        while win.bitmap & 1 == 1 {
            win.bitmap >>= 1;
            win.base += 1;
        }
        if let Some(last) = win.last_deliver {
            let gap = now.saturating_since(last);
            win.gap_ewma = SimDuration::from_ps((win.gap_ewma.as_ps() * 7 + gap.as_ps()) / 8);
        }
        win.last_deliver = Some(now);
    }
}

/// Read-outs of the send window toward `dst`, for the stack's tests.
#[cfg(test)]
impl Reliable {
    /// Ids in flight, ascending.
    pub(crate) fn pending_ids(&self, dst: u16) -> Vec<u32> {
        self.send
            .get(&dst)
            .map(|w| w.pending.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Datagrams in flight or deferred.
    pub(crate) fn held(&self, dst: u16) -> usize {
        self.send
            .get(&dst)
            .map_or(0, |w| w.pending.len() + w.deferred.len())
    }

    /// Highest data id handed to `dst`.
    pub(crate) fn last_sent_id(&self, dst: u16) -> u32 {
        self.send[&dst].last_sent_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ack_encodes_big_endian_and_parses_back() {
        let ack = BlockAck {
            base: 0x0102_0304,
            bitmap: 0x0506_0708_090A_0B0C,
            reserved: 0x0D0E,
            pace_ns: 0x0F10_1112,
            flags: ACK_FLAG_ECN,
        };
        let wire = ack.encode();
        assert_eq!(wire.len(), BLOCK_ACK_BYTES);
        assert_eq!(wire[..18], (1..=18).collect::<Vec<u8>>()[..]);
        assert_eq!(wire[18], ACK_FLAG_ECN);
        let back = BlockAck::parse(&wire);
        assert_eq!(
            (
                back.base,
                back.bitmap,
                back.reserved,
                back.pace_ns,
                back.flags
            ),
            (ack.base, ack.bitmap, ack.reserved, ack.pace_ns, ack.flags)
        );
    }
}
