//! The cost-charging UDP/IP engine.
//!
//! Output builds real packets: headers are written into a kernel slab
//! (each contributing its own physical buffer, exactly the §2.2 "header
//! portion usually contributes one physical buffer" effect), data is
//! fragmented by the message tool without copying, and the optional UDP
//! checksum reads every data byte through the cache model.
//!
//! Input parses and verifies real headers out of the receive buffers,
//! reassembles fragments, and — the §2.3 centrepiece — when a UDP
//! checksum mismatch coincides with stale cache lines, performs the lazy
//! recovery: "the corresponding cache locations are invalidated, and the
//! message is re-evaluated before it is considered in error".

use osiris_board::descriptor::Descriptor;
use osiris_host::driver::{DeliveredPdu, RxChain};
use osiris_host::machine::{internet_checksum, HostMachine};
use osiris_mem::{AddressSpace, MapError, PhysAddr, PhysBuffer, VirtAddr};
use osiris_sim::obs::{Counter, Probe};
use osiris_sim::{FxHashMap, SimDuration, SimTime, Timeline, TraceCtx};

use crate::frag::fragment_layout;
use crate::msg::Message;
use crate::reliable::{BlockAck, Reliable};
use crate::wire::{IpHeader, UdpHeader, IPPROTO_UDP, IP_HEADER_BYTES, UDP_HEADER_BYTES};

pub use crate::reliable::{
    CcScheme, ACK_FLAG_ECN, ACK_ID_BASE, ACK_PORT, BLOCK_ACK_BYTES, MAX_RETRIES, RTO_INITIAL,
    RTO_MAX, SACK_THRESH,
};

/// Stack configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProtoConfig {
    /// Largest PDU handed to the driver, including the IP header (§4 uses
    /// 16 KB plus headers so data stays page-aligned).
    pub mtu: u32,
    /// Whether UDP checksums the data (off in the latency experiments).
    pub udp_checksum: bool,
    /// Opt-in reliable mode, a windowed selective repeat: up to
    /// [`ProtoConfig::window`] datagrams in flight per destination, each
    /// held for acknowledgement and retransmitted with exponential backoff
    /// ([`RTO_INITIAL`] up to [`RTO_MAX`]) or on SACK evidence until acked
    /// or [`MAX_RETRIES`] is exhausted. The receiver answers every
    /// delivery and every duplicate with a block ack of its whole receive
    /// window on [`ACK_PORT`], and suppresses duplicates. A window of 1 is
    /// stop-and-wait. The paper's stack is unreliable UDP — this exists
    /// for the loss and congestion-control experiments.
    pub reliable: bool,
    /// Congestion control layered on the window.
    pub cc: CcScheme,
    /// Selective repeat: max datagrams in flight per destination (clamped
    /// to 64, the block-ack bitmap width).
    pub window: u32,
}

impl ProtoConfig {
    /// The paper's configuration: 16 KB of data per fragment (page-aligned
    /// MTU), checksumming off, no reliability.
    pub fn paper_default() -> Self {
        ProtoConfig {
            mtu: 16 * 1024 + IP_HEADER_BYTES as u32,
            udp_checksum: false,
            reliable: false,
            cc: CcScheme::None,
            window: 16,
        }
    }

    /// Effective selective-repeat window (the bitmap caps it at 64).
    pub fn window_cap(&self) -> u32 {
        self.window.clamp(1, 64)
    }
}

/// One PDU ready for the driver.
#[derive(Debug, Clone)]
pub struct TxPacket {
    /// Header + data segments, in order.
    pub msg: Message<VirtAddr>,
    /// Causal identity of the datagram this packet fragments — every
    /// fragment of one `output` call shares it, and it matches the IP
    /// reassembly key `(src, id)` the receiver re-mints.
    pub ctx: TraceCtx,
}

/// The outcome of feeding one received PDU into the stack.
#[derive(Debug)]
pub enum RxVerdict {
    /// A fragment was absorbed; the datagram is still incomplete.
    Incomplete,
    /// A whole datagram was delivered to the application.
    Deliver {
        /// Source host (the IP header's model-level address), so the
        /// application can tell senders apart on a fan-in path.
        src: u16,
        /// Causal identity of the datagram (the sender's `TxPacket::ctx`,
        /// re-minted from the IP header when the carrier lost it).
        ctx: TraceCtx,
        /// Destination (local) port.
        dst_port: u16,
        /// The data, in receive buffers (headers stripped).
        data: Message<PhysAddr>,
        /// Every receive-buffer descriptor consumed by the datagram, for
        /// recycling once the application is done.
        descs: RxChain,
        /// Data length.
        len: u64,
    },
    /// The datagram was discarded.
    Drop {
        /// Why.
        reason: &'static str,
        /// Descriptors to recycle immediately.
        descs: RxChain,
    },
    /// Reliable mode: a block acknowledgement arrived and released the
    /// pending datagrams it names.
    Ack {
        /// Descriptors to recycle immediately.
        descs: RxChain,
    },
    /// Reliable mode: a datagram that was already delivered arrived again
    /// (its ack was lost, or a retransmission crossed the ack in flight).
    /// The caller must re-ack it — the sender is still waiting — and
    /// recycle the buffers without re-delivering to the application.
    Duplicate {
        /// Source host to re-ack.
        src: u16,
        /// Descriptors to recycle immediately.
        descs: RxChain,
    },
}

/// One fragment held for reassembly: (offset, data-message, descriptors).
type Fragment = (u64, Message<PhysAddr>, RxChain);

#[derive(Debug, Default)]
struct IpReassembly {
    total: Option<u64>,
    have: u64,
    /// Fragments in arrival order (the list is recycled through
    /// `ProtoStack::reasm_spare`).
    parts: Vec<Fragment>,
    /// Last fragment arrival — stale entries (a gave-up sender's orphaned
    /// fragments) are reaped so their receive buffers recycle.
    last_at: SimTime,
}

/// The UDP/IP protocol engine for one host.
#[derive(Debug)]
pub struct ProtoStack {
    /// Configuration.
    pub cfg: ProtoConfig,
    slab_region: osiris_mem::VirtRegion,
    slab_base: VirtAddr,
    slab_slots: u32,
    slab_next: u32,
    ip_id: u32,
    /// This host's model-level IP address, stamped into outgoing headers.
    src_host: u16,
    /// In-flight reassemblies, keyed by `(source host, datagram id)` —
    /// ids are per-sender counters, so on a fan-in path (incast) two
    /// senders' datagrams may carry the same id concurrently.
    reasm: FxHashMap<(u16, u32), IpReassembly>,
    /// Emptied fragment lists of completed reassemblies, reused by the
    /// next one so steady-state traffic allocates nothing.
    reasm_spare: Vec<Vec<Fragment>>,
    /// Reliable mode: the send and receive windows.
    rel: Reliable,
    stats: StackCounters,
    timeline: Timeline,
    /// Timeline track for this stack's CPU spans (`<scope>.stack`).
    track: String,
    /// Protocol CPU is one resource: successive per-PDU spans on this
    /// track are clamped so they never overlap even when a call's nominal
    /// start predates the previous call's finish.
    tx_span_floor: SimTime,
    rx_span_floor: SimTime,
    /// Causal identity of the PDU currently in `input` (the carrier's, or
    /// re-minted from the parsed IP header).
    cur_rx_ctx: Option<TraceCtx>,
}

/// The stack's registry-visible counters (scope `<probe>.stack`).
#[derive(Debug, Clone)]
struct StackCounters {
    delivered: Counter,
    dropped: Counter,
    lazy_recoveries: Counter,
    frags_out: Counter,
    frags_in: Counter,
    acks_received: Counter,
    dup_datagrams: Counter,
    dup_frags: Counter,
    reasm_reaped: Counter,
}

impl StackCounters {
    fn with_probe(probe: &Probe) -> Self {
        let p = probe.scoped("stack");
        StackCounters {
            delivered: p.counter("delivered"),
            dropped: p.counter("dropped"),
            lazy_recoveries: p.counter("lazy_recoveries"),
            frags_out: p.counter("frags_out"),
            frags_in: p.counter("frags_in"),
            acks_received: p.counter("acks_received"),
            dup_datagrams: p.counter("dup_datagrams"),
            dup_frags: p.counter("dup_frags"),
            reasm_reaped: p.counter("reasm_reaped"),
        }
    }
}

/// Bytes per header-slab slot (fits either header comfortably).
const SLAB_SLOT: u32 = 64;

impl ProtoStack {
    /// Builds a stack with detached counters, allocating its header slab
    /// in `asp` (standalone use).
    pub fn new(cfg: ProtoConfig, host: &mut HostMachine, asp: &mut AddressSpace) -> Self {
        ProtoStack::with_probe(cfg, host, asp, &Probe::detached())
    }

    /// Builds a stack publishing its counters under `<scope>.stack`.
    pub fn with_probe(
        cfg: ProtoConfig,
        host: &mut HostMachine,
        asp: &mut AddressSpace,
        probe: &Probe,
    ) -> Self {
        let slots = 1024u32;
        let region = asp
            .alloc_and_map((slots * SLAB_SLOT) as u64, &mut host.alloc)
            .expect("header slab allocation");
        // The slab is wired for its lifetime (boot cost, uncharged).
        asp.wire(region.base, region.len).expect("slab wiring");
        ProtoStack {
            cfg,
            slab_region: region,
            slab_base: region.base,
            slab_slots: slots,
            slab_next: 0,
            ip_id: 1,
            src_host: 0,
            reasm: FxHashMap::default(),
            reasm_spare: Vec::new(),
            rel: Reliable::with_probe(probe),
            stats: StackCounters::with_probe(probe),
            timeline: Timeline::default(),
            track: probe.scoped("stack").scope().to_string(),
            tx_span_floor: SimTime::ZERO,
            rx_span_floor: SimTime::ZERO,
            cur_rx_ctx: None,
        }
    }

    /// Attaches the timeline this stack records its per-PDU protocol
    /// spans on (disabled/detached by default).
    pub fn set_timeline(&mut self, timeline: &Timeline) {
        self.timeline = timeline.clone();
    }

    /// Sets the source-host address stamped into outgoing IP headers.
    pub fn set_src_host(&mut self, src: u16) {
        self.src_host = src;
    }

    /// The header slab's virtual region (ADC setup authorizes its frames).
    pub fn slab_region(&self) -> osiris_mem::VirtRegion {
        self.slab_region
    }

    fn slab_slot(&mut self) -> VirtAddr {
        let slot = self.slab_next % self.slab_slots;
        self.slab_next += 1;
        self.slab_base.offset((slot * SLAB_SLOT) as u64)
    }

    /// UDP + IP output: turns application `data` into driver-ready PDUs,
    /// appended to `out` (none when reliable mode defers the datagram).
    /// Returns the time protocol processing finished.
    #[allow(clippy::too_many_arguments)]
    pub fn output_into(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        asp: &AddressSpace,
        data: Message<VirtAddr>,
        src_port: u16,
        dst_port: u16,
        dst_host: u16,
        out: &mut Vec<TxPacket>,
    ) -> Result<SimTime, MapError> {
        let data_len = data.len();
        let mut t = now;

        // ── UDP ────────────────────────────────────────────────────────
        let cksum = if self.cfg.udp_checksum {
            let (finish, ck) = self.checksum_virt(t, host, asp, &data)?;
            t = finish;
            ck
        } else {
            0
        };
        let udp = UdpHeader {
            src_port,
            dst_port,
            len: data_len as u32,
            cksum,
        };
        let udp_va = self.slab_slot();
        let udp_pa = asp.translate_addr(udp_va)?;
        t = host.cpu_write(t, udp_pa, &udp.encode()).finish;
        t = host.run_software(t, host.spec.costs.udp_fixed).finish;
        let mut datagram = data;
        datagram.push_header(udp_va, UDP_HEADER_BYTES as u32);

        // ── IP ─────────────────────────────────────────────────────────
        // Reliable-mode minting: acks draw from their own id range so the
        // receiver's contiguous data-id window never sees gaps where an
        // ack consumed an id.
        let id = if self.cfg.reliable && dst_port == ACK_PORT {
            self.rel.next_ack_id()
        } else {
            let id = self.ip_id;
            self.ip_id += 1;
            id
        };
        // Mint the causal identity here: it equals the receiver's IP
        // reassembly key, so both ends agree without extra wire bytes.
        let ctx = TraceCtx {
            host: self.src_host,
            pdu: id,
        };
        let total = datagram.len();
        let plan = fragment_layout(total, self.cfg.mtu);
        let first = out.len();
        let mut rest = datagram;
        let mut offset = 0u64;
        for (i, size) in plan.sizes().enumerate() {
            let mut frag = rest.split_off_front(size as u64);
            let hdr = IpHeader {
                id,
                total_len: total as u32,
                frag_off: offset as u32,
                more_frags: i + 1 < plan.count(),
                proto: IPPROTO_UDP,
                src: self.src_host,
                dst: dst_host,
            };
            let ip_va = self.slab_slot();
            let ip_pa = asp.translate_addr(ip_va)?;
            t = host.cpu_write(t, ip_pa, &hdr.encode()).finish;
            t = host.run_software(t, host.spec.costs.ip_fixed).finish;
            frag.push_header(ip_va, IP_HEADER_BYTES as u32);
            out.push(TxPacket { msg: frag, ctx });
            offset += size as u64;
            self.stats.frags_out.incr();
        }
        if self.timeline.is_enabled() {
            let from = now.max(self.tx_span_floor);
            if t > from {
                self.timeline
                    .span_ctx(&self.track, "proto.tx", ctx, from, t);
            }
            self.tx_span_floor = self.tx_span_floor.max(t);
        }
        // Reliable mode: hold the datagram for acknowledgement. ACKs
        // themselves are fire-and-forget (retransmitting the data covers
        // a lost ack).
        if self.cfg.reliable && dst_port != ACK_PORT {
            self.rel.hold(&self.cfg, dst_host, id, t, out, first);
        }
        Ok(t)
    }

    /// Builds the block acknowledgement for `peer`:
    /// `[base][bitmap][reserved][pace_ns][flags]` ([`BLOCK_ACK_BYTES`]) on
    /// [`ACK_PORT`], paying the usual header-build costs. The pace field
    /// advertises the smoothed inter-delivery gap; the ECN flag echoes
    /// switch marks. The packets are appended to `out`.
    pub fn output_block_ack(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        asp: &AddressSpace,
        peer: u16,
        out: &mut Vec<TxPacket>,
    ) -> Result<SimTime, MapError> {
        let payload = self.rel.block_ack(peer);
        let va = self.slab_slot();
        let pa = asp.translate_addr(va)?;
        let t = host.cpu_write(now, pa, &payload).finish;
        let msg = Message::single(va, BLOCK_ACK_BYTES as u32);
        self.output_into(t, host, asp, msg, ACK_PORT, ACK_PORT, peer, out)
    }

    /// Marks `peer`'s flow as having crossed the switch ECN threshold;
    /// the next block ack echoes it.
    pub fn note_ecn(&mut self, peer: u16) {
        self.rel.note_ecn(peer);
    }

    /// The sender's current RTO toward `peer` — [`RTO_INITIAL`] until loss
    /// backs it off, and carried (not reset) across acks of retransmitted
    /// datagrams so a crossed ack can't collapse the backoff. `None`
    /// until the first reliable send to `peer`.
    pub fn current_rto(&self, peer: u16) -> Option<SimDuration> {
        self.rel.current_rto(peer)
    }

    /// True while any datagram awaits acknowledgement or admission.
    pub fn has_unacked(&self) -> bool {
        self.rel.has_unacked()
    }

    /// Moves the packets admitted as a side effect of ack processing
    /// (window slid, SACK retransmit, pacing release) onto `out` — the
    /// caller hands them to the driver exactly once.
    pub fn take_released(&mut self, out: &mut Vec<TxPacket>) {
        self.rel.take_released(out);
    }

    /// The earliest pending timer: an RTO expiry, or — when pacing holds
    /// deferred datagrams back from an open window — the pacing release.
    pub fn next_retransmit_at(&self) -> Option<SimTime> {
        self.rel.next_retransmit_at(&self.cfg)
    }

    /// Collects every datagram whose RTO expired by `now` for
    /// retransmission, doubling the destination's carried backoff once
    /// per expiry round. Datagrams out of retries are abandoned (counted
    /// as `gave_up`) and their packets freed, which both bounds every run
    /// and unpins the fragment buffers; the freed window slots refill
    /// from the deferred queue. Appends the packets to re-enqueue to
    /// `out`, in (destination, datagram-id) order for determinism.
    pub fn poll_retransmit(&mut self, now: SimTime, out: &mut Vec<TxPacket>) {
        self.rel
            .poll_retransmit(&self.cfg, now, out, &self.timeline, &self.track);
    }

    /// Writes a driver-ready packet's physical buffer chain into `out`
    /// (cleared first): each segment is translated straight into the
    /// chain, merging physically adjacent pieces across segment
    /// boundaries.
    pub fn to_phys(
        &self,
        asp: &AddressSpace,
        pkt: &TxPacket,
        out: &mut Vec<PhysBuffer>,
    ) -> Result<(), MapError> {
        out.clear();
        for seg in pkt.msg.segs() {
            asp.translate_into(seg.addr, seg.len as u64, out)?;
        }
        Ok(())
    }

    /// IP + UDP input: absorbs one PDU from the driver. The stack owns
    /// the PDU's buffers until a verdict hands them back for recycling.
    pub fn input(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        pdu: DeliveredPdu,
    ) -> (RxVerdict, SimTime) {
        self.cur_rx_ctx = pdu.ctx;
        let (verdict, t) = self.input_parse(now, host, pdu);
        if self.timeline.is_enabled() {
            if let Some(ctx) = self.cur_rx_ctx {
                let from = now.max(self.rx_span_floor);
                if t > from {
                    self.timeline
                        .span_ctx(&self.track, "proto.rx", ctx, from, t);
                }
            }
            self.rx_span_floor = self.rx_span_floor.max(t);
        }
        (verdict, t)
    }

    fn input_parse(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        pdu: DeliveredPdu,
    ) -> (RxVerdict, SimTime) {
        let mut t = now;
        let descs = pdu.bufs;

        // Parse the IP header out of the first buffer (through the cache).
        let mut hdr_bytes = [0u8; IP_HEADER_BYTES];
        let rr = host.cpu_read(t, descs[0].addr, &mut hdr_bytes);
        t = rr.grant.finish;
        t = host.run_software(t, host.spec.costs.ip_fixed).finish;
        let Some(ip) = IpHeader::decode(&hdr_bytes) else {
            // A stale-cache hit can corrupt the header itself; §2.3 says
            // invalidate and re-evaluate before declaring an error.
            t = host
                .invalidate_cache(t, descs[0].addr, IP_HEADER_BYTES)
                .finish;
            let rr2 = host.cpu_read(t, descs[0].addr, &mut hdr_bytes);
            t = rr2.grant.finish;
            match IpHeader::decode(&hdr_bytes) {
                Some(h) if rr.stale_bytes > 0 => {
                    self.stats.lazy_recoveries.incr();
                    return self.input_ip(t, host, h, descs, pdu.len);
                }
                _ => {
                    self.stats.dropped.incr();
                    return (
                        RxVerdict::Drop {
                            reason: "bad IP header",
                            descs,
                        },
                        t,
                    );
                }
            }
        };
        self.input_ip(t, host, ip, descs, pdu.len)
    }

    fn input_ip(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        ip: IpHeader,
        descs: RxChain,
        pdu_len: u32,
    ) -> (RxVerdict, SimTime) {
        let mut t = now;
        self.stats.frags_in.incr();
        // Re-mint the identity from the header if the carrier lost it
        // (raw wire-image PDUs, generator traffic): same (src, id) key.
        if self.cur_rx_ctx.is_none() {
            self.cur_rx_ctx = Some(TraceCtx {
                host: ip.src,
                pdu: ip.id,
            });
        }

        // Strip the IP header from the buffer chain.
        let mut data = Message::<PhysAddr>::empty();
        for d in &descs {
            data.push_seg(d.addr, d.len);
        }
        let _ = data.pop_header(IP_HEADER_BYTES as u32);
        let frag_data_len = pdu_len as u64 - IP_HEADER_BYTES as u64;

        // Reassemble. The key includes the source host: datagram ids are
        // per-sender counters, so concurrent senders (incast) collide on
        // the id alone.
        let key = (ip.src, ip.id);

        // Reliable mode: a datagram we already delivered is arriving again
        // (lost ack or crossing retransmission). Re-ack, don't re-deliver.
        // The receive window is the record: ids below base are resolved,
        // ids inside the window check their bitmap bit. Ack datagrams
        // (ids at/above ACK_ID_BASE) bypass the window.
        if self.cfg.reliable && self.rel.is_duplicate(ip.src, ip.id) {
            self.stats.dup_datagrams.incr();
            return (RxVerdict::Duplicate { src: ip.src, descs }, t);
        }

        let (mut datagram, all_descs) =
            if ip.frag_off == 0 && !ip.more_frags && !self.reasm.contains_key(&key) {
                // The whole datagram in one fragment: nothing to reassemble.
                (data, descs)
            } else {
                let spare = &mut self.reasm_spare;
                let entry = self.reasm.entry(key).or_insert_with(|| IpReassembly {
                    parts: spare.pop().unwrap_or_default(),
                    ..IpReassembly::default()
                });
                entry.last_at = t;
                // A retransmission can overlap a partially received datagram;
                // absorbing the same offset twice would inflate `have` past the
                // real byte count and wedge the UDP length check. Discard exact
                // duplicates.
                if entry
                    .parts
                    .iter()
                    .any(|(off, _, _)| *off == ip.frag_off as u64)
                {
                    self.stats.dup_frags.incr();
                    return (
                        RxVerdict::Drop {
                            reason: "duplicate fragment",
                            descs,
                        },
                        t,
                    );
                }
                entry.have += frag_data_len;
                entry.parts.push((ip.frag_off as u64, data, descs));
                if !ip.more_frags {
                    entry.total = Some(ip.frag_off as u64 + frag_data_len);
                }
                let complete = matches!(entry.total, Some(total) if entry.have >= total);
                if !complete {
                    return (RxVerdict::Incomplete, t);
                }

                // Datagram complete: stitch fragments in offset order.
                let mut entry = self.reasm.remove(&key).expect("present");
                entry.parts.sort_by_key(|&(off, _, _)| off);
                let mut datagram = Message::<PhysAddr>::empty();
                let mut all_descs = RxChain::new();
                for (_, m, d) in entry.parts.drain(..) {
                    datagram.join(m);
                    all_descs.extend_from_slice(&d);
                }
                self.reasm_spare.push(entry.parts);
                (datagram, all_descs)
            };

        // ── UDP input ──────────────────────────────────────────────────
        let udp_at = datagram.segs()[0].addr;
        let mut udp_bytes = [0u8; UDP_HEADER_BYTES];
        let rr = host.cpu_read(t, udp_at, &mut udp_bytes);
        t = rr.grant.finish;
        let udp_stale = rr.stale_bytes > 0;
        t = host.run_software(t, host.spec.costs.udp_fixed).finish;
        let mut udp = UdpHeader::decode(&udp_bytes);
        let _ = datagram.pop_header(UDP_HEADER_BYTES as u32);
        let len = datagram.len();
        if udp.map(|h| h.len as u64) != Some(len) {
            // §2.3 again: a stale header is invalidated and re-evaluated
            // before the message is considered in error.
            if udp_stale {
                t = host.invalidate_cache(t, udp_at, UDP_HEADER_BYTES).finish;
                let rr2 = host.cpu_read(t, udp_at, &mut udp_bytes);
                t = rr2.grant.finish;
                udp = UdpHeader::decode(&udp_bytes);
            }
            match udp {
                Some(h) if h.len as u64 == len => self.stats.lazy_recoveries.incr(),
                _ => {
                    self.stats.dropped.incr();
                    let reason = match udp {
                        Some(_) => "UDP length mismatch",
                        None => "bad UDP header",
                    };
                    return (
                        RxVerdict::Drop {
                            reason,
                            descs: all_descs,
                        },
                        t,
                    );
                }
            }
        }
        let udp = udp.expect("decoded: checked above");

        // Reliable mode: a datagram on the ACK port is a block ack. One
        // of any other length cannot be one and is dropped whole.
        if self.cfg.reliable && udp.dst_port == ACK_PORT {
            if len != BLOCK_ACK_BYTES as u64 {
                self.stats.dropped.incr();
                return (
                    RxVerdict::Drop {
                        reason: "ack length",
                        descs: all_descs,
                    },
                    t,
                );
            }
            let mut payload = [0u8; BLOCK_ACK_BYTES];
            let mut got = 0usize;
            for seg in datagram.segs() {
                let take = seg.len as usize;
                let rr = host.cpu_read(t, seg.addr, &mut payload[got..got + take]);
                t = rr.grant.finish;
                got += take;
            }
            self.stats.acks_received.incr();
            let ack = BlockAck::parse(&payload);
            let (timeline, track) = (&self.timeline, &self.track);
            if !self
                .rel
                .process_block_ack(&self.cfg, t, ip.src, ack, timeline, track)
            {
                self.stats.dropped.incr();
            }
            return (RxVerdict::Ack { descs: all_descs }, t);
        }

        if self.cfg.udp_checksum && udp.cksum != 0 {
            let (t2, ck, stale) = self.checksum_phys(t, host, &datagram);
            t = t2;
            if ck != udp.cksum {
                if stale > 0 {
                    // §2.3 lazy recovery: invalidate the stale range and
                    // re-evaluate before declaring the message in error.
                    for seg in datagram.segs() {
                        t = host.invalidate_cache(t, seg.addr, seg.len as usize).finish;
                    }
                    let (t3, ck2, _) = self.checksum_phys(t, host, &datagram);
                    t = t3;
                    if ck2 == udp.cksum {
                        self.stats.lazy_recoveries.incr();
                    } else {
                        self.stats.dropped.incr();
                        return (
                            RxVerdict::Drop {
                                reason: "UDP checksum",
                                descs: all_descs,
                            },
                            t,
                        );
                    }
                } else {
                    self.stats.dropped.incr();
                    return (
                        RxVerdict::Drop {
                            reason: "UDP checksum",
                            descs: all_descs,
                        },
                        t,
                    );
                }
            }
        }

        self.stats.delivered.incr();
        if self.cfg.reliable {
            self.rel.record_delivery(t, ip.src, ip.id);
        }
        (
            RxVerdict::Deliver {
                src: ip.src,
                ctx: self.cur_rx_ctx.unwrap_or(TraceCtx {
                    host: ip.src,
                    pdu: ip.id,
                }),
                dst_port: udp.dst_port,
                data: datagram,
                descs: all_descs,
                len,
            },
            t,
        )
    }

    /// Number of partial reassemblies currently pinning receive buffers.
    pub fn pending_reassemblies(&self) -> usize {
        self.reasm.len()
    }

    /// Reaps orphaned partial reassemblies, returning their descriptors
    /// for recycling: entries idle past `older_than` (their sender gave
    /// up, or the missing fragment is gone for good) and — in reliable
    /// mode — entries whose id the receive window has already resolved
    /// past (they can never complete; retransmissions of those ids are
    /// rejected as duplicates before reaching reassembly). Keys are
    /// processed in sorted order so the recycle order, and therefore the
    /// free-ring layout, is identical across runs.
    pub fn reap_reassembly(&mut self, now: SimTime, older_than: SimDuration) -> Vec<Descriptor> {
        let mut stale: Vec<(u16, u32)> = self
            .reasm
            .iter()
            .filter(|(&(src, id), e)| {
                if e.last_at + older_than <= now {
                    return true;
                }
                self.cfg.reliable && self.rel.resolved(src, id)
            })
            .map(|(&k, _)| k)
            .collect();
        stale.sort_unstable();
        let mut descs = Vec::new();
        for key in stale {
            let mut entry = self.reasm.remove(&key).expect("listed above");
            for (_, _, d) in entry.parts.drain(..) {
                descs.extend_from_slice(&d);
            }
            self.reasm_spare.push(entry.parts);
            self.stats.reasm_reaped.incr();
        }
        descs
    }

    /// Checksum of a virtual-memory message through the cache.
    fn checksum_virt(
        &self,
        now: SimTime,
        host: &mut HostMachine,
        asp: &AddressSpace,
        msg: &Message<VirtAddr>,
    ) -> Result<(SimTime, u16), MapError> {
        let mut bytes = Vec::with_capacity(msg.len() as usize);
        let mut t = now;
        for seg in msg.segs() {
            for pb in asp.translate(seg.addr, seg.len as u64)? {
                let mut buf = vec![0u8; pb.len as usize];
                let rr = host.cpu_read(t, pb.addr, &mut buf);
                t = rr.grant.finish;
                bytes.extend_from_slice(&buf);
            }
        }
        let words = (bytes.len() as u64).div_ceil(4);
        t = host
            .run_cycles(t, words * host.spec.costs.checksum_cycles_per_word)
            .finish;
        Ok((t, internet_checksum(&bytes)))
    }

    /// Checksum of a physical-memory message through the cache, reporting
    /// stale bytes (the §2.3 signal).
    fn checksum_phys(
        &self,
        now: SimTime,
        host: &mut HostMachine,
        msg: &Message<PhysAddr>,
    ) -> (SimTime, u16, u64) {
        let mut bytes = Vec::with_capacity(msg.len() as usize);
        let mut t = now;
        let mut stale = 0;
        for seg in msg.segs() {
            let mut buf = vec![0u8; seg.len as usize];
            let rr = host.cpu_read(t, seg.addr, &mut buf);
            t = rr.grant.finish;
            stale += rr.stale_bytes;
            bytes.extend_from_slice(&buf);
        }
        let words = (bytes.len() as u64).div_ceil(4);
        t = host
            .run_cycles(t, words * host.spec.costs.checksum_cycles_per_word)
            .finish;
        (t, internet_checksum(&bytes), stale)
    }

    /// Builds the raw PDU byte images of one datagram — what the wire
    /// would carry. Used by the §4 receive-side experiments, where "the
    /// receiver processor of the OSIRIS board was programmed to generate
    /// fictitious PDUs as fast as the receiving host could absorb them".
    /// (The collected form of [`ProtoStack::wire_fragments`].)
    pub fn build_wire_pdus(
        cfg: ProtoConfig,
        id: u32,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> Vec<Vec<u8>> {
        let mut pdus = Vec::new();
        Self::wire_fragments(cfg, id, src_port, dst_port, payload, |head, data| {
            let mut pdu = head.to_vec();
            pdu.extend_from_slice(&payload[data]);
            pdus.push(pdu);
        });
        pdus
    }

    /// The wire image of one datagram, fragment by fragment, without
    /// copying the payload: `emit(head, data)` receives each fragment's
    /// leading bytes — its IP header, then whatever part of the UDP
    /// header it carries — and the range of `payload` that follows them.
    pub fn wire_fragments(
        cfg: ProtoConfig,
        id: u32,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
        mut emit: impl FnMut(&[u8], std::ops::Range<usize>),
    ) {
        let cksum = if cfg.udp_checksum {
            internet_checksum(payload)
        } else {
            0
        };
        let udp = UdpHeader {
            src_port,
            dst_port,
            len: payload.len() as u32,
            cksum,
        }
        .encode();
        let total = UDP_HEADER_BYTES + payload.len();
        let plan = fragment_layout(total as u64, cfg.mtu);
        let mut off = 0usize;
        for (i, size) in plan.sizes().enumerate() {
            let hdr = IpHeader {
                id,
                total_len: total as u32,
                frag_off: off as u32,
                more_frags: i + 1 < plan.count(),
                proto: IPPROTO_UDP,
                src: 1,
                dst: 0,
            };
            // The fragment covers datagram bytes `off..end`: the UDP
            // header is datagram bytes `0..UDP_HEADER_BYTES`, the payload
            // the rest.
            let end = off + size as usize;
            let mut head = [0u8; IP_HEADER_BYTES + UDP_HEADER_BYTES];
            head[..IP_HEADER_BYTES].copy_from_slice(&hdr.encode());
            let udp_part = &udp[off.min(UDP_HEADER_BYTES)..end.min(UDP_HEADER_BYTES)];
            let head_len = IP_HEADER_BYTES + udp_part.len();
            head[IP_HEADER_BYTES..head_len].copy_from_slice(udp_part);
            let data = off.max(UDP_HEADER_BYTES) - UDP_HEADER_BYTES
                ..end.max(UDP_HEADER_BYTES) - UDP_HEADER_BYTES;
            emit(&head[..head_len], data);
            off = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osiris_host::machine::MachineSpec;
    use osiris_sim::Registry;

    fn setup(checksum: bool) -> (HostMachine, AddressSpace, ProtoStack, Registry) {
        let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 11);
        let mut asp = AddressSpace::new(host.spec.page_size);
        let reg = Registry::new();
        let stack = ProtoStack::with_probe(
            ProtoConfig {
                udp_checksum: checksum,
                ..ProtoConfig::paper_default()
            },
            &mut host,
            &mut asp,
            &reg.probe(""),
        );
        (host, asp, stack, reg)
    }

    /// Writes a payload into a fresh VM region and returns its message.
    fn payload(host: &mut HostMachine, asp: &mut AddressSpace, bytes: &[u8]) -> Message<VirtAddr> {
        let r = asp
            .alloc_and_map(bytes.len() as u64, &mut host.alloc)
            .unwrap();
        let mut off = 0u64;
        for pb in asp.translate(r.base, bytes.len() as u64).unwrap() {
            host.phys.write(
                pb.addr,
                &bytes[off as usize..(off + pb.len as u64) as usize],
            );
            off += pb.len as u64;
        }
        Message::single(r.base, bytes.len() as u32)
    }

    /// UDP + IP output of `data`, collected: the packets and the time
    /// protocol processing finished.
    #[allow(clippy::too_many_arguments)]
    fn output(
        stack: &mut ProtoStack,
        now: SimTime,
        host: &mut HostMachine,
        asp: &AddressSpace,
        data: Message<VirtAddr>,
        src_port: u16,
        dst_port: u16,
        dst_host: u16,
    ) -> (Vec<TxPacket>, SimTime) {
        let mut pkts = Vec::new();
        let t = stack
            .output_into(
                now, host, asp, data, src_port, dst_port, dst_host, &mut pkts,
            )
            .unwrap();
        (pkts, t)
    }

    #[test]
    fn small_message_is_one_packet() {
        let (mut host, mut asp, mut stack, _) = setup(false);
        let data = payload(&mut host, &mut asp, &[7u8; 1000]);
        let (pkts, t) = output(&mut stack, SimTime::ZERO, &mut host, &asp, data, 5, 7, 2);
        assert_eq!(pkts.len(), 1);
        assert!(t > SimTime::ZERO);
        // IP header + UDP header + data.
        assert_eq!(pkts[0].msg.len(), 24 + 12 + 1000);
        // First two segments are the slab headers.
        assert!(pkts[0].msg.segs().len() >= 3);
    }

    #[test]
    fn large_message_fragments_at_mtu() {
        let (mut host, mut asp, mut stack, reg) = setup(false);
        let data = payload(&mut host, &mut asp, &vec![1u8; 40_000]);
        let (pkts, _) = output(&mut stack, SimTime::ZERO, &mut host, &asp, data, 5, 7, 2);
        // 40_012 bytes of datagram at 16 KB per fragment = 3 fragments.
        assert_eq!(pkts.len(), 3);
        for p in &pkts {
            assert!(p.msg.len() <= stack.cfg.mtu as u64);
        }
        assert_eq!(reg.snapshot().counters["stack.frags_out"], 3);
    }

    #[test]
    fn wire_pdus_parse_back() {
        let cfg = ProtoConfig::paper_default();
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 241) as u8).collect();
        let pdus = ProtoStack::build_wire_pdus(cfg, 42, 9, 10, &payload);
        assert_eq!(pdus.len(), 3);
        let h0 = IpHeader::decode(&pdus[0]).unwrap();
        assert!(h0.more_frags);
        assert_eq!(h0.id, 42);
        let hl = IpHeader::decode(pdus.last().unwrap()).unwrap();
        assert!(!hl.more_frags);
        let udp = UdpHeader::decode(&pdus[0][IP_HEADER_BYTES..]).unwrap();
        assert_eq!(udp.len as usize, payload.len());
        assert_eq!(udp.dst_port, 10);
        // Data survives: concatenate fragment payloads and compare.
        let mut joined = Vec::new();
        for p in &pdus {
            joined.extend_from_slice(&p[IP_HEADER_BYTES..]);
        }
        assert_eq!(&joined[UDP_HEADER_BYTES..], &payload[..]);
    }

    /// Full loop: wire PDUs written into "receive buffers", fed through
    /// input, delivered intact.
    fn feed_pdus(
        host: &mut HostMachine,
        stack: &mut ProtoStack,
        pdus: &[Vec<u8>],
        base: u64,
    ) -> Option<(u16, Vec<u8>)> {
        let mut verdict = None;
        let mut t = SimTime::ZERO;
        for (i, p) in pdus.iter().enumerate() {
            let addr = PhysAddr(base + (i as u64) * 0x8000);
            host.phys.write(addr, p);
            let pdu = DeliveredPdu {
                vci: osiris_atm::Vci(33),
                bufs: [Descriptor::tx(
                    addr,
                    p.len() as u32,
                    osiris_atm::Vci(33),
                    true,
                )]
                .into_iter()
                .collect(),
                len: p.len() as u32,
                ready_at: t,
                ctx: None,
            };
            let (v, t2) = stack.input(t, host, pdu.clone());
            t = t2;
            if let RxVerdict::Deliver {
                dst_port,
                data,
                len,
                ..
            } = v
            {
                let mut bytes = Vec::new();
                for seg in data.segs() {
                    bytes.extend_from_slice(host.phys.read(seg.addr, seg.len as usize));
                }
                assert_eq!(bytes.len() as u64, len);
                verdict = Some((dst_port, bytes));
            }
        }
        verdict
    }

    #[test]
    fn input_reassembles_and_delivers() {
        let (mut host, _asp, mut stack, reg) = setup(false);
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 239) as u8).collect();
        let pdus = ProtoStack::build_wire_pdus(stack.cfg, 7, 1, 99, &data);
        let (port, bytes) = feed_pdus(&mut host, &mut stack, &pdus, 0x10_0000).unwrap();
        assert_eq!(port, 99);
        assert_eq!(bytes, data);
        assert_eq!(reg.snapshot().counters["stack.delivered"], 1);
        assert_eq!(reg.snapshot().counters["stack.frags_in"], pdus.len() as u64);
    }

    #[test]
    fn checksum_validates_good_data() {
        let (mut host, _asp, mut stack, reg) = setup(true);
        let data = vec![0x5Au8; 9000];
        let pdus = ProtoStack::build_wire_pdus(stack.cfg, 8, 1, 50, &data);
        let out = feed_pdus(&mut host, &mut stack, &pdus, 0x20_0000);
        assert!(out.is_some());
        assert_eq!(reg.snapshot().counters["stack.dropped"], 0);
    }

    #[test]
    fn checksum_drops_corrupt_data() {
        let (mut host, _asp, mut stack, reg) = setup(true);
        let data = vec![0x5Au8; 9000];
        let mut pdus = ProtoStack::build_wire_pdus(stack.cfg, 9, 1, 50, &data);
        let n = pdus[0].len();
        pdus[0][n - 10] ^= 0xFF; // corrupt payload, not headers
        let out = feed_pdus(&mut host, &mut stack, &pdus, 0x30_0000);
        assert!(out.is_none());
        assert_eq!(reg.snapshot().counters["stack.dropped"], 1);
        assert_eq!(reg.snapshot().counters["stack.lazy_recoveries"], 0);
    }

    #[test]
    fn lazy_recovery_repairs_stale_cache_reads() {
        // Stale zeros leave a decodable UDP header of the wrong length;
        // stale 0x11 bytes set its padding, so it does not decode at all.
        for stale in [0x00, 0x11] {
            lazy_recovery_from_stale(stale);
        }
    }

    fn lazy_recovery_from_stale(stale: u8) {
        let (mut host, _asp, mut stack, reg) = setup(true);
        let addr = PhysAddr(0x40_0000);
        // Step 1: put OLD bytes at the buffer address and read them so the
        // (incoherent) cache holds them.
        let old = vec![stale; 2000];
        host.phys.write(addr, &old);
        let mut scratch = vec![0u8; 2000];
        host.cpu_read(SimTime::ZERO, addr, &mut scratch);
        // Step 2: the "board" DMAs a real PDU over the same buffer.
        let data = vec![0xC3u8; 1500];
        let pdus = ProtoStack::build_wire_pdus(stack.cfg, 10, 1, 60, &data);
        assert_eq!(pdus.len(), 1);
        let pdu_bytes = &pdus[0];
        let mut phys = std::mem::replace(&mut host.phys, osiris_mem::PhysMemory::new(4096, 4096));
        host.cache.dma_write(&mut phys, addr, pdu_bytes);
        host.phys = phys;
        // Step 3: feed it through input. The checksum first sees stale
        // bytes, recovers via invalidation, and delivers.
        let pdu = DeliveredPdu {
            vci: osiris_atm::Vci(1),
            bufs: [Descriptor::tx(
                addr,
                pdu_bytes.len() as u32,
                osiris_atm::Vci(1),
                true,
            )]
            .into_iter()
            .collect(),
            len: pdu_bytes.len() as u32,
            ready_at: SimTime::ZERO,
            ctx: None,
        };
        let (v, _) = stack.input(SimTime::from_us(100), &mut host, pdu.clone());
        match v {
            RxVerdict::Deliver { len, .. } => assert_eq!(len, 1500),
            other => {
                panic!("stale {stale:#x}: expected delivery after lazy recovery, got {other:?}")
            }
        }
        assert!(
            reg.snapshot().counters["stack.lazy_recoveries"] >= 1,
            "recovery must be counted"
        );
        assert_eq!(reg.snapshot().counters["stack.dropped"], 0);
    }

    #[test]
    fn udp_header_with_nonzero_padding_is_dropped_and_counted() {
        let (mut host, _asp, mut stack, reg) = setup(false);
        let mut pdus = ProtoStack::build_wire_pdus(stack.cfg, 10, 1, 60, &[0xC3u8; 100]);
        // UDP header bytes 10–11 (after the IP header) are padding.
        pdus[0][IP_HEADER_BYTES + 10] = 1;
        // Written behind the cache, which has never held the buffer: the
        // header read is not stale.
        let pdu = pdu_at(&mut host, &pdus[0], 0x40_0000);
        let (v, _) = stack.input(SimTime::ZERO, &mut host, pdu);
        match v {
            RxVerdict::Drop { reason, .. } => assert_eq!(reason, "bad UDP header"),
            other => panic!("expected a drop, got {other:?}"),
        }
        assert_eq!(reg.snapshot().counters["stack.dropped"], 1);
        assert_eq!(reg.snapshot().counters["stack.lazy_recoveries"], 0);
    }

    fn setup_reliable() -> (HostMachine, AddressSpace, ProtoStack, Registry) {
        let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 23);
        let mut asp = AddressSpace::new(host.spec.page_size);
        let reg = Registry::new();
        let stack = ProtoStack::with_probe(
            ProtoConfig {
                reliable: true,
                ..ProtoConfig::paper_default()
            },
            &mut host,
            &mut asp,
            &reg.probe(""),
        );
        (host, asp, stack, reg)
    }

    /// Wraps raw wire bytes as one delivered PDU at `addr`.
    fn pdu_at(host: &mut HostMachine, bytes: &[u8], addr: u64) -> DeliveredPdu {
        host.phys.write(PhysAddr(addr), bytes);
        DeliveredPdu {
            vci: osiris_atm::Vci(33),
            bufs: [Descriptor::tx(
                PhysAddr(addr),
                bytes.len() as u32,
                osiris_atm::Vci(33),
                true,
            )]
            .into_iter()
            .collect(),
            len: bytes.len() as u32,
            ready_at: SimTime::ZERO,
            ctx: None,
        }
    }

    #[test]
    fn reliable_output_retransmits_until_acked() {
        let (mut host, mut asp, mut stack, reg) = setup_reliable();
        let data = payload(&mut host, &mut asp, &[9u8; 500]);
        // Host 1 is the source of the hand-built ack below.
        let (pkts, t) = output(&mut stack, SimTime::ZERO, &mut host, &asp, data, 5, 7, 1);
        assert_eq!(pkts.len(), 1);
        let id = pkts[0].ctx.pdu;
        assert!(stack.has_unacked());

        // Before the RTO nothing is due.
        assert!(retransmits(&mut stack, t).is_empty());
        // After it, the same packets come back and the backoff doubles.
        let due1 = stack.next_retransmit_at().unwrap();
        let again = retransmits(&mut stack, due1);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].ctx.pdu, id);
        assert_eq!(reg.snapshot().counters["stack.retransmits"], 1);
        let due2 = stack.next_retransmit_at().unwrap();
        assert!(due2.since(due1) > RTO_INITIAL);

        // An arriving ack releases the datagram.
        let ack_wire = block_ack_wire(stack.cfg, 0, id + 1, 0, 0);
        let pdu = pdu_at(&mut host, &ack_wire, 0x50_0000);
        let (v, _) = stack.input(due2, &mut host, pdu.clone());
        assert!(
            matches!(v, RxVerdict::Ack { .. }),
            "expected Ack, got {v:?}"
        );
        assert!(!stack.has_unacked());
        assert_eq!(reg.snapshot().counters["stack.acks_received"], 1);
    }

    #[test]
    fn reliable_gives_up_after_max_retries() {
        let (mut host, mut asp, mut stack, reg) = setup_reliable();
        let data = payload(&mut host, &mut asp, &[4u8; 100]);
        output(&mut stack, SimTime::ZERO, &mut host, &asp, data, 5, 7, 2);
        let mut polls = 0;
        while let Some(at) = stack.next_retransmit_at() {
            retransmits(&mut stack, at);
            polls += 1;
            assert!(polls <= MAX_RETRIES + 1, "must terminate");
        }
        assert!(!stack.has_unacked());
        assert_eq!(
            reg.snapshot().counters["stack.retransmits"],
            MAX_RETRIES as u64
        );
        assert_eq!(reg.snapshot().counters["stack.gave_up"], 1);
    }

    #[test]
    fn duplicate_datagram_is_suppressed_and_reackable() {
        let (mut host, asp, mut stack, reg) = setup_reliable();
        let data = vec![0xA1u8; 800];
        let wire = ProtoStack::build_wire_pdus(stack.cfg, 5, 9, 40, &data);
        assert_eq!(wire.len(), 1);
        let pdu = pdu_at(&mut host, &wire[0], 0x60_0000);
        let (v1, t1) = stack.input(SimTime::ZERO, &mut host, pdu.clone());
        assert!(matches!(v1, RxVerdict::Deliver { .. }));
        // The retransmission of the same datagram is not re-delivered.
        let (v2, t2) = stack.input(t1, &mut host, pdu.clone());
        match v2 {
            RxVerdict::Duplicate { src, .. } => assert_eq!(src, 1),
            other => panic!("expected Duplicate, got {other:?}"),
        }
        assert_eq!(reg.snapshot().counters["stack.delivered"], 1);
        assert_eq!(reg.snapshot().counters["stack.dup_datagrams"], 1);
        // The re-ack names the duplicate: id 5 is bit 4 above base 1.
        let mut apkts = Vec::new();
        stack
            .output_block_ack(t2, &mut host, &asp, 1, &mut apkts)
            .unwrap();
        let ack = sent_block_ack(&host, &asp, &apkts[0]);
        assert_eq!((ack.base, ack.bitmap), (1, 1 << 4));
    }

    #[test]
    fn duplicate_fragment_does_not_wedge_reassembly() {
        let (mut host, _asp, mut stack, reg) = setup_reliable();
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 233) as u8).collect();
        let wire = ProtoStack::build_wire_pdus(stack.cfg, 6, 9, 41, &data);
        assert_eq!(wire.len(), 3);
        // Fragment 0 arrives twice (a retransmission overlapping the
        // original), then the rest.
        let order = [0usize, 0, 1, 2];
        let mut t = SimTime::ZERO;
        let mut delivered = None;
        for (i, &fi) in order.iter().enumerate() {
            let pdu = pdu_at(&mut host, &wire[fi], 0x70_0000 + (i as u64) * 0x10000);
            let (v, t2) = stack.input(t, &mut host, pdu.clone());
            t = t2;
            if let RxVerdict::Deliver { data: msg, len, .. } = v {
                let mut bytes = Vec::new();
                for seg in msg.segs() {
                    bytes.extend_from_slice(host.phys.read(seg.addr, seg.len as usize));
                }
                assert_eq!(bytes.len() as u64, len);
                delivered = Some(bytes);
            }
        }
        assert_eq!(delivered.expect("datagram completes"), data);
        assert_eq!(reg.snapshot().counters["stack.dup_frags"], 1);
    }

    fn setup_sr(cc: CcScheme, window: u32) -> (HostMachine, AddressSpace, ProtoStack, Registry) {
        let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 29);
        let mut asp = AddressSpace::new(host.spec.page_size);
        let reg = Registry::new();
        let stack = ProtoStack::with_probe(
            ProtoConfig {
                reliable: true,
                cc,
                window,
                ..ProtoConfig::paper_default()
            },
            &mut host,
            &mut asp,
            &reg.probe(""),
        );
        (host, asp, stack, reg)
    }

    /// The packets a retransmit poll at `now` re-sends, collected.
    fn retransmits(stack: &mut ProtoStack, now: SimTime) -> Vec<TxPacket> {
        let mut out = Vec::new();
        stack.poll_retransmit(now, &mut out);
        out
    }

    /// The packets ack processing released, collected.
    fn released(stack: &mut ProtoStack) -> Vec<TxPacket> {
        let mut out = Vec::new();
        stack.take_released(&mut out);
        out
    }

    /// Hand-built block-ack wire image (as node 1 would send it).
    fn block_ack_wire(cfg: ProtoConfig, seq: u32, base: u32, bitmap: u64, flags: u8) -> Vec<u8> {
        block_ack_wire_full(cfg, seq, base, bitmap, 0, 0, flags)
    }

    fn block_ack_wire_full(
        cfg: ProtoConfig,
        seq: u32,
        base: u32,
        bitmap: u64,
        reserved: u16,
        pace_ns: u32,
        flags: u8,
    ) -> Vec<u8> {
        let payload = BlockAck {
            base,
            bitmap,
            reserved,
            pace_ns,
            flags,
        }
        .encode();
        let pdus =
            ProtoStack::build_wire_pdus(cfg, ACK_ID_BASE + seq, ACK_PORT, ACK_PORT, &payload);
        assert_eq!(pdus.len(), 1);
        pdus.into_iter().next().unwrap()
    }

    /// The bytes a driver-ready packet puts on the wire, read through the
    /// sending host's address space.
    fn wire_of(host: &HostMachine, asp: &AddressSpace, pkt: &TxPacket) -> Vec<u8> {
        let mut wire = Vec::new();
        for seg in pkt.msg.segs() {
            for pb in asp.translate(seg.addr, seg.len as u64).unwrap() {
                wire.extend_from_slice(host.phys.read(pb.addr, pb.len as usize));
            }
        }
        wire
    }

    /// Decodes the block ack a stack built into `pkt`.
    fn sent_block_ack(host: &HostMachine, asp: &AddressSpace, pkt: &TxPacket) -> BlockAck {
        let wire = wire_of(host, asp, pkt);
        BlockAck::parse(wire[wire.len() - BLOCK_ACK_BYTES..].try_into().unwrap())
    }

    /// Sends one small datagram to host 1 and returns its id.
    fn send_one(
        host: &mut HostMachine,
        asp: &mut AddressSpace,
        stack: &mut ProtoStack,
        t: SimTime,
    ) -> (u32, bool, SimTime) {
        let data = payload(host, asp, &[6u8; 200]);
        let (pkts, t2) = output(stack, t, host, asp, data, 5, 7, 1);
        let admitted = !pkts.is_empty();
        let id = pkts.first().map(|p| p.ctx.pdu).unwrap_or(0);
        (id, admitted, t2)
    }

    #[test]
    fn sr_window_defers_beyond_cap_and_block_ack_slides() {
        let (mut host, mut asp, mut stack, reg) = setup_sr(CcScheme::None, 2);
        let (id1, a1, t1) = send_one(&mut host, &mut asp, &mut stack, SimTime::ZERO);
        let (id2, a2, t2) = send_one(&mut host, &mut asp, &mut stack, t1);
        let (_, a3, t3) = send_one(&mut host, &mut asp, &mut stack, t2);
        assert_eq!((id1, id2), (1, 2));
        assert!(a1 && a2, "the first two fit the window");
        assert!(!a3, "the third defers");
        assert_eq!(reg.snapshot().counters["stack.window.deferred"], 1);

        // A block ack with base 3 releases 1 and 2; the deferred third
        // datagram is admitted and comes back via take_released.
        let ack = block_ack_wire(stack.cfg, 0, 3, 0, 0);
        let pdu = pdu_at(&mut host, &ack, 0x90_0000);
        let (v, _) = stack.input(t3, &mut host, pdu.clone());
        assert!(matches!(v, RxVerdict::Ack { .. }));
        let released = released(&mut stack);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].ctx.pdu, 3);
        assert!(stack.has_unacked(), "the admitted datagram now awaits ack");
        let ack2 = block_ack_wire(stack.cfg, 1, 4, 0, 0);
        let pdu2 = pdu_at(&mut host, &ack2, 0x91_0000);
        stack.input(t3, &mut host, pdu2.clone());
        assert!(!stack.has_unacked());
    }

    #[test]
    fn sr_sack_retransmits_hole_at_threshold() {
        let (mut host, mut asp, mut stack, reg) = setup_sr(CcScheme::None, 16);
        let mut t = SimTime::ZERO;
        for _ in 0..3 {
            let (_, _, t2) = send_one(&mut host, &mut asp, &mut stack, t);
            t = t2;
        }
        // Ids 2 and 3 acked, id 1 is a hole (bits 1 and 2 above base 1).
        for seq in 0..2u32 {
            let ack = block_ack_wire(stack.cfg, seq, 1, 0b110, 0);
            let pdu = pdu_at(&mut host, &ack, 0xA0_0000 + (seq as u64) * 0x10000);
            let (_, t2) = stack.input(t, &mut host, pdu.clone());
            t = t2;
            if seq == 0 {
                assert!(
                    released(&mut stack).is_empty(),
                    "one SACK miss is below the threshold"
                );
            }
        }
        let released = released(&mut stack);
        assert_eq!(released.len(), 1, "second miss fast-retransmits the hole");
        assert_eq!(released[0].ctx.pdu, 1);
        assert_eq!(reg.snapshot().counters["stack.window.sack_retransmits"], 1);
        assert_eq!(reg.snapshot().counters["stack.retransmits"], 1);
    }

    #[test]
    fn sr_receive_window_suppresses_duplicates_and_abandons_holes() {
        let (mut host, _asp, mut stack, reg) = setup_sr(CcScheme::None, 16);
        let data = vec![0x11u8; 300];
        let w1 = ProtoStack::build_wire_pdus(stack.cfg, 1, 9, 40, &data);
        let pdu = pdu_at(&mut host, &w1[0], 0xB0_0000);
        let (v, t) = stack.input(SimTime::ZERO, &mut host, pdu.clone());
        assert!(matches!(v, RxVerdict::Deliver { .. }));
        // The same id again: resolved below the advanced base.
        let (v2, t2) = stack.input(t, &mut host, pdu.clone());
        assert!(matches!(v2, RxVerdict::Duplicate { .. }));

        // Id 70 forces the window past ids 2..=6 (sender gave them up).
        let w70 = ProtoStack::build_wire_pdus(stack.cfg, 70, 9, 40, &data);
        let pdu70 = pdu_at(&mut host, &w70[0], 0xB1_0000);
        let (v3, t3) = stack.input(t2, &mut host, pdu70.clone());
        assert!(matches!(v3, RxVerdict::Deliver { .. }));
        assert_eq!(reg.snapshot().counters["stack.window.holes_abandoned"], 5);

        // An abandoned id is now a duplicate, not a re-delivery.
        let w3 = ProtoStack::build_wire_pdus(stack.cfg, 3, 9, 40, &data);
        let pdu3 = pdu_at(&mut host, &w3[0], 0xB2_0000);
        let (v4, _) = stack.input(t3, &mut host, pdu3.clone());
        assert!(matches!(v4, RxVerdict::Duplicate { .. }));
        assert_eq!(reg.snapshot().counters["stack.delivered"], 2);
    }

    /// Satellite: a retransmission that crosses its ack in flight must
    /// not reset the carried backoff — only a clean (never-retransmitted)
    /// ack does.
    #[test]
    fn crossed_ack_does_not_reset_backoff() {
        let (mut host, mut asp, mut stack, _) = setup_sr(CcScheme::None, 16);
        let rto = RTO_INITIAL;
        let (_, _, t1) = send_one(&mut host, &mut asp, &mut stack, SimTime::ZERO);
        // RTO expires: backoff doubles, the datagram is retransmitted.
        let due = stack.next_retransmit_at().unwrap();
        assert_eq!(due, t1 + rto);
        assert_eq!(retransmits(&mut stack, due).len(), 1);
        // The ack that was crossing in flight arrives now.
        let ack = block_ack_wire(stack.cfg, 0, 2, 0, 0);
        let pdu = pdu_at(&mut host, &ack, 0xC0_0000);
        let (_, t2) = stack.input(due, &mut host, pdu.clone());
        assert!(!stack.has_unacked());
        // The next datagram's timer runs at the carried (doubled) RTO.
        let (_, _, t3) = send_one(&mut host, &mut asp, &mut stack, t2);
        assert_eq!(stack.next_retransmit_at().unwrap(), t3 + rto + rto);
        // A clean ack for it snaps the backoff home again.
        let ack2 = block_ack_wire(stack.cfg, 1, 3, 0, 0);
        let pdu2 = pdu_at(&mut host, &ack2, 0xC1_0000);
        let (_, t4) = stack.input(t3, &mut host, pdu2.clone());
        let (_, _, t5) = send_one(&mut host, &mut asp, &mut stack, t4);
        assert_eq!(stack.next_retransmit_at().unwrap(), t5 + rto);
    }

    /// Satellite: the RTO scan iterates a BTreeMap, so the retransmit
    /// order is (destination, id)-sorted and identical across runs.
    #[test]
    fn retransmit_order_is_sorted_and_reproducible() {
        let run = || {
            let (mut host, mut asp, mut stack, _) = setup_sr(CcScheme::None, 16);
            let mut t = SimTime::ZERO;
            // Interleave two destinations; ids are minted globally.
            for dst in [1u16, 2, 1, 2, 1, 2] {
                let data = payload(&mut host, &mut asp, &[8u8; 150]);
                let (_, t2) = output(&mut stack, t, &mut host, &asp, data, 5, 7, dst);
                t = t2;
            }
            // Poll once past every datagram's first expiry so the whole
            // backlog comes due in a single scan.
            let due = t + RTO_INITIAL + RTO_INITIAL;
            retransmits(&mut stack, due)
                .iter()
                .map(|p| p.ctx.pdu)
                .collect::<Vec<u32>>()
        };
        let a = run();
        assert_eq!(a, vec![1, 3, 5, 2, 4, 6], "destination-major, id-sorted");
        assert_eq!(a, run(), "identical across runs");
    }

    #[test]
    fn ecn_ack_halves_the_window() {
        let (mut host, mut asp, mut stack, reg) = setup_sr(CcScheme::Ecn, 2);
        let (_, _, t1) = send_one(&mut host, &mut asp, &mut stack, SimTime::ZERO);
        let ack = block_ack_wire(stack.cfg, 0, 2, 0, ACK_FLAG_ECN);
        let pdu = pdu_at(&mut host, &ack, 0xD0_0000);
        let (_, t2) = stack.input(t1, &mut host, pdu.clone());
        assert_eq!(reg.snapshot().counters["stack.window.ecn_halvings"], 1);
        // cwnd halved to 1: the second concurrent datagram defers.
        let (_, a2, t3) = send_one(&mut host, &mut asp, &mut stack, t2);
        let (_, a3, _) = send_one(&mut host, &mut asp, &mut stack, t3);
        assert!(a2);
        assert!(!a3, "halved window admits one datagram at a time");
    }

    #[test]
    fn pacing_ack_spaces_admissions() {
        let (mut host, mut asp, mut stack, reg) = setup_sr(CcScheme::Pacing, 8);
        let (_, _, t1) = send_one(&mut host, &mut asp, &mut stack, SimTime::ZERO);
        // The receiver advertises a 1 ms inter-delivery gap.
        let ack = block_ack_wire_full(stack.cfg, 0, 2, 0, 0, 1_000_000, 0);
        let pdu = pdu_at(&mut host, &ack, 0xF0_0000);
        let (_, t2) = stack.input(t1, &mut host, pdu.clone());
        let (_, a2, t3) = send_one(&mut host, &mut asp, &mut stack, t2);
        let (_, a3, _) = send_one(&mut host, &mut asp, &mut stack, t3);
        assert!(a2, "the first admission starts the pacing clock");
        assert!(!a3, "the second must wait out the advertised gap");
        // The pacing release is a timer: polling at it admits the
        // deferred datagram.
        let release = stack.next_retransmit_at().unwrap();
        assert!(release <= t3 + SimDuration::from_ms(1));
        let out = retransmits(&mut stack, release);
        assert!(
            out.iter().any(|p| p.ctx.pdu == 3),
            "pacing release admits the deferred datagram"
        );
        assert_eq!(
            reg.snapshot().counters["stack.retransmits"],
            0,
            "admission, not retransmission"
        );
    }

    /// End-to-end: two stacks, data one way, the receiver's real block
    /// ack fed back — the sender's window empties.
    #[test]
    fn block_ack_round_trip_between_stacks() {
        let (mut shost, mut sasp, mut sender, sreg) = setup_sr(CcScheme::None, 16);
        let (mut rhost, rasp, mut receiver, rreg) = setup_sr(CcScheme::None, 16);
        receiver.set_src_host(1);
        let mut t = SimTime::ZERO;
        let mut ids = Vec::new();
        for i in 0..2u64 {
            let data = payload(&mut shost, &mut sasp, &[3u8; 400]);
            let (pkts, t2) = output(&mut sender, t, &mut shost, &sasp, data, 5, 7, 1);
            t = t2;
            ids.push(pkts[0].ctx.pdu);
            let wire = wire_of(&shost, &sasp, &pkts[0]);
            let pdu = pdu_at(&mut rhost, &wire, 0x150_0000 + i * 0x10000);
            let (v, _) = receiver.input(t, &mut rhost, pdu.clone());
            assert!(matches!(v, RxVerdict::Deliver { .. }));
        }
        assert!(sender.has_unacked());
        let mut apkts = Vec::new();
        let t3 = receiver
            .output_block_ack(t, &mut rhost, &rasp, 0, &mut apkts)
            .unwrap();
        assert_eq!(apkts.len(), 1);
        assert_eq!(rreg.snapshot().counters["stack.window.block_acks"], 1);
        let ack = sent_block_ack(&rhost, &rasp, &apkts[0]);
        assert_eq!(ack.base, ids[1] + 1, "base sits past both deliveries");
        let wire = wire_of(&rhost, &rasp, &apkts[0]);
        let pdu = pdu_at(&mut shost, &wire, 0x160_0000);
        let (v, _) = sender.input(t3, &mut shost, pdu.clone());
        assert!(
            matches!(v, RxVerdict::Ack { .. }),
            "expected Ack, got {v:?}"
        );
        assert!(!sender.has_unacked(), "one block ack released the window");
        assert_eq!(sreg.snapshot().counters["stack.acks_received"], 1);
    }

    /// Satellite: gave-up datagrams free their packets immediately, and
    /// the receiver-side reap unpins reassemblies the window passed by.
    #[test]
    fn give_up_frees_packets_and_reap_unpins_reassembly() {
        let (mut host, mut asp, mut stack, reg) = setup_sr(CcScheme::None, 16);
        let (_, _, _) = send_one(&mut host, &mut asp, &mut stack, SimTime::ZERO);
        // Drive the retransmit timer until the datagram gives up.
        while let Some(at) = stack.next_retransmit_at() {
            retransmits(&mut stack, at);
        }
        assert_eq!(
            reg.snapshot().counters["stack.retransmits"],
            MAX_RETRIES as u64
        );
        assert_eq!(reg.snapshot().counters["stack.gave_up"], 1);
        assert!(!stack.has_unacked(), "abandoned packets are freed");

        // Receiver side: fragment 1 of datagram 1 arrives, datagram 2
        // completes and advances the window past it — the reap reclaims
        // the stranded fragment's buffers without waiting for idleness.
        let (mut rhost, _rasp, mut rstack, rreg) = setup_sr(CcScheme::None, 16);
        let big: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let frags = ProtoStack::build_wire_pdus(rstack.cfg, 1, 9, 40, &big);
        assert!(frags.len() > 1);
        let pdu = pdu_at(&mut rhost, &frags[0], 0x170_0000);
        let (v, t) = rstack.input(SimTime::ZERO, &mut rhost, pdu.clone());
        assert!(matches!(v, RxVerdict::Incomplete));
        assert_eq!(rstack.pending_reassemblies(), 1);
        // Ids 2..=65 deliver, forcing the base past the stranded id 1.
        let mut t = t;
        for id in 2..=65u32 {
            let w = ProtoStack::build_wire_pdus(rstack.cfg, id, 9, 40, &[0x22u8; 100]);
            let pdu = pdu_at(&mut rhost, &w[0], 0x180_0000 + (id as u64) * 0x8000);
            let (v, t2) = rstack.input(t, &mut rhost, pdu.clone());
            assert!(matches!(v, RxVerdict::Deliver { .. }), "id {id}");
            t = t2;
        }
        let descs = rstack.reap_reassembly(t, SimDuration::from_ms(100_000));
        assert!(
            !descs.is_empty(),
            "the stranded fragment's buffers come back"
        );
        assert_eq!(rstack.pending_reassemblies(), 0);
        assert_eq!(rreg.snapshot().counters["stack.reasm_reaped"], 1);
    }

    #[test]
    fn tx_checksum_charges_time() {
        let (mut host, mut asp, mut stack, _) = setup(true);
        let data = payload(&mut host, &mut asp, &vec![3u8; 16 * 1024]);
        let t0 = SimTime::ZERO;
        let (_, t_cksum) = output(&mut stack, t0, &mut host, &asp, data, 1, 2, 3);

        let (mut host2, mut asp2, mut stack2, _) = setup(false);
        let data2 = payload(&mut host2, &mut asp2, &vec![3u8; 16 * 1024]);
        let (_, t_plain) = output(&mut stack2, t0, &mut host2, &asp2, data2, 1, 2, 3);
        assert!(
            t_cksum.since(t0).as_ps() > t_plain.since(t0).as_ps() * 2,
            "checksumming 16 KB on a 5000/200 must dominate: {} vs {}",
            t_cksum.since(t0),
            t_plain.since(t0)
        );
    }

    /// The ids `stack` still holds for acknowledgement toward host 1.
    fn pending_ids(stack: &ProtoStack) -> Vec<u32> {
        stack.rel.pending_ids(1)
    }

    #[test]
    fn block_ack_beyond_the_sent_ids_is_dropped_whole() {
        let (mut host, mut asp, mut stack, reg) = setup_sr(CcScheme::Ecn, 16);
        let mut t = SimTime::ZERO;
        for _ in 0..3 {
            t = send_one(&mut host, &mut asp, &mut stack, t).2;
        }
        // Ids 1..=3 are in flight. A base past 4 or a bitmap bit above 3
        // names an unsent id; a base near u32::MAX once overflowed.
        let bad = [(5, 0), (2, 0b100), (u32::MAX, 1), (u32::MAX - 63, 1 << 63)];
        for (seq, (base, bitmap)) in bad.into_iter().enumerate() {
            let ack = block_ack_wire(stack.cfg, seq as u32, base, bitmap, ACK_FLAG_ECN);
            let pdu = pdu_at(&mut host, &ack, 0x90_0000 + seq as u64 * 0x100);
            let (v, t2) = stack.input(t, &mut host, pdu);
            t = t2;
            assert!(matches!(v, RxVerdict::Ack { .. }));
            assert_eq!(pending_ids(&stack), vec![1, 2, 3], "ack {base}/{bitmap:#x}");
            assert_eq!(reg.snapshot().counters["stack.dropped"], seq as u64 + 1);
            assert_eq!(
                reg.snapshot().counters["stack.window.ecn_halvings"],
                0,
                "a dropped ack sets no window"
            );
        }
        // A nonzero reserved field marks an otherwise valid ack malformed.
        let ack = block_ack_wire_full(stack.cfg, 8, 4, 0, 1, 0, 0);
        let pdu = pdu_at(&mut host, &ack, 0x90_8000);
        let (v, t2) = stack.input(t, &mut host, pdu);
        t = t2;
        assert!(matches!(v, RxVerdict::Ack { .. }));
        assert_eq!(pending_ids(&stack), vec![1, 2, 3]);
        assert_eq!(reg.snapshot().counters["stack.dropped"], 5);
        // The edge of the valid range is accepted: base 4 acks all three.
        let ack = block_ack_wire(stack.cfg, 9, 4, 0, 0);
        let pdu = pdu_at(&mut host, &ack, 0x91_0000);
        stack.input(t, &mut host, pdu);
        assert!(pending_ids(&stack).is_empty());
        assert_eq!(reg.snapshot().counters["stack.dropped"], 5);
    }

    /// Seeded mutation fuzz of the 19 block-ack payload bytes (flips,
    /// truncations, extensions, splices) fed through `input` as real ack
    /// datagrams: input never panics; an ack datagram of any length but
    /// [`BLOCK_ACK_BYTES`], one naming an id above the highest one sent,
    /// or one with a nonzero reserved field changes nothing and counts as
    /// dropped; and a well-formed ack releases exactly the pending ids it
    /// names (it may admit deferred ones).
    #[test]
    fn mutated_block_acks_never_panic_or_ack_unsent_ids() {
        use osiris_sim::SimRng;
        let (mut host, mut asp, mut stack, reg) = setup_sr(CcScheme::Ecn, 16);
        let mut rng = SimRng::new(0x0B10_CAC4);
        let data = payload(&mut host, &mut asp, &[6u8; 200]);
        let mut t = SimTime::ZERO;
        let mut last_sent = 0u32;
        let image = |rng: &mut SimRng, last_sent: u32| {
            let base = match rng.gen_range(4) {
                0 => rng.next_u64() as u32,
                1 => u32::MAX - rng.gen_range(70) as u32,
                // Around the ids in flight.
                _ => last_sent.saturating_sub(rng.gen_range(8) as u32) + 1,
            };
            // Mostly bits for sent ids only (`base..=last_sent`).
            let span = last_sent.saturating_sub(base).saturating_add(1).min(64);
            let mut bitmap = rng.next_u64() >> rng.gen_range(64);
            if rng.gen_bool(0.75) {
                bitmap &= u64::MAX.checked_shr(64 - span).unwrap_or(0);
            }
            let tail = rng.next_u64();
            // A well-formed image has a zero reserved field; byte flips
            // and splices below make malformed ones.
            BlockAck {
                base,
                bitmap,
                reserved: 0,
                pace_ns: tail as u32,
                flags: (tail >> 32) as u8,
            }
            .encode()
            .to_vec()
        };
        let (mut dropped_acks, mut reserved_drops) = (0, 0);
        let (mut short_drops, mut long_drops, mut naming_acks) = (0, 0, 0);
        for i in 0..4000u32 {
            // Keep a few datagrams in flight (an ECN-halved window defers
            // the rest, which acks admit later).
            let held = stack.rel.held(1);
            for _ in held..4 {
                t = output(&mut stack, t, &mut host, &asp, data.clone(), 5, 7, 1).1;
                last_sent = stack.rel.last_sent_id(1);
            }
            let mut bytes = image(&mut rng, last_sent);
            match rng.gen_range(5) {
                0 => {}
                1 => {
                    for _ in 0..1 + rng.gen_range(3) {
                        let at = rng.gen_range(bytes.len() as u64) as usize;
                        bytes[at] ^= 1 + rng.gen_range(255) as u8;
                    }
                }
                2 => bytes.truncate(rng.gen_range(bytes.len() as u64 + 1) as usize),
                3 => {
                    for _ in 0..1 + rng.gen_range(8) {
                        bytes.push(rng.next_u64() as u8);
                    }
                }
                _ => {
                    let other = image(&mut rng, last_sent);
                    let a = rng.gen_range(bytes.len() as u64 + 1) as usize;
                    let b = rng.gen_range(other.len() as u64 + 1) as usize;
                    bytes.truncate(a);
                    bytes.extend_from_slice(&other[b..]);
                }
            }
            let wire =
                ProtoStack::build_wire_pdus(stack.cfg, ACK_ID_BASE + i, ACK_PORT, ACK_PORT, &bytes);
            let before = pending_ids(&stack);
            let dropped = reg.snapshot().counters["stack.dropped"];
            // A fresh address per datagram: the lazy cache never holds a
            // line of it, so the stack reads exactly these bytes.
            let pdu = pdu_at(&mut host, &wire[0], 0x180_0000 + i as u64 * 0x100);
            let (v, t2) = stack.input(t, &mut host, pdu);
            t = t2;
            let after = pending_ids(&stack);
            assert!(
                after.iter().all(|&id| id <= last_sent),
                "ack {i}: {after:?}"
            );
            if bytes.len() != BLOCK_ACK_BYTES {
                assert!(matches!(v, RxVerdict::Drop { .. }), "ack {i}: {v:?}");
                assert_eq!(after, before, "{}-byte ack {i} released some", bytes.len());
                assert_eq!(reg.snapshot().counters["stack.dropped"], dropped + 1);
                if bytes.len() < BLOCK_ACK_BYTES {
                    short_drops += 1;
                } else {
                    long_drops += 1;
                }
                continue;
            }
            assert!(matches!(v, RxVerdict::Ack { .. }), "ack {i}: {v:?}");
            let ack = BlockAck::parse(bytes[..].try_into().unwrap());
            let top = match ack.bitmap {
                0 => ack.base as u64,
                m => ack.base as u64 + 63 - m.leading_zeros() as u64,
            };
            let malformed = ack.reserved != 0
                || ack.base as u64 > last_sent as u64 + 1
                || (ack.bitmap != 0 && top > last_sent as u64);
            if malformed {
                reserved_drops += (ack.reserved != 0) as u32;
                assert_eq!(after, before, "malformed ack {i} released some");
                assert_eq!(reg.snapshot().counters["stack.dropped"], dropped + 1);
                dropped_acks += 1;
            } else {
                let named = |id: u32| {
                    id < ack.base
                        || (id - ack.base < 64 && (ack.bitmap >> (id - ack.base)) & 1 == 1)
                };
                for &id in &before {
                    assert_eq!(
                        named(id),
                        !after.contains(&id),
                        "ack {i} must release exactly the pending ids it names (id {id})"
                    );
                }
                naming_acks += before.iter().any(|&id| named(id)) as u32;
            }
            let mut out = Vec::new();
            stack.take_released(&mut out);
        }
        // The mix reaches every outcome often, and flips and splices reach
        // the reserved field.
        println!(
            "{naming_acks} well-formed acks named a pending id; dropped: \
             {dropped_acks} malformed ({reserved_drops} reserved), \
             {short_drops} short, {long_drops} long"
        );
        assert!(
            dropped_acks > 200 && reserved_drops > 100 && short_drops > 200 && long_drops > 200,
            "{dropped_acks} {reserved_drops} {short_drops} {long_drops}"
        );
        assert!(naming_acks > 0, "no well-formed ack named a pending id");
    }
}
