//! One complete host node — the unit the topology engine composes.
//!
//! A [`HostNode`] owns everything that sits on one side of the fabric:
//! the machine (CPU, cache, bus, memory), both halves of an OSIRIS
//! board, the kernel driver, the UDP/IP stack, and the x-kernel path
//! table. Nodes are addressed by a typed [`NodeId`]; the fabric decides
//! how cells travel between them (see [`crate::fabric`]), and a
//! [`crate::scenario::Scenario`] decides how many nodes exist and what
//! their applications do.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;

use osiris_adc::AdcManager;
use osiris_atm::crc::{crc32, crc32_combine, Crc32, CrcShift};
use osiris_atm::sar::{FramingMode, ReassemblyMode, Segmenter, MAX_LANES};
use osiris_atm::{Cell, Vci, CELL_PAYLOAD};
use osiris_board::dpram::DpramLayout;
use osiris_board::rx::{RxConfig, RxOutcome, RxProcessor};
use osiris_board::tx::{TxConfig, TxProcessor};
use osiris_host::domain::DomainId;
use osiris_host::driver::{DrainOutcome, OsirisDriver};
use osiris_host::machine::HostMachine;
use osiris_host::wiring::WiringService;
use osiris_mem::{AddressSpace, PhysBuffer, VirtRegion};
use osiris_proto::graph::{PathTable, PortAddr};
use osiris_proto::stack::{ProtoConfig, ProtoStack, TxPacket};
use osiris_proto::wire::{IP_HEADER_BYTES, UDP_HEADER_BYTES};
use osiris_sim::{Registry, SimTime, SmallVec, Timeline, TraceCtx};

use crate::config::{DataPath, TestbedConfig};

/// Typed index of a node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// What a node's application does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Sends a ping, waits for the echo, repeats.
    PingClient,
    /// Echoes every delivered message back.
    PongServer,
    /// Streams messages as fast as the transmit path accepts them.
    Source,
    /// Absorbs delivered messages and counts them (fan-in receivers).
    Sink,
    /// Absorbs fictitious PDUs generated by its own receive processor.
    Generator,
    /// Does nothing.
    Idle,
}

/// One connection a node participates in, as seen from that node:
/// the VCI it transmits on, the VCI it binds for receive demultiplexing,
/// and the x-kernel port addressing. In the back-to-back pair both VCIs
/// are the same (the two directions travel separate physical links); on
/// a switched fabric each receiver owns a distinct VCI.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Endpoint {
    /// VCI this node stamps on outgoing cells of the connection.
    pub tx_vci: Vci,
    /// VCI this node binds on its receive processor.
    pub rx_vci: Vci,
    /// Local UDP port.
    pub local_port: u16,
    /// Remote UDP port.
    pub remote_port: u16,
    /// Remote host address stamped into the path table.
    pub remote_host: u16,
    /// The node whose payload pattern arrives on `rx_vci` (for payload
    /// verification; a node on a loopback bench names itself).
    pub src: NodeId,
}

/// One fragment shape of the receive benchmark's fictitious sender: its
/// header length and payload range under the testbed's one framing, cut
/// once by the segmenter. Later fragments of the shape copy these cells
/// and restamp only what differs per message (see [`Generator::next_cell`]):
/// the header bytes, the FourWay PDU tag, each trailer's CRC and the trace
/// identity.
#[derive(Debug)]
struct GenTemplate {
    head_len: usize,
    data: Range<usize>,
    /// The cells as cut for the shape's first fragment.
    cells: Vec<Cell>,
    /// Trailer lanes in use: the stripe width, or fewer for a PDU of fewer
    /// cells (one under EndOfPdu framing).
    lanes: usize,
    /// Per trailer lane, the CRC state over the lane's bytes past the
    /// header. Only lane 0 carries header bytes (they fit its first cell).
    tails: [Crc32; MAX_LANES],
    /// The shift that carries the header's CRC past lane 0's other bytes
    /// and the PDU tag.
    head_shift: CrcShift,
}

impl GenTemplate {
    /// Cuts the shape of `head` ‖ `pattern[data]` with the segmenter, as
    /// PDU `pdu_seq` on `vci`.
    fn cut(
        seg: Segmenter,
        vci: Vci,
        pdu_seq: u16,
        head: &[u8],
        pattern: &[u8],
        data: Range<usize>,
    ) -> GenTemplate {
        assert!(head.len() <= CELL_PAYLOAD, "generator headers fit one cell");
        let bytes = [head, &pattern[data.clone()]];
        let mut cursor = seg.cursor(vci, pdu_seq, &bytes);
        let mut cells = Vec::with_capacity(cursor.remaining());
        let mut tails = [Crc32::new(); MAX_LANES];
        let mut lanes = 1;
        let mut head_tail = 0;
        loop {
            let lane = cursor.lane();
            let Some(cell) = cursor.next_cell(&bytes) else {
                break;
            };
            let skip = if cells.is_empty() { head.len() } else { 0 };
            let tail = &cell.data_bytes()[skip..];
            tails[lane].update(tail);
            if lane == 0 {
                head_tail += tail.len();
            }
            lanes = lanes.max(lane + 1);
            cells.push(cell);
        }
        let tag_len = match seg.framing {
            FramingMode::FourWay { .. } => 2,
            FramingMode::EndOfPdu => 0,
        };
        GenTemplate {
            head_len: head.len(),
            data,
            cells,
            lanes,
            tails,
            head_shift: CrcShift::bytes((head_tail + tag_len) as u64),
        }
    }

    /// Each trailer lane's CRC for a fragment of this shape with header
    /// `head` and FourWay PDU tag `tag`: the lane's template CRC extended
    /// by the tag, and on lane 0 the header's CRC combined in front.
    fn trailers(&self, head: &[u8], tag: Option<u16>) -> [u32; MAX_LANES] {
        let mut out = [0; MAX_LANES];
        for (crc, tail) in out.iter_mut().zip(&self.tails[..self.lanes]) {
            let mut tail = *tail;
            if let Some(tag) = tag {
                tail.update(&tag.to_le_bytes());
            }
            *crc = tail.finish();
        }
        out[0] = crc32_combine(crc32(head), out[0], self.head_shift);
        out
    }
}

/// One queued fragment of the fictitious sender: its shape, its header
/// bytes, what its cells carry beyond the template, and the next cell to
/// hand over.
#[derive(Debug)]
struct GenPdu {
    template: usize,
    head: SmallVec<u8, { IP_HEADER_BYTES + UDP_HEADER_BYTES }>,
    /// FourWay: the PDU tag every cell carries.
    tag: Option<u16>,
    trailers: [u32; MAX_LANES],
    ctx: TraceCtx,
    next: usize,
    /// Framing lane of cell `next`: `next` modulo the template's lanes,
    /// kept as a running counter.
    lane: usize,
}

/// The receive benchmark's fictitious sender (Figure 2: the receive
/// processor fabricates its own PDUs): the fragments queued for the board,
/// one template per fragment shape, and the sender's counters.
#[derive(Debug, Default)]
pub(crate) struct Generator {
    pdus: VecDeque<GenPdu>,
    /// Built on first use, one per fragment shape a message has.
    templates: Vec<GenTemplate>,
    pub(crate) next_id: u32,
    /// Per-PDU sequence (one VCI per node), carried in FourWay AAL headers
    /// so the reassembler can detect cross-PDU lane slips.
    pdu_seq: u16,
    pub(crate) stalled: bool,
}

impl Generator {
    /// Queues the fragment `head` ‖ `pattern[data]` on `vci`, cutting its
    /// shape's template if this is the shape's first fragment.
    pub(crate) fn queue(
        &mut self,
        seg: Segmenter,
        vci: Vci,
        pattern: &[u8],
        head: &[u8],
        data: Range<usize>,
        ctx: TraceCtx,
    ) {
        let pdu_seq = self.pdu_seq;
        self.pdu_seq = pdu_seq.wrapping_add(1);
        let shape = |t: &GenTemplate| t.head_len == head.len() && t.data == data;
        let template = match self.templates.iter().position(shape) {
            Some(i) => i,
            None => {
                let t = GenTemplate::cut(seg, vci, pdu_seq, head, pattern, data);
                self.templates.push(t);
                self.templates.len() - 1
            }
        };
        let tag = match seg.framing {
            FramingMode::FourWay { .. } => Some(pdu_seq),
            FramingMode::EndOfPdu => None,
        };
        self.pdus.push_back(GenPdu {
            template,
            head: SmallVec::from(head),
            tag,
            trailers: self.templates[template].trailers(head, tag),
            ctx,
            next: 0,
            lane: 0,
        });
    }

    /// True when no fragment is queued.
    pub(crate) fn is_idle(&self) -> bool {
        self.pdus.is_empty()
    }

    /// The front fragment's next cell and its framing lane, or `None` once
    /// that fragment is exhausted: the template cell, restamped in place
    /// with the fragment's header bytes, tag, trailer CRC and trace
    /// identity, and lent until the next call. (Every field a fragment
    /// changes is restamped on every use, so no earlier fragment's values
    /// survive in the template.)
    ///
    /// # Panics
    /// Panics if no fragment is queued.
    pub(crate) fn next_cell(&mut self) -> Option<(usize, &Cell)> {
        let pdu = self.pdus.front_mut().expect("a queued fragment");
        let t = &mut self.templates[pdu.template];
        let i = pdu.next;
        let cell = t.cells.get_mut(i)?;
        pdu.next += 1;
        let lane = pdu.lane;
        pdu.lane = if lane + 1 == t.lanes { 0 } else { lane + 1 };
        if i == 0 {
            cell.write_payload(0, &pdu.head);
        }
        if let Some(tag) = pdu.tag {
            cell.aal.seq = tag;
        }
        if let Some(trailer) = &mut cell.trailer {
            trailer.crc = pdu.trailers[lane];
        }
        cell.ctx = Some(pdu.ctx);
        Some((lane, cell))
    }

    /// Drops the front fragment if every cell of it has been handed over.
    pub(crate) fn pop_exhausted(&mut self) {
        if let Some(pdu) = self.pdus.front() {
            if pdu.next == self.templates[pdu.template].cells.len() {
                self.pdus.pop_front();
            }
        }
    }
}

/// One complete host: machine + board halves + driver + protocol stack.
#[derive(Debug)]
pub struct HostNode {
    /// This node's address in the topology.
    pub id: NodeId,
    /// The machine (CPU, cache, memory, bus).
    pub host: HostMachine,
    /// Transmit half of the board.
    pub tx: TxProcessor,
    /// Receive half of the board.
    pub rx: RxProcessor,
    /// The driver (kernel or ADC channel instance).
    pub driver: OsirisDriver,
    /// Kernel (or application) address space.
    pub asp: AddressSpace,
    /// The UDP/IP engine.
    pub stack: ProtoStack,
    /// The x-kernel path registry (connection ↔ VCI bindings, §3.1).
    pub paths: PathTable,
    /// This node's primary connection VCI (first endpoint).
    pub vci: Vci,
    /// Primary local UDP port (first endpoint).
    pub(crate) local_port: u16,
    /// Who transmits on each VCI this node binds (payload verification).
    pub(crate) src_of_vci: HashMap<Vci, NodeId>,
    /// The VCI this node transmits on to reach each remote host
    /// (reliable-mode acks are addressed by host, not by connection).
    pub(crate) tx_vci_of_host: HashMap<u16, Vci>,
    /// The VCI this node's messages transmit on (its primary
    /// connection's).
    pub(crate) tx_vci: Vci,
    pub(crate) msg_region: VirtRegion,
    pub(crate) pattern: Vec<u8>,
    pub(crate) role: Role,
    pub(crate) pending_pkts: VecDeque<(Vci, Vec<PhysBuffer>, Option<TraceCtx>)>,
    /// Per-message scratch the node keeps so its datapath allocates
    /// nothing once warm: emptied buffer lists of packets the driver has
    /// queued (reused for the next packet's physical chain), the stack's
    /// output packets on their way to `pending_pkts`, and the receive
    /// drain's delivery list.
    pub(crate) spare_bufs: Vec<Vec<PhysBuffer>>,
    pub(crate) tx_pkts: Vec<TxPacket>,
    pub(crate) drained: DrainOutcome,
    /// VCIs on which an ECN-marked cell has arrived and the mark has not
    /// yet been echoed in a block ack. Membership tests only (never
    /// iterated), so hash order can't leak into results; the state lives
    /// on the receiving node, which owns both the arrival events and the
    /// acks.
    pub(crate) ecn_marks: HashSet<Vci>,
    pub(crate) remaining: u64,
    /// The fictitious sender, on a receive-benchmark node.
    pub(crate) gen: Generator,
    /// Latest timestamp carried by any descriptor pushed to this node's
    /// receive rings that a drain has not yet observed (the §"modelling
    /// note" early-visibility window; see `Testbed::rx_drain`).
    pub(crate) rx_push_horizon: SimTime,
    /// Per-PDU identity counter for raw-ATM sends (UDP/IP PDUs inherit
    /// the stack's IP id instead).
    pub(crate) raw_ctx_seq: u32,
    /// Time of the last application delivery on this node (Sink roles
    /// feed the inter-delivery gap — the incast tail metric — into the
    /// testbed's latency histogram).
    pub(crate) last_delivery_at: Option<SimTime>,
    /// End of the last emitted `intr.wait` span on this node's host
    /// track (spans on one track must never overlap).
    pub(crate) intr_wait_floor: SimTime,
    /// End of the last emitted span on this node's app track.
    pub(crate) app_span_floor: SimTime,
}

impl HostNode {
    /// Consumes one unit of the node's message budget (the experiment
    /// harness seeds the first `AppSend` itself).
    pub(crate) fn decrement_remaining(&mut self) {
        self.remaining = self.remaining.saturating_sub(1);
    }

    /// A recycled (empty) buffer list for the next packet's chain.
    pub(crate) fn spare_buf_list(&mut self) -> Vec<PhysBuffer> {
        let mut bufs = self.spare_bufs.pop().unwrap_or_default();
        bufs.clear();
        bufs
    }

    /// Moves the packets in `tx_pkts` onto `pending_pkts` for `vci`, each
    /// translated into a recycled buffer list.
    pub(crate) fn queue_tx_pkts(&mut self, vci: Vci) {
        for p in self.tx_pkts.drain(..) {
            let mut bufs = self.spare_bufs.pop().unwrap_or_default();
            self.stack
                .to_phys(&self.asp, &p, &mut bufs)
                .expect("translate packet");
            self.pending_pkts.push_back((vci, bufs, Some(p.ctx)));
        }
    }

    /// Feeds one cell arriving on `lane` at `now` into the receive half:
    /// the node's part of a cell arrival. What the outcome asks of the
    /// rest of the testbed (interrupt, flush and reap events) is the
    /// caller's.
    pub(crate) fn rx_cell(&mut self, now: SimTime, lane: usize, cell: &Cell) -> RxOutcome {
        let out = self.rx.receive_cell(
            now,
            lane,
            cell,
            &mut self.host.mem_sys,
            &mut self.host.cache,
            &mut self.host.phys,
        );
        self.note_rx_pushes();
        out
    }

    /// Records the descriptor-push timestamps of the last receive event.
    pub(crate) fn note_rx_pushes(&mut self) {
        for &(t, _, _) in self.rx.pushed() {
            if t > self.rx_push_horizon {
                self.rx_push_horizon = t;
            }
        }
    }

    pub(crate) fn framing(cfg: &TestbedConfig) -> FramingMode {
        match cfg.reassembly {
            ReassemblyMode::FourWay { lanes } => FramingMode::FourWay { lanes },
            _ => FramingMode::EndOfPdu,
        }
    }

    /// Builds one node: boots the machine, programs both board halves,
    /// provisions receive buffers, lays out the message buffer, and
    /// registers every connection in `endpoints` (VCI bindings + path
    /// table). Returns the node and, on the ADC data path, its channel
    /// manager.
    pub(crate) fn build(
        cfg: &TestbedConfig,
        id: NodeId,
        registry: &Registry,
        endpoints: &[Endpoint],
        timeline: &Timeline,
    ) -> (HostNode, Option<AdcManager>) {
        let i = id.0;
        let node_probe = registry.probe(&format!("node{i}"));
        let board_probe = node_probe.scoped("board");
        let mut adc_mgr = (cfg.data_path == DataPath::Adc).then(AdcManager::new);
        let mut host = HostMachine::boot_with_probe(cfg.machine, cfg.seed + i as u64, &node_probe);
        let tx_cfg = TxConfig {
            framing: Self::framing(cfg),
            page_size: cfg.machine.page_size as u64,
            ..TxConfig::paper_default()
        };
        let rx_cfg = RxConfig {
            dma_mode: cfg.rx_dma,
            reassembly: cfg.reassembly,
            interrupt_policy: cfg.interrupt_policy,
            page_size: cfg.machine.page_size as u64,
            buffer_bytes: cfg.buffer_bytes,
            max_pdu_bytes: 1 << 20,
            reassembly_timeout: cfg.reassembly_timeout,
            ..RxConfig::paper_default()
        };
        let mut tx = TxProcessor::with_probe(tx_cfg, DpramLayout::paper_default(), &board_probe);
        let mut rx = RxProcessor::with_probe(rx_cfg, DpramLayout::paper_default(), &board_probe);
        let mut asp = AddressSpace::new(cfg.machine.page_size);
        let mut stack = ProtoStack::with_probe(
            ProtoConfig {
                mtu: cfg.mtu,
                udp_checksum: cfg.udp_checksum,
                reliable: cfg.reliable,
                cc: cfg.cc,
                window: cfg.window,
            },
            &mut host,
            &mut asp,
            &node_probe,
        );
        // The node's model-level IP address is its topology index.
        stack.set_src_host(i as u16);
        // Every layer records its per-PDU spans on the shared timeline.
        tx.set_timeline(timeline);
        rx.set_timeline(timeline);
        stack.set_timeline(timeline, &node_probe);

        let page = if cfg.data_path == DataPath::Adc { 1 } else { 0 };
        let mut driver = OsirisDriver::with_probe(
            page,
            cfg.buffer_bytes,
            cfg.cache_strategy,
            WiringService { mode: cfg.wiring },
            &node_probe,
        );
        driver.set_timeline(timeline, &node_probe);
        driver.provision_receive_buffers(SimTime::ZERO, &mut host, &mut rx, cfg.rx_buffers);

        // Message buffer + deterministic payload pattern. The data
        // starts `data_offset` bytes into the region — §2.2's
        // "typically not aligned with page boundaries".
        let size = (cfg.msg_size + cfg.data_offset).max(4);
        let msg_region = asp
            .alloc_and_map(size, &mut host.alloc)
            .expect("message region");
        let data_base = msg_region.base.offset(cfg.data_offset);
        let pattern: Vec<u8> = (0..cfg.msg_size)
            .map(|j| ((j * 31 + 7 + i as u64 * 13) % 251) as u8)
            .collect();
        let mut off = 0u64;
        for pb in asp
            .translate(data_base, cfg.msg_size.max(1))
            .expect("translate")
        {
            let end = (off + pb.len as u64).min(cfg.msg_size);
            if off < end {
                host.phys
                    .write(pb.addr, &pattern[off as usize..end as usize]);
            }
            off += pb.len as u64;
        }

        // Route every connection's receive VCI.
        let rx_vcis: Vec<Vci> = endpoints.iter().map(|e| e.rx_vci).collect();
        match &mut adc_mgr {
            Some(mgr) => {
                // Authorize every frame the application legitimately
                // uses: its receive buffers, its message buffer, and
                // its (application-linked) protocol stack's headers.
                let mut frames: std::collections::HashSet<u64> = std::collections::HashSet::new();
                let ps = cfg.machine.page_size as u64;
                for d in rx.free_ring(page).iter_live() {
                    let first = d.addr.0 / ps;
                    let last = (d.addr.0 + d.len as u64 - 1) / ps;
                    frames.extend(first..=last);
                }
                for r in [msg_region, stack.slab_region()] {
                    for f in asp.frames_of(r).expect("mapped region") {
                        frames.insert(f as u64);
                    }
                }
                let opened = mgr
                    .open(
                        DomainId(1 + i as u32),
                        rx_vcis.clone(),
                        frames,
                        4,
                        &mut tx,
                        &mut rx,
                    )
                    .expect("ADC page available");
                assert_eq!(opened, page, "ADC page assignment");
            }
            None => {
                for &vci in &rx_vcis {
                    rx.bind_vci(vci, page);
                }
            }
        }

        // Register each connection in the x-kernel path table: a path is
        // bound to its VCI for the connection's lifetime.
        let mut paths = PathTable::new();
        let domain = match cfg.data_path {
            DataPath::Kernel => DomainId::KERNEL,
            _ => DomainId(1 + i as u32),
        };
        let mut src_of_vci = HashMap::new();
        let mut tx_vci_of_host = HashMap::new();
        for e in endpoints {
            tx_vci_of_host.insert(e.remote_host, e.tx_vci);
            let ports = PortAddr {
                local_port: e.local_port,
                remote_port: e.remote_port,
                remote_host: e.remote_host,
            };
            paths
                .open_on_vci(e.rx_vci, ports, domain, page)
                .expect("path registration");
            src_of_vci.insert(e.rx_vci, e.src);
        }

        let primary = endpoints[0];
        let node = HostNode {
            id,
            host,
            tx,
            rx,
            driver,
            asp,
            stack,
            paths,
            vci: primary.rx_vci,
            local_port: primary.local_port,
            src_of_vci,
            tx_vci_of_host,
            tx_vci: primary.tx_vci,
            msg_region,
            pattern,
            role: Role::Idle,
            pending_pkts: VecDeque::new(),
            spare_bufs: Vec::new(),
            tx_pkts: Vec::new(),
            drained: DrainOutcome::default(),
            ecn_marks: HashSet::new(),
            remaining: 0,
            gen: Generator {
                next_id: 1,
                ..Generator::default()
            },
            rx_push_horizon: SimTime::ZERO,
            raw_ctx_seq: 1,
            last_delivery_at: None,
            intr_wait_floor: SimTime::ZERO,
            app_span_floor: SimTime::ZERO,
        };
        (node, adc_mgr)
    }
}
