//! Cell-level striping over four lanes, with skew and fault injection.
//!
//! §2.6: four 155 Mbps channels are "grouped together and treated as a
//! single logical channel, with data striped at the cell level". Cell `i`
//! of a PDU travels on lane `i mod 4`. Striping introduces *skew* — a
//! bounded class of misordering in which each lane stays FIFO but lanes
//! shift relative to each other — from three sources:
//!
//! 1. different physical path lengths (eliminated in AURORA by wavelength
//!    multiplexing onto one fibre → our `lane_offsets` default to zero),
//! 2. delays in multiplexing equipment (→ fixed per-lane `lane_offsets`),
//! 3. queueing in switch ports (→ random per-cell `queue_jitter`).
//!
//! Every cell loss, corruption and lane outage on the link comes from the
//! run's [`FaultPlan`], applied through one [`FaultInjector`] per link.

use osiris_sim::faults::{CellFate, FaultInjector, FaultPlan};
use osiris_sim::obs::{Counter, Probe};
use osiris_sim::{SimDuration, SimRng, SimTime};

use crate::cell::{Cell, CELL_PAYLOAD};
use crate::link::{LinkLane, LinkSpec};
use crate::slab::{CellRef, CellSlab};

/// Skew configuration for a striped link. Faults come from the run's
/// [`FaultPlan`] (see [`StripedLink::set_fault_plan`]), and the jitter
/// seed from [`StripedLink::reseed`].
#[derive(Debug, Clone)]
pub struct SkewConfig {
    /// Fixed extra delay per lane (multiplexing equipment).
    pub lane_offsets: Vec<SimDuration>,
    /// Maximum random per-cell queueing delay (switch ports); uniform in
    /// `[0, max]`.
    pub queue_jitter_max: SimDuration,
}

impl SkewConfig {
    /// Perfectly aligned lanes: no skew (back-to-back boards on one
    /// fibre — the paper's measurement setup).
    pub fn none() -> Self {
        SkewConfig {
            lane_offsets: vec![SimDuration::ZERO; 4],
            queue_jitter_max: SimDuration::ZERO,
        }
    }

    /// Mux-equipment skew: lanes shifted by a few cell times each — the
    /// surprise the authors "were not within our power to eliminate".
    pub fn mux_skew() -> Self {
        SkewConfig {
            lane_offsets: vec![
                SimDuration::ZERO,
                SimDuration::from_us(3),
                SimDuration::from_us(6),
                SimDuration::from_us(9),
            ],
            queue_jitter_max: SimDuration::ZERO,
        }
    }

    /// Switch-queueing skew: random per-cell delays up to several cell
    /// times (essentially unbounded in the paper's analysis).
    pub fn switch_queueing(max_jitter: SimDuration) -> Self {
        SkewConfig {
            lane_offsets: vec![SimDuration::ZERO; 4],
            queue_jitter_max: max_jitter,
        }
    }
}

/// The 4 × 155 Mbps striped channel between two boards.
#[derive(Debug)]
pub struct StripedLink {
    lanes: Vec<LinkLane>,
    rng: SimRng,
    queue_jitter_max: SimDuration,
    /// Fault injection from the run's `FaultPlan` (`None` when the plan
    /// cannot touch a lane).
    injector: Option<FaultInjector>,
    cells_dropped: Counter,
    cells_corrupted: Counter,
    cells_remapped: Counter,
}

impl StripedLink {
    /// A striped link with `skew.lane_offsets.len()` lanes of `spec` each
    /// and detached counters (standalone use). The config is borrowed —
    /// the link copies out the few scalars it needs, so callers never
    /// clone a `SkewConfig` just to build a link.
    pub fn new(spec: LinkSpec, skew: &SkewConfig) -> Self {
        StripedLink::with_probe(spec, skew, &Probe::detached())
    }

    /// A striped link publishing per-lane `lane<i>.cells_sent` plus
    /// `cells_dropped` / `cells_corrupted` / `cells_remapped` under
    /// `<scope>.link`.
    pub fn with_probe(spec: LinkSpec, skew: &SkewConfig, probe: &Probe) -> Self {
        assert!(!skew.lane_offsets.is_empty(), "need at least one lane");
        let p = probe.scoped("link");
        let lanes = skew
            .lane_offsets
            .iter()
            .enumerate()
            .map(|(i, &off)| LinkLane::with_probe(spec, off, &p.scoped(&format!("lane{i}"))))
            .collect::<Vec<_>>();
        StripedLink {
            lanes,
            rng: SimRng::new(1),
            queue_jitter_max: skew.queue_jitter_max,
            injector: None,
            cells_dropped: p.counter("cells_dropped"),
            cells_corrupted: p.counter("cells_corrupted"),
            cells_remapped: p.counter("cells_remapped"),
        }
    }

    /// Replaces the queue-jitter RNG stream (seeded 1 at construction)
    /// with one seeded by `seed`, so a harness derives per-node streams
    /// from one shared, borrowed [`SkewConfig`].
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SimRng::new(seed);
    }

    /// Arms the structured fault plan on this link. `component_seed`
    /// (typically the per-node link seed) keeps fault streams independent
    /// across links while staying deterministic. An empty plan is a
    /// no-op, so unconditional wiring is safe.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, component_seed: u64) {
        if plan.affects_lanes() {
            self.injector = Some(FaultInjector::new(plan, component_seed));
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Sends cell `index_in_pdu` of a PDU at `now`, possibly corrupting it
    /// in place. Returns `(lane, arrival_time)`, or `None` if the cell was
    /// dropped.
    ///
    /// The returned lane is always the *logical* stripe lane
    /// (`index mod lanes`): under a lane outage with graceful degradation
    /// the cell serialises through a live lane's transmitter but still
    /// belongs to its logical lane — four-way framing bakes the lane into
    /// the cell trailers at segmentation, so the receiver's reassembler
    /// must keep seeing the logical lane. Only the physical timing moves.
    #[inline]
    pub fn send_cell(
        &mut self,
        now: SimTime,
        index_in_pdu: u32,
        cell: &mut Cell,
    ) -> Option<(usize, SimTime)> {
        let lane = (index_in_pdu as usize) % self.lanes.len();
        let mut physical = lane;
        if let Some(inj) = &mut self.injector {
            match inj.offer(lane, CELL_PAYLOAD) {
                CellFate::Drop => {
                    self.cells_dropped.incr();
                    return None;
                }
                CellFate::Corrupt { byte, bit } => {
                    cell.corrupt_bit(byte, bit);
                    self.cells_corrupted.incr();
                }
                CellFate::Deliver => {}
            }
            match inj.physical_lane(lane, now, self.lanes.len()) {
                Some(p) => {
                    if p != lane {
                        self.cells_remapped.incr();
                    }
                    physical = p;
                }
                None => {
                    // The lane is dark and nothing can carry its cells.
                    self.cells_dropped.incr();
                    return None;
                }
            }
        }
        let jitter = if self.queue_jitter_max.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_ps(self.rng.gen_range(self.queue_jitter_max.as_ps() + 1))
        };
        let arrival = self.lanes[physical].send(now, jitter);
        Some((lane, arrival))
    }

    /// Slab-handle form of [`send_cell`](Self::send_cell): the cell stays
    /// parked in `slab` and is corrupted in place if a fault fires; a
    /// dropped cell's slot is freed immediately so the slab recycles it.
    #[inline]
    pub fn send_cell_ref(
        &mut self,
        now: SimTime,
        index_in_pdu: u32,
        r: CellRef,
        slab: &mut CellSlab,
    ) -> Option<(usize, SimTime)> {
        let sent = self.send_cell(now, index_in_pdu, slab.get_mut(r));
        if sent.is_none() {
            slab.free(r);
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vci::Vci;
    use osiris_sim::Registry;

    fn mk_cell(i: u16) -> Cell {
        Cell::data(Vci(1), i, &[i as u8; 44])
    }

    #[test]
    fn round_robin_lane_assignment() {
        let reg = Registry::new();
        let spec = LinkSpec::sts3c_back_to_back();
        let mut link = StripedLink::with_probe(spec, &SkewConfig::none(), &reg.probe("n"));
        for i in 0..8u32 {
            let mut c = mk_cell(i as u16);
            let (lane, _) = link.send_cell(SimTime::ZERO, i, &mut c).unwrap();
            assert_eq!(lane, (i % 4) as usize);
        }
        let snap = reg.snapshot();
        for lane in 0..4 {
            assert_eq!(snap.counter(&format!("n.link.lane{lane}.cells_sent")), 2);
        }
    }

    #[test]
    fn aggregate_rate_is_622() {
        // Four 155.52 Mbps lanes in parallel: 4n cells offered at once
        // take n cell times on the wire.
        let spec = LinkSpec::sts3c_back_to_back();
        let mut link = StripedLink::new(spec, &SkewConfig::none());
        let mut last = SimTime::ZERO;
        for i in 0..40u32 {
            let mut c = mk_cell(i as u16);
            last = last.max(link.send_cell(SimTime::ZERO, i, &mut c).unwrap().1);
        }
        assert_eq!(
            last,
            SimTime::ZERO + spec.cell_time() * 10 + spec.propagation
        );
    }

    #[test]
    fn no_skew_preserves_global_order() {
        let mut link = StripedLink::new(LinkSpec::sts3c_back_to_back(), &SkewConfig::none());
        let mut arrivals = Vec::new();
        for i in 0..16u32 {
            let mut c = mk_cell(i as u16);
            arrivals.push(link.send_cell(SimTime::ZERO, i, &mut c).unwrap().1);
        }
        let mut sorted = arrivals.clone();
        sorted.sort();
        assert_eq!(arrivals, sorted, "aligned lanes must not reorder");
    }

    #[test]
    fn mux_skew_reorders_across_lanes_only() {
        let mut link = StripedLink::new(LinkSpec::sts3c_back_to_back(), &SkewConfig::mux_skew());
        let mut by_lane: Vec<Vec<SimTime>> = vec![vec![]; 4];
        let mut all: Vec<(u32, SimTime)> = Vec::new();
        for i in 0..32u32 {
            let mut c = mk_cell(i as u16);
            let (lane, t) = link.send_cell(SimTime::ZERO, i, &mut c).unwrap();
            by_lane[lane].push(t);
            all.push((i, t));
        }
        // Per-lane FIFO must hold.
        for lane in &by_lane {
            assert!(lane.windows(2).all(|w| w[0] <= w[1]));
        }
        // Global order must be violated (cell 1 on the +3us lane arrives
        // after cell 4 on the +0us lane, etc.).
        let globally_ordered = all.windows(2).all(|w| w[0].1 <= w[1].1);
        assert!(!globally_ordered, "mux skew should reorder across lanes");
    }

    #[test]
    fn switch_queueing_jitter_is_deterministic_per_seed() {
        let cfg = SkewConfig::switch_queueing(SimDuration::from_us(20));
        let mut a = StripedLink::new(LinkSpec::sts3c_back_to_back(), &cfg);
        let mut b = StripedLink::new(LinkSpec::sts3c_back_to_back(), &cfg);
        a.reseed(9);
        b.reseed(9);
        for i in 0..64u32 {
            let mut ca = mk_cell(i as u16);
            let mut cb = mk_cell(i as u16);
            assert_eq!(
                a.send_cell(SimTime::ZERO, i, &mut ca),
                b.send_cell(SimTime::ZERO, i, &mut cb)
            );
        }
    }

    #[test]
    fn drop_injection_counts() {
        let reg = Registry::new();
        let mut link = StripedLink::with_probe(
            LinkSpec::sts3c_back_to_back(),
            &SkewConfig::none(),
            &reg.probe("n"),
        );
        link.set_fault_plan(&FaultPlan::uniform_loss(1.0, 4, 0), 0);
        let mut c = mk_cell(0);
        assert!(link.send_cell(SimTime::ZERO, 0, &mut c).is_none());
        let snap = reg.snapshot();
        assert_eq!(snap.counters["n.link.cells_dropped"], 1);
        assert_eq!(snap.counters["n.link.lane0.cells_sent"], 0);
    }

    #[test]
    fn corruption_flips_payload() {
        let reg = Registry::new();
        let mut link = StripedLink::with_probe(
            LinkSpec::sts3c_back_to_back(),
            &SkewConfig::none(),
            &reg.probe("n"),
        );
        link.set_fault_plan(
            &FaultPlan {
                lane_corrupt_prob: vec![1.0; 4],
                ..FaultPlan::default()
            },
            0,
        );
        let mut c = mk_cell(3);
        let before = *c.payload();
        link.send_cell(SimTime::ZERO, 0, &mut c).unwrap();
        assert_ne!(*c.payload(), before);
        assert_eq!(reg.snapshot().counters["n.link.cells_corrupted"], 1);
    }

    #[test]
    fn fault_plan_point_drop_kills_exactly_one_cell() {
        use osiris_sim::faults::{PointFault, PointFaultKind};
        let reg = Registry::new();
        let mut link = StripedLink::with_probe(
            LinkSpec::sts3c_back_to_back(),
            &SkewConfig::none(),
            &reg.probe("n"),
        );
        link.set_fault_plan(
            &FaultPlan {
                // The 2nd cell offered to lane 1 (= global cell index 5).
                point_faults: vec![PointFault {
                    lane: 1,
                    nth: 1,
                    kind: PointFaultKind::Drop,
                }],
                ..FaultPlan::default()
            },
            0,
        );
        let mut outcomes = Vec::new();
        for i in 0..8u32 {
            let mut c = mk_cell(i as u16);
            outcomes.push(link.send_cell(SimTime::ZERO, i, &mut c).is_some());
        }
        let expected: Vec<bool> = (0..8).map(|i| i != 5).collect();
        assert_eq!(outcomes, expected);
        assert_eq!(reg.snapshot().counters["n.link.cells_dropped"], 1);
    }

    #[test]
    fn outage_without_remap_drops_the_lane() {
        use osiris_sim::faults::LaneOutage;
        let reg = Registry::new();
        let mut link = StripedLink::with_probe(
            LinkSpec::sts3c_back_to_back(),
            &SkewConfig::none(),
            &reg.probe("n"),
        );
        link.set_fault_plan(
            &FaultPlan {
                outages: vec![LaneOutage {
                    lane: 2,
                    from: SimTime::ZERO,
                    until: SimTime::from_secs(1),
                }],
                ..FaultPlan::default()
            },
            0,
        );
        for i in 0..8u32 {
            let mut c = mk_cell(i as u16);
            let sent = link.send_cell(SimTime::ZERO, i, &mut c);
            assert_eq!(sent.is_none(), i % 4 == 2, "only lane 2 goes dark");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters["n.link.cells_dropped"], 2);
        assert_eq!(snap.counters["n.link.cells_remapped"], 0);
    }

    #[test]
    fn outage_with_remap_keeps_the_logical_lane_and_loses_nothing() {
        use osiris_sim::faults::LaneOutage;
        let reg = Registry::new();
        let mut link = StripedLink::with_probe(
            LinkSpec::sts3c_back_to_back(),
            &SkewConfig::none(),
            &reg.probe("n"),
        );
        link.set_fault_plan(
            &FaultPlan {
                outages: vec![LaneOutage {
                    lane: 0,
                    from: SimTime::ZERO,
                    until: SimTime::from_secs(1),
                }],
                remap_on_outage: true,
                ..FaultPlan::default()
            },
            0,
        );
        let mut lane0_arrivals = Vec::new();
        for i in 0..16u32 {
            let mut c = mk_cell(i as u16);
            let (lane, at) = link
                .send_cell(SimTime::ZERO, i, &mut c)
                .expect("remap carries every cell");
            assert_eq!(lane, (i % 4) as usize, "logical lane is preserved");
            if lane == 0 {
                lane0_arrivals.push(at);
            }
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters["n.link.cells_dropped"], 0);
        assert_eq!(snap.counters["n.link.cells_remapped"], 4);
        // Remapped cells still arrive in order (they share one live
        // transmitter for the whole window).
        assert!(lane0_arrivals.windows(2).all(|w| w[0] <= w[1]));
    }
}
