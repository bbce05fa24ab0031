//! The staged communication cost model (§5.1 of the paper).
//!
//! Communications happen in stages; the stage of a transfer is the depth of
//! its edge in the vertex's communication tree. The model's rules:
//!
//! * A link between two GPUs is realised by a path of directed physical
//!   hops. In a stage, each hop's time is the aggregate bytes routed
//!   through it divided by its bandwidth — aggregation across links is
//!   what captures *contention*.
//! * A link's stage time is the maximum over its hops (hops are
//!   pipelined, so the slowest dominates).
//! * A stage's time is the maximum over its active links (links run in
//!   parallel); hence the stage max over links equals the max over all
//!   active hops.
//! * The plan's time is the sum of its stage times.

use dgcl_topology::{Route, Topology};

/// Mutable cost-model state: per-stage volumes on every directed physical
/// hop, with cached stage times.
///
/// The incremental query [`CostState::delta`] implements Algorithm 2's
/// `C(i, e_j)` — the increase in total plan time from routing `bytes` over
/// a link at a stage — in `O(hops)` instead of re-evaluating the full cost
/// function, by exploiting that added volume only raises the affected
/// hops.
#[derive(Debug, Clone)]
pub struct CostState {
    /// Reciprocal bandwidth in seconds/byte per directed hop slot
    /// (multiplying by the reciprocal keeps the hot delta/add loops free
    /// of hardware divides).
    hop_inv_bandwidth: Vec<f64>,
    /// Flattened `bytes[stage * num_slots + hop_slot]` volumes.
    bytes: Vec<u64>,
    /// Directed hop slots per stage (two per physical connection).
    num_slots: usize,
    /// Cached per-stage maxima (seconds).
    stage_time: Vec<f64>,
    /// Per-stage change counter, bumped by every [`CostState::add`] to
    /// the stage (see [`CostState::stage_version`]).
    version: Vec<u64>,
}

/// Directed hop slot: two slots per physical connection.
fn slot(conn_index: usize, forward: bool) -> usize {
    conn_index * 2 + usize::from(forward)
}

/// Reusable aggregation state for [`CostState::delta_many_slots`]:
/// epoch-stamped per-`(stage, slot)` byte accumulators and per-stage
/// running maxima, reset in `O(1)` by bumping the epoch.
#[derive(Debug, Clone)]
pub struct PriceScratch {
    epoch: u64,
    stamp: Vec<u64>,
    added: Vec<u64>,
    touched: Vec<usize>,
    stage_stamp: Vec<u64>,
    stage_max: Vec<f64>,
}

impl CostState {
    /// Creates an empty cost state for `topology` with `max_stages` stages
    /// (a communication tree over `m` GPUs has at most `m - 1` stages).
    pub fn new(topology: &Topology, max_stages: usize) -> Self {
        let slots = topology.conns().len() * 2;
        let mut hop_inv_bandwidth = vec![0.0; slots];
        for conn in topology.conns() {
            let inv = 1.0 / (conn.bandwidth_gbps * 1e9);
            hop_inv_bandwidth[slot(conn.id.index(), false)] = inv;
            hop_inv_bandwidth[slot(conn.id.index(), true)] = inv;
        }
        Self {
            hop_inv_bandwidth,
            bytes: vec![0; slots * max_stages],
            num_slots: slots,
            stage_time: vec![0.0; max_stages],
            version: vec![0; max_stages],
        }
    }

    /// Number of stages the state models.
    pub fn max_stages(&self) -> usize {
        self.stage_time.len()
    }

    /// Total plan time in seconds: the sum over stage times.
    pub fn total_time(&self) -> f64 {
        self.stage_time.iter().sum()
    }

    /// Time of a single stage in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn stage_time(&self, stage: usize) -> f64 {
        self.stage_time[stage]
    }

    /// How many times [`CostState::add`] has committed volume to `stage`.
    /// While it reads the same, every query of the stage (its hop
    /// volumes, its time, any delta priced on it) returns the same value;
    /// the SPST search keys its weight memo on it. A version only ever
    /// grows because a stage only ever gains volume, so a value is never
    /// reused for a different state of the stage.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    #[inline]
    pub fn stage_version(&self, stage: usize) -> u64 {
        self.version[stage]
    }

    /// The increase in total plan time if `bytes` were routed over `route`
    /// at `stage`, without mutating the state (Algorithm 2's `C(i, e_j)`).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn delta(&self, stage: usize, route: &Route, bytes: u64) -> f64 {
        let volumes = &self.bytes[stage * self.num_slots..];
        let mut new_max = self.stage_time[stage];
        for hop in &route.hops {
            let s = slot(hop.conn.index(), hop.forward);
            let t = (volumes[s] + bytes) as f64 * self.hop_inv_bandwidth[s];
            if t > new_max {
                new_max = t;
            }
        }
        new_max - self.stage_time[stage]
    }

    /// [`CostState::delta`] over a pre-resolved directed hop slot list
    /// (the SPST planner's hot path: no `Route` indirection).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range or a slot is unknown.
    #[inline]
    pub fn delta_slots(&self, stage: usize, slots: &[usize], bytes: u64) -> f64 {
        let base = stage * self.num_slots;
        let mut new_max = self.stage_time[stage];
        for &s in slots {
            let t = (self.bytes[base + s] + bytes) as f64 * self.hop_inv_bandwidth[s];
            if t > new_max {
                new_max = t;
            }
        }
        new_max - self.stage_time[stage]
    }

    /// The directed hop slot list of `route`, for [`CostState::delta_slots`].
    pub fn route_slots(route: &Route) -> Vec<usize> {
        route
            .hops
            .iter()
            .map(|hop| slot(hop.conn.index(), hop.forward))
            .collect()
    }

    /// The increase in total plan time if *all* the given legs were
    /// committed together, without mutating the state.
    ///
    /// This is the whole-tree generalisation of [`CostState::delta`]:
    /// legs may share stages and physical hops (their bytes aggregate
    /// before the stage maxima are re-taken), so the result is exactly
    /// the change in [`CostState::total_time`] that the same sequence of
    /// [`CostState::add`] calls would realise. Used by the SPST planner
    /// to re-check a cached communication tree in `O(legs × hops)`
    /// instead of re-running the layered search.
    ///
    /// # Panics
    ///
    /// Panics if any leg's stage is out of range.
    pub fn delta_many<'r>(&self, legs: impl IntoIterator<Item = (usize, &'r Route, u64)>) -> f64 {
        // Trees are tiny (≤ GPUs-1 legs × ≤ 4 hops), so linear scans over
        // small vecs beat hashing.
        let mut added: Vec<(usize, usize, u64)> = Vec::new();
        for (stage, route, bytes) in legs {
            assert!(stage < self.stage_time.len(), "stage {stage} out of range");
            for hop in &route.hops {
                let s = slot(hop.conn.index(), hop.forward);
                match added
                    .iter_mut()
                    .find(|(st, sl, _)| *st == stage && *sl == s)
                {
                    Some((_, _, b)) => *b += bytes,
                    None => added.push((stage, s, bytes)),
                }
            }
        }
        let mut new_times: Vec<(usize, f64)> = Vec::new();
        for &(stage, s, b) in &added {
            let t = (self.bytes[stage * self.num_slots + s] + b) as f64 * self.hop_inv_bandwidth[s];
            match new_times.iter_mut().find(|(st, _)| *st == stage) {
                Some((_, max)) => *max = max.max(t),
                None => new_times.push((stage, t.max(self.stage_time[stage]))),
            }
        }
        new_times
            .iter()
            .map(|&(stage, max)| max - self.stage_time[stage])
            .sum()
    }

    /// [`CostState::delta_many`] over pre-resolved hop slot lists (one per
    /// leg), avoiding `Route` indirection on the planner's re-check path.
    /// Aggregation state lives in the caller-provided [`PriceScratch`]
    /// (reset by an epoch bump), so steady-state pricing allocates
    /// nothing — the re-check path runs once per cached candidate and is
    /// only worth taking if it stays far cheaper than a search.
    ///
    /// # Panics
    ///
    /// Panics if a leg's stage is out of range or `scratch` was built for
    /// a different topology/stage count.
    pub fn delta_many_slots<'s>(
        &self,
        legs: impl IntoIterator<Item = (usize, &'s [usize], u64)>,
        scratch: &mut PriceScratch,
    ) -> f64 {
        assert_eq!(
            scratch.stamp.len(),
            self.bytes.len(),
            "pricing scratch sized for a different cost state"
        );
        scratch.epoch += 1;
        let ep = scratch.epoch;
        scratch.touched.clear();
        for (stage, slots, bytes) in legs {
            assert!(stage < self.stage_time.len(), "stage {stage} out of range");
            let base = stage * self.num_slots;
            for &s in slots {
                let idx = base + s;
                if scratch.stamp[idx] == ep {
                    scratch.added[idx] += bytes;
                } else {
                    scratch.stamp[idx] = ep;
                    scratch.added[idx] = bytes;
                    scratch.touched.push(idx);
                }
            }
        }
        let mut delta = 0.0;
        for &idx in &scratch.touched {
            let stage = idx / self.num_slots;
            let s = idx % self.num_slots;
            let t = (self.bytes[idx] + scratch.added[idx]) as f64 * self.hop_inv_bandwidth[s];
            let stamped = scratch.stage_stamp[stage] == ep;
            let cur = if stamped {
                scratch.stage_max[stage]
            } else {
                self.stage_time[stage]
            };
            if t > cur {
                scratch.stage_max[stage] = t;
                if !stamped {
                    scratch.stage_stamp[stage] = ep;
                }
                delta += t - cur;
            } else if !stamped {
                scratch.stage_stamp[stage] = ep;
                scratch.stage_max[stage] = cur;
            }
        }
        delta
    }

    /// Allocates a [`PriceScratch`] sized for this cost state.
    pub fn price_scratch(&self) -> PriceScratch {
        PriceScratch {
            epoch: 0,
            stamp: vec![0; self.bytes.len()],
            added: vec![0; self.bytes.len()],
            touched: Vec::new(),
            stage_stamp: vec![0; self.stage_time.len()],
            stage_max: vec![0.0; self.stage_time.len()],
        }
    }

    /// Commits `bytes` over `route` at `stage`, returning the realised
    /// increase in total plan time.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn add(&mut self, stage: usize, route: &Route, bytes: u64) -> f64 {
        self.version[stage] += 1;
        let volumes = &mut self.bytes[stage * self.num_slots..];
        let mut new_max = self.stage_time[stage];
        for hop in &route.hops {
            let s = slot(hop.conn.index(), hop.forward);
            volumes[s] += bytes;
            let t = volumes[s] as f64 * self.hop_inv_bandwidth[s];
            if t > new_max {
                new_max = t;
            }
        }
        let delta = new_max - self.stage_time[stage];
        self.stage_time[stage] = new_max;
        delta
    }

    /// Per-stage volume report: for each stage, the total bytes per
    /// physical-connection kind (used by the NVLink-vs-others breakdowns
    /// of Tables 2 and 7).
    pub fn volume_by_kind(&self, topology: &Topology) -> Vec<(dgcl_topology::LinkKind, u64)> {
        let mut acc: Vec<(dgcl_topology::LinkKind, u64)> = Vec::new();
        for stage in self.bytes.chunks(self.num_slots) {
            for conn in topology.conns() {
                let v = stage[slot(conn.id.index(), false)] + stage[slot(conn.id.index(), true)];
                if v == 0 {
                    continue;
                }
                match acc.iter_mut().find(|(k, _)| *k == conn.kind) {
                    Some((_, total)) => *total += v,
                    None => acc.push((conn.kind, v)),
                }
            }
        }
        acc
    }

    /// The time each link kind would need in isolation: for every stage,
    /// the maximum hop time among hops of that kind, summed over stages.
    /// Used for the Table 7 balance breakdown.
    pub fn time_by_nvlink_split(&self, topology: &Topology) -> (f64, f64) {
        let mut nvlink = 0.0;
        let mut others = 0.0;
        for stage in self.bytes.chunks(self.num_slots) {
            let mut nv_max = 0.0f64;
            let mut other_max = 0.0f64;
            for conn in topology.conns() {
                for fwd in [false, true] {
                    let s = slot(conn.id.index(), fwd);
                    if stage[s] == 0 {
                        continue;
                    }
                    let t = stage[s] as f64 * self.hop_inv_bandwidth[s];
                    if conn.kind.is_nvlink() {
                        nv_max = nv_max.max(t);
                    } else {
                        other_max = other_max.max(t);
                    }
                }
            }
            nvlink += nv_max;
            others += other_max;
        }
        (nvlink, others)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgcl_topology::Topology;

    #[test]
    fn empty_state_costs_nothing() {
        let topo = Topology::fig6();
        let cs = CostState::new(&topo, 3);
        assert_eq!(cs.total_time(), 0.0);
    }

    #[test]
    fn single_transfer_cost_is_bytes_over_bottleneck() {
        let topo = Topology::fig6();
        let mut cs = CostState::new(&topo, 3);
        // d0 -> d1 over NVLink (24.22 GB/s).
        let route = topo.route(0, 1).clone();
        let delta = cs.add(0, &route, 24_220_000);
        assert!((delta - 1e-3).abs() < 1e-9, "delta {delta}");
        assert!((cs.total_time() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn multi_hop_link_pays_its_slowest_hop() {
        let topo = Topology::fig6();
        let mut cs = CostState::new(&topo, 3);
        // d0 -> d2 goes PCIe-QPI-PCIe; QPI (9.56) is the bottleneck.
        let route = topo.route(0, 2).clone();
        cs.add(0, &route, 9_560_000);
        assert!((cs.total_time() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn contention_aggregates_on_shared_hop() {
        // d0 -> d2 and d1 -> d3 share the QPI in the same direction; their
        // bytes add on it (the Figure 6 contention example).
        let topo = Topology::fig6();
        let mut cs = CostState::new(&topo, 3);
        let r02 = topo.route(0, 2).clone();
        let r13 = topo.route(1, 3).clone();
        cs.add(0, &r02, 9_560_000);
        cs.add(0, &r13, 9_560_000);
        // QPI now carries 2x the bytes: 2 ms, not 1 ms.
        assert!((cs.total_time() - 2e-3).abs() < 1e-9, "{}", cs.total_time());
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let topo = Topology::fig6();
        let mut cs = CostState::new(&topo, 3);
        let r02 = topo.route(0, 2).clone();
        let r20 = topo.route(2, 0).clone();
        cs.add(0, &r02, 9_560_000);
        cs.add(0, &r20, 9_560_000);
        // Full duplex: both directions finish in 1 ms.
        assert!((cs.total_time() - 1e-3).abs() < 1e-9, "{}", cs.total_time());
    }

    #[test]
    fn parallel_links_in_one_stage_take_the_max() {
        let topo = Topology::fig6();
        let mut cs = CostState::new(&topo, 3);
        let nv = topo.route(0, 1).clone();
        let qpi = topo.route(0, 2).clone();
        cs.add(0, &nv, 24_220_000); // 1 ms on NVLink.
        cs.add(0, &qpi, 9_560_000); // 1 ms through QPI (PCIe hop shared with... none).
        assert!((cs.total_time() - 1e-3).abs() < 1e-7, "{}", cs.total_time());
    }

    #[test]
    fn stages_sum() {
        let topo = Topology::fig6();
        let mut cs = CostState::new(&topo, 3);
        let nv = topo.route(0, 1).clone();
        cs.add(0, &nv, 24_220_000);
        cs.add(1, &nv, 24_220_000);
        assert!((cs.total_time() - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn delta_matches_add() {
        let topo = Topology::fig6();
        let mut cs = CostState::new(&topo, 4);
        let r02 = topo.route(0, 2).clone();
        let r13 = topo.route(1, 3).clone();
        cs.add(0, &r02, 5_000_000);
        let predicted = cs.delta(0, &r13, 3_000_000);
        let realised = cs.add(0, &r13, 3_000_000);
        assert!((predicted - realised).abs() < 1e-12);
    }

    #[test]
    fn delta_is_zero_for_underloaded_link() {
        // Load balancing intuition of §5.2: adding traffic to a link whose
        // time stays below the stage time is free.
        let topo = Topology::fig6();
        let mut cs = CostState::new(&topo, 2);
        let qpi = topo.route(0, 2).clone();
        let nv = topo.route(0, 1).clone();
        cs.add(0, &qpi, 95_600_000); // 10 ms via QPI.
                                     // A small NVLink transfer in the same stage is absorbed.
        assert_eq!(cs.delta(0, &nv, 24_220), 0.0);
    }

    #[test]
    fn delta_many_matches_sequential_adds() {
        let topo = Topology::fig6();
        let mut cs = CostState::new(&topo, 4);
        cs.add(0, &topo.route(0, 2).clone(), 5_000_000);
        cs.add(1, &topo.route(1, 3).clone(), 2_000_000);
        // A small "tree": two legs in stage 0 sharing the QPI, one in stage 1.
        let legs = [
            (0usize, topo.route(0, 2).clone(), 3_000_000u64),
            (0, topo.route(1, 3).clone(), 4_000_000),
            (1, topo.route(0, 1).clone(), 1_000_000),
        ];
        let predicted = cs.delta_many(legs.iter().map(|(s, r, b)| (*s, r, *b)));
        let mut realised = 0.0;
        for (s, r, b) in &legs {
            realised += cs.add(*s, r, *b);
        }
        assert!(
            (predicted - realised).abs() < 1e-12,
            "predicted {predicted} realised {realised}"
        );
    }

    #[test]
    fn delta_many_of_empty_is_zero() {
        let topo = Topology::fig6();
        let cs = CostState::new(&topo, 2);
        assert_eq!(cs.delta_many(std::iter::empty()), 0.0);
    }

    #[test]
    fn every_mutation_bumps_only_its_stage_version() {
        let topo = Topology::fig6();
        let mut cs = CostState::new(&topo, 3);
        let route = topo.route(0, 2).clone();
        let untouched = cs.stage_version(2);
        let v0 = cs.stage_version(0);
        let v1 = cs.stage_version(1);
        cs.add(0, &route, 1000);
        assert!(cs.stage_version(0) > v0);
        assert_eq!(cs.stage_version(1), v1);
        cs.add(1, &route, 1000);
        assert!(cs.stage_version(1) > v1);
        assert_eq!(cs.stage_version(2), untouched);
    }

    #[test]
    fn volume_by_kind_accumulates() {
        let topo = Topology::fig6();
        let mut cs = CostState::new(&topo, 2);
        cs.add(0, &topo.route(0, 1).clone(), 1000);
        cs.add(1, &topo.route(0, 1).clone(), 500);
        let volumes = cs.volume_by_kind(&topo);
        let nv1 = volumes
            .iter()
            .find(|(k, _)| *k == dgcl_topology::LinkKind::NvLink1)
            .map(|(_, v)| *v);
        assert_eq!(nv1, Some(1500));
    }
}
