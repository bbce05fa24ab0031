//! Hot-vertex remote feature cache: deterministic, offline-sized,
//! bitwise-neutral.
//!
//! Layer-0 feature rows never change during training, yet every sampled
//! mini-batch re-fetches the same hot remote rows over the wire (a
//! full-neighbourhood run fetches each remote row once per run and has
//! nothing left to cache). This module caches the hottest ones per rank:
//!
//! * **Admission is offline and deterministic.** Each rank ranks every
//!   non-owned vertex by `(1 + halo refs) × degree` — the number of its
//!   local aggregation rows that consume the vertex directly
//!   ([`PartitionedGraph::remote_ref_counts`]), plus one, times the
//!   vertex's degree (multi-hop sampled frontiers reach far beyond the
//!   1-hop halo, and a vertex's sampler hit odds scale with its degree
//!   no matter which part pulls it in) — with ascending-id tie-breaks.
//!   The score ranks a candidate by what this rank's *own* vertices
//!   reference, which is the traffic the cache serves: a sampled step
//!   fetches the block chain of the seeds the rank owns.
//!   Every rank derives every other rank's cached set from
//!   the shared [`CommInfo`], so senders know what receivers hold and
//!   no negotiation round exists (the same pattern as the backend
//!   selector and the collective autotuner).
//! * **Capacity comes from a model, not a guess.**
//!   [`CacheModel`] prices each candidate's
//!   expected per-epoch fetch savings against residency and
//!   [`CachePolicy::Auto`] admits exactly the paying prefix. Capacities
//!   are *nested prefixes* of one ranking, so gather volume is monotone
//!   nonincreasing in capacity.
//! * **Cache-on is bitwise cache-off.** Cached rows are plain `f32`
//!   copies of the same global feature rows the wire would deliver;
//!   the executors assemble the identical matrices, so every backend,
//!   device count and architecture produces bit-identical outputs with
//!   the cache on or off — the property `cache_parity` proptests pin.
//!
//! Per-rank [`CacheStats`] count hits, misses and bytes saved; they are
//! the deterministic volume instrument behind `BENCH_cache.json`.

use std::sync::atomic::{AtomicU64, Ordering};

use dgcl_graph::{CsrGraph, VertexId};
use dgcl_partition::PartitionedGraph;
use dgcl_sim::CacheModel;
use dgcl_tensor::Matrix;

use crate::comm_info::CommInfo;

/// How much of the ranked remote set each rank caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// No cache; every remote row travels every time.
    Off,
    /// Cache the top `n` ranked remote rows per rank (clamped to the
    /// remote set size). `Fixed(0)` keeps the instrumentation active —
    /// stats count every fetch — without saving any volume, which is
    /// the baseline the cache benchmark measures against.
    Fixed(usize),
    /// Let the offline [`CacheModel`] pick each
    /// rank's capacity.
    Auto,
}

/// The offline admission ranking and model-chosen capacities, one entry
/// per rank. Built once, on first use, by
/// [`CommInfo::feature_cache`] from the graph and the partition alone, so
/// every rank reading the [`CommInfo`] agrees on every cache set.
#[derive(Debug, Clone)]
pub struct FeatureCacheSets {
    /// Per rank: every non-owned vertex in descending
    /// `(1 + halo refs) × degree` score order (ascending id on ties).
    /// The set is *all* non-owned vertices, not just the 1-hop halo:
    /// multi-hop sampled frontiers fetch far beyond the halo, and a
    /// high-degree vertex is hot for every rank whose samples reach it.
    pub ranked: Vec<Vec<VertexId>>,
    /// Per rank: the capacity [`CachePolicy::Auto`] resolves to.
    pub auto_capacity: Vec<usize>,
    /// The build-time policy ([`CachePolicy::Off`] unless
    /// `BuildOptions::feature_cache` says otherwise); training may
    /// override it per run.
    pub policy: CachePolicy,
}

impl FeatureCacheSets {
    /// Scores and ranks every rank's remote vertices and sizes the
    /// [`CachePolicy::Auto`] capacities. `width` is the feature row
    /// width in `f32` elements assumed by the sizing model.
    pub fn score(
        graph: &CsrGraph,
        pg: &PartitionedGraph,
        width: usize,
        policy: CachePolicy,
    ) -> Self {
        let mut ranked = Vec::with_capacity(pg.num_parts);
        let mut auto_capacity = Vec::with_capacity(pg.num_parts);
        for d in 0..pg.num_parts {
            let refs = pg.remote_ref_counts(graph, d);
            let n = graph.num_vertices();
            // Every non-owned vertex is a candidate. Direct halo
            // references weight the score where they exist; degree alone
            // carries it for multi-hop vertices the sampler reaches
            // through other parts (each sampled occurrence of `v` draws
            // it with probability ~fanout/deg per adjacent row, so its
            // expected per-epoch fetch count tracks its degree).
            let mut scored: Vec<(u64, VertexId)> = (0..n as VertexId)
                .filter(|&v| pg.partition[v as usize] as usize != d)
                .map(|v| {
                    let r = pg.remote[d].binary_search(&v).map(|i| refs[i]).unwrap_or(0);
                    let score = (u64::from(r) + 1).saturating_mul(graph.out_degree(v) as u64);
                    (score, v)
                })
                .collect();
            scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            // Modelled per-epoch fetch gain: √score, not raw score. A
            // block's source list holds each vertex once per batch, so a
            // hub's measured fetch frequency saturates at once per batch
            // no matter how many sampled rows consume it — its effective
            // gain grows sublinearly in raw demand. The square root is
            // that saturation's cheap offline stand-in; without it α
            // (the mean gain) sits so far up the hub tail that Auto
            // admits a cache too small to dent the fetched volume.
            let gains: Vec<f64> = scored.iter().map(|&(s, _)| (s as f64).sqrt()).collect();
            // α = the mean gain: a row must beat the average candidate
            // to pay for residency.
            let alpha = if gains.is_empty() {
                0.0
            } else {
                gains.iter().sum::<f64>() / gains.len() as f64
            };
            auto_capacity.push(CacheModel::new(width, gains, alpha).choose_capacity());
            ranked.push(scored.into_iter().map(|(_, v)| v).collect());
        }
        Self {
            ranked,
            auto_capacity,
            policy,
        }
    }

    /// The row count `policy` resolves to for `rank`.
    pub fn capacity(&self, rank: usize, policy: CachePolicy) -> usize {
        let cap = match policy {
            CachePolicy::Off => 0,
            CachePolicy::Fixed(n) => n,
            CachePolicy::Auto => self.auto_capacity[rank],
        };
        cap.min(self.ranked[rank].len())
    }

    /// The cached vertex ids for `rank` under `policy`: the ranking's
    /// prefix, returned ascending for binary search.
    pub fn cached_ids(&self, rank: usize, policy: CachePolicy) -> Vec<VertexId> {
        let mut ids = self.ranked[rank][..self.capacity(rank, policy)].to_vec();
        ids.sort_unstable();
        ids
    }
}

/// Lock-free per-rank traffic counters; bumped by the executors, read
/// by reports after the cluster joins.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_fetched: AtomicU64,
    bytes_saved: AtomicU64,
}

impl CacheStats {
    /// Records one exchange: `hits` unique rows served locally, `misses`
    /// unique rows fetched over the wire, each `cols` floats wide.
    pub fn record(&self, hits: u64, misses: u64, cols: usize) {
        let row_bytes = 4 * cols as u64;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        self.bytes_fetched
            .fetch_add(misses * row_bytes, Ordering::Relaxed);
        self.bytes_saved
            .fetch_add(hits * row_bytes, Ordering::Relaxed);
    }

    /// Copies out the counters, stamping the holder's capacity.
    pub fn snapshot(&self, capacity_rows: u64) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_fetched: self.bytes_fetched.load(Ordering::Relaxed),
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
            capacity_rows,
        }
    }
}

/// A point-in-time copy of one rank's (or a whole cluster's) counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Unique remote rows served from the cache.
    pub hits: u64,
    /// Unique remote rows fetched over the wire.
    pub misses: u64,
    /// Wire bytes actually moved for remote rows.
    pub bytes_fetched: u64,
    /// Wire bytes the cache avoided moving.
    pub bytes_saved: u64,
    /// Resident cache rows (summed across ranks in cluster totals).
    pub capacity_rows: u64,
}

impl CacheStatsSnapshot {
    /// Fraction of remote-row requests served locally (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One rank's resident cache: the admitted remote rows and their feature
/// values, plus traffic counters. Values are gathered once from the
/// global feature matrix — exactly the rows the wire would deliver.
#[derive(Debug)]
pub struct FeatureCache {
    /// Cached global vertex ids, ascending.
    pub ids: Vec<VertexId>,
    /// `rows[i]` is the feature row of `ids[i]`.
    pub rows: Matrix,
    /// Hit/miss/volume counters for this rank.
    pub stats: CacheStats,
}

impl FeatureCache {
    /// Copies out the counters.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        self.stats.snapshot(self.ids.len() as u64)
    }
}

/// One merge walk over a strictly ascending id list (a cache's `ids`, a
/// rank's local ids): answers "which entry is `v`?" for *ascending*
/// queries, each search galloping on from the last answer, so a whole
/// request list costs one pass — linear when list and ids are equally
/// dense, `O(m log(n / m))` for `m` sparse queries over `n` ids — where a
/// binary search per row restarts from the full range every time.
pub(crate) struct AscendingWalk<'a> {
    ids: &'a [VertexId],
    at: usize,
}

impl<'a> AscendingWalk<'a> {
    pub(crate) fn new(ids: &'a [VertexId]) -> Self {
        Self { ids, at: 0 }
    }

    /// The index of `v` in the list, if it is there. `v` must not be
    /// below an earlier query.
    pub(crate) fn find(&mut self, v: VertexId) -> Option<usize> {
        let ids = self.ids;
        // Every id before `lo` is below `v`; double the stride until an
        // id at or above `v` (or the end) bounds the search from above.
        let (mut lo, mut hi, mut stride) = (self.at, self.at, 1);
        while hi < ids.len() && ids[hi] < v {
            lo = hi + 1;
            hi += stride;
            stride *= 2;
        }
        let hi = hi.min(ids.len());
        self.at = lo + ids[lo..hi].partition_point(|&id| id < v);
        (ids.get(self.at) == Some(&v)).then_some(self.at)
    }
}

/// Every rank's cache, built once at the training driver and shared by
/// the device threads (reads are immutable, counters are atomic).
#[derive(Debug)]
pub struct ClusterCache {
    /// Per-rank caches, indexed by rank.
    pub caches: Vec<FeatureCache>,
}

impl ClusterCache {
    /// Materialises every rank's cache under `policy` from the global
    /// feature matrix. Returns `None` for [`CachePolicy::Off`] — the
    /// trainer then runs the uncached paths untouched.
    ///
    /// # Panics
    ///
    /// Panics if `features` has fewer rows than the graph has vertices.
    pub fn build(info: &CommInfo, features: &Matrix, policy: CachePolicy) -> Option<Self> {
        if policy == CachePolicy::Off {
            return None;
        }
        let sets = info.feature_cache();
        let caches = (0..info.num_devices())
            .map(|rank| {
                let ids = sets.cached_ids(rank, policy);
                let idx: Vec<usize> = ids.iter().map(|&v| v as usize).collect();
                FeatureCache {
                    rows: features.gather_rows(&idx),
                    ids,
                    stats: CacheStats::default(),
                }
            })
            .collect();
        Some(Self { caches })
    }

    /// Cluster-total counters (capacities summed).
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        let mut total = CacheStatsSnapshot::default();
        for c in &self.caches {
            let s = c.snapshot();
            total.hits += s.hits;
            total.misses += s.misses;
            total.bytes_fetched += s.bytes_fetched;
            total.bytes_saved += s.bytes_saved;
            total.capacity_rows += s.capacity_rows;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_info::{build_comm_info, BuildOptions};
    use dgcl_graph::generators::hub_attachment;
    use dgcl_tensor::XavierInit;
    use dgcl_topology::Topology;

    fn setup() -> (CsrGraph, CommInfo, Matrix) {
        let graph = hub_attachment(400, 8, 0.8, 5);
        let opts = BuildOptions {
            feature_cache: CachePolicy::Auto,
            ..BuildOptions::default()
        };
        let info = build_comm_info(&graph, Topology::fig6(), opts);
        let n = graph.num_vertices();
        let features = XavierInit::new(9).features(n, 6);
        (graph, info, features)
    }

    #[test]
    fn ranking_is_descending_score_with_ascending_tiebreak() {
        let (graph, info, _) = setup();
        let sets = info.feature_cache();
        let pg = &info.pg;
        for d in 0..pg.num_parts {
            let refs = pg.remote_ref_counts(&graph, d);
            let score = |v: VertexId| {
                let r = pg.remote[d].binary_search(&v).map(|i| refs[i]).unwrap_or(0);
                (u64::from(r) + 1) * graph.out_degree(v) as u64
            };
            // Candidates are every non-owned vertex, not just the halo.
            assert_eq!(
                sets.ranked[d].len(),
                graph.num_vertices() - pg.local[d].len()
            );
            for &v in &sets.ranked[d] {
                assert_ne!(pg.owner(v) as usize, d, "rank {d} ranked its own {v}");
            }
            for w in sets.ranked[d].windows(2) {
                let (a, b) = (score(w[0]), score(w[1]));
                assert!(a > b || (a == b && w[0] < w[1]), "rank {d}: {w:?}");
            }
        }
    }

    #[test]
    fn capacities_are_nested_prefixes() {
        let (_, info, _) = setup();
        let sets = info.feature_cache();
        for rank in 0..info.num_devices() {
            let small = sets.cached_ids(rank, CachePolicy::Fixed(3));
            let big = sets.cached_ids(rank, CachePolicy::Fixed(10));
            for v in &small {
                assert!(big.binary_search(v).is_ok(), "prefixes must nest");
            }
            assert!(sets.cached_ids(rank, CachePolicy::Off).is_empty());
            let all = sets.cached_ids(rank, CachePolicy::Fixed(usize::MAX));
            assert_eq!(all.len(), sets.ranked[rank].len());
            assert!(all.windows(2).all(|w| w[0] < w[1]), "ids ascending");
        }
    }

    #[test]
    fn cluster_cache_holds_exact_feature_rows() {
        let (_, info, features) = setup();
        let cache = ClusterCache::build(&info, &features, CachePolicy::Auto).expect("auto is on");
        for (rank, c) in cache.caches.iter().enumerate() {
            assert_eq!(
                c.ids.len(),
                info.feature_cache().capacity(rank, CachePolicy::Auto)
            );
            for (i, &v) in c.ids.iter().enumerate() {
                assert_eq!(
                    c.rows.row(i),
                    features.row(v as usize),
                    "rank {rank} row {v}"
                );
            }
        }
    }

    #[test]
    fn ascending_walk_agrees_with_binary_search() {
        // Dense, sparse and out-of-range queries, repeats included.
        let ids: Vec<VertexId> = (0..400).filter(|v| v % 3 != 0 && v % 7 != 1).collect();
        for stride in [1, 2, 5, 37, 150] {
            let mut walk = AscendingWalk::new(&ids);
            for v in (0..450).step_by(stride).flat_map(|v| [v, v]) {
                assert_eq!(walk.find(v), ids.binary_search(&v).ok(), "{stride}: {v}");
            }
        }
        assert_eq!(AscendingWalk::new(&[]).find(3), None);
    }

    #[test]
    fn off_policy_builds_no_cache() {
        let (_, info, features) = setup();
        assert!(ClusterCache::build(&info, &features, CachePolicy::Off).is_none());
        let zero = ClusterCache::build(&info, &features, CachePolicy::Fixed(0)).expect("built");
        assert_eq!(zero.snapshot().capacity_rows, 0);
    }

    #[test]
    fn stats_snapshot_accumulates_bytes() {
        let stats = CacheStats::default();
        stats.record(3, 2, 4);
        stats.record(1, 0, 4);
        let cache = FeatureCache {
            ids: vec![1, 2],
            rows: Matrix::zeros(2, 4),
            stats,
        };
        let snap = cache.snapshot();
        assert_eq!(snap.hits, 4);
        assert_eq!(snap.misses, 2);
        assert_eq!(snap.bytes_fetched, 2 * 16);
        assert_eq!(snap.bytes_saved, 4 * 16);
        assert_eq!(snap.capacity_rows, 2);
        assert!((snap.hit_rate() - 4.0 / 6.0).abs() < 1e-12);
    }
}
