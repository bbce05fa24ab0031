//! Cost models for the fabric's collective algorithm zoo, and the
//! autotuner that picks an algorithm per message size.
//!
//! The runtime (in `dgcl-core`) ships three allreduce algorithms — a
//! flat gather-to-rank-0-and-broadcast, a chain-pipelined ring and
//! recursive halving/doubling. This module prices each of them on the
//! fluid-flow network model so an [`AlgorithmSelector`] can be tuned
//! offline, per topology and device count, from a simulated sweep.
//!
//! Every model follows the shape of
//! [`simulate_plan_pipelined`](crate::network::simulate_plan_pipelined):
//! the payload is split into `C` chunks, the *fill* term runs each
//! stage's chunk-sized flow episode once with the per-transport startup
//! overhead (α), the *steady* term re-runs the busiest concurrent
//! episode overhead-free (warm links, the β term under max-min fair
//! sharing), and the total is
//!
//! ```text
//! T = fill + (C − 1) · (steady + flag) + barrier
//! ```
//!
//! The flat allreduce is priced as two barriered, unpipelined flat
//! episodes (gather to rank 0, broadcast back), which is why it loses at
//! scale.

use dgcl_topology::Topology;

use crate::network::{simulate_flows, Flow, CHUNK_FLAG_SECONDS};
use crate::transport::{flow_overhead_seconds, stage_barrier_seconds};

/// The allreduce algorithms the fabric implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllreduceAlgo {
    /// Flat gather into rank 0, which folds in rank order, then a flat
    /// broadcast back.
    Flat,
    /// Chain-pipelined ring: reduce 0→…→n−1, broadcast back.
    Ring,
    /// Direct-exchange reduce-scatter + recursive-doubling allgather.
    HalvingDoubling,
}

impl AllreduceAlgo {
    /// All algorithms, in a fixed order for sweeps and reports.
    pub const ALL: [AllreduceAlgo; 3] = [
        AllreduceAlgo::Flat,
        AllreduceAlgo::Ring,
        AllreduceAlgo::HalvingDoubling,
    ];

    /// Stable name for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            AllreduceAlgo::Flat => "flat",
            AllreduceAlgo::Ring => "ring",
            AllreduceAlgo::HalvingDoubling => "halving-doubling",
        }
    }
}

/// One flow episode over `(src, dst, bytes)` pairs; `warm` drops the
/// per-flow startup overhead (steady-state chunks over established
/// transfers). Self-pairs are local copies and cost nothing here.
pub(crate) fn episode(topology: &Topology, pairs: &[(usize, usize, u64)], warm: bool) -> f64 {
    let flows: Vec<Flow> = pairs
        .iter()
        .enumerate()
        .filter(|(_, &(src, dst, bytes))| src != dst && bytes > 0)
        .map(|(tag, &(src, dst, bytes))| Flow {
            route: topology.route(src, dst).clone(),
            bytes,
            overhead_seconds: if warm {
                0.0
            } else {
                flow_overhead_seconds(topology, src, dst)
            },
            tag,
        })
        .collect();
    if flows.is_empty() {
        return 0.0;
    }
    simulate_flows(topology, &flows).0
}

/// Number of pipeline chunks for `bytes` at `chunk_bytes` granularity,
/// clamped like the executor (at least one, at most 64 in the model).
fn chunks(bytes: u64, chunk_bytes: u64) -> u64 {
    bytes.div_ceil(chunk_bytes.max(1)).clamp(1, 64)
}

/// Pipelined makespan from a fill cost, a steady-state chunk cost and a
/// chunk count: `fill + (C − 1)(steady + flag) + barrier`.
fn pipelined(fill: f64, steady: f64, chunks: u64) -> f64 {
    fill + (chunks - 1) as f64 * (steady + CHUNK_FLAG_SECONDS) + stage_barrier_seconds()
}

/// Predicted latency of one `bytes`-sized allreduce over GPUs
/// `0..devices` of `topology` with `algo`, assuming the executor's
/// `chunk_bytes` pipelining granularity.
///
/// [`AllreduceAlgo::Flat`] is priced as one unpipelined chunk per
/// phase. That is exact for messages of at most `chunk_bytes` (the
/// gradients of the benchmark models are under 10 KB) and an
/// over-estimate above it, where the compiled flat schedule streams
/// chunks like the others.
pub fn allreduce_cost(
    topology: &Topology,
    devices: usize,
    bytes: u64,
    chunk_bytes: u64,
    algo: AllreduceAlgo,
) -> f64 {
    let n = devices;
    if n < 2 || bytes == 0 {
        return 0.0;
    }
    match algo {
        AllreduceAlgo::Flat => {
            // Flat gather into rank 0, then flat broadcast back; one
            // barrier after each phase, no chunk pipelining.
            let gather: Vec<_> = (1..n).map(|d| (d, 0, bytes)).collect();
            let bcast: Vec<_> = (1..n).map(|d| (0, d, bytes)).collect();
            episode(topology, &gather, false)
                + episode(topology, &bcast, false)
                + 2.0 * stage_barrier_seconds()
        }
        AllreduceAlgo::Ring => {
            // 2(n−1) chain hops: reduce 0→…→n−1, broadcast back. The
            // fill walks the chain hop by hop; at steady state every
            // hop streams a chunk concurrently.
            let c = chunks(bytes, chunk_bytes);
            let cb = bytes.div_ceil(c);
            let mut hops: Vec<(usize, usize, u64)> = Vec::new();
            for d in 0..n - 1 {
                hops.push((d, d + 1, cb));
            }
            for d in (1..n).rev() {
                hops.push((d, d - 1, cb));
            }
            let fill: f64 = hops.iter().map(|&h| episode(topology, &[h], false)).sum();
            let steady = episode(topology, &hops, true);
            pipelined(fill, steady, c)
        }
        AllreduceAlgo::HalvingDoubling => {
            // Direct-exchange reduce-scatter (all-to-all of 1/n-sized
            // segments) followed by ⌈log2 n⌉ recursive-doubling
            // allgather rounds; each phase is chunk-pipelined.
            let seg = bytes.div_ceil(n as u64);
            let c = chunks(seg, chunk_bytes);
            let cb = seg.div_ceil(c);
            let scatter: Vec<(usize, usize, u64)> = (0..n)
                .flat_map(|d| (0..n).map(move |p| (d, p, cb)))
                .collect();
            let mut fill = episode(topology, &scatter, false);
            let mut steady = episode(topology, &scatter, true);
            let mut k = 0usize;
            while (1usize << k) < n {
                let cnt = (1usize << k).min(n - (1 << k)) as u64;
                let round: Vec<(usize, usize, u64)> = (0..n)
                    .map(|d| (d, (d + n - (1 << k)) % n, cnt * cb))
                    .collect();
                fill += episode(topology, &round, false);
                steady = steady.max(episode(topology, &round, true));
                k += 1;
            }
            pipelined(fill, steady, c)
        }
    }
}

/// Cost of every allreduce algorithm at one point, in
/// [`AllreduceAlgo::ALL`] order.
pub fn allreduce_costs(
    topology: &Topology,
    devices: usize,
    bytes: u64,
    chunk_bytes: u64,
) -> Vec<(AllreduceAlgo, f64)> {
    AllreduceAlgo::ALL
        .iter()
        .map(|&a| (a, allreduce_cost(topology, devices, bytes, chunk_bytes, a)))
        .collect()
}

/// Message-size grid the tuner sweeps: 1 KiB → 256 MiB in powers of 2.
/// One octave between points bounds the interpolation error near an
/// algorithm crossover — the cost curves are smooth in log-size, so
/// the losing algorithm is within a few percent of the winner for at
/// least half an octave around the crossing. Off-grid sizes (the
/// benchmark sweeps half-octave points) stay within the 10% acceptance
/// band of the per-size best.
const TUNE_GRID: [u64; 19] = [
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
    1 << 24,
    1 << 25,
    1 << 26,
    1 << 27,
    1 << 28,
];

/// Per-(topology, device count) allreduce algorithm choice, tuned from
/// an offline simulated sweep over message sizes.
///
/// The table maps each tuning-grid upper bound to the cheapest
/// algorithm at that size; [`pick`](Self::pick) selects the first grid
/// point at or above the message size. Tuning is deterministic, so
/// every rank that tunes from the same topology picks identically —
/// which is what keeps a selector-driven cluster in agreement without
/// any negotiation round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgorithmSelector {
    table: Vec<(u64, AllreduceAlgo)>,
}

impl AlgorithmSelector {
    /// Tunes a selector for GPUs `0..devices` of `topology`, assuming
    /// the executor pipelines at `chunk_bytes` granularity.
    pub fn tune(topology: &Topology, devices: usize, chunk_bytes: u64) -> Self {
        let table = TUNE_GRID
            .iter()
            .map(|&bytes| {
                let best = allreduce_costs(topology, devices, bytes, chunk_bytes)
                    .into_iter()
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(a, _)| a)
                    .unwrap_or(AllreduceAlgo::Flat);
                (bytes, best)
            })
            .collect();
        AlgorithmSelector { table }
    }

    /// A degenerate selector that always answers `algo`.
    pub fn fixed(algo: AllreduceAlgo) -> Self {
        AlgorithmSelector {
            table: vec![(u64::MAX, algo)],
        }
    }

    /// The tuned choice for a `bytes`-sized allreduce.
    pub fn pick(&self, bytes: u64) -> AllreduceAlgo {
        self.table
            .iter()
            .find(|&&(upper, _)| bytes <= upper)
            .or(self.table.last())
            .map(|&(_, algo)| algo)
            .unwrap_or(AllreduceAlgo::Flat)
    }

    /// The tuned `(upper bound, algorithm)` table, for reports.
    pub fn table(&self) -> &[(u64, AllreduceAlgo)] {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNK: u64 = 16 << 10;

    #[test]
    fn costs_are_positive_and_finite() {
        let topo = Topology::dgx1();
        for algo in AllreduceAlgo::ALL {
            let t = allreduce_cost(&topo, 8, 1 << 20, CHUNK, algo);
            assert!(t.is_finite() && t > 0.0, "{algo:?}: {t}");
        }
    }

    #[test]
    fn costs_grow_with_message_size() {
        let topo = Topology::pcie_host(8);
        for algo in AllreduceAlgo::ALL {
            let small = allreduce_cost(&topo, 8, 1 << 16, CHUNK, algo);
            let large = allreduce_cost(&topo, 8, 1 << 24, CHUNK, algo);
            assert!(large > small, "{algo:?}: {small} !< {large}");
        }
    }

    #[test]
    fn rendezvous_loses_at_scale() {
        // The whole point of the zoo: on a large message the flat
        // gather-and-broadcast is not the best algorithm on any real
        // topology.
        for topo in [Topology::dgx1(), Topology::pcie_host(8)] {
            let costs = allreduce_costs(&topo, 8, 64 << 20, CHUNK);
            let best = costs
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            assert_ne!(best.0, AllreduceAlgo::Flat, "{costs:?}");
        }
    }

    #[test]
    fn selector_picks_the_swept_best_on_grid_points() {
        let topo = Topology::dgx1();
        let sel = AlgorithmSelector::tune(&topo, 8, CHUNK);
        for &(bytes, algo) in sel.table() {
            let best = allreduce_costs(&topo, 8, bytes, CHUNK)
                .into_iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(a, _)| a)
                .expect("non-empty");
            assert_eq!(algo, best, "at {bytes} bytes");
        }
    }

    #[test]
    fn selector_is_deterministic_and_fixed_always_answers() {
        let topo = Topology::dgx1_pair_ib();
        let a = AlgorithmSelector::tune(&topo, 16, CHUNK);
        let b = AlgorithmSelector::tune(&topo, 16, CHUNK);
        assert_eq!(a, b);
        let f = AlgorithmSelector::fixed(AllreduceAlgo::Ring);
        for bytes in [0u64, 1, 1 << 20, u64::MAX] {
            assert_eq!(f.pick(bytes), AllreduceAlgo::Ring);
        }
    }

    #[test]
    fn degenerate_sizes_cost_nothing() {
        let topo = Topology::dgx1();
        assert_eq!(
            allreduce_cost(&topo, 1, 1 << 20, CHUNK, AllreduceAlgo::Ring),
            0.0
        );
        assert_eq!(allreduce_cost(&topo, 8, 0, CHUNK, AllreduceAlgo::Ring), 0.0);
    }
}
