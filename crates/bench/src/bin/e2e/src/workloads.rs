//! The four workloads: plain data, no library calls. `sut.rs` turns a
//! spec into library inputs; the README says why each exists and which
//! layers it stresses and bypasses.

/// Which synthetic dataset generator the graph comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetId {
    Reddit,
    WebGoogle,
    WikiTalk,
}

/// Which machine model the devices sit on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoId {
    /// The first `n` GPUs of one DGX-1 (NVLink clique up to 4).
    Dgx1Subset(usize),
    /// Two DGX-1s, 16 GPUs, one shared InfiniBand link.
    Dgx1PairIb,
}

/// How the workload uses the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Full-batch training; the alternative configuration is
    /// `overlap = false`.
    FullBatch,
    /// Mini-batch sampled training with the feature cache on Auto; the
    /// alternative configuration is the cache switched off.
    Sampled,
    /// Open-loop inference serving; the alternative regime is the heavy
    /// rate.
    Serving,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the run's header.
    pub why: &'static str,
    pub kind: Kind,
    pub dataset: DatasetId,
    pub scale: f64,
    pub smoke_scale: f64,
    pub topo: TopoId,
    /// GCN widths: input, hidden, output.
    pub dims: [usize; 3],
    /// Epochs in one timed `train_distributed` call (about a second).
    pub epochs_per_call: usize,
    pub lr: f32,
}

/// Sampled training: seeds per mini-batch and per-layer fanout.
pub const SAMPLED_BATCH: usize = 128;
pub const SAMPLED_FANOUT: usize = 4;

/// Serving: the micro-batcher's limits, the two fixed offered rates, the
/// size of the saturation burst and the latency limit. A query that gets
/// no reply is a failed operation; the share of replies later than the
/// limit is reported (`serving.slo_miss_frac_heavy`), not counted as
/// failures: a stall of the host puts about one reply in a thousand over
/// it in every run, and p99 itself in one run in ten, server unchanged.
pub const SERVE_MAX_BATCH: usize = 32;
pub const SERVE_MAX_DELAY_US: u64 = 300;
pub const LIGHT_QPS: f64 = 5_000.0;
pub const HEAVY_QPS: f64 = 15_000.0;
pub const SAT_BURST: usize = 60_000;
pub const LATENCY_LIMIT_MS: f64 = 5.0;
/// 90% of queries land on a hot set of this many vertices.
pub const HOT_SET: u64 = 12;

pub const ALL: &[Spec] = &[
    Spec {
        name: "fullbatch-dense",
        why: "Reddit x0.04 on 2 GPUs: aggregation and dense kernels do most of the epoch, halo exchange under a tenth; kernel work shows, runtime or planner work must not",
        kind: Kind::FullBatch,
        dataset: DatasetId::Reddit,
        scale: 0.04,
        smoke_scale: 0.004,
        topo: TopoId::Dgx1Subset(2),
        dims: [64, 32, 8],
        epochs_per_call: 10,
        lr: 1e-3,
    },
    Spec {
        name: "fullbatch-halo",
        why: "Wiki-Talk x0.05 on 16 GPUs over IB: multi-hop SPST trees and relays, gather and scatter over half the epoch, SPST a third of setup; runtime, overlap and planner work shows",
        kind: Kind::FullBatch,
        dataset: DatasetId::WikiTalk,
        scale: 0.05,
        smoke_scale: 0.004,
        topo: TopoId::Dgx1PairIb,
        dims: [128, 8, 8],
        epochs_per_call: 4,
        lr: 1e-3,
    },
    Spec {
        name: "sampled-cached",
        why: "Web-Google x0.02 on 4 GPUs, batch 128, fanout 4x4, cache Auto: hundreds of small row exchanges, block sampling and gather plans per epoch, paths full-batch never takes",
        kind: Kind::Sampled,
        dataset: DatasetId::WebGoogle,
        scale: 0.02,
        smoke_scale: 0.004,
        topo: TopoId::Dgx1Subset(4),
        dims: [32, 16, 8],
        epochs_per_call: 2,
        lr: 5e-4,
    },
    Spec {
        name: "serving-hotkey",
        why: "Wiki-Talk x0.015 served open-loop at 5k and 15k qps, 90% of queries on 12 hot vertices: batcher, sparse k-hop closure; no training code runs; a query fails if unanswered, misses of 5 ms are reported",
        kind: Kind::Serving,
        dataset: DatasetId::WikiTalk,
        scale: 0.015,
        smoke_scale: 0.004,
        topo: TopoId::Dgx1Subset(1),
        dims: [64, 64, 32],
        epochs_per_call: 0,
        lr: 0.0,
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// splitmix64: the load generator's own randomness.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The vertex request `i` asks for, out of `n`: nine in ten fall on the
/// hot set, spread across the id range so the hot vertices do not share
/// one neighbourhood; the rest are uniform.
pub fn query_target(seed: u64, i: usize, n: usize) -> u32 {
    let h = mix(seed ^ mix(i as u64));
    let n = n as u64;
    let hot = HOT_SET.min(n);
    if h % 10 < 9 {
        let slot = (h >> 32) % hot;
        ((slot * (n / hot)) % n) as u32
    } else {
        ((h >> 16) % n) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_fit_the_contract() {
        assert!((2..=8).contains(&ALL.len()));
        for s in ALL {
            assert!(
                s.why.len() <= 200,
                "{}: why is {} chars",
                s.name,
                s.why.len()
            );
            assert!(!s.why.contains('\n'));
            assert!(by_name(s.name).is_some());
            // The single-device parity check compares three epochs.
            assert!(s.kind != Kind::FullBatch || s.epochs_per_call >= 3);
        }
    }

    #[test]
    fn query_targets_repeat_per_seed_and_favour_the_hot_set() {
        let n = 1_792;
        let a: Vec<u32> = (0..2_000).map(|i| query_target(7, i, n)).collect();
        let b: Vec<u32> = (0..2_000).map(|i| query_target(7, i, n)).collect();
        let c: Vec<u32> = (0..2_000).map(|i| query_target(8, i, n)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&v| (v as usize) < n));
        let stride = n as u32 / HOT_SET as u32;
        let hot = a
            .iter()
            .filter(|&&v| v % stride == 0 && v / stride < 12)
            .count();
        assert!(
            (1_700..=1_900).contains(&hot),
            "{hot} of 2000 on the hot set"
        );
    }
}
