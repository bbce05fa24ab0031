//! Pins the SPST planner's output bit for bit.
//!
//! Each cell partitions a generated dataset with [`hierarchical`] (one
//! group per machine, seed 42, as `build_comm_info` does), plans it with
//! [`spst_plan_with_config`] and hashes every step of the plan (stage,
//! source, destination, then its vertices) followed by the bits of the
//! cost model's `total_time()`. A change to the search's bookkeeping (how
//! weights are evaluated or reused, which states are expanded) must leave
//! the hash as it is; a change that moves a single vertex to a different
//! tree, or a single float in the cost state, fails here.
//!
//! The cells cover every [`VertexOrder`], the class cache
//! (`SpstConfig::cached()`) and a 16-GPU plan deep enough to use ten or
//! more stages. The small cells run in tier-1. The `#[ignore]` cells
//! are the plans the `e2e` benchmark's full-batch workloads build, on the
//! partitions `partition_fingerprints` pins; run them with
//! `cargo test --release -p dgcl-plan --test plan_fingerprints -- --ignored`.

use dgcl_graph::Dataset;
use dgcl_partition::hierarchical::hierarchical;
use dgcl_partition::PartitionedGraph;
use dgcl_plan::{spst_plan_with_config, SpstConfig, SpstOutcome, VertexOrder};
use dgcl_topology::Topology;

/// FNV-1a 64 over little-endian bytes.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: impl IntoIterator<Item = u8>) -> Self {
        for b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn words(self, words: impl IntoIterator<Item = u32>) -> Self {
        self.bytes(words.into_iter().flat_map(u32::to_le_bytes))
    }
}

/// `dataset` at `scale` (generated with seed 7), partitioned one group per
/// machine of `topology` with seed 42, then planned with `config` at
/// `bytes` per vertex and planner seed 42.
fn plan(
    dataset: Dataset,
    scale: f64,
    topology: &Topology,
    bytes: u64,
    config: SpstConfig,
) -> SpstOutcome {
    let graph = dataset.generate(scale, 7);
    let sizes: Vec<usize> = topology.gpus_by_machine().iter().map(Vec::len).collect();
    let gpus = topology.num_gpus();
    let pg = PartitionedGraph::new(&graph, hierarchical(&graph, &sizes, 42), gpus);
    spst_plan_with_config(&pg, topology, bytes, 42, config)
}

fn fingerprint(outcome: &SpstOutcome) -> u64 {
    let mut h = Fnv::new();
    for step in &outcome.plan.steps {
        h = h
            .words([step.stage as u32, step.src as u32, step.dst as u32])
            .words(step.vertices.iter().copied());
    }
    h.bytes(outcome.cost.total_time().to_bits().to_le_bytes()).0
}

fn check(
    dataset: Dataset,
    scale: f64,
    topology: &Topology,
    bytes: u64,
    config: SpstConfig,
    expected: u64,
) -> SpstOutcome {
    let outcome = plan(dataset, scale, topology, bytes, config);
    assert_eq!(
        format!("{:016x}", fingerprint(&outcome)),
        format!("{expected:016x}"),
        "{} x{scale} on {} ({bytes} B, {config:?}): plan hash moved",
        dataset.name(),
        topology.name()
    );
    outcome
}

fn ordered(order: VertexOrder) -> SpstConfig {
    SpstConfig {
        order,
        ..SpstConfig::default()
    }
}

/// The exact planner on two IB-joined DGX-1s: trees deep enough that
/// most of the fifteen stages the search may use are still empty for
/// much of the run.
#[test]
fn exact_sixteen_gpus_deep() {
    let out = check(
        Dataset::Reddit,
        0.004,
        &Topology::dgx1_pair_ib(),
        1024,
        SpstConfig::default(),
        0x98c8_cb19_3e53_74f6,
    );
    assert!(out.plan.num_stages >= 10, "{} stages", out.plan.num_stages);
    // The search work is deterministic too: a change that makes the
    // search expand more states or price more weights for the same plan
    // fails here rather than in a wall-clock run.
    assert_eq!(
        (out.stats.states_expanded, out.stats.weight_evals),
        (37_185, 132_942),
        "search work moved: {:?}",
        out.stats
    );
}

#[test]
fn exact_sixteen_gpus_small_payload() {
    check(
        Dataset::WikiTalk,
        0.005,
        &Topology::dgx1_pair_ib(),
        64,
        SpstConfig::default(),
        0x7242_01c5_e9dc_fbd2,
    );
}

#[test]
fn exact_by_id() {
    check(
        Dataset::WebGoogle,
        0.002,
        &Topology::dgx1(),
        1024,
        ordered(VertexOrder::ById),
        0xebd4_b70c_b8ea_0f4a,
    );
}

#[test]
fn exact_by_fanout() {
    check(
        Dataset::WikiTalk,
        0.005,
        &Topology::dgx1(),
        1024,
        ordered(VertexOrder::ByFanoutDesc),
        0x0962_3263_0d97_ae2a,
    );
}

#[test]
fn exact_four_gpus() {
    check(
        Dataset::Reddit,
        0.004,
        &Topology::fig6(),
        1024,
        SpstConfig::default(),
        0x54d8_dd13_9f3f_45d9,
    );
}

/// The class cache commits cached trees between full searches.
#[test]
fn class_cache() {
    check(
        Dataset::Reddit,
        0.004,
        &Topology::dgx1_pair_ib(),
        1024,
        SpstConfig::cached(),
        0xd87b_9030_e8d3_89e3,
    );
}

/// The `fullbatch-dense` benchmark plan.
#[test]
#[ignore = "benchmark scale; run in release with --ignored"]
fn reddit_benchmark_scale() {
    check(
        Dataset::Reddit,
        0.04,
        &Topology::dgx1_subset(2),
        1024,
        SpstConfig::default(),
        0xdecd_aea4_9a9b_0a95,
    );
}

/// The `fullbatch-halo` benchmark plan.
#[test]
#[ignore = "benchmark scale; run in release with --ignored"]
fn wikitalk_benchmark_scale() {
    check(
        Dataset::WikiTalk,
        0.05,
        &Topology::dgx1_pair_ib(),
        1024,
        SpstConfig::default(),
        0xa058_1340_75c9_d365,
    );
}
