//! Property suite for the hot-vertex remote feature cache.
//!
//! The load-bearing invariant (ISSUE 10's acceptance criterion): **caching
//! is a pure volume optimisation** — a run with any cache policy is bitwise
//! identical to the same run with the cache off, across 2..=8 devices, both
//! aggregation backends, sampled and full-batch paths, and serving. Cached
//! rows are f32 copies of the very values a fetch would have produced, and
//! every rank derives the cache sets from the shared [`CommInfo`], so
//! sends and recvs stay paired without negotiation.
//!
//! Around the anchor:
//!
//! * Capacity 0 and capacity ≥ all-remote are exercised explicitly — the
//!   degenerate bounds are where an off-by-one in the send/recv pairing
//!   would deadlock or misplace rows.
//! * The build-time policy route (`BuildOptions::feature_cache`) and the
//!   per-run override (`TrainConfig::feature_cache`) agree.
//! * On a hub-skewed graph the cache actually pays: `Auto` fetches fewer
//!   bytes than capacity 0, and volume is monotone in capacity.
//! * A full-neighbourhood run issues a number of collectives that is a
//!   formula in layers, steps and epochs, the same with the cache on or
//!   off, with layer 0's exchange in it once per run; a sampled-blocks
//!   run's is one too — two per step whatever the depth — the same with
//!   the cache on or off.

use dgcl::featcache::CachePolicy;
use dgcl::sampling::SamplingConfig;
use dgcl::trainer::{train_distributed, train_distributed_with, TrainConfig};
use dgcl::{build_comm_info, BackendKind, BuildOptions, FabricConfig, FaultPlan};
use dgcl_gnn::Architecture;
use dgcl_graph::Dataset;
use dgcl_tensor::{Matrix, XavierInit};
use dgcl_topology::Topology;
use proptest::prelude::*;

const BACKENDS: [BackendKind; 2] = [BackendKind::Planned, BackendKind::Cagnet { replication: 1 }];

const ARCHS: [Architecture; 4] = [
    Architecture::Gcn,
    Architecture::CommNet,
    Architecture::Gin,
    Architecture::Sage,
];

/// Capacity 0, capacity larger than any remote set, and the model-sized
/// policy — the two degenerate bounds plus the production default.
const POLICIES: [CachePolicy; 3] = [
    CachePolicy::Fixed(0),
    CachePolicy::Fixed(1 << 20),
    CachePolicy::Auto,
];

struct Case {
    graph: dgcl_graph::CsrGraph,
    features: Matrix,
    targets: Matrix,
}

fn case(seed: u64) -> Case {
    // WikiTalk's generator is hub-attachment: a few hubs are referenced
    // by almost every partition, the regime the cache targets.
    let graph = Dataset::WikiTalk.generate(0.0005, seed);
    let n = graph.num_vertices();
    let mut init = XavierInit::new(seed);
    let features = init.features(n, 6);
    let targets = init.features(n, 3);
    Case {
        graph,
        features,
        targets,
    }
}

fn base_cfg(arch: Architecture, epochs: usize) -> TrainConfig {
    let mut cfg = TrainConfig::new(arch, &[6, 5, 3], epochs);
    if arch == Architecture::Gin {
        cfg.lr = 1e-6;
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Full-batch: every policy reproduces the cache-off run bit for
    /// bit, per backend, per device count.
    #[test]
    fn full_batch_cache_is_bitwise_off(
        devices in 2usize..=8,
        arch_idx in 0usize..ARCHS.len(),
        backend_idx in 0usize..BACKENDS.len(),
        policy_idx in 0usize..POLICIES.len(),
        graph_seed in 1u64..4,
    ) {
        let c = case(graph_seed);
        let info = build_comm_info(
            &c.graph,
            Topology::dgx1_subset(devices),
            BuildOptions::default(),
        );
        let mut cfg = base_cfg(ARCHS[arch_idx], 3);
        cfg.backend = Some(BACKENDS[backend_idx]);
        cfg.feature_cache = Some(CachePolicy::Off);
        let off = train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
            .expect("healthy cluster");
        cfg.feature_cache = Some(POLICIES[policy_idx]);
        let on = train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
            .expect("healthy cluster");
        prop_assert_eq!(
            &off.epoch_losses, &on.epoch_losses,
            "losses diverge: {} devices, {:?}, {:?}",
            devices, BACKENDS[backend_idx], POLICIES[policy_idx]
        );
        prop_assert_eq!(
            off.outputs.max_abs_diff(&on.outputs), 0.0,
            "outputs diverge: {} devices, {:?}, {:?}",
            devices, BACKENDS[backend_idx], POLICIES[policy_idx]
        );
        prop_assert!(off.cache.is_none(), "Off must report no cache stats");
        prop_assert!(on.cache.is_some(), "active policy must report stats");
    }

    /// Sampled block path (finite fanouts): the cache serves the
    /// feature fetch without perturbing a single bit.
    #[test]
    fn sampled_cache_is_bitwise_off(
        devices in 2usize..=6,
        backend_idx in 0usize..BACKENDS.len(),
        policy_idx in 0usize..POLICIES.len(),
        fanout in 2usize..5,
        batch_size in 16usize..64,
    ) {
        let c = case(5);
        let info = build_comm_info(
            &c.graph,
            Topology::dgx1_subset(devices),
            BuildOptions::default(),
        );
        let mut cfg = base_cfg(Architecture::Gcn, 2);
        cfg.backend = Some(BACKENDS[backend_idx]);
        cfg.sampling = Some(SamplingConfig::new(batch_size, vec![Some(fanout), Some(fanout)]));
        cfg.feature_cache = Some(CachePolicy::Off);
        let off = train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
            .expect("healthy cluster");
        cfg.feature_cache = Some(POLICIES[policy_idx]);
        let on = train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
            .expect("healthy cluster");
        prop_assert_eq!(
            &off.epoch_losses, &on.epoch_losses,
            "losses diverge: {} devices, {:?}, {:?}",
            devices, BACKENDS[backend_idx], POLICIES[policy_idx]
        );
        prop_assert_eq!(
            off.outputs.max_abs_diff(&on.outputs), 0.0,
            "outputs diverge: {} devices, {:?}, {:?}",
            devices, BACKENDS[backend_idx], POLICIES[policy_idx]
        );
    }

    /// Exact (masked, fanout ∞) sampling: same invariant on the path
    /// that gathers whole frontier closures per batch.
    #[test]
    fn exact_sampled_cache_is_bitwise_off(
        devices in 2usize..=6,
        backend_idx in 0usize..BACKENDS.len(),
        policy_idx in 0usize..POLICIES.len(),
    ) {
        let c = case(7);
        let n = c.graph.num_vertices();
        let info = build_comm_info(
            &c.graph,
            Topology::dgx1_subset(devices),
            BuildOptions::default(),
        );
        let mut cfg = base_cfg(Architecture::Gcn, 2);
        cfg.backend = Some(BACKENDS[backend_idx]);
        cfg.sampling = Some(SamplingConfig::exact(n / 3, 2));
        cfg.feature_cache = Some(CachePolicy::Off);
        let off = train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
            .expect("healthy cluster");
        cfg.feature_cache = Some(POLICIES[policy_idx]);
        let on = train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
            .expect("healthy cluster");
        prop_assert_eq!(&off.epoch_losses, &on.epoch_losses, "losses diverge");
        prop_assert_eq!(off.outputs.max_abs_diff(&on.outputs), 0.0, "outputs diverge");
    }
}

#[test]
fn build_time_policy_matches_run_override() {
    // A cache admitted at `build_comm_info` time (BuildOptions) must be
    // the same cache as the per-run TrainConfig override.
    let c = case(11);
    let topo = Topology::fig6();
    let baked = build_comm_info(
        &c.graph,
        topo.clone(),
        BuildOptions {
            feature_cache: CachePolicy::Auto,
            ..BuildOptions::default()
        },
    );
    let plain = build_comm_info(&c.graph, topo, BuildOptions::default());
    let cfg = base_cfg(Architecture::Gcn, 2);
    // cfg.feature_cache is None → the baked run uses the build policy.
    let a = train_distributed(&baked, &c.graph, &c.features, &c.targets, &cfg)
        .expect("healthy cluster");
    let mut cfg_override = cfg.clone();
    cfg_override.feature_cache = Some(CachePolicy::Auto);
    let b = train_distributed(&plain, &c.graph, &c.features, &c.targets, &cfg_override)
        .expect("healthy cluster");
    assert_eq!(a.epoch_losses, b.epoch_losses);
    assert_eq!(a.outputs.max_abs_diff(&b.outputs), 0.0);
    let (sa, sb) = (
        a.cache.expect("baked stats"),
        b.cache.expect("override stats"),
    );
    assert_eq!(sa.capacity_rows, sb.capacity_rows);
    assert_eq!(sa.bytes_fetched, sb.bytes_fetched);
}

/// The number of collectives every rank issues in a run of `cfg` on the
/// planned backend. Every collective bumps each rank's op counter once
/// and `FaultPlan::crash(rank, k)` kills `rank` entering op `k`, so a run
/// of exactly N ops fails under `crash(_, k)` for every `k ≤ N` and
/// completes for every `k > N`; N is found by bisection.
fn collective_count(info: &dgcl::CommInfo, c: &Case, cfg: &TrainConfig) -> u64 {
    let mut cfg = cfg.clone();
    cfg.backend = Some(BackendKind::Planned);
    let completes = |at_op: u64| {
        let fabric = FabricConfig {
            faults: FaultPlan::crash(1, at_op),
            ..FabricConfig::default()
        };
        train_distributed_with(info, &c.graph, &c.features, &c.targets, &cfg, fabric).is_ok()
    };
    // Invariant: crash(_, lo) fails (op 0 does not exist), crash(_, hi)
    // completes.
    let (mut lo, mut hi) = (0, 1);
    while !completes(hi) {
        (lo, hi) = (hi, 2 * hi);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if completes(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// Collectives one full-neighbourhood step adds to a run of `layers`
/// layers: `layers − 1` gathers (layer 0's aggregate is not recomputed),
/// `layers − 1` scatters (layer 0's aggregate gradient is never formed),
/// and one allreduce of every gradient plus the loss.
fn ops_per_step(layers: u64) -> u64 {
    2 * layers - 1
}

#[test]
fn full_batch_collective_count_is_pinned_and_cache_independent() {
    // On top of the per-step ops, a run issues L more: the one layer-0
    // exchange of the run (layer 0 reads the immutable raw features, so
    // its aggregate is computed once and reused by every forward) and
    // the final inference forward's L − 1 gathers. So N = (2L − 1)·E + L.
    // Full-neighbourhood runs never consult the feature cache, so N is
    // the same with the cache on or off.
    let c = case(3);
    let info = build_comm_info(&c.graph, Topology::fig6(), BuildOptions::default());
    let (layers, epochs) = (2u64, 3u64);
    for policy in [CachePolicy::Off, CachePolicy::Auto] {
        let mut cfg = base_cfg(Architecture::Gcn, epochs as usize);
        cfg.feature_cache = Some(policy);
        assert_eq!(
            collective_count(&info, &c, &cfg),
            ops_per_step(layers) * epochs + layers,
            "{policy:?}"
        );
    }
}

#[test]
fn an_extra_epoch_adds_no_layer0_exchange() {
    // The layer-0 exchange sits outside the epoch loop: one more epoch
    // costs exactly one step's ops, none of them a layer-0 gather.
    let c = case(3);
    let info = build_comm_info(&c.graph, Topology::fig6(), BuildOptions::default());
    let mut cfg = base_cfg(Architecture::Sage, 2);
    let short = collective_count(&info, &c, &cfg);
    cfg.epochs += 1;
    let long = collective_count(&info, &c, &cfg);
    assert_eq!(long - short, ops_per_step(2));
}

#[test]
fn exact_sampling_reuses_the_layer0_aggregate_in_every_batch() {
    // A masked (fanout ∞) step is a full-neighbourhood step, so the
    // hoist covers each of an epoch's B batches, not one step per epoch:
    // N = (2L − 1)·B·E + L.
    let c = case(3);
    let info = build_comm_info(&c.graph, Topology::fig6(), BuildOptions::default());
    let n = c.graph.num_vertices();
    let (layers, epochs, batch) = (2u64, 2u64, n / 3);
    let batches = n.div_ceil(batch) as u64;
    let mut cfg = base_cfg(Architecture::Gcn, epochs as usize);
    cfg.sampling = Some(SamplingConfig::exact(batch, layers as usize));
    assert_eq!(
        collective_count(&info, &c, &cfg),
        ops_per_step(layers) * batches * epochs + layers
    );
}

#[test]
fn block_step_collective_count_is_pinned_and_cache_independent() {
    // A sampled-blocks step is trainer-local: one feature exchange (the
    // rows of every rank's own block chain, from their owners), every
    // layer computed where the seeds live, one allreduce — 2 collectives
    // for any depth, whether the exchange crosses the wire or is served
    // mostly out of the cache. The final inference forward is
    // full-neighbourhood: L more. N = 2·B·E + L; a step count that grows
    // with L means an inter-layer exchange is back.
    let c = case(3);
    let info = build_comm_info(&c.graph, Topology::fig6(), BuildOptions::default());
    let n = c.graph.num_vertices();
    let (epochs, batch) = (2u64, n / 3);
    let batches = n.div_ceil(batch) as u64;
    for dims in [&[6, 5, 3][..], &[6, 5, 4, 3]] {
        let layers = dims.len() - 1;
        for policy in [CachePolicy::Off, CachePolicy::Auto] {
            let mut cfg = base_cfg(Architecture::Gcn, epochs as usize);
            cfg.dims = dims.to_vec();
            cfg.sampling = Some(SamplingConfig::new(batch, vec![Some(3); layers]));
            cfg.feature_cache = Some(policy);
            assert_eq!(
                collective_count(&info, &c, &cfg),
                2 * batches * epochs + layers as u64,
                "L={layers}, {policy:?}"
            );
        }
    }
}

#[test]
fn cache_volume_is_monotone_and_pays_on_hubs() {
    // On a hub-skewed graph the fetched byte volume must be monotone
    // nonincreasing in capacity (cache sets are nested top-k prefixes)
    // and Auto must beat the uncached baseline outright.
    let c = case(3);
    let info = build_comm_info(&c.graph, Topology::fig6(), BuildOptions::default());
    let mut cfg = base_cfg(Architecture::Gcn, 2);
    cfg.sampling = Some(SamplingConfig::new(64, vec![Some(4), Some(4)]));
    let mut fetched = Vec::new();
    for policy in [
        CachePolicy::Fixed(0),
        CachePolicy::Fixed(8),
        CachePolicy::Fixed(64),
        CachePolicy::Fixed(1 << 20),
    ] {
        cfg.feature_cache = Some(policy);
        let report = train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
            .expect("healthy cluster");
        let stats = report.cache.expect("active policy reports stats");
        fetched.push((policy, stats.bytes_fetched, stats.bytes_saved));
    }
    let baseline = fetched[0].1;
    assert!(baseline > 0, "uncached baseline must fetch something");
    // Cache sets are nested top-k prefixes of one ranking, so volume
    // is monotone nonincreasing across growing fixed capacities.
    for pair in fetched.windows(2) {
        if let [(pa, a, _), (pb, b, _)] = pair {
            assert!(b <= a, "{pb:?} fetched {b} > {pa:?} fetched {a}");
        }
    }
    // Auto picks its own capacity per rank; wherever it lands on the
    // ranking, it must beat the uncached baseline on a hub graph.
    cfg.feature_cache = Some(CachePolicy::Auto);
    let auto_report =
        train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg).expect("healthy cluster");
    let auto_stats = auto_report.cache.expect("active policy reports stats");
    let (auto_fetched, auto_saved) = (auto_stats.bytes_fetched, auto_stats.bytes_saved);
    assert!(
        auto_fetched < baseline,
        "Auto did not reduce volume: {auto_fetched} vs {baseline}"
    );
    assert!(auto_saved > 0, "Auto must report saved bytes");
}

#[test]
fn serving_cache_is_bitwise_uncached() {
    // Serving closure reuse: a bounded layer-0 cache in the inference
    // server answers bitwise the same embeddings as the uncached server.
    use dgcl::{InferenceServer, ServedFuture, ServingConfig};
    use dgcl_gnn::GnnNetwork;
    let c = case(13);
    let n = c.graph.num_vertices();
    let net = GnnNetwork::new(Architecture::Sage, &[6, 5, 3], 42);
    let probes: Vec<u32> = (0..n as u32).step_by(37).collect();
    let answers = |cache_rows: Option<usize>| -> Vec<Vec<f32>> {
        let cfg = ServingConfig {
            cache_rows,
            ..ServingConfig::default()
        };
        let server = InferenceServer::spawn(&c.graph, &c.features, &net, cfg);
        let futs: Vec<ServedFuture> = probes
            .iter()
            .map(|&v| server.query(v).expect("in range"))
            .collect();
        futs.into_iter()
            .map(|f| {
                f.wait()
                    .expect("server alive")
                    .embedding
                    .as_slice()
                    .to_vec()
            })
            .collect()
    };
    let plain = answers(None);
    for cap in [0, n / 16, n] {
        assert_eq!(plain, answers(Some(cap)), "cache_rows={cap} diverged");
    }
}
