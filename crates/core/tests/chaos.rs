//! Chaos suite: deterministic fault injection against real training.
//!
//! Two invariants, straight from the failure model in DESIGN.md:
//!
//! 1. **Benign faults are invisible.** Delays, duplicates and reorders
//!    change message *timing* only; the keyed mailbox protocol and the
//!    rank-ordered allreduce make training bitwise identical to a
//!    fault-free run.
//! 2. **Crashes fail fast, everywhere.** A crashed rank produces a
//!    [`ClusterError`] naming it, on every surviving rank, within the
//!    collective deadline — never a hang.
//!
//! Every test runs under an explicit watchdog so a hang is a loud panic,
//! not a stuck CI job.

use std::time::{Duration, Instant};

use dgcl::sampling::SamplingConfig;
use dgcl::trainer::{train_distributed, train_distributed_with, TrainConfig};
use dgcl::{
    backend_for, build_comm_info, run_cluster_with, AllreduceAlgo, BackendKind, BuildOptions,
    CachePolicy, ClusterCache, ClusterError, ClusterFailure, CommInfo, FabricConfig, FaultEvent,
    FaultPlan, GatherPlan, GroupSpec, RuntimeError,
};
use dgcl_gnn::{AggKind, Architecture};
use dgcl_graph::{CsrGraph, Dataset, VertexId};
use dgcl_tensor::{Matrix, XavierInit};
use dgcl_topology::Topology;

mod common;
use common::with_watchdog;

struct Case {
    graph: CsrGraph,
    info: CommInfo,
    features: Matrix,
    targets: Matrix,
    cfg: TrainConfig,
}

fn training_case() -> Case {
    let graph = Dataset::WikiTalk.generate(0.0005, 3);
    let n = graph.num_vertices();
    let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
    let mut init = XavierInit::new(8);
    let features = init.features(n, 6);
    let targets = init.features(n, 3);
    let cfg = TrainConfig::new(Architecture::Gcn, &[6, 3], 2);
    Case {
        graph,
        info,
        features,
        targets,
        cfg,
    }
}

#[test]
fn benign_faults_train_bitwise_identical() {
    with_watchdog(Duration::from_secs(300), || {
        let c = training_case();
        let clean = train_distributed(&c.info, &c.graph, &c.features, &c.targets, &c.cfg)
            .expect("fault-free run");
        for seed in [1u64, 17, 99] {
            let faults = FaultPlan::seeded(seed, c.info.num_devices(), 6, Duration::from_millis(2));
            assert!(faults.is_benign() && !faults.is_empty());
            let config = FabricConfig {
                faults,
                ..FabricConfig::default()
            };
            let faulted =
                train_distributed_with(&c.info, &c.graph, &c.features, &c.targets, &c.cfg, config)
                    .unwrap_or_else(|e| panic!("benign plan (seed {seed}) must not fail: {e}"));
            // Bitwise, not approximate: benign faults move timing only,
            // never numerics.
            assert_eq!(
                clean.epoch_losses, faulted.epoch_losses,
                "losses diverged under benign faults (seed {seed})"
            );
            assert_eq!(
                clean.outputs, faulted.outputs,
                "outputs diverged under benign faults (seed {seed})"
            );
        }
    });
}

#[test]
fn crash_fault_fails_every_survivor_within_deadline() {
    with_watchdog(Duration::from_secs(120), || {
        let c = training_case();
        let deadline = Duration::from_secs(20);
        let config = FabricConfig {
            collective_deadline: deadline,
            // Op 3: rank 1 dies mid-epoch, after real collectives ran.
            faults: FaultPlan::crash(1, 3),
            ..FabricConfig::default()
        };
        let start = Instant::now();
        let err =
            train_distributed_with(&c.info, &c.graph, &c.features, &c.targets, &c.cfg, config)
                .expect_err("a crashed rank must fail training");
        assert!(
            start.elapsed() < deadline,
            "unwind took {:?}, deadline was {deadline:?}",
            start.elapsed()
        );
        assert_crash_poisons_every_survivor(&err, 1, 3);
    });
}

/// `err` names `rank`'s injected crash entering op `at_op` as its origin,
/// and every other rank failed with that poison — nothing survives a
/// crashed peer on a connected plan.
fn assert_crash_poisons_every_survivor(err: &ClusterError, rank: usize, at_op: u64) {
    assert_eq!(err.rank, rank, "{err}");
    assert!(
        matches!(
            err.cause,
            ClusterFailure::Error(RuntimeError::InjectedCrash { rank: r, at_op: k })
                if r == rank && k == at_op
        ),
        "{err}"
    );
    let survivors: Vec<_> = err.surviving_errors().collect();
    assert_eq!(survivors.len(), err.per_rank.len() - 1, "{err}");
    for (survivor, failure) in survivors {
        match failure {
            ClusterFailure::Error(RuntimeError::Poisoned { origin, reason }) => {
                assert_eq!(*origin, rank, "rank {survivor} blames the crashed rank");
                assert!(reason.contains("injected crash"), "{reason}");
            }
            other => panic!("rank {survivor}: expected poison, got {other}"),
        }
    }
}

#[test]
fn crash_on_a_sampled_step_fails_every_survivor_within_deadline() {
    // A sampled-blocks step issues two collectives, so the `2·B·E + L`
    // pin (cache_parity.rs) places every op of the run: step s enters op
    // 2s + 1 for its feature exchange and 2s + 2 for its allreduce, and
    // the final full-neighbourhood forward's first gather is op 2·B·E + 1.
    with_watchdog(Duration::from_secs(120), || {
        let graph = Dataset::WikiTalk.generate(0.0005, 3);
        let n = graph.num_vertices();
        let info = build_comm_info(&graph, Topology::dgx1_subset(4), BuildOptions::default());
        let mut init = XavierInit::new(8);
        let features = init.features(n, 6);
        let targets = init.features(n, 3);
        let (epochs, batch) = (2, n / 3);
        let mut cfg = TrainConfig::new(Architecture::Gcn, &[6, 5, 3], epochs);
        cfg.sampling = Some(SamplingConfig::new(batch, vec![Some(3), Some(3)]));
        let steps = (n.div_ceil(batch) * epochs) as u64;
        let deadline = Duration::from_secs(5);
        // Step 1's exchange, step 1's allreduce, the final forward.
        for (rank, at_op) in [(1, 3), (2, 4), (3, 2 * steps + 1)] {
            let config = FabricConfig {
                collective_deadline: deadline,
                faults: FaultPlan::crash(rank, at_op),
                ..FabricConfig::default()
            };
            let start = Instant::now();
            let err = train_distributed_with(&info, &graph, &features, &targets, &cfg, config)
                .expect_err("a crashed rank must fail sampled training");
            assert!(
                start.elapsed() < deadline,
                "crash at op {at_op}: unwind took {:?}, deadline was {deadline:?}",
                start.elapsed()
            );
            assert_crash_poisons_every_survivor(&err, rank, at_op);
        }
    });
}

/// Shared harness for the mid-operation crash cases: `rank` dies inside
/// op `at_op` of `body` after `after_actions` pipeline actions; every
/// survivor must report the poison within the collective deadline.
fn crash_mid_collective_case<R: Send + std::fmt::Debug>(
    info: &CommInfo,
    (rank, at_op, after_actions): (usize, u64, usize),
    body: impl Fn(dgcl::DeviceHandle<'_>) -> Result<R, RuntimeError> + Sync,
) {
    let deadline = Duration::from_secs(20);
    let config = FabricConfig {
        collective_deadline: deadline,
        // Tiny chunks: many actions in flight when the rank dies.
        collective_chunk: 4,
        faults: FaultPlan {
            events: vec![FaultEvent::CrashMidOp {
                rank,
                at_op,
                after_actions,
            }],
        },
        ..FabricConfig::default()
    };
    let start = Instant::now();
    let err = run_cluster_with(info, config, body).expect_err("crash mid-op must fail");
    assert!(
        start.elapsed() < deadline,
        "unwind took {:?}, deadline was {deadline:?}",
        start.elapsed()
    );
    assert_crash_poisons_every_survivor(&err, rank, at_op);
}

/// The planned four-GPU cluster the zoo crash cases run on.
fn fig6_info() -> CommInfo {
    let graph = Dataset::WikiTalk.generate(0.0005, 3);
    build_comm_info(&graph, Topology::fig6(), BuildOptions::default())
}

#[test]
fn crash_mid_ring_allreduce_poisons_every_survivor() {
    with_watchdog(Duration::from_secs(120), || {
        crash_mid_collective_case(&fig6_info(), (1, 1, 1), |handle| {
            let mats = vec![Matrix::full(16, 8, handle.rank as f32 + 0.5)];
            handle.allreduce_with(AllreduceAlgo::Ring, mats)
        });
    });
}

#[test]
fn crash_mid_default_allreduce_poisons_every_survivor() {
    with_watchdog(Duration::from_secs(120), || {
        crash_mid_collective_case(&fig6_info(), (1, 1, 1), |handle| {
            handle.allreduce(vec![Matrix::full(16, 8, handle.rank as f32 + 0.5)])
        });
    });
}

#[test]
fn crash_mid_broadcast_poisons_every_survivor() {
    with_watchdog(Duration::from_secs(120), || {
        crash_mid_collective_case(&fig6_info(), (1, 1, 1), |handle| {
            let mat = Matrix::full(16, 8, handle.rank as f32 + 0.5);
            let group = GroupSpec::all(handle.comm_info().num_devices());
            let out = handle.broadcast_group(group, 0, mat)?;
            // The root and every rank it already reached owe nobody
            // anything in a broadcast; the next collective (as in any
            // real training step) is where they must observe the poison.
            handle.allreduce(vec![out])
        });
    });
}

#[test]
fn crash_mid_row_exchange_poisons_every_survivor() {
    // Rank 1 dies after its first send of the sampled-step exchange.
    with_watchdog(Duration::from_secs(120), || {
        let graph = Dataset::WikiTalk.generate(0.0005, 3);
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        let n = graph.num_vertices();
        let features = XavierInit::new(8).features(n, 6);
        let per_device = info.dispatch_features(&features);
        let cache = ClusterCache::build(&info, &features, CachePolicy::Auto).expect("cache on");
        let rows: Vec<VertexId> = (0..n as VertexId).collect();
        crash_mid_collective_case(&info, (1, 1, 1), |handle| {
            let (rank, pg) = (handle.rank, &handle.comm_info().pg);
            let (part, have) = (&pg.partition, &pg.local[rank]);
            let values = &per_device[rank];
            let plan =
                GatherPlan::build_cached(&rows, part, pg.num_parts, rank, have, values, &cache);
            handle.exchange_rows(&plan)?;
            // A rank that got rank 1's rows before it died owes nobody
            // anything; the next collective is where it must observe
            // the poison.
            handle.allreduce(Vec::new())
        });
    });
}

#[test]
fn crash_mid_cagnet_chain_poisons_every_survivor() {
    // On the 2 × 2 grid, ops 1–2 assemble the fat panels, op 3 is the
    // one broadcast wave, op 4 the chain hop (rank 0 → 1, rank 2 → 3)
    // and op 5 the thin return (rank 1 → 0, rank 3 → 2).
    with_watchdog(Duration::from_secs(120), || {
        let graph = Dataset::WikiTalk.generate(0.0005, 3);
        let options = BuildOptions {
            backend: BackendKind::Cagnet { replication: 2 },
            ..BuildOptions::default()
        };
        let info = build_comm_info(&graph, Topology::fig6(), options);
        let features = XavierInit::new(8).features(graph.num_vertices(), 6);
        let per_device = info.dispatch_features(&features);
        for (rank, at_op) in [(0, 4), (1, 5)] {
            crash_mid_collective_case(&info, (rank, at_op, 0), |handle| {
                let cagnet = backend_for(info.backend);
                cagnet.agg_forward(&handle, &per_device[handle.rank], AggKind::Sum)?;
                // The other grid row's hop and return never meet the
                // dead rank; the next collective is where they must.
                handle.allreduce(Vec::new())
            });
        }
    });
}

#[test]
fn silent_desertion_times_out_instead_of_hanging() {
    // A rank that *returns without participating* never poisons the
    // fabric — only the deadline can unblock its peers. This is the
    // stuck-peer case the configurable deadline exists for.
    with_watchdog(Duration::from_secs(120), || {
        let graph = Dataset::WikiTalk.generate(0.0005, 3);
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        let deadline = Duration::from_millis(300);
        let config = FabricConfig {
            collective_deadline: deadline,
            ..FabricConfig::default()
        };
        let start = Instant::now();
        let err = run_cluster_with(&info, config, |handle| {
            if handle.rank == 0 {
                return Ok(0); // Deserts the allreduce silently.
            }
            let reduced = handle.allreduce(vec![Matrix::full(1, 1, 1.0)])?;
            Ok(reduced.len())
        })
        .expect_err("deserted allreduce must time out");
        let elapsed = start.elapsed();
        assert!(elapsed >= deadline, "peers cannot finish without rank 0");
        assert!(
            elapsed < deadline + Duration::from_secs(30),
            "timeout fired far too late: {elapsed:?}"
        );
        // Rank 0 completed; some peer's timeout is the recorded cause.
        assert!(err.per_rank[0].is_none(), "rank 0 deserted successfully");
        assert!(
            matches!(
                err.cause,
                ClusterFailure::Error(RuntimeError::Timeout { op: "recv", .. })
            ),
            "{err}"
        );
        assert_eq!(err.deadline, deadline);
    });
}

#[test]
fn duplicate_and_reorder_storm_on_one_link_is_absorbed() {
    // Concentrated worst case: every stage of the heaviest link both
    // duplicated and reordered, plus a delay — still bitwise clean.
    with_watchdog(Duration::from_secs(300), || {
        let c = training_case();
        let clean = train_distributed(&c.info, &c.graph, &c.features, &c.targets, &c.cfg)
            .expect("fault-free run");
        let step = c.info.plan.steps.first().expect("non-empty plan");
        let (src, dst) = (step.src, step.dst);
        let mut events = Vec::new();
        for stage in 0..c.info.plan.num_stages as u32 {
            events.push(dgcl::FaultEvent::Duplicate { src, dst, stage });
            events.push(dgcl::FaultEvent::Reorder { src, dst, stage });
            events.push(dgcl::FaultEvent::Delay {
                src,
                dst,
                stage,
                delay: Duration::from_millis(1),
            });
        }
        let config = FabricConfig {
            faults: FaultPlan { events },
            ..FabricConfig::default()
        };
        let faulted =
            train_distributed_with(&c.info, &c.graph, &c.features, &c.targets, &c.cfg, config)
                .expect("storm on one link is benign");
        assert_eq!(clean.outputs, faulted.outputs);
        assert_eq!(clean.epoch_losses, faulted.epoch_losses);
    });
}
