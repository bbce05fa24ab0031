//! Elastic-recovery chaos suite: checkpoint, evict, replan, resume.
//!
//! The invariants, from the "Elastic recovery" section of DESIGN.md:
//!
//! 1. **Bounded loss.** With per-epoch in-memory checkpoints a crash
//!    costs at most the in-flight epoch; with sink-only resume at most
//!    `every - 1` further completed epochs.
//! 2. **Recovery is restart.** The recovered run is *bitwise* equal to
//!    a fresh `train_distributed_resumable` started from the same
//!    checkpoint on the same survivor partition — eviction and replan
//!    add no numerical wiggle room.
//! 3. **No hang.** Every recovery path completes under a watchdog.

use std::time::Duration;

use dgcl::trainer::{train_distributed_resumable, TrainConfig};
use dgcl::{
    build_comm_info, train_elastic, BuildOptions, CheckpointSpec, FabricConfig, FaultEvent,
    FaultPlan, MemorySink, RecoveryConfig, ResumePolicy,
};
use dgcl_gnn::Architecture;
use dgcl_graph::{CsrGraph, Dataset};
use dgcl_plan::SpstConfig;
use dgcl_tensor::{Matrix, XavierInit};
use dgcl_topology::Topology;

// Recovery must never trade a crash for a hang.
mod common;
use common::with_watchdog;

struct Case {
    graph: CsrGraph,
    features: Matrix,
    targets: Matrix,
    cfg: TrainConfig,
}

fn training_case(epochs: usize) -> Case {
    let graph = Dataset::WikiTalk.generate(0.0005, 3);
    let n = graph.num_vertices();
    let mut init = XavierInit::new(8);
    let features = init.features(n, 6);
    let targets = init.features(n, 3);
    let cfg = TrainConfig::new(Architecture::Gcn, &[6, 4, 3], epochs);
    Case {
        graph,
        features,
        targets,
        cfg,
    }
}

fn faulty_first_attempt(faults: FaultPlan) -> Vec<FabricConfig> {
    vec![FabricConfig {
        faults,
        collective_deadline: Duration::from_secs(10),
        ..FabricConfig::default()
    }]
}

/// The acceptance gate: recovery from an epoch-boundary crash resumes
/// on the survivors within the loss bound, and the final state is
/// bitwise identical to a fresh restart from the same checkpoint on the
/// same survivor partition.
#[test]
fn crash_at_epoch_recovers_bitwise_equal_to_fresh_restart() {
    with_watchdog(Duration::from_secs(120), || {
        let Case {
            graph,
            features,
            targets,
            cfg,
        } = training_case(5);
        // Crash rank 0, the checkpoint publisher: its epoch-3 publish
        // precedes the crash on the same thread, so `resumed_epoch` is
        // exact. (A crash on any other rank races rank 0's last
        // allreduce: the poison can unwind rank 0 before it publishes.)
        let rcfg = RecoveryConfig {
            fabrics: faulty_first_attempt(FaultPlan::crash_at_epoch(0, 3)),
            ..RecoveryConfig::default()
        };
        let elastic = train_elastic(&graph, Topology::fig6(), &features, &targets, &cfg, &rcfg)
            .expect("one crash fits the default eviction budget");
        assert_eq!(elastic.events.len(), 1, "exactly one recovery round");
        let ev = &elastic.events[0];
        assert_eq!(ev.evicted, vec![0]);
        assert_eq!(ev.survivors, 3);
        // In-memory per-epoch checkpoints: all 3 completed epochs kept.
        assert_eq!(ev.resumed_epoch, 3);
        assert_eq!(elastic.total_epochs_lost(), 0);
        assert_eq!(elastic.report.epoch_losses.len(), cfg.epochs);
        assert!(ev.cause.contains("epoch 3"), "{}", ev.cause);

        // Reference: restart from the same checkpoint on the same
        // survivor CommInfo, no recovery machinery involved. The event
        // does not carry the checkpoint, but checkpoints are
        // deterministic: train the same 3-epoch prefix uninterrupted on
        // the original partition and capture it again.
        let info4 = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        let mut pre_cfg = cfg.clone();
        pre_cfg.epochs = ev.resumed_epoch;
        let ck = dgcl::CheckpointConfig::default();
        train_distributed_resumable(
            &info4,
            &graph,
            &features,
            &targets,
            &pre_cfg,
            FabricConfig::default(),
            None,
            Some(&ck),
        )
        .expect("healthy prefix run");
        let ckpt = ck.store.latest().expect("checkpoint after 3 epochs");
        assert_eq!(ckpt.epochs_done, 3);
        let fresh = train_distributed_resumable(
            &elastic.final_info,
            &graph,
            &features,
            &targets,
            &cfg,
            FabricConfig::default(),
            Some(&ckpt),
            None,
        )
        .expect("healthy survivor cluster");
        assert_eq!(
            elastic.report.epoch_losses, fresh.epoch_losses,
            "recovered losses must be bitwise equal to a fresh restart"
        );
        assert_eq!(
            elastic.report.outputs, fresh.outputs,
            "recovered outputs must be bitwise equal to a fresh restart"
        );
    });
}

/// A mid-collective crash (the dirty half of the matrix): the epoch in
/// flight is lost, every completed epoch survives via the in-memory
/// store, and training still reaches the target.
#[test]
fn crash_mid_op_loses_at_most_the_inflight_epoch() {
    with_watchdog(Duration::from_secs(120), || {
        let Case {
            graph,
            features,
            targets,
            cfg,
        } = training_case(4);
        // Kill rank 0 deep into the second epoch's collectives (the
        // publisher, so the first epoch's checkpoint provably precedes
        // the crash; see the race note in the test above).
        let rcfg = RecoveryConfig {
            fabrics: faulty_first_attempt(FaultPlan {
                events: vec![FaultEvent::CrashMidOp {
                    rank: 0,
                    at_op: 9,
                    after_actions: 3,
                }],
            }),
            ..RecoveryConfig::default()
        };
        let elastic = train_elastic(&graph, Topology::fig6(), &features, &targets, &cfg, &rcfg)
            .expect("one crash fits the budget");
        assert_eq!(elastic.events.len(), 1);
        let ev = &elastic.events[0];
        assert_eq!(ev.evicted, vec![0]);
        assert_eq!(elastic.total_epochs_lost(), 0, "completed epochs all kept");
        assert!(
            ev.resumed_epoch >= 1,
            "at least the first epoch completed before op 9"
        );
        assert_eq!(elastic.report.epoch_losses.len(), cfg.epochs);
        assert_eq!(elastic.final_devices, 3);
    });
}

/// Seeded random crashes (the chaos entry point): whatever rank and
/// epoch the seed picks, recovery completes within the loss bound.
#[test]
fn seeded_crashes_always_recover() {
    with_watchdog(Duration::from_secs(300), || {
        let Case {
            graph,
            features,
            targets,
            cfg,
        } = training_case(4);
        for seed in 0..4 {
            let rcfg = RecoveryConfig {
                fabrics: faulty_first_attempt(FaultPlan::seeded_crash(seed, 4, cfg.epochs)),
                ..RecoveryConfig::default()
            };
            let elastic = train_elastic(&graph, Topology::fig6(), &features, &targets, &cfg, &rcfg)
                .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
            assert_eq!(elastic.events.len(), 1, "seed {seed}");
            assert_eq!(elastic.total_epochs_lost(), 0, "seed {seed}");
            assert_eq!(elastic.report.epoch_losses.len(), cfg.epochs, "seed {seed}");
            assert_eq!(elastic.final_devices, 3, "seed {seed}");
        }
    });
}

/// Two sequential failures: 4 GPUs → 3 → 2, each round evicting,
/// replanning and resuming; the loss history stays complete.
#[test]
fn sequential_failures_evict_down_to_two_gpus() {
    with_watchdog(Duration::from_secs(180), || {
        let Case {
            graph,
            features,
            targets,
            cfg,
        } = training_case(6);
        let fault0 = FaultPlan::crash_at_epoch(3, 2);
        let fault1 = FaultPlan::crash_at_epoch(0, 4);
        let rcfg = RecoveryConfig {
            fabrics: vec![
                FabricConfig {
                    faults: fault0,
                    ..FabricConfig::default()
                },
                FabricConfig {
                    faults: fault1,
                    ..FabricConfig::default()
                },
            ],
            max_evictions: 2,
            ..RecoveryConfig::default()
        };
        let elastic = train_elastic(&graph, Topology::fig6(), &features, &targets, &cfg, &rcfg)
            .expect("two crashes fit the budget");
        assert_eq!(elastic.events.len(), 2);
        assert_eq!(elastic.events[0].survivors, 3);
        assert_eq!(elastic.events[1].survivors, 2);
        assert_eq!(elastic.events[1].evicted, vec![0]);
        assert_eq!(elastic.final_devices, 2);
        assert_eq!(elastic.total_epochs_lost(), 0);
        assert_eq!(elastic.report.epoch_losses.len(), cfg.epochs);
    });
}

/// Sink-only resume (driver restart): the loss is bounded by the
/// serialization cadence, never more.
#[test]
fn sink_only_resume_bounds_loss_by_cadence() {
    with_watchdog(Duration::from_secs(120), || {
        let Case {
            graph,
            features,
            targets,
            cfg,
        } = training_case(6);
        let every = 2;
        let sink = MemorySink::shared();
        // Rank 0 again: memory provably holds epoch 5 when it crashes.
        let rcfg = RecoveryConfig {
            fabrics: faulty_first_attempt(FaultPlan::crash_at_epoch(0, 5)),
            spec: Some(CheckpointSpec {
                every,
                sink: sink.clone(),
            }),
            resume: ResumePolicy::SinkOnly,
            ..RecoveryConfig::default()
        };
        let elastic = train_elastic(&graph, Topology::fig6(), &features, &targets, &cfg, &rcfg)
            .expect("one crash fits the budget");
        assert_eq!(elastic.events.len(), 1);
        let ev = &elastic.events[0];
        // Crash entering epoch 5: memory had 5 epochs, the sink 4.
        assert_eq!(ev.resumed_epoch, 4);
        assert_eq!(ev.epochs_lost, 1);
        assert!(
            ev.epochs_lost < every,
            "sink-only loss {} must stay under the cadence {every}",
            ev.epochs_lost
        );
        assert!(sink.stores() >= 2, "epochs 2 and 4 were serialized");
        assert_eq!(elastic.report.epoch_losses.len(), cfg.epochs);
    });
}

/// Recovery replans with the options the initial plan used. With the
/// default build both plans commit most demands from the demand-class
/// cache; an explicitly exact build stays exact through the replan.
#[test]
fn recovery_replans_warm() {
    with_watchdog(Duration::from_secs(120), || {
        let Case {
            graph,
            features,
            targets,
            cfg,
        } = training_case(3);
        let rcfg = RecoveryConfig {
            fabrics: faulty_first_attempt(FaultPlan::crash_at_epoch(0, 1)),
            ..RecoveryConfig::default()
        };
        let initial = build_comm_info(&graph, Topology::fig6(), rcfg.build).plan_stats;
        let elastic = train_elastic(&graph, Topology::fig6(), &features, &targets, &cfg, &rcfg)
            .expect("one crash fits the budget");
        let replan = elastic.events[0].replan_stats;
        for (plan, stats) in [("initial plan", initial), ("replan", replan)] {
            assert!(stats.demands > 0, "{plan}: {stats:?}");
            assert!(
                stats.cache_commits > 0 && stats.full_searches < stats.demands,
                "{plan} resolved no demand from the cache: {stats:?}"
            );
        }

        let exact = RecoveryConfig {
            fabrics: faulty_first_attempt(FaultPlan::crash_at_epoch(0, 1)),
            build: BuildOptions {
                spst: SpstConfig::default(),
                ..BuildOptions::default()
            },
            ..RecoveryConfig::default()
        };
        let elastic = train_elastic(&graph, Topology::fig6(), &features, &targets, &cfg, &exact)
            .expect("one crash fits the budget");
        let stats = elastic.events[0].replan_stats;
        assert!(stats.demands > 0);
        assert_eq!(
            (stats.cache_commits, stats.full_searches),
            (0, stats.demands),
            "an exact build replanned from the cache: {stats:?}"
        );
    });
}
