//! Property suite for training checkpoints.
//!
//! The invariant elastic recovery rests on: **resuming from a
//! checkpoint is invisible**. For any crash epoch, any serialization
//! round trip, any architecture, full-batch or sampled with the feature
//! prefetch on or off, a run that stops mid-training, serializes its
//! checkpoint to bytes, deserializes and resumes, is *bitwise*
//! identical to the uninterrupted run — the same loss at every later
//! epoch and the same final outputs. Without this, "recovered" training
//! would be a different trajectory and the recovery suite's parity gate
//! meaningless.

use dgcl::sampling::SamplingConfig;
use dgcl::trainer::{train_distributed_resumable, TrainConfig};
use dgcl::{
    build_comm_info, BuildOptions, Checkpoint, CheckpointConfig, CheckpointSink, FabricConfig,
};
use dgcl_gnn::Architecture;
use dgcl_graph::Dataset;
use dgcl_tensor::XavierInit;
use dgcl_topology::Topology;
use proptest::prelude::*;

const ARCHS: [Architecture; 3] = [Architecture::Gcn, Architecture::CommNet, Architecture::Sage];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Stop after `stop_epoch` epochs, round-trip the checkpoint
    /// through bytes, resume to the full epoch count: bitwise equal to
    /// never stopping.
    #[test]
    fn serialized_resume_is_bitwise_invisible(
        stop_epoch in 1usize..4,
        arch_idx in 0usize..ARCHS.len(),
        sampled in any::<bool>(),
        overlap in any::<bool>(),
        graph_seed in 1u64..4,
    ) {
        let epochs = 4;
        let graph = Dataset::WikiTalk.generate(0.0004, graph_seed);
        let n = graph.num_vertices();
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        let mut init = XavierInit::new(graph_seed);
        let features = init.features(n, 6);
        let targets = init.features(n, 3);
        let mut cfg = TrainConfig::new(ARCHS[arch_idx], &[6, 4, 3], epochs);
        // Only sampled blocks have a next batch's features to prefetch.
        cfg.overlap = overlap;
        if sampled {
            cfg.sampling = Some(SamplingConfig::new(64, vec![Some(3), Some(3)]));
        }

        let uninterrupted = train_distributed_resumable(
            &info, &graph, &features, &targets, &cfg,
            FabricConfig::default(), None, None,
        ).expect("healthy cluster");

        // Prefix run to `stop_epoch`, checkpointing every epoch.
        let mut prefix_cfg = cfg.clone();
        prefix_cfg.epochs = stop_epoch;
        let ck = CheckpointConfig::default();
        train_distributed_resumable(
            &info, &graph, &features, &targets, &prefix_cfg,
            FabricConfig::default(), None, Some(&ck),
        ).expect("healthy prefix");
        let ckpt = ck.store.latest().expect("per-epoch checkpoint");
        prop_assert_eq!(ckpt.epochs_done, stop_epoch);

        // The serialization round trip must be exact...
        let revived = Checkpoint::deserialize(&ckpt.serialize()).expect("round trip");
        prop_assert_eq!(&revived, &ckpt);

        // ...and the resumed run indistinguishable ever after.
        let resumed = train_distributed_resumable(
            &info, &graph, &features, &targets, &cfg,
            FabricConfig::default(), Some(&revived), None,
        ).expect("healthy resume");
        prop_assert_eq!(&resumed.epoch_losses, &uninterrupted.epoch_losses,
            "losses diverged after resuming from epoch {}", stop_epoch);
        prop_assert_eq!(&resumed.outputs, &uninterrupted.outputs,
            "outputs diverged after resuming from epoch {}", stop_epoch);
    }

    /// The published checkpoint's loss history is exactly the prefix of
    /// the run's loss history — epoch state, not just weights.
    #[test]
    fn checkpoint_losses_are_the_run_prefix(
        every in 1usize..4,
        graph_seed in 1u64..4,
    ) {
        let graph = Dataset::WikiTalk.generate(0.0004, graph_seed);
        let n = graph.num_vertices();
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        let mut init = XavierInit::new(graph_seed + 100);
        let features = init.features(n, 5);
        let targets = init.features(n, 2);
        let cfg = TrainConfig::new(Architecture::Gcn, &[5, 2], 5);
        let sink = dgcl::MemorySink::shared();
        let ck = CheckpointConfig {
            store: Default::default(),
            spec: Some(dgcl::CheckpointSpec { every, sink: sink.clone() }),
        };
        let report = train_distributed_resumable(
            &info, &graph, &features, &targets, &cfg,
            FabricConfig::default(), None, Some(&ck),
        ).expect("healthy cluster");
        let latest = ck.store.latest().expect("published");
        prop_assert_eq!(latest.epochs_done, cfg.epochs);
        prop_assert_eq!(&latest.losses, &report.epoch_losses);
        let from_sink = Checkpoint::deserialize(&sink.load().expect("sink written"))
            .expect("sink bytes parse");
        let k = from_sink.epochs_done;
        prop_assert_eq!(k, (cfg.epochs / every) * every, "sink cadence");
        prop_assert_eq!(&from_sink.losses[..], &report.epoch_losses[..k]);
    }
}
