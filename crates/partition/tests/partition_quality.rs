//! Pins the partitioner's quality: edge-cut ceilings and the balance bound.
//!
//! Each cell partitions a small generated graph of one regime — Reddit
//! (dense, communities), Web-Google (sparse, communities) and Wiki-Talk
//! (hubs and leaves) — with [`hierarchical`] at 2, 4 and 8 parts on one
//! machine and 16 parts on two machines of eight, as the simulator's
//! `partition_for` groups GPUs. It asserts:
//!
//! * the edge cut is at most the cell's ceiling, the cut read when
//!   coarsening gained two-hop matching, so a change that makes any cell
//!   cut more edges fails here;
//! * every part holds at most what `kway`'s balance bound allows: for a
//!   split of `n` vertices into `k` parts, `⌈n / k · DEFAULT_IMBALANCE⌉
//!   + 1`, applied to the machine split and then to each machine's split.
//!
//! Reddit's partitions never run two-hop matching; their ceilings are
//! the same as before it. The comments give the cut before two-hop
//! matching where it differs.
//!
//! The `#[ignore]` cells are the three graphs the `e2e` benchmark trains
//! on, at its scales and part layouts, with ceilings read when
//! refinement began keeping connectivity rows (which moved no vertex).
//! A change that moves partitions must keep them; run them with
//! `cargo test --release -p dgcl-partition --test partition_quality -- --ignored`.

use dgcl_graph::Dataset;
use dgcl_partition::hierarchical::hierarchical;
use dgcl_partition::metrics::{edge_cut, part_sizes};
use dgcl_partition::multilevel::DEFAULT_IMBALANCE;

/// The most vertices `kway` lets one of `k` parts of `n` vertices hold.
fn part_bound(n: usize, k: usize) -> usize {
    (n as f64 / k as f64 * DEFAULT_IMBALANCE).ceil() as usize + 1
}

/// Partitions `dataset` at `scale` (generated with seed 7) over each
/// machine layout with seed 42, and checks each cut against its ceiling
/// and each part against the balance bound.
fn check(dataset: Dataset, scale: f64, ceilings: &[(&[usize], usize)]) {
    let graph = dataset.generate(scale, 7);
    let n = graph.num_vertices();
    for &(groups, ceiling) in ceilings {
        let what = format!("{} x{scale} on {groups:?}", dataset.name());
        let partition = hierarchical(&graph, groups, 42);
        let cut = edge_cut(&graph, &partition);
        assert!(
            cut <= ceiling,
            "{what}: cut {cut} above its ceiling {ceiling}"
        );
        let gpus = groups[0];
        let sizes = part_sizes(&partition, groups.len() * gpus);
        for (machine, parts) in sizes.chunks(gpus).enumerate() {
            let on_machine: usize = parts.iter().sum();
            if groups.len() > 1 {
                let bound = part_bound(n, groups.len());
                assert!(
                    on_machine <= bound,
                    "{what}: machine {machine} holds {on_machine} > {bound}"
                );
            }
            let bound = part_bound(on_machine, gpus);
            for (gpu, &size) in parts.iter().enumerate() {
                assert!(
                    size <= bound,
                    "{what}: part {} holds {size} > {bound}",
                    machine * gpus + gpu
                );
            }
        }
    }
}

#[test]
fn reddit_cuts_and_balance() {
    check(
        Dataset::Reddit,
        0.004,
        &[
            (&[2], 6_234),
            (&[4], 9_400),
            (&[8], 11_890),
            (&[8, 8], 63_234),
        ],
    );
}

#[test]
fn webgoogle_cuts_and_balance() {
    check(
        Dataset::WebGoogle,
        0.002,
        &[
            // 420 before two-hop matching.
            (&[2], 448),
            // 670 before.
            (&[4], 666),
            (&[8], 816),
            // 2 812 before.
            (&[8, 8], 2_968),
        ],
    );
}

#[test]
fn wikitalk_cuts_and_balance() {
    check(
        Dataset::WikiTalk,
        0.005,
        &[
            // 4 886 before two-hop matching.
            (&[2], 2),
            // 5 150 before.
            (&[4], 822),
            // 5 988 before.
            (&[8], 1_492),
            // 9 414 before.
            (&[8, 8], 3_506),
        ],
    );
}

/// The `fullbatch-dense` benchmark graph.
#[test]
#[ignore = "benchmark scale; run in release with --ignored"]
fn reddit_benchmark_scale() {
    check(Dataset::Reddit, 0.04, &[(&[2], 123_992)]);
}

/// The `fullbatch-halo` benchmark graph.
#[test]
#[ignore = "benchmark scale; run in release with --ignored"]
fn wikitalk_benchmark_scale() {
    check(Dataset::WikiTalk, 0.05, &[(&[8, 8], 15_858)]);
}

/// The `sampled-cached` benchmark graph.
#[test]
#[ignore = "benchmark scale; run in release with --ignored"]
fn webgoogle_benchmark_scale() {
    check(Dataset::WebGoogle, 0.02, &[(&[4], 7_444)]);
}
