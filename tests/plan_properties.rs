//! Property-based tests on the planning stack: for random graphs,
//! partitions and seeds, SPST must always produce valid plans whose cost
//! never exceeds peer-to-peer's under the same model, and the execution
//! tables must round-trip the plan.

use dgcl_graph::generators::erdos_renyi;
use dgcl_partition::PartitionedGraph;
use dgcl_plan::baselines::peer_to_peer;
use dgcl_plan::plan::validate_plan;
use dgcl_plan::{spst_plan, spst_plan_with_config, SendRecvTables, SpstConfig};
use dgcl_topology::Topology;
use proptest::prelude::*;

/// A random small graph plus a random assignment onto `k` parts.
fn arb_partitioned(k: usize) -> impl Strategy<Value = PartitionedGraph> {
    (8usize..60, 1usize..4, any::<u64>()).prop_map(move |(n, density, seed)| {
        let graph = erdos_renyi(n, n * density, seed);
        let partition: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();
        PartitionedGraph::new(&graph, partition, k)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spst_plans_are_always_valid_on_fig6(pg in arb_partitioned(4), seed in any::<u64>()) {
        let topo = Topology::fig6();
        let out = spst_plan(&pg, &topo, 1024, seed);
        prop_assert!(validate_plan(&out.plan, &pg).is_ok());
    }

    #[test]
    fn spst_plans_are_always_valid_on_dgx1(pg in arb_partitioned(8), seed in any::<u64>()) {
        let topo = Topology::dgx1();
        let out = spst_plan(&pg, &topo, 4096, seed);
        prop_assert!(validate_plan(&out.plan, &pg).is_ok());
    }

    #[test]
    fn spst_cost_stays_close_to_peer_to_peer_or_better(
        pg in arb_partitioned(4),
        seed in any::<u64>(),
    ) {
        // SPST is greedy (the paper gives no optimality guarantee): on
        // adversarial random relations an early vertex's path choice can
        // cost a few percent against concurrent direct sends. It must
        // never be *much* worse, though — direct trees are always
        // available to the greedy search.
        let topo = Topology::fig6();
        let bytes = 2048u64;
        let spst = spst_plan(&pg, &topo, bytes, seed);
        let p2p = peer_to_peer(&pg).estimated_time(&topo, bytes);
        prop_assert!(spst.cost.total_time() <= p2p * 1.25 + 1e-12,
            "spst {} vs p2p {}", spst.cost.total_time(), p2p);
    }

    #[test]
    fn tables_conserve_transfers(pg in arb_partitioned(4), seed in any::<u64>()) {
        let topo = Topology::fig6();
        let out = spst_plan(&pg, &topo, 512, seed);
        let tables = SendRecvTables::from_plan(&out.plan);
        prop_assert_eq!(tables.total_send_entries(), out.plan.total_transfers());
        // Reversal conserves entries too.
        prop_assert_eq!(tables.reversed().total_send_entries(), out.plan.total_transfers());
    }

    #[test]
    fn substage_split_is_conflict_free_and_conserving(
        pg in arb_partitioned(4),
        seed in any::<u64>(),
    ) {
        let topo = Topology::fig6();
        let out = spst_plan(&pg, &topo, 512, seed);
        let backward = SendRecvTables::from_plan(&out.plan.reversed());
        let split = backward.split_substages();
        prop_assert_eq!(split.total_send_entries(), backward.total_send_entries());
        for ios in &split.per_device {
            let mut seen = std::collections::HashSet::new();
            for io in ios {
                for &v in &io.recv {
                    prop_assert!(
                        seen.insert((io.stage, io.substage, v)),
                        "vertex {} received twice in (stage {}, substage {})",
                        v, io.stage, io.substage
                    );
                }
            }
        }
    }

    #[test]
    fn plan_cost_scales_linearly_with_payload(pg in arb_partitioned(4), seed in any::<u64>()) {
        // §5.1: feature dimension rescales all link times uniformly.
        let topo = Topology::fig6();
        let out = spst_plan(&pg, &topo, 1000, seed);
        let t1 = out.plan.estimated_time(&topo, 1000);
        let t3 = out.plan.estimated_time(&topo, 3000);
        if t1 > 0.0 {
            prop_assert!((t3 / t1 - 3.0).abs() < 1e-6, "ratio {}", t3 / t1);
        }
    }

    #[test]
    fn batched_planner_plans_are_always_valid(
        pg in arb_partitioned(8),
        seed in any::<u64>(),
    ) {
        let topo = Topology::dgx1();
        let out = spst_plan_with_config(&pg, &topo, 1024, seed, SpstConfig::cached());
        prop_assert!(validate_plan(&out.plan, &pg).is_ok());
        // The commit counters partition the demand set.
        prop_assert_eq!(
            out.stats.full_searches + out.stats.cache_commits,
            out.stats.demands
        );
    }

    #[test]
    fn exact_config_matches_sequential_bit_for_bit(
        pg in arb_partitioned(4),
        seed in any::<u64>(),
    ) {
        // The determinism contract: tolerance = 0 disables the class
        // cache, not merely makes it unlikely to fire.
        let topo = Topology::fig6();
        let a = spst_plan(&pg, &topo, 512, seed);
        let b = spst_plan_with_config(&pg, &topo, 512, seed, SpstConfig::default());
        prop_assert_eq!(&a.plan.steps, &b.plan.steps);
        prop_assert_eq!(a.cost.total_time().to_bits(), b.cost.total_time().to_bits());
    }

    #[test]
    fn batched_planner_cost_stays_within_tolerance_of_sequential(
        pg in arb_partitioned(8),
        seed in any::<u64>(),
    ) {
        // Cache commits are tolerance-bounded per commit and globally
        // drift-budgeted; allow double the nominal 5% for greedy
        // trajectory divergence on adversarial random relations.
        let topo = Topology::dgx1();
        let exact = spst_plan(&pg, &topo, 1024, seed);
        let cached = spst_plan_with_config(&pg, &topo, 1024, seed, SpstConfig::cached());
        prop_assert!(
            cached.cost.total_time() <= exact.cost.total_time() * 1.10 + 1e-12,
            "cached {} vs exact {}", cached.cost.total_time(), exact.cost.total_time()
        );
    }

    #[test]
    fn reversal_is_an_involution(pg in arb_partitioned(8), seed in any::<u64>()) {
        let topo = Topology::dgx1();
        let out = spst_plan(&pg, &topo, 256, seed);
        let rr = out.plan.reversed().reversed();
        prop_assert_eq!(rr.steps, out.plan.steps);
    }
}
