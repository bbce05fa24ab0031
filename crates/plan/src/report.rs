//! Plan inspection: per-stage and per-link statistics, human-readable
//! dumps.
//!
//! Useful for debugging a plan, for the ablation benches, and for the
//! utilization views a library user needs when deciding whether their
//! partition/topology pairing leaves bandwidth on the table.

use dgcl_topology::{LinkKind, Topology};

use crate::plan::CommPlan;

/// Aggregate statistics of one communication plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStats {
    /// Number of stages.
    pub num_stages: usize,
    /// Batched transfers (steps).
    pub num_steps: usize,
    /// Total vertex embeddings moved (relays counted per hop).
    pub total_transfers: usize,
    /// Distinct vertices moved at least once.
    pub distinct_vertices: usize,
    /// Transfers that are relays (beyond the first hop of a vertex).
    pub relay_transfers: usize,
    /// Per stage: number of steps and vertex transfers.
    pub per_stage: Vec<(usize, usize)>,
    /// Bytes per physical-connection kind for a 1-byte payload (multiply
    /// by the embedding size for real volumes).
    pub volume_by_kind: Vec<(LinkKind, u64)>,
}

/// Computes [`PlanStats`] for a plan on its topology.
pub fn plan_stats(plan: &CommPlan, topology: &Topology) -> PlanStats {
    let mut per_stage = vec![(0usize, 0usize); plan.num_stages];
    let mut seen = std::collections::HashSet::new();
    let mut relay_transfers = 0usize;
    for step in &plan.steps {
        let slot = &mut per_stage[step.stage];
        slot.0 += 1;
        slot.1 += step.vertices.len();
        for &v in &step.vertices {
            if !seen.insert(v) {
                relay_transfers += 1;
            }
        }
    }
    let cost = plan.evaluate(topology, 1);
    PlanStats {
        num_stages: plan.num_stages,
        num_steps: plan.steps.len(),
        total_transfers: plan.total_transfers(),
        distinct_vertices: seen.len(),
        relay_transfers,
        per_stage,
        volume_by_kind: cost.volume_by_kind(topology),
    }
}

/// Renders a plan as readable text: one line per step with its physical
/// route, grouped by stage.
pub fn render_plan(plan: &CommPlan, topology: &Topology) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "plan: {} gpus, {} stages, {} steps, {} transfers",
        plan.num_gpus,
        plan.num_stages,
        plan.steps.len(),
        plan.total_transfers()
    );
    for stage in 0..plan.num_stages {
        let _ = writeln!(out, "stage {stage}:");
        for step in plan.stage_steps(stage) {
            let kinds: Vec<&str> = topology
                .route(step.src, step.dst)
                .hops
                .iter()
                .map(|h| topology.conn(h.conn).kind.label())
                .collect();
            let _ = writeln!(
                out,
                "  gpu{} -> gpu{}: {} vertices via [{}]",
                step.src,
                step.dst,
                step.vertices.len(),
                kinds.join("-")
            );
        }
    }
    out
}

/// Renders [`PlannerStats`](crate::spst::PlannerStats) as a one-glance
/// summary: how the batched fast path resolved each demand and how well
/// the demand-class cache held up.
pub fn render_planner_stats(stats: &crate::spst::PlannerStats) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let pct = |n: usize| {
        if stats.demands == 0 {
            0.0
        } else {
            100.0 * n as f64 / stats.demands as f64
        }
    };
    let _ = writeln!(
        out,
        "planner: {} demands in {} classes",
        stats.demands, stats.classes
    );
    let _ = writeln!(
        out,
        "  cache commits:       {:>8} ({:.1}%)",
        stats.cache_commits,
        pct(stats.cache_commits)
    );
    let _ = writeln!(
        out,
        "  speculative commits: {:>8} ({:.1}%)",
        stats.speculative_commits,
        pct(stats.speculative_commits)
    );
    let _ = writeln!(
        out,
        "  full searches:       {:>8} ({:.1}%, of which {} re-plans)",
        stats.full_searches,
        pct(stats.full_searches),
        stats.replans
    );
    let _ = writeln!(
        out,
        "  cache misses: {} stale, {} over-tolerance",
        stats.cache_stale, stats.cache_rejected
    );
    let _ = writeln!(out, "  speculative batches: {}", stats.batches);
    let _ = writeln!(
        out,
        "  search work: {} states expanded, {} weights priced",
        stats.states_expanded, stats.weight_evals
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CommPlan;
    use dgcl_topology::Topology;

    fn sample_plan() -> CommPlan {
        CommPlan::from_edges(4, vec![(0, 0, 1, 0), (1, 0, 2, 0), (0, 1, 3, 1)])
    }

    #[test]
    fn stats_count_relays() {
        let topo = Topology::fig6();
        let stats = plan_stats(&sample_plan(), &topo);
        assert_eq!(stats.num_stages, 2);
        assert_eq!(stats.num_steps, 3);
        assert_eq!(stats.total_transfers, 3);
        assert_eq!(stats.distinct_vertices, 2);
        assert_eq!(stats.relay_transfers, 1);
        assert_eq!(stats.per_stage, vec![(2, 2), (1, 1)]);
    }

    #[test]
    fn volumes_attribute_to_link_kinds() {
        let topo = Topology::fig6();
        let stats = plan_stats(&sample_plan(), &topo);
        let total: u64 = stats.volume_by_kind.iter().map(|(_, v)| v).sum();
        // Each unit transfer contributes one byte per hop of its route.
        assert!(total >= 3);
    }

    #[test]
    fn planner_stats_render_partitions_demands() {
        let stats = crate::spst::PlannerStats {
            demands: 100,
            classes: 10,
            full_searches: 20,
            cache_commits: 50,
            speculative_commits: 30,
            replans: 5,
            cache_stale: 3,
            cache_rejected: 2,
            batches: 4,
            states_expanded: 700,
            weight_evals: 900,
        };
        let text = render_planner_stats(&stats);
        assert!(text.contains("700 states expanded, 900 weights priced"));
        assert!(text.contains("100 demands in 10 classes"));
        assert!(text.contains("50 (50.0%)"));
        assert!(text.contains("of which 5 re-plans"));
        assert!(text.contains("3 stale, 2 over-tolerance"));
    }

    #[test]
    fn planner_stats_render_handles_empty_plan() {
        let text = render_planner_stats(&crate::spst::PlannerStats::default());
        assert!(text.contains("0 demands"));
        assert!(text.contains("(0.0%)"));
    }

    #[test]
    fn render_contains_routes() {
        let topo = Topology::fig6();
        let text = render_plan(&sample_plan(), &topo);
        assert!(text.contains("stage 0:"));
        assert!(text.contains("gpu0 -> gpu1"));
        assert!(text.contains("NV1"));
    }
}
