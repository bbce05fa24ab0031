//! Plan inspection: per-stage and per-link statistics.
//!
//! Useful for debugging a plan and for the utilization views a library
//! user needs when deciding whether their partition/topology pairing
//! leaves bandwidth on the table.

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
}
