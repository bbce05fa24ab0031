//! Every metric the benchmark reports, by name. `BENCHMARK.json` lists
//! the same names; a test keeps the two in step.

/// Which direction of change is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system sees. `bound`
/// is the share of the parent's median by which it may worsen before a
/// change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Reported by every workload, from runs with tracing off.
///
/// The driver's contract requires every workload to report every
/// end-to-end metric, so the names are roles; what fills each role on
/// each workload is fixed in `workloads.rs` and the README:
///
/// | metric | full-batch | sampled | serving |
/// |---|---|---|---|
/// | `setup_s` | `build_comm_info` | `build_comm_info` | `InferenceServer::spawn` |
/// | `op_ms` | epoch, overlap on | epoch, cache Auto | p50 latency at the light rate |
/// | `op_alt_ms` | epoch, overlap off | epoch, cache Off | p50 latency at the heavy rate |
/// | `throughput` | epochs per second, overlap on | epochs per second, cache Auto | queries per second draining the burst |
/// | `peak_rss_mb` | `VmHWM` after the timed window | same | same |
pub const E2E: &[E2eDef] = &[
    E2eDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "op_alt_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    E2eDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A single layer's metric, from the traced run. No bound.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Reported by every workload from the traced run; a metric of a layer
/// the workload bypasses reads 0.
pub const PER_LAYER: &[LayerDef] = &[
    // dgcl-partition
    lower("partition.hierarchical_ms", "ms"),
    lower("partition.relation_ms", "ms"),
    lower("partition.edge_cut", "count"),
    lower("partition.balance", "ratio"),
    lower("partition.total_demand", "count"),
    // dgcl-plan
    lower("plan.spst_ms", "ms"),
    lower("plan.cost_ms", "ms"),
    lower("plan.demands", "count"),
    lower("plan.classes", "count"),
    lower("plan.full_searches", "count"),
    lower("plan.stages", "count"),
    lower("plan.total_transfers", "count"),
    lower("plan.relay_transfers", "count"),
    lower("plan.bytes.nvlink", "B"),
    lower("plan.bytes.pcie", "B"),
    lower("plan.bytes.qpi", "B"),
    lower("plan.bytes.ib", "B"),
    lower("plan.tables_ms", "ms"),
    lower("plan.table_bytes", "B"),
    // dgcl::schedule / pipeline / featcache / collectives, offline half
    lower("core.backend_choose_ms", "ms"),
    lower("core.cagnet_blocks_ms", "ms"),
    lower("core.schedule_compile_ms", "ms"),
    lower("core.pipeline_compile_ms", "ms"),
    lower("core.pipeline_chunks", "count"),
    lower("core.cache_score_ms", "ms"),
    lower("core.allreduce_tune_ms", "ms"),
    // dgcl::runtime + dgcl::fabric
    lower("runtime.gather_ms", "ms"),
    lower("runtime.gather_ms.l0", "ms"),
    lower("runtime.gather_ms.l1", "ms"),
    lower("runtime.scatter_ms", "ms"),
    lower("runtime.scatter_ms.l0", "ms"),
    lower("runtime.scatter_ms.l1", "ms"),
    lower("runtime.allreduce_ms", "ms"),
    lower("runtime.wait_ms", "ms"),
    lower("runtime.comm_share", "ratio"),
    lower("runtime.collective_calls", "count"),
    lower("runtime.wire_bytes_fwd", "B"),
    lower("runtime.wire_bytes_bwd", "B"),
    lower("runtime.allreduce_bytes", "B"),
    lower("runtime.wire_mb_per_epoch", "MB"),
    lower("runtime.exchange_rows_us", "us"),
    lower("fabric.pool_bufs", "count"),
    lower("fabric.pool_bytes", "B"),
    // dgcl::overlap
    higher("overlap.gain", "ratio"),
    // dgcl-gnn
    lower("gnn.agg_fwd_ms", "ms"),
    lower("gnn.agg_fwd_ms.l0", "ms"),
    lower("gnn.agg_fwd_ms.l1", "ms"),
    lower("gnn.agg_bwd_ms", "ms"),
    lower("gnn.agg_bwd_ms.l0", "ms"),
    lower("gnn.agg_bwd_ms.l1", "ms"),
    lower("gnn.dense_fwd_ms", "ms"),
    lower("gnn.dense_bwd_ms", "ms"),
    lower("gnn.loss_ms", "ms"),
    lower("gnn.step_ms", "ms"),
    lower("gnn.single_epoch_ms", "ms"),
    // dgcl-tensor
    lower("tensor.agg_fwd_solo_ms", "ms"),
    lower("tensor.dense_bwd_solo_ms", "ms"),
    // dgcl-graph + dgcl::sampling + dgcl::featcache
    lower("graph.sample_blocks_us", "us"),
    lower("sampling.gather_plan_us", "us"),
    lower("sampling.batches_per_epoch", "count"),
    lower("sampling.other_ms", "ms"),
    lower("featcache.build_ms", "ms"),
    higher("featcache.capacity_rows", "count"),
    higher("featcache.hit_rate", "ratio"),
    lower("featcache.bytes_fetched", "B"),
    higher("featcache.bytes_saved", "B"),
    higher("featcache.gain", "ratio"),
    // dgcl::serving + dgcl-graph
    lower("serving.spawn_ms", "ms"),
    lower("serving.closed_loop_us", "us"),
    lower("serving.p50_ms_light", "ms"),
    lower("serving.p99_ms_light", "ms"),
    lower("serving.p50_ms_heavy", "ms"),
    lower("serving.p99_ms_heavy", "ms"),
    higher("serving.sat_qps", "1/s"),
    higher("serving.mean_batch_light", "count"),
    higher("serving.mean_batch_heavy", "count"),
    lower("serving.flushes_heavy", "count"),
    lower("serving.slo_miss_frac_heavy", "ratio"),
    lower("serving.gen_late_max_ms", "ms"),
    lower("graph.khop_sparse_us", "us"),
    // dgcl-sim
    lower("sim.epoch_ms", "ms"),
    lower("sim.comm_ms", "ms"),
    lower("sim.compute_ms", "ms"),
    lower("sim.p2p_epoch_ms", "ms"),
    higher("sim.dgcl_vs_p2p", "ratio"),
    higher("sim.overlap_gain", "ratio"),
    lower("sim.ratio", "ratio"),
    // allocator
    lower("alloc.count_per_epoch", "count"),
    lower("alloc.bytes_per_epoch", "B"),
    // the trace itself
    lower("trace.epoch_ms", "ms"),
    lower("trace.overhead_frac", "ratio"),
    higher("trace.epoch_attributed_frac", "ratio"),
    lower("trace.setup_unattributed_frac", "ratio"),
];

/// Per-layer metrics that are computed, not timed, and so repeat exactly
/// for one seed: `--compare` holds them to a bound of 0 when both records
/// ran the same seed. They are the issue's `plan_cost_ms`, `sim_epoch_ms`
/// and `wire_mb_per_epoch`.
pub const EXACT_PER_SEED: &[&str] = &["plan.cost_ms", "sim.epoch_ms", "runtime.wire_mb_per_epoch"];

pub fn e2e(name: &str) -> Option<&'static E2eDef> {
    E2E.iter().find(|d| d.name == name)
}

pub fn layer(name: &str) -> Option<&'static LayerDef> {
    PER_LAYER.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{parse, Value};

    fn names_of(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        let doc = parse(include_str!("../../../../../../BENCHMARK.json")).expect("valid JSON");
        let e2e: Vec<_> = E2E
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect();
        assert_eq!(names_of(&doc, "end_to_end"), e2e);
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect();
        assert_eq!(names_of(&doc, "per_layer"), per_layer);
        for (m, d) in doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end")
            .iter()
            .zip(E2E)
        {
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(d.bound));
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let specs: Vec<&str> = crate::workloads::ALL.iter().map(|s| s.name).collect();
        assert_eq!(workloads, specs);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in E2E
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
        {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && E2E.len() <= 16);
        assert!(E2E.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(E2E.iter().all(|d| d.bound <= 0.25));
        assert!(EXACT_PER_SEED.iter().all(|n| layer(n).is_some()));
    }
}
