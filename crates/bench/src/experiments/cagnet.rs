//! Backend crossover benchmark: SPST-planned gather vs CAGNET block
//! SpMM, and the offline [`BackendSelector`] that arbitrates between
//! them.
//!
//! For every (graph family, topology) cell the experiment partitions
//! the graph exactly as `build_comm_info` would (hierarchically), prices
//! the planned gather on the resulting communication relation, prices
//! every CAGNET replication factor that divides the device count, and
//! records which backend the selector picks. Two graph families pin the
//! two regimes:
//!
//! * **community** — `community_rmat` with strong locality. The
//!   partitioner finds the blocks, the vertex cut stays small, and the
//!   planned gather's cut-proportional volume wins.
//! * **high-cut** — Erdős–Rényi. There is no structure to find; the
//!   relation approaches a full allgather, and CAGNET's cut-oblivious
//!   `O(n·f/c)` panels win once enough devices amplify the cut.
//!
//! The claims checked in CI (and by the unit tests below): the planner
//! wins every community cell, CAGNET wins every high-cut cell at 8+
//! devices (below that the cut cannot pay for CAGNET's barriered
//! rounds), and the selector's pick is within 10% of the per-cell best
//! over the *full* replication sweep — including factors outside its
//! own `c² ≤ p` candidate set, so the bound is not true by construction.
//!
//! Results go to `BENCH_cagnet.json`. Set `DGCL_BENCH_SMOKE=1` to
//! shrink the graphs for CI smoke runs.

use dgcl_graph::generators::{community_rmat, erdos_renyi, RmatConfig};
use dgcl_graph::CsrGraph;
use dgcl_partition::hierarchical::hierarchical;
use dgcl_partition::PartitionedGraph;
use dgcl_sim::{cagnet_aggregate_cost, BackendKind, BackendSelector};
use dgcl_topology::Topology;

use crate::harness::{ms, obj, print_table, smoke, write_artifact, RunContext};

/// Embedding payload priced per vertex: 4 bytes × 64 features.
const BYTES_PER_VERTEX: u64 = 4 * 64;

/// One (graph family, topology) cell of the sweep.
struct Record {
    graph: &'static str,
    topology: &'static str,
    devices: usize,
    /// Priced cut volume of the relation, in vertices (diagnostic).
    cut_vertices: u64,
    planned_seconds: f64,
    /// Every replication factor dividing the device count, priced.
    cagnet: Vec<(usize, f64)>,
    /// The selector's verdict on the same inputs.
    chosen: BackendKind,
    chosen_seconds: f64,
}

impl Record {
    /// Cheapest CAGNET candidate over the full divisor sweep.
    fn best_cagnet(&self) -> (usize, f64) {
        self.cagnet
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("c = 1 always divides")
    }

    /// Per-cell best over both backends and the full sweep.
    fn best_seconds(&self) -> f64 {
        self.planned_seconds.min(self.best_cagnet().1)
    }
}

/// The benchmark topologies, 2 → 16 devices: flat PCIe hosts at the
/// small end, the NVLink DGX-1, and two IB-connected machines.
fn topologies() -> Vec<(&'static str, Topology, usize)> {
    vec![
        ("pcie-host-2", Topology::pcie_host(2), 2),
        ("pcie-host-4", Topology::pcie_host(4), 4),
        ("dgx1", Topology::dgx1(), 8),
        ("dual-machine", Topology::dgx1_pair_ib(), 16),
    ]
}

/// The two graph families: builders keyed by family name.
fn graphs(smoke: bool) -> Vec<(&'static str, CsrGraph)> {
    let n = if smoke { 2048 } else { 16384 };
    let edges = 8 * n;
    vec![
        (
            "community",
            community_rmat(n, edges, 16, 0.95, 0.05, RmatConfig::social(), 7),
        ),
        ("high-cut", erdos_renyi(n, edges, 7)),
    ]
}

/// Prices one cell: hierarchical partition → relation → both backends.
fn price_cell(
    graph_name: &'static str,
    graph: &CsrGraph,
    topo_name: &'static str,
    topology: &Topology,
    devices: usize,
) -> Record {
    let sizes: Vec<usize> = topology.gpus_by_machine().iter().map(|g| g.len()).collect();
    let partition = hierarchical(graph, &sizes, 42);
    let pg = PartitionedGraph::new(graph, partition, devices);
    let mut cut_vertices = 0u64;
    let demand_pairs: Vec<(usize, usize, u64)> = pg
        .demands
        .iter()
        .enumerate()
        .flat_map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(move |(j, vs)| (i, j, vs.len() as u64 * BYTES_PER_VERTEX))
        })
        .inspect(|&(_, _, bytes)| cut_vertices += bytes / BYTES_PER_VERTEX)
        .collect();
    let choice = BackendSelector::choose(
        topology,
        devices,
        graph.num_vertices(),
        BYTES_PER_VERTEX,
        &demand_pairs,
    );
    // The full sweep prices every divisor of the device count — a strict
    // superset of the selector's own candidates, so "chosen within 10%
    // of best" is a real claim about the candidate restriction.
    let cagnet: Vec<(usize, f64)> = (1..=devices)
        .filter(|&c| devices.is_multiple_of(c))
        .map(|c| {
            (
                c,
                cagnet_aggregate_cost(topology, devices, c, graph.num_vertices(), BYTES_PER_VERTEX),
            )
        })
        .collect();
    Record {
        graph: graph_name,
        topology: topo_name,
        devices,
        cut_vertices,
        planned_seconds: choice.planned_seconds,
        cagnet,
        chosen: choice.kind,
        chosen_seconds: choice.chosen_seconds(),
    }
}

/// Prices the full grid.
fn sweep(smoke: bool) -> Vec<Record> {
    let graphs = graphs(smoke);
    let mut records = Vec::new();
    for (topo_name, topology, devices) in topologies() {
        for (graph_name, graph) in &graphs {
            records.push(price_cell(graph_name, graph, topo_name, &topology, devices));
        }
    }
    records
}

pub fn run(_ctx: &mut RunContext) {
    let smoke = smoke();
    let records = sweep(smoke);
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            let (bc, bs) = r.best_cagnet();
            vec![
                r.graph.to_string(),
                format!("{} ({})", r.topology, r.devices),
                r.cut_vertices.to_string(),
                ms(r.planned_seconds),
                format!("c={bc}: {}", ms(bs)),
                r.chosen.label(),
                format!("{:.2}", r.chosen_seconds / r.best_seconds().max(1e-12)),
            ]
        })
        .collect();
    print_table(
        "CAGNET crossover: planned vs block-SpMM aggregation, per-cell selector verdicts",
        &[
            "Graph",
            "Topology",
            "Cut (vertices)",
            "Planned",
            "Best CAGNET",
            "Chosen",
            "Chosen/Best",
        ],
        &rows,
    );
    let records = records
        .iter()
        .map(|r| {
            let cagnet = r.cagnet.iter().map(|&(c, s)| obj! { "c": c, "seconds": s });
            obj! {
                "graph": r.graph,
                "topology": r.topology,
                "devices": r.devices,
                "cut_vertices": r.cut_vertices,
                "planned_seconds": r.planned_seconds,
                "cagnet": cagnet.collect::<Vec<_>>(),
                "chosen": r.chosen.label(),
                "chosen_seconds": r.chosen_seconds,
            }
        })
        .collect::<Vec<_>>();
    let note = "predicted per-layer aggregation cost from the dgcl-sim models; \
                chosen = the offline BackendSelector's verdict per cell";
    write_artifact(
        "cagnet",
        "cagnet",
        obj! {
            "smoke": smoke,
            "bytes_per_vertex": BYTES_PER_VERTEX,
            "note": note,
            "records": records,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full-size sweep is partition-dominated; price it once and
    /// share it across the three claim tests.
    fn full_sweep() -> &'static [Record] {
        static SWEEP: std::sync::OnceLock<Vec<Record>> = std::sync::OnceLock::new();
        SWEEP.get_or_init(|| sweep(false))
    }

    /// The crossover itself: locality → planner, no locality at scale →
    /// CAGNET. Priced at full size: the smoke-sized grid is barrier-
    /// dominated and the crossover only appears once volume amortises
    /// the per-round barriers.
    #[test]
    fn planner_wins_community_and_cagnet_wins_high_cut() {
        for r in full_sweep() {
            match r.graph {
                "community" => assert_eq!(
                    r.chosen,
                    BackendKind::Planned,
                    "{} on {}: planner should win a low-cut graph \
                     (planned {:.6}s vs cagnet {:.6}s)",
                    r.graph,
                    r.topology,
                    r.planned_seconds,
                    r.best_cagnet().1,
                ),
                "high-cut" if r.devices >= 8 => assert!(
                    matches!(r.chosen, BackendKind::Cagnet { .. }),
                    "{} on {}: CAGNET should win a cut-dominated graph \
                     (planned {:.6}s vs cagnet {:.6}s)",
                    r.graph,
                    r.topology,
                    r.planned_seconds,
                    r.best_cagnet().1,
                ),
                _ => {}
            }
        }
    }

    /// The acceptance gate: the selector's verdict is within 10% of the
    /// per-cell best over the full replication sweep in every cell.
    #[test]
    fn chosen_within_10pct_of_per_cell_best() {
        for r in full_sweep() {
            assert!(
                r.chosen_seconds <= 1.10 * r.best_seconds(),
                "{} on {}: chosen {} ({:.6}s) not within 10% of best ({:.6}s)",
                r.graph,
                r.topology,
                r.chosen.label(),
                r.chosen_seconds,
                r.best_seconds(),
            );
        }
    }

    /// Both backends must win somewhere, or the second backend (and the
    /// selector) would be dead weight.
    #[test]
    fn no_backend_dominates_the_grid() {
        let records = full_sweep();
        let planned = records
            .iter()
            .filter(|r| r.chosen == BackendKind::Planned)
            .count();
        assert!(
            planned > 0 && planned < records.len(),
            "one backend won every cell: {planned}/{} planned",
            records.len()
        );
    }
}
