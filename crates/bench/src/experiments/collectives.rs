//! Collectives benchmark: the cost-model autotuner against the
//! algorithm zoo.
//!
//! For each topology the paper's evaluation cares about — the NVLink
//! DGX-1, a PCIe-only host, and two IB-connected machines — this
//! experiment tunes an [`AlgorithmSelector`] offline (the same call the
//! trainer makes), then sweeps allreduce message sizes on a *finer*
//! grid than the tuner saw and records the predicted latency of the
//! tuned choice against the per-size best and worst algorithms.
//!
//! The claims checked in CI (and by the unit tests below): the tuned
//! choice is within 10% of the per-size best everywhere and strictly
//! beats the per-size worst — i.e. the selector interpolates sensibly
//! between its tuning points instead of memorising them.
//!
//! Results go to `BENCH_collectives.json`. Set `DGCL_BENCH_SMOKE=1` to
//! shrink the size grid for CI smoke runs.

use dgcl_sim::{allreduce_costs, AlgorithmSelector, AllreduceAlgo};
use dgcl_topology::Topology;

use crate::harness::{ms, obj, print_table, smoke, write_artifact, Json, RunContext};

/// Pipelining granularity in bytes: the fabric's default
/// `collective_chunk` (4096 f32 elements).
const CHUNK_BYTES: u64 = 4 * 4096;

/// One (topology, message size) cell of the sweep.
struct Record {
    topology: &'static str,
    devices: usize,
    bytes: u64,
    chosen: AllreduceAlgo,
    chosen_seconds: f64,
    best: AllreduceAlgo,
    best_seconds: f64,
    worst: AllreduceAlgo,
    worst_seconds: f64,
}

/// The three benchmark topologies: name, topology, device count.
fn topologies() -> Vec<(&'static str, Topology, usize)> {
    vec![
        ("dgx1", Topology::dgx1(), 8),
        ("pcie-host", Topology::pcie_host(8), 8),
        ("dual-machine", Topology::dgx1_pair_ib(), 16),
    ]
}

/// Message sizes swept: 4 KiB → 64 MiB at every half octave (powers of
/// two plus the `3·2^k` midpoints). The midpoints sit between the
/// tuner's grid points, so the within-10%-of-best claim exercises
/// interpolation, not table lookup.
fn sizes(smoke: bool) -> Vec<u64> {
    if smoke {
        vec![64 << 10, 96 << 10, 1 << 20, 16 << 20]
    } else {
        let mut v: Vec<u64> = Vec::new();
        for p in 12..=26u32 {
            v.push(1u64 << p);
            if p < 26 {
                v.push(3u64 << (p - 1));
            }
        }
        v.sort_unstable();
        v
    }
}

/// Sweeps one topology with a freshly tuned selector.
fn sweep(
    name: &'static str,
    topology: &Topology,
    devices: usize,
    sizes: &[u64],
) -> (AlgorithmSelector, Vec<Record>) {
    let selector = AlgorithmSelector::tune(topology, devices, CHUNK_BYTES);
    let records = sizes
        .iter()
        .map(|&bytes| {
            let costs = allreduce_costs(topology, devices, bytes, CHUNK_BYTES);
            let chosen = selector.pick(bytes);
            let chosen_seconds = costs
                .iter()
                .find(|(a, _)| *a == chosen)
                .expect("chosen algorithm is in the sweep")
                .1;
            let (best, best_seconds) = costs
                .iter()
                .copied()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty cost list");
            let (worst, worst_seconds) = costs
                .iter()
                .copied()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty cost list");
            Record {
                topology: name,
                devices,
                bytes,
                chosen,
                chosen_seconds,
                best,
                best_seconds,
                worst,
                worst_seconds,
            }
        })
        .collect();
    (selector, records)
}

pub fn run(_ctx: &mut RunContext) {
    let smoke = smoke();
    let sizes = sizes(smoke);
    let mut all: Vec<Json> = Vec::new();
    for (name, topology, devices) in topologies() {
        let (selector, records) = sweep(name, &topology, devices, &sizes);
        let rows: Vec<Vec<String>> = records
            .iter()
            .map(|r| {
                vec![
                    human_bytes(r.bytes),
                    r.chosen.name().to_string(),
                    ms(r.chosen_seconds),
                    r.best.name().to_string(),
                    ms(r.best_seconds),
                    r.worst.name().to_string(),
                    ms(r.worst_seconds),
                    format!("{:.2}", r.chosen_seconds / r.best_seconds.max(1e-12)),
                ]
            })
            .collect();
        print_table(
            &format!("Collectives: allreduce on {name} ({devices} GPUs), tuned vs best vs worst"),
            &[
                "Size",
                "Chosen",
                "ms",
                "Best",
                "ms",
                "Worst",
                "ms",
                "Chosen/Best",
            ],
            &rows,
        );
        let table: Vec<String> = selector
            .table()
            .iter()
            .map(|&(upper, algo)| format!("<={}: {}", human_bytes(upper), algo.name()))
            .collect();
        println!("  tuned table: {}", table.join(", "));
        all.extend(records.iter().map(|r| {
            obj! {
                "topology": r.topology,
                "devices": r.devices,
                "bytes": r.bytes,
                "chosen": r.chosen.name(),
                "chosen_seconds": r.chosen_seconds,
                "best": r.best.name(),
                "best_seconds": r.best_seconds,
                "worst": r.worst.name(),
                "worst_seconds": r.worst_seconds,
            }
        }));
    }
    let note = "predicted allreduce latency from the dgcl-sim cost model; \
                chosen = the offline-tuned selector's pick at each size";
    write_artifact(
        "collectives",
        "collectives",
        obj! {
            "smoke": smoke,
            "chunk_bytes": CHUNK_BYTES,
            "note": note,
            "records": all,
        },
    );
}

/// `4.0KiB` / `16.0MiB`-style size label.
fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1}MiB", bytes as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1}KiB", bytes as f64 / (1 << 10) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: on every benchmark topology, at every swept
    /// size, the tuned choice is within 10% of the per-size best and
    /// strictly beats the per-size worst.
    #[test]
    fn selector_chosen_within_10pct_of_best_and_beats_worst() {
        let sizes = sizes(false);
        for (name, topology, devices) in topologies() {
            let (_, records) = sweep(name, &topology, devices, &sizes);
            for r in &records {
                assert!(
                    r.chosen_seconds <= 1.10 * r.best_seconds,
                    "{name} @ {} bytes: chosen {} ({:.6}s) not within 10% of best {} ({:.6}s)",
                    r.bytes,
                    r.chosen.name(),
                    r.chosen_seconds,
                    r.best.name(),
                    r.best_seconds,
                );
                assert!(
                    r.chosen_seconds < r.worst_seconds,
                    "{name} @ {} bytes: chosen {} ({:.6}s) does not beat worst {} ({:.6}s)",
                    r.bytes,
                    r.chosen.name(),
                    r.chosen_seconds,
                    r.worst.name(),
                    r.worst_seconds,
                );
            }
        }
    }

    /// The zoo must actually matter: no single algorithm is chosen
    /// everywhere across the benchmark grid.
    #[test]
    fn no_single_algorithm_dominates_the_grid() {
        let sizes = sizes(false);
        let mut chosen: Vec<AllreduceAlgo> = Vec::new();
        for (name, topology, devices) in topologies() {
            let (_, records) = sweep(name, &topology, devices, &sizes);
            chosen.extend(records.iter().map(|r| r.chosen));
        }
        chosen.dedup();
        assert!(
            chosen.len() > 1,
            "one algorithm won every cell — the zoo is pointless: {chosen:?}"
        );
    }
}
