//! Property suite for the collective algorithm zoo.
//!
//! The zoo's contract is *bitwise* parity: flat, ring and
//! halving/doubling allreduce must each reproduce the rank-ordered fold
//! computed locally in the test exactly — same fold order up to
//! commutations IEEE-754 addition preserves — on every
//! rank, for every device count 2..=8 (including non-powers-of-two,
//! which exercise the uneven Bruck rounds), at every chunk size from
//! per-element streaming to one-chunk-per-payload. The flat broadcast
//! must deliver the root's matrix bit-for-bit.
//! None of it may depend on the tensor pool's compute-thread count or
//! on run-to-run scheduling.

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use dgcl::{
    build_comm_info, run_cluster_with, AllreduceAlgo, BuildOptions, FabricConfig, GroupSpec,
};
use dgcl_graph::Dataset;
use dgcl_tensor::{pool, Matrix, XavierInit};
use dgcl_topology::Topology;
use proptest::prelude::*;

/// Chunk sizes (in elements) the parity properties sweep: per-element
/// streaming, a small chunk, and one chunk per payload.
const CHUNK_SIZES: [usize; 3] = [1, 16, usize::MAX];

/// A mixed-shape gradient-bucket workload whose values make float
/// association matter: magnitudes spread over several orders, signs
/// mixed, and a negative zero in every rank's first matrix (the value
/// that catches zero-seeded accumulators).
fn test_mats(rank: usize) -> Vec<Matrix> {
    let shapes = [(7usize, 9usize), (1, 1), (4, 13)];
    let mut idx = 0usize;
    shapes
        .iter()
        .map(|&(r, c)| {
            let mut m = Matrix::zeros(r, c);
            for x in m.as_mut_slice() {
                let i = idx as f32;
                *x = (((rank + 1) as f32).sqrt() * (i - 7.3) + 0.01 * i)
                    * 10f32.powi((idx % 5) as i32 - 2);
                idx += 1;
            }
            if rank % 2 == 1 {
                m.as_mut_slice()[0] = -0.0;
            }
            m
        })
        .collect()
}

/// The oracle, computed locally: contributions added in rank order,
/// left-associated — the bit pattern every algorithm must hit.
fn expected_sum(devices: usize, mats_of: impl Fn(usize) -> Vec<Matrix>) -> Vec<Matrix> {
    let mut acc = mats_of(0);
    for rank in 1..devices {
        for (a, m) in acc.iter_mut().zip(mats_of(rank)) {
            a.add_assign(&m);
        }
    }
    acc
}

fn comm_info(devices: usize) -> dgcl::CommInfo {
    let graph = Dataset::WikiTalk.generate(0.0004, 1);
    build_comm_info(
        &graph,
        Topology::dgx1_subset(devices),
        BuildOptions::default(),
    )
}

fn config(chunk: usize) -> FabricConfig {
    FabricConfig {
        collective_chunk: chunk,
        ..FabricConfig::default()
    }
}

/// Runs all three allreduce algorithms in one cluster and returns the
/// per-rank results as (flat, ring, halving-doubling).
type TripleResult = Vec<(Vec<Matrix>, Vec<Matrix>, Vec<Matrix>)>;
fn run_triple(
    info: &dgcl::CommInfo,
    chunk: usize,
    mats_of: impl Fn(usize) -> Vec<Matrix> + Sync,
) -> TripleResult {
    run_cluster_with(info, config(chunk), |handle| {
        let flat = handle.allreduce_with(AllreduceAlgo::Flat, mats_of(handle.rank))?;
        let ring = handle.allreduce_with(AllreduceAlgo::Ring, mats_of(handle.rank))?;
        let hd = handle.allreduce_with(AllreduceAlgo::HalvingDoubling, mats_of(handle.rank))?;
        Ok((flat, ring, hd))
    })
    .expect("healthy cluster")
}

/// Exhaustive deterministic grid: every algorithm, every device count
/// 2..=8, every chunk size — bitwise equal to the rank-ordered fold.
#[test]
fn all_algorithms_are_bitwise_identical_across_the_grid() {
    for devices in 2..=8usize {
        let info = comm_info(devices);
        let expect = expected_sum(devices, test_mats);
        for chunk in CHUNK_SIZES {
            let results = run_triple(&info, chunk, test_mats);
            for (rank, (flat, ring, hd)) in results.iter().enumerate() {
                assert_eq!(
                    flat, &expect,
                    "rank {rank}: flat != rank-ordered fold (n={devices} chunk={chunk})"
                );
                assert_eq!(
                    ring, &expect,
                    "rank {rank}: ring != rank-ordered fold (n={devices} chunk={chunk})"
                );
                assert_eq!(
                    hd, &expect,
                    "rank {rank}: halving-doubling != rank-ordered fold (n={devices} chunk={chunk})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random data, random shapes: the three algorithms still equal the
    /// rank-ordered fold bitwise on every rank.
    #[test]
    fn algorithms_agree_on_random_data(
        devices in 2usize..=8,
        chunk_idx in 0usize..CHUNK_SIZES.len(),
        seed in 1u64..1000,
        rows in 1usize..40,
        cols in 1usize..8,
    ) {
        let chunk = CHUNK_SIZES[chunk_idx];
        let info = comm_info(devices);
        let mats_of = |rank: usize| -> Vec<Matrix> {
            let mut init = XavierInit::new(seed * 64 + rank as u64);
            vec![init.features(rows, cols), init.features(1, 1)]
        };
        let expect = expected_sum(devices, mats_of);
        let results = run_triple(&info, chunk, mats_of);
        for (rank, (flat, ring, hd)) in results.iter().enumerate() {
            prop_assert_eq!(flat, &expect, "rank {}: flat != rank-ordered fold", rank);
            prop_assert_eq!(ring, &expect, "rank {}: ring != rank-ordered fold", rank);
            prop_assert_eq!(hd, &expect, "rank {}: halving-doubling != rank-ordered fold", rank);
        }
    }
}

/// The broadcast delivers the root's matrix bit-for-bit on every rank,
/// for first and last roots across the device grid.
#[test]
fn broadcast_delivers_the_root_matrix_bitwise() {
    for devices in [2usize, 3, 5, 8] {
        let info = comm_info(devices);
        for chunk in CHUNK_SIZES {
            for root in [0, devices - 1] {
                let payload = |rank: usize| {
                    let mut m = Matrix::zeros(6, 11);
                    for (i, x) in m.as_mut_slice().iter_mut().enumerate() {
                        *x = (rank as f32 + 1.0) * (i as f32 - 31.5) * 0.125;
                    }
                    m
                };
                let results = run_cluster_with(&info, config(chunk), |handle| {
                    handle.broadcast_group(GroupSpec::all(devices), root, payload(handle.rank))
                })
                .expect("healthy cluster");
                let expect = payload(root);
                for (rank, got) in results.iter().enumerate() {
                    assert_eq!(
                        got, &expect,
                        "rank {rank}: broadcast (n={devices} root={root} chunk={chunk})"
                    );
                }
            }
        }
    }
}

/// Collective results must not depend on the tensor pool's
/// compute-thread count, nor on run-to-run thread scheduling.
#[test]
fn results_are_invariant_to_compute_threads_and_reruns() {
    // set_compute_threads is process-global; serialise against any
    // future test that also touches it.
    static THREADS: Mutex<()> = Mutex::new(());
    let _guard = THREADS.lock().unwrap();
    let info = comm_info(5);
    let before = pool::compute_threads();
    let mut runs = Vec::new();
    // `run_cluster_with` divides the process value between the 5 ranks:
    // these are per-rank budgets of 1, 4 and 4.
    for threads in [5usize, 20, 20] {
        pool::set_compute_threads(threads);
        runs.push(run_triple(&info, 16, test_mats));
    }
    pool::set_compute_threads(before);
    for run in &runs[1..] {
        assert_eq!(run.len(), runs[0].len(), "same device count across reruns");
        for (rank, (a, b)) in runs[0].iter().zip(run).enumerate() {
            assert_eq!(a, b, "rank {rank} diverged across thread counts / reruns");
        }
    }
}

/// An empty allreduce must still participate in op accounting: ops
/// after it stay aligned across ranks, whatever algorithm they use.
#[test]
fn empty_allreduce_keeps_op_ids_aligned() {
    let info = comm_info(4);
    let expect = expected_sum(4, test_mats);
    let results = run_cluster_with(&info, config(16), |handle| {
        let empty = handle.allreduce(Vec::new())?;
        assert!(empty.is_empty(), "empty in, empty out");
        // If the empty op skipped accounting on any rank, these keys
        // would no longer match across ranks and the ops would stall
        // or mispair.
        let ring = handle.allreduce_with(AllreduceAlgo::Ring, test_mats(handle.rank))?;
        let empty2 = handle.allreduce_with(AllreduceAlgo::HalvingDoubling, Vec::new())?;
        assert!(empty2.is_empty());
        let hd = handle.allreduce_with(AllreduceAlgo::HalvingDoubling, test_mats(handle.rank))?;
        Ok((ring, hd))
    })
    .expect("healthy cluster");
    for (rank, (ring, hd)) in results.iter().enumerate() {
        assert_eq!(ring, &expect, "rank {rank}: ring after empty allreduce");
        assert_eq!(
            hd, &expect,
            "rank {rank}: halving-doubling after empty allreduce"
        );
    }
}

/// An empty allreduce is a barrier under every algorithm: no rank
/// returns from it before the last rank has entered it. The last rank
/// enters about 100 ms after the others, so an empty call that returned
/// without waiting would come back long before it.
#[test]
fn empty_allreduce_waits_for_the_last_rank() {
    for devices in [2usize, 3, 4] {
        let info = comm_info(devices);
        let late = devices - 1;
        for algo in [
            AllreduceAlgo::Flat,
            AllreduceAlgo::Ring,
            AllreduceAlgo::HalvingDoubling,
        ] {
            let late_entered = OnceLock::new();
            let returned = run_cluster_with(&info, config(16), |handle| {
                if handle.rank == late {
                    std::thread::sleep(Duration::from_millis(100));
                    late_entered.set(Instant::now()).expect("one late rank");
                }
                handle.allreduce_with(algo, Vec::new())?;
                Ok(Instant::now())
            })
            .expect("healthy cluster");
            let entered = *late_entered.get().expect("the late rank entered");
            for (rank, at) in returned.iter().enumerate() {
                assert!(
                    *at >= entered,
                    "rank {rank} left the empty {algo:?} allreduce {:?} before rank {late} \
                     entered it (n={devices})",
                    entered - *at
                );
            }
        }
    }
}

/// Single-element and tiny vectors (fewer elements than devices) leave
/// some halving/doubling segments empty — both sides must skip them
/// symmetrically.
#[test]
fn tiny_vectors_with_empty_segments_stay_bitwise() {
    for devices in [3usize, 5, 8] {
        let info = comm_info(devices);
        for elems in [1usize, 2, 3] {
            let mats_of = move |rank: usize| {
                let mut m = Matrix::zeros(1, elems);
                for (i, x) in m.as_mut_slice().iter_mut().enumerate() {
                    *x = (rank as f32 - 1.5) * 0.3 + i as f32;
                }
                vec![m]
            };
            let expect = expected_sum(devices, mats_of);
            let results = run_triple(&info, 1, mats_of);
            for (rank, (flat, ring, hd)) in results.iter().enumerate() {
                assert_eq!(
                    flat, &expect,
                    "rank {rank}: flat (n={devices} elems={elems})"
                );
                assert_eq!(
                    ring, &expect,
                    "rank {rank}: ring (n={devices} elems={elems})"
                );
                assert_eq!(hd, &expect, "rank {rank}: hd (n={devices} elems={elems})");
            }
        }
    }
}
