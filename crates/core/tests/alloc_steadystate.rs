//! Steady-state allocation budget for the compiled collectives.
//!
//! The compiled `graph_allgather` / `scatter_backward` promise no
//! per-stage heap allocation once warm: payload and scratch buffers
//! cycle through the fabric's recycle pool, stage groups and row
//! references are precompiled, and the per-op relay/accumulator
//! `HashMap`s are gone. This test pins that with a counting global
//! allocator: after a warm-up, a window of steady-state operations must
//! stay within a small per-operation allocation budget (the returned
//! output matrices themselves), and must allocate strictly less than the
//! uncompiled reference path over the same window.
//!
//! The compiled allreduce zoo makes the same promise per `(algorithm,
//! length, chunk)` cell: a warm call looks its schedule up and builds
//! nothing — pinned here for the ring.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dgcl::collectives::AllreduceAlgo;
use dgcl::{build_comm_info, run_cluster, BuildOptions};
use dgcl_graph::Dataset;
use dgcl_tensor::Matrix;
use dgcl_topology::Topology;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Which collective implementation a measurement exercises.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Chunk-pipelined compiled path (the default `graph_allgather`).
    Pipelined,
    /// Stage-barriered compiled path.
    Barriered,
    /// Uncompiled table-walking reference.
    Reference,
    /// A ring allreduce of one fixed `RING_ROWS × 8` matrix per round (no
    /// allgather / scatter).
    RingAllreduce,
}

const RING_ROWS: usize = 512;

/// The counter and its switch are process-wide: one measurement at a time.
static WINDOW: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Allocations observed while every device runs `rounds` forward +
/// backward pairs (or ring allreduces) after `warm` unmeasured warm-up
/// rounds, using the collective implementation selected by `mode`.
fn measure(mode: Mode, warm: usize, rounds: usize) -> usize {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let graph = Dataset::WikiTalk.generate(0.0006, 5);
    let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
    let n = graph.num_vertices();
    let mut features = Matrix::zeros(n, 8);
    for v in 0..n {
        features.row_mut(v)[v % 8] = v as f32;
    }
    let per_device = info.dispatch_features(&features);
    ALLOCS.store(0, Ordering::Relaxed);
    run_cluster(&info, |handle| {
        let step = |measured: bool| -> Result<(), dgcl::RuntimeError> {
            let full = match mode {
                Mode::Pipelined => handle.graph_allgather(&per_device[handle.rank])?,
                Mode::Barriered => handle.graph_allgather_barriered(&per_device[handle.rank])?,
                Mode::Reference => handle.graph_allgather_reference(&per_device[handle.rank])?,
                Mode::RingAllreduce => {
                    let mats = vec![Matrix::full(RING_ROWS, 8, handle.rank as f32)];
                    let sum = handle.allreduce_with(AllreduceAlgo::Ring, mats)?;
                    assert_eq!(sum[0].row(0)[0], 6.0, "0 + 1 + 2 + 3");
                    return Ok(());
                }
            };
            let grads = match mode {
                Mode::Pipelined => handle.scatter_backward(&full)?,
                Mode::Barriered => handle.scatter_backward_barriered(&full)?,
                Mode::Reference => handle.scatter_backward_reference(&full)?,
                Mode::RingAllreduce => unreachable!("returned above"),
            };
            assert_eq!(grads.rows(), handle.local_graph().num_local);
            let _ = measured;
            Ok(())
        };
        for _ in 0..warm {
            step(false)?;
        }
        // Barrier: no device starts its measured window before every
        // device has finished warming (so late warm-up allocations are
        // never attributed to the steady state).
        handle.allreduce(Vec::new())?;
        COUNTING.store(true, Ordering::Relaxed);
        for _ in 0..rounds {
            step(true)?;
        }
        handle.allreduce(Vec::new())?;
        COUNTING.store(false, Ordering::Relaxed);
        Ok(())
    })
    .expect("healthy cluster");
    COUNTING.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_allgather_stays_within_allocation_budget() {
    let warm = 3;
    let rounds = 5;
    let pipelined = measure(Mode::Pipelined, warm, rounds);
    let barriered = measure(Mode::Barriered, warm, rounds);
    let reference = measure(Mode::Reference, warm, rounds);
    let devices = 4;
    let op_pairs = devices * rounds;
    // Per measured forward+backward pair a compiled path may allocate
    // the two result matrices it returns plus a small constant (ready
    // protocol, barrier bookkeeping); everything stage- and chunk-level
    // must come from the recycle pool. The budget is deliberately
    // generous — the uncompiled path blows through it by orders of
    // magnitude. Chunk pipelining must not regress the budget: every
    // per-chunk payload is checked out of and recycled back into the
    // fabric pool, and the dependency scratch is reused across ops.
    let budget = op_pairs * 8 + 64;
    eprintln!(
        "steady-state allocations: pipelined={pipelined} barriered={barriered} \
         reference={reference} budget={budget}"
    );
    assert!(
        pipelined <= budget,
        "pipelined collectives allocated {pipelined} times in {op_pairs} op pairs (budget {budget})"
    );
    assert!(
        barriered <= budget,
        "barriered collectives allocated {barriered} times in {op_pairs} op pairs (budget {budget})"
    );
    assert!(
        pipelined * 4 < reference,
        "pipelined path ({pipelined}) should allocate far less than the reference ({reference})"
    );
}

#[test]
fn warm_ring_allreduce_builds_no_schedule() {
    let (warm, rounds, devices) = (3, 5, 4);
    let ring = measure(Mode::RingAllreduce, warm, rounds);
    // A measured call allocates its input (a `Vec` holding one matrix:
    // two allocations) and nothing else: the compiled schedule is looked
    // up, not rebuilt. Building the ring's entries again costs every
    // device at least four more per call (its `RING_ROWS * 8`-long index
    // vectors and the entry list), which one spare per call cannot hide.
    let budget = devices * rounds * 3 + 8;
    eprintln!("steady-state allocations: ring allreduce={ring} budget={budget}");
    assert!(
        ring <= budget,
        "warm ring allreduce allocated {ring} times in {rounds} rounds on {devices} devices \
         (budget {budget})"
    );
}
