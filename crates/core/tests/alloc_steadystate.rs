//! Steady-state allocation budget for the compiled collectives.
//!
//! The compiled `graph_allgather` / `scatter_backward` promise no
//! per-stage heap allocation once warm: payload and scratch buffers
//! cycle through the fabric's recycle pool, stage groups and row
//! references are precompiled, and the per-op relay/accumulator
//! `HashMap`s are gone. This test pins that with a counting global
//! allocator: after a warm-up, a window of steady-state operations must
//! stay within a small per-operation allocation budget (the returned
//! output matrices themselves) at the default chunk size and at one
//! chunk per entry (`chunk_rows = usize::MAX`, one message per (stage,
//! substage, peer)), and must allocate strictly less than the uncompiled
//! reference path over the same window.
//!
//! The compiled allreduce zoo makes the same promise per `(algorithm,
//! length, chunk)` cell: a warm call looks its schedule up and builds
//! nothing — pinned here for the ring.
//!
//! The finite-fanout sampled step is pinned too, at what it allocates
//! today: its plans, gathered matrices and activations are not pooled yet
//! (ROADMAP item 8), so the budget is a ratchet, not zero.
//!
//! A warm full-batch epoch is pinned in bytes: layer 0's aggregate of the
//! raw features never changes, so no epoch may copy it, and what an epoch
//! allocates per rank stays below the size of one. Its bytes and
//! allocation count per rank are also a ratchet at today's reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dgcl::collectives::AllreduceAlgo;
use dgcl::sampling::SamplingConfig;
use dgcl::trainer::{train_distributed, TrainConfig};
use dgcl::{build_comm_info, run_cluster, BuildOptions, CommInfo};
use dgcl_gnn::Architecture;
use dgcl_graph::{CsrGraph, Dataset};
use dgcl_tensor::{pool, Matrix, XavierInit};
use dgcl_topology::Topology;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// Counts one allocation of `size` bytes while the window is open.
fn count(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
    /// The compiled path (`graph_allgather`) on a build with this many
    /// rows per chunk.
    Pipelined(usize),
    /// Uncompiled table-walking reference.
    Reference,
    /// A ring allreduce of one fixed `RING_ROWS × 8` matrix per round (no
    /// allgather / scatter).
    RingAllreduce,
    /// Finite-fanout sampled training, a round being one epoch of
    /// [`BLOCK_BATCHES`] steps (sample, plan, feature exchange, forward,
    /// backward, allreduce) through `train_distributed`.
    BlockStep,
    /// Full-batch GCN training over [`FULL_FIN`]-wide features, a round
    /// being one epoch through `train_distributed`.
    FullBatch,
}

const RING_ROWS: usize = 512;
const BLOCK_BATCHES: usize = 8;
/// Input width of the full-batch mode: as wide as the `fullbatch-halo`
/// benchmark's features.
const FULL_FIN: usize = 128;

/// What a measurement window allocated.
#[derive(Clone, Copy, Debug)]
struct Window {
    allocs: usize,
    bytes: usize,
}

/// The counter and its switch are process-wide: one measurement at a time.
static WINDOW: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Allocations observed while every device runs `rounds` forward +
/// backward pairs (or ring allreduces) after `warm` unmeasured warm-up
/// rounds, using the collective implementation selected by `mode`.
///
/// The process thread count is set to the device count for the window,
/// so every rank counts at kernel budget 1 on any host: each scoped
/// worker a kernel spawns is an allocation, and how many it spawns must
/// not depend on the machine's core count.
fn measure(mode: Mode, warm: usize, rounds: usize) -> Window {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let graph = Dataset::WikiTalk.generate(0.0006, 5);
    let mut options = BuildOptions::default();
    if let Mode::Pipelined(chunk_rows) = mode {
        options.chunk_rows = chunk_rows;
    }
    let info = build_comm_info(&graph, Topology::fig6(), options);
    let before = pool::compute_threads();
    pool::set_compute_threads(info.num_devices());
    let allocs = measure_on(&info, &graph, mode, warm, rounds);
    pool::set_compute_threads(before);
    allocs
}

/// [`measure`]'s window on a built `info` over `graph`.
fn measure_on(info: &CommInfo, graph: &CsrGraph, mode: Mode, warm: usize, rounds: usize) -> Window {
    let n = graph.num_vertices();
    if matches!(mode, Mode::BlockStep | Mode::FullBatch) {
        // No handle to warm up behind: a `2 · rounds`-epoch run minus a
        // `rounds`-epoch run cancels what a run allocates once (threads,
        // caches, pools growing to their high-water mark, each rank's
        // feature rows, layer 0's aggregate) and leaves `rounds` epochs of
        // warm steps. What a `CommInfo` memoizes on first use (the
        // allreduce tuning) is paid by an unmeasured run first, or the
        // short run pays it and the difference hides the steps it should
        // count.
        let mut init = XavierInit::new(5);
        let fin = if mode == Mode::FullBatch { FULL_FIN } else { 8 };
        let (features, targets) = (init.features(n, fin), init.features(n, 4));
        let batch = n.div_ceil(BLOCK_BATCHES);
        assert_eq!(n.div_ceil(batch), BLOCK_BATCHES);
        let run = |epochs: usize| {
            let mut cfg = TrainConfig::new(Architecture::Gcn, &[fin, 6, 4], epochs);
            if mode == Mode::BlockStep {
                cfg.sampling = Some(SamplingConfig::new(batch, vec![Some(4), Some(4)]));
            }
            ALLOCS.store(0, Ordering::Relaxed);
            BYTES.store(0, Ordering::Relaxed);
            COUNTING.store(true, Ordering::Relaxed);
            train_distributed(info, graph, &features, &targets, &cfg).expect("healthy cluster");
            COUNTING.store(false, Ordering::Relaxed);
            Window {
                allocs: ALLOCS.load(Ordering::Relaxed),
                bytes: BYTES.load(Ordering::Relaxed),
            }
        };
        run(1);
        let short = run(rounds);
        let long = run(2 * rounds);
        assert!(
            long.allocs > short.allocs && long.bytes > short.bytes,
            "{} epochs allocated {long:?}, {rounds} allocated {short:?}: \
             the difference counts no step",
            2 * rounds
        );
        return Window {
            allocs: long.allocs - short.allocs,
            bytes: long.bytes - short.bytes,
        };
    }
    let mut features = Matrix::zeros(n, 8);
    for v in 0..n {
        features.row_mut(v)[v % 8] = v as f32;
    }
    let per_device = info.dispatch_features(&features);
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    run_cluster(info, |handle| {
        let step = |measured: bool| -> Result<(), dgcl::RuntimeError> {
            let full = match mode {
                Mode::Pipelined(_) => handle.graph_allgather(&per_device[handle.rank])?,
                Mode::Reference => handle.graph_allgather_reference(&per_device[handle.rank])?,
                Mode::RingAllreduce => {
                    let mats = vec![Matrix::full(RING_ROWS, 8, handle.rank as f32)];
                    let sum = handle.allreduce_with(AllreduceAlgo::Ring, mats)?;
                    assert_eq!(sum[0].row(0)[0], 6.0, "0 + 1 + 2 + 3");
                    return Ok(());
                }
                Mode::BlockStep | Mode::FullBatch => {
                    unreachable!("measured through train_distributed")
                }
            };
            let grads = match mode {
                Mode::Pipelined(_) => handle.scatter_backward(&full)?,
                Mode::Reference => handle.scatter_backward_reference(&full)?,
                Mode::RingAllreduce | Mode::BlockStep | Mode::FullBatch => {
                    unreachable!("returned above")
                }
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
    Window {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

#[test]
fn steady_state_allgather_stays_within_allocation_budget() {
    let warm = 3;
    let rounds = 5;
    let default_chunk = BuildOptions::default().chunk_rows;
    let pipelined = measure(Mode::Pipelined(default_chunk), warm, rounds).allocs;
    let one_chunk = measure(Mode::Pipelined(usize::MAX), warm, rounds).allocs;
    let reference = measure(Mode::Reference, warm, rounds).allocs;
    let devices = 4;
    let op_pairs = devices * rounds;
    // Per measured forward+backward pair a compiled path may allocate
    // the two result matrices it returns plus a small constant; every
    // payload, the closing barrier's included, and everything stage- and
    // chunk-level must come from the recycle pool. The budget is deliberately
    // generous — the uncompiled path blows through it by orders of
    // magnitude. Chunk pipelining must not regress the budget: every
    // per-chunk payload is checked out of and recycled back into the
    // fabric pool, and the dependency scratch is reused across ops.
    let budget = op_pairs * 8 + 64;
    eprintln!(
        "steady-state allocations: pipelined={pipelined} one-chunk={one_chunk} \
         reference={reference} budget={budget}"
    );
    assert!(
        pipelined <= budget,
        "pipelined collectives allocated {pipelined} times in {op_pairs} op pairs (budget {budget})"
    );
    assert!(
        one_chunk <= budget,
        "one-chunk-per-entry collectives allocated {one_chunk} times in {op_pairs} op pairs \
         (budget {budget})"
    );
    assert!(
        pipelined * 4 < reference,
        "pipelined path ({pipelined}) should allocate far less than the reference ({reference})"
    );
}

#[test]
fn warm_ring_allreduce_builds_no_schedule() {
    let (warm, rounds, devices) = (3, 5, 4);
    let ring = measure(Mode::RingAllreduce, warm, rounds).allocs;
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

#[test]
fn warm_block_step_stays_within_allocation_budget() {
    let (devices, epochs) = (4, 3);
    let allocs = measure(Mode::BlockStep, 0, epochs).allocs;
    let per_step = allocs as f64 / (devices * epochs * BLOCK_BATCHES) as f64;
    // Measured 53.6–53.8 per rank-step in debug and release, + 5 % (57.7
    // while each layer's product, bias add and activation were separate
    // matrices; 93.1 when every rank sampled every owner's chain in full;
    // 192 for the owner-computes step before that). Every step fetches on its rank's own thread, so no
    // worker timing moves the count; its messages are pooled fabric
    // payloads, its peer walks reuse the pool's scratch and one list per
    // peer, and at kernel budget 1 no kernel spawns a scoped worker. What
    // is left is an allocation per plan, matrix and activation of the
    // step; pooling those is ROADMAP item 8.
    let budget = 56.5;
    eprintln!("steady-state allocations: block step={per_step:.1} per rank-step, budget={budget}");
    assert!(
        per_step <= budget,
        "a warm block step allocated {per_step:.1} times per rank (budget {budget})"
    );
}

#[test]
fn warm_full_batch_epoch_allocates_less_than_one_input_aggregate() {
    let epochs = 3;
    let window = measure(Mode::FullBatch, 0, epochs);
    let graph = Dataset::WikiTalk.generate(0.0006, 5);
    let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
    let devices = info.num_devices();
    let per_rank_epoch = window.bytes as f64 / (devices * epochs) as f64;
    let allocs_per_rank_epoch = window.allocs as f64 / (devices * epochs) as f64;
    // One layer-0 aggregate per rank: `num_local x FULL_FIN` floats.
    let aggregate = (0..devices)
        .map(|d| info.pg.local[d].len() * FULL_FIN * 4)
        .sum::<usize>() as f64
        / devices as f64;
    eprintln!(
        "steady-state full-batch epoch: {per_rank_epoch:.0} B and {allocs_per_rank_epoch:.1} \
         allocations per rank, layer-0 aggregate {aggregate:.0} B"
    );
    assert!(
        per_rank_epoch < aggregate,
        "a warm full-batch epoch allocated {per_rank_epoch:.0} B per rank, at least one \
         {aggregate:.0} B layer-0 aggregate: the constant aggregate is being copied"
    );
    // Measured 112.5–117.4 KB and 31.8–32.3 allocations per rank-epoch in
    // debug and release, + 5 % (140.7–143.7 KB and 35.8–36.0 while each
    // layer's product, bias add and activation were separate matrices).
    // The reading moves by a few KB from run to run with how the ranks'
    // messages meet the fabric's recycle pool.
    let (byte_budget, alloc_budget) = (123_300.0, 34.0);
    assert!(
        per_rank_epoch <= byte_budget && allocs_per_rank_epoch <= alloc_budget,
        "a warm full-batch epoch allocated {per_rank_epoch:.0} B in {allocs_per_rank_epoch:.1} \
         allocations per rank (budget {byte_budget} B, {alloc_budget})"
    );
}
