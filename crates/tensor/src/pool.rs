//! The compute worker pool: deterministic row-range parallelism for the
//! dense and sparse kernels of the training hot path.
//!
//! The pool spawns workers with `std::thread::scope`, so borrowed
//! inputs flow into workers without `Arc` plumbing and every worker is
//! joined before the kernel returns.
//!
//! # Determinism contract
//!
//! Work is split into *fixed-size row chunks* ([`CHUNK_ROWS`]) whose
//! boundaries depend only on the output shape — never on the thread
//! count — and every output row is written by exactly one chunk, in the
//! same inner loop order the sequential kernel uses. Each output element
//! therefore sees an identical sequence of floating-point operations at
//! every thread count, making kernel results *bitwise identical* for
//! `threads = 1, 2, 4, …` (property-tested in
//! `tests/compute_engine.rs`). Parallelism changes wall-clock only.
//! [`par_row_runs`] hands a worker its whole run of chunks at once, whose
//! boundaries do move with the count; a kernel on it computes every row
//! on its own, so the same holds.
//!
//! # Thread budget
//!
//! A kernel's worker count is decided in one place and read from two
//! levels. The *process* value ([`set_compute_threads`], else the
//! machine's `available_parallelism` clamped to 8) is what single-device
//! training, the serving batcher and every kernel outside a cluster see.
//! A distributed run's rank threads share those cores, so
//! `dgcl::run_cluster_with` divides the process value by the rank count
//! and hands each rank thread `max(1, process / ranks)` through
//! [`set_thread_budget`]; [`compute_threads`] reads that per-thread
//! budget first. At budget 1 every kernel takes [`par_row_chunks`]'s
//! inline path, so ranks no longer spawn scoped workers that time-slice
//! against each other. The kernels read [`compute_threads`] through the
//! spawn gate [`workers_for`] and take no count: a test picks one by
//! setting its own thread's budget. By the determinism contract the
//! budget moves wall-clock only.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Rows per work chunk. Fixed so chunk boundaries are a function of the
/// output shape only (see the determinism contract above).
pub const CHUNK_ROWS: usize = 16;

/// [`workers_for`]'s minimum for the matmuls, in multiply-adds.
pub const DENSE_WORK_MIN: usize = 1 << 16;

/// [`workers_for`]'s minimum for the SpMMs (stored entries × row width)
/// and `Matrix::transpose` (elements).
pub const SPARSE_WORK_MIN: usize = 1 << 15;

/// `0` means "resolve from the machine" (see [`compute_threads`]).
static COMPUTE_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The machine value, resolved once: `available_parallelism` reads the
/// cgroup files on every call (tens of microseconds and a few heap
/// allocations), too much for a per-kernel default.
static MACHINE_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// This thread's kernel budget; `0` means unset (use the process value).
    static THREAD_BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// Sets the process worker count: what the kernels use on every thread
/// without a budget of its own ([`set_thread_budget`]). `0` restores the
/// default (`available_parallelism`, clamped to 8 like the planner tier).
/// A distributed run divides this value between its rank threads.
pub fn set_compute_threads(threads: usize) {
    COMPUTE_THREADS.store(threads, Ordering::SeqCst);
}

/// Sets the calling thread's kernel budget, which [`compute_threads`]
/// returns on this thread in place of the process value. `0` clears it.
/// `dgcl::run_cluster_with` sets it on each rank thread to
/// `max(1, compute_threads() / ranks)`.
pub fn set_thread_budget(threads: usize) {
    THREAD_BUDGET.with(|b| b.set(threads));
}

/// The worker count the parallel kernels use by default: the calling
/// thread's budget if one is set ([`set_thread_budget`]), else the
/// process value ([`set_compute_threads`], else the machine's
/// `available_parallelism` clamped to 8).
pub fn compute_threads() -> usize {
    let budget = THREAD_BUDGET.with(Cell::get);
    if budget > 0 {
        return budget;
    }
    match COMPUTE_THREADS.load(Ordering::SeqCst) {
        0 => *MACHINE_THREADS.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 8)
        }),
        n => n,
    }
}

/// The spawn gate: one worker for a kernel of `work` units below `min`,
/// where the spawn would cost more than it saves, else `threads`. Gating
/// changes scheduling only, never results.
pub fn workers_for(work: usize, min: usize, threads: usize) -> usize {
    if work < min {
        1
    } else {
        threads
    }
}

/// Splits `out` (a row-major `rows x cols` buffer) into fixed
/// [`CHUNK_ROWS`]-row chunks and runs `body(first_row, chunk)` for every
/// chunk, distributing contiguous runs of chunks over at most `threads`
/// scoped workers. With one effective worker the chunks run inline on the
/// caller's thread — no spawning, no allocation.
///
/// `body` must compute each chunk independently of every other chunk (it
/// receives disjoint `&mut` windows, so the borrow checker enforces the
/// writes; reads of shared inputs are the caller's contract).
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `cols` (when `cols > 0`) or
/// if a worker panics.
pub fn par_row_chunks<F>(threads: usize, out: &mut [f32], cols: usize, body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    par_row_runs(threads, out, cols, |first_row, run| {
        for (c, chunk) in run.chunks_mut(CHUNK_ROWS * cols).enumerate() {
            body(first_row + c * CHUNK_ROWS, chunk);
        }
    });
}

/// [`par_row_chunks`] for a kernel that walks a worker's rows together:
/// `body(first_row, run)` runs once per worker on its contiguous run of
/// whole [`CHUNK_ROWS`]-row chunks (the last may be short), and once on
/// the whole buffer when one worker runs inline.
///
/// Run boundaries depend on the worker count, so `body` must compute each
/// row independently of which other rows share its run; only then are
/// the results the same at every count.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `cols` (when `cols > 0`) or
/// if a worker panics.
pub fn par_row_runs<F>(threads: usize, out: &mut [f32], cols: usize, body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() || cols == 0 {
        return;
    }
    assert_eq!(out.len() % cols, 0, "buffer is not a whole number of rows");
    let chunk_len = CHUNK_ROWS * cols;
    let num_chunks = out.len().div_ceil(chunk_len);
    let workers = threads.max(1).min(num_chunks);
    if workers <= 1 {
        body(0, out);
        return;
    }
    // Contiguous runs of chunks per worker: worker w takes chunks
    // [w * per, (w + 1) * per). The chunk boundaries are identical at
    // every count; the run boundaries are not, which `body`'s per-row
    // independence makes a matter of scheduling only.
    let per = num_chunks.div_ceil(workers);
    let body = &body;
    std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(workers);
        let mut rest = out;
        let mut first_row = 0usize;
        while !rest.is_empty() {
            let take = (per * chunk_len).min(rest.len());
            let (run, tail) = rest.split_at_mut(take);
            rest = tail;
            let start = first_row;
            joins.push(scope.spawn(move || body(start, run)));
            first_row += take / cols;
        }
        for join in joins {
            join.join().expect("compute pool worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_row_once() {
        for &threads in &[1usize, 2, 3, 8] {
            let rows = 67;
            let cols = 3;
            let mut out = vec![0.0f32; rows * cols];
            par_row_chunks(threads, &mut out, cols, |first_row, chunk| {
                for (i, row) in chunk.chunks_mut(cols).enumerate() {
                    for x in row.iter_mut() {
                        *x += (first_row + i) as f32 + 1.0;
                    }
                }
            });
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(out[r * cols + c], r as f32 + 1.0, "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn runs_are_whole_chunks_covering_every_row_once() {
        for &threads in &[1usize, 2, 3, 8] {
            let (rows, cols) = (67, 3);
            let mut out = vec![0.0f32; rows * cols];
            let runs = std::sync::Mutex::new(Vec::new());
            par_row_runs(threads, &mut out, cols, |first_row, run| {
                runs.lock().unwrap().push((first_row, run.len() / cols));
                for (i, row) in run.chunks_mut(cols).enumerate() {
                    row.fill((first_row + i) as f32 + 1.0);
                }
            });
            let mut runs = runs.into_inner().unwrap();
            runs.sort_unstable();
            assert!(runs.len() <= threads, "one run per worker at most");
            for (w, &(first_row, len)) in runs.iter().enumerate() {
                assert_eq!(first_row % CHUNK_ROWS, 0, "threads {threads}");
                if w + 1 < runs.len() {
                    assert_eq!(len % CHUNK_ROWS, 0, "threads {threads}");
                    assert_eq!(first_row + len, runs[w + 1].0, "threads {threads}");
                }
            }
            for (r, row) in out.chunks(cols).enumerate() {
                assert!(
                    row.iter().all(|&x| x == r as f32 + 1.0),
                    "threads {threads}"
                );
            }
        }
    }

    #[test]
    fn the_gate_opens_at_its_minimum() {
        for min in [DENSE_WORK_MIN, SPARSE_WORK_MIN] {
            assert_eq!(workers_for(min - 1, min, 4), 1, "min {min}");
            assert_eq!(workers_for(min, min, 4), 4, "min {min}");
        }
        assert_eq!((DENSE_WORK_MIN, SPARSE_WORK_MIN), (65_536, 32_768));
    }

    #[test]
    fn empty_buffer_is_a_no_op() {
        let mut out: Vec<f32> = Vec::new();
        par_row_chunks(4, &mut out, 5, |_, _| panic!("must not run"));
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn ragged_buffer_is_rejected() {
        let mut out = vec![0.0f32; 7];
        par_row_chunks(2, &mut out, 3, |_, _| {});
    }

    /// The process value is global: one test touching it at a time.
    static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn global_thread_setting_round_trips() {
        let _global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let before = compute_threads();
        set_compute_threads(3);
        assert_eq!(compute_threads(), 3);
        set_compute_threads(0);
        assert!(compute_threads() >= 1);
        set_compute_threads(before);
    }

    #[test]
    fn thread_budget_is_per_thread_and_read_first() {
        let _global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let before = compute_threads();
        std::thread::scope(|s| {
            s.spawn(|| {
                set_thread_budget(3);
                assert_eq!(compute_threads(), 3, "the budget is read first");
                set_thread_budget(0);
                assert_eq!(compute_threads(), before, "0 clears the budget");
            });
        });
        assert_eq!(
            compute_threads(),
            before,
            "the caller's reading is untouched"
        );
    }
}
