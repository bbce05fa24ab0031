//! Peak-memory ratchet for the multilevel partitioner.
//!
//! The finest coarsening level borrows the input graph's CSR arrays and
//! stores no edge weights, and each coarse level's arrays are sized once
//! from its fine level's edge count. This binary installs a counting
//! `#[global_allocator]` and pins the peak of live heap bytes that one
//! `kway` call adds above its input, a deterministic count: a change that
//! copies level 0 again, or stores its unit weights, fails on Reddit, and
//! one whose coarsening stalls on a hub graph fails on Wiki-Talk.
//!
//! Everything lives in one `#[test]` so no sibling test can allocate
//! concurrently and move the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dgcl_graph::Dataset;
use dgcl_partition::multilevel::kway;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which `System` shares.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`, as every
        // allocation of this allocator is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the grown block before the old one is released: a moving
        // realloc holds both for a moment.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Bound on the peak of live bytes `kway` reaches above those it started
/// with. On Reddit ×0.004 (920 vertices, 114 352 edges, 2 parts) the peak
/// read 2 726 004 B when level 0 was a weighted copy and 2 165 032 B once
/// it borrowed the input; the copy alone is 1 372 224 B. It read
/// 2 163 732 B once refinement kept boundary rows and freed each coarse
/// level after projecting it.
const REDDIT_PEAK_BOUND: usize = 2_450_000;

/// The same bound on Wiki-Talk ×0.005 (11 950 vertices, 23 898 edges,
/// 2 parts), a hub graph. Its peak read 1 773 728 B when heavy-edge
/// matching stalled and left the coarsest level at 9 664 vertices, and
/// 1 048 304 B once two-hop matching coarsened it to `coarse_target`;
/// 980 052 B once coarse levels were freed after projection.
const WIKITALK_PEAK_BOUND: usize = 1_200_000;

#[test]
fn kway_peak_holds_no_copy_of_level_0() {
    for (dataset, scale, bound) in [
        (Dataset::Reddit, 0.004, REDDIT_PEAK_BOUND),
        (Dataset::WikiTalk, 0.005, WIKITALK_PEAK_BOUND),
    ] {
        let graph = dataset.generate(scale, 7);
        let start = LIVE.load(Ordering::Relaxed);
        PEAK.store(start, Ordering::Relaxed);
        let partition = kway(&graph, 2, 42);
        let peak = PEAK.load(Ordering::Relaxed) - start;
        drop(partition);
        // A copy of the targets plus a `u64` weight per edge, what level 0
        // cost before it borrowed the input.
        let copy = graph.num_edges() * (4 + 8);
        println!(
            "{} kway peak {peak} B above its input ({} vertices, {} edges; a weighted copy of level 0 is {copy} B)",
            dataset.name(),
            graph.num_vertices(),
            graph.num_edges()
        );
        assert!(
            peak < bound,
            "{}: kway's peak of {peak} live bytes passed the {bound} B bound",
            dataset.name()
        );
    }
}
