//! Counting-allocator regression test for the per-batch sampling pool.
//!
//! [`BlockPool`] exists so steady-state sampled training stops paying the
//! allocator per batch: block carcasses, chain containers and scratch all
//! recycle. This binary installs a counting `#[global_allocator]` and pins
//! the contract — **a warm pool samples a batch, and walks a chain's
//! source set, with zero heap allocations** — so a future "harmless" `collect()` inside the hot path
//! fails CI instead of silently re-inflating allocator traffic.
//!
//! Everything lives in one `#[test]` so no sibling test can allocate
//! concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dgcl_graph::{sample_blocks, BlockPool, CsrGraph, VertexId};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warm_pool_samples_with_zero_allocations() {
    let graph: CsrGraph = dgcl_graph::generators::hub_attachment(2_000, 20, 0.8, 7);
    let seeds: Vec<VertexId> = (0..128).map(|i| i * 13 % 2_000).collect();
    let fanouts = [Some(4), Some(3)];

    // The plain path allocates every batch — the baseline the pool beats.
    let before_plain = allocs();
    let plain = sample_blocks(&graph, &seeds, &fanouts, 1).expect("seeds in range");
    let plain_allocs = allocs() - before_plain;
    assert!(plain_allocs > 0, "unpooled sampling must hit the allocator");

    // Warm the pool over the same seed schedule the measurement replays:
    // the first pass grows every Vec to the schedule's high-water mark.
    let mut pool = BlockPool::new();
    for round in 0u64..5 {
        let chain = pool
            .sample_blocks(&graph, &seeds, &fanouts, 1 + round)
            .expect("seeds in range");
        pool.recycle(chain);
    }

    // Steady state: identical batch shapes, zero allocator traffic.
    let before = allocs();
    for round in 0u64..5 {
        let chain = pool
            .sample_blocks(&graph, &seeds, &fanouts, 1 + round)
            .expect("seeds in range");
        pool.recycle(chain);
    }
    let steady = allocs() - before;
    assert_eq!(
        steady, 0,
        "warm BlockPool allocated {steady} times over 5 batches \
         (plain path: {plain_allocs} per batch)"
    );

    // The serving flush shape: the exact one-hop chain (fanout ∞) of a
    // few hub seeds, whose rows are orders of magnitude longer than a
    // sampled batch's. Same pool, same contract.
    let mut hubs: Vec<VertexId> = (0..2_000).collect();
    hubs.sort_by_key(|&v| std::cmp::Reverse(graph.out_degree(v)));
    hubs.truncate(12);
    for measured in [false, true] {
        let before = allocs();
        for batch in 1..=hubs.len() {
            let chain = pool
                .sample_blocks(&graph, &hubs[..batch], &[None], 0)
                .expect("seeds in range");
            assert_eq!(chain[0].num_dst(), batch);
            pool.recycle(chain);
        }
        let flushes = allocs() - before;
        assert!(
            !measured || flushes == 0,
            "warm BlockPool allocated {flushes} times over {} flush-shaped chains",
            hubs.len()
        );
    }

    // The source-set walk a rank runs over each peer's chain: the same
    // pool's scratch, and one output list per peer that keeps its
    // capacity. Warm, it allocates nothing either.
    let mut owed: Vec<Vec<VertexId>> = vec![Vec::new(); 4];
    for measured in [false, true] {
        let before = allocs();
        for round in 0u64..5 {
            for (part, out) in owed.iter_mut().enumerate() {
                let keep = |v: VertexId| v as usize % 4 == part;
                pool.sample_sources(&graph, &seeds, &fanouts, 1 + round, keep, out)
                    .expect("seeds in range");
            }
        }
        let walks = allocs() - before;
        assert!(
            !measured || walks == 0,
            "warm source walks allocated {walks} times over 5 rounds of 4 parts"
        );
    }
    let owned: Vec<VertexId> = plain[0]
        .src
        .iter()
        .copied()
        .filter(|v| v % 4 == 1)
        .collect();
    pool.sample_sources(&graph, &seeds, &fanouts, 1, |v| v % 4 == 1, &mut owed[1])
        .expect("seeds in range");
    assert_eq!(owed[1], owned, "the walk is the chain's input, filtered");

    // The pooled output is still the plain output, bit for bit.
    let chain = pool
        .sample_blocks(&graph, &seeds, &fanouts, 1)
        .expect("seeds in range");
    assert_eq!(chain, plain, "pooling changed the sampled blocks");
}
