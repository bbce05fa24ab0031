//! The default kernel worker count costs nothing once resolved.
//!
//! With no process value and no thread budget set, `compute_threads()`
//! falls back to the machine's parallelism. Reading that from the OS
//! allocates (the cgroup files are parsed on every call), and single-device
//! kernels ask for the default on every call, so the pool resolves it
//! once. A counting global allocator pins that: after the first call,
//! further calls allocate nothing and agree with the first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dgcl_tensor::pool;

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

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn machine_value_is_resolved_once() {
    pool::set_compute_threads(0);
    let first = pool::compute_threads();
    assert!((1..=8).contains(&first), "{first} workers");
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..100 {
        assert_eq!(pool::compute_threads(), first);
    }
    COUNTING.store(false, Ordering::SeqCst);
    assert_eq!(ALLOCS.load(Ordering::SeqCst), 0);
    // A process value still wins over the machine value, and 0 restores it.
    pool::set_compute_threads(first + 1);
    assert_eq!(pool::compute_threads(), first + 1);
    pool::set_compute_threads(0);
    assert_eq!(pool::compute_threads(), first);
}
