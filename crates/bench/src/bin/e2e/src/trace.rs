//! Outside-in spans: one per call the benchmark makes into a layer's
//! public function, kept in memory and written out after the run.
//!
//! Nothing here is seen by the libraries; in-program tracing is a later
//! issue. The allocation counter is the one exception that reaches
//! inside the process: it wraps the system allocator and counts only
//! while a traced section has switched it on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Marks a span that belongs to no GNN layer.
pub const NO_LAYER: i32 = -1;

/// One timed call. Times are nanoseconds since the trace's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub rank: u32,
    pub epoch: u32,
    pub layer: i32,
    pub phase: &'static str,
    pub parent: &'static str,
    pub t_start: u64,
    pub t_end: u64,
}

impl Span {
    pub fn millis(&self) -> f64 {
        (self.t_end - self.t_start) as f64 / 1e6
    }
}

/// One rank's span buffer, sized up front so that recording a span in
/// the timed loop never allocates.
#[derive(Debug)]
pub struct RankTrace {
    rank: u32,
    origin: Instant,
    spans: Vec<Span>,
}

impl RankTrace {
    pub fn new(rank: usize, origin: Instant, capacity: usize) -> Self {
        Self {
            rank: rank as u32,
            origin,
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span whose start was taken earlier with [`Self::now`].
    pub fn close(&mut self, phase: &'static str, parent: &'static str, epoch: usize, t_start: u64) {
        let t_end = self.now();
        self.spans.push(Span {
            rank: self.rank,
            epoch: epoch as u32,
            layer: NO_LAYER,
            phase,
            parent,
            t_start,
            t_end,
        });
    }

    /// Times `f` as a child of `parent`.
    pub fn span_under<R>(
        &mut self,
        parent: &'static str,
        phase: &'static str,
        epoch: usize,
        layer: i32,
        f: impl FnOnce() -> R,
    ) -> R {
        let t_start = self.now();
        let out = f();
        let t_end = self.now();
        self.spans.push(Span {
            rank: self.rank,
            epoch: epoch as u32,
            layer,
            phase,
            parent,
            t_start,
            t_end,
        });
        out
    }

    /// Times `f` as a child of the current epoch.
    pub fn span<R>(
        &mut self,
        phase: &'static str,
        epoch: usize,
        layer: i32,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span_under("epoch", phase, epoch, layer, f)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Sums span time by `(phase, layer)` over the spans `keep` admits.
pub fn phase_totals_ms(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<(&'static str, i32), f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| keep(s)) {
        *out.entry((s.phase, s.layer)).or_insert(0.0) += s.millis();
    }
    out
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering of spans: one
/// complete event per span, one thread lane per rank.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"epoch\": {}, \"gnn_layer\": {}, \
             \"parent\": \"{}\"}}}}{}",
            s.phase,
            workload,
            s.rank,
            s.t_start as f64 / 1e3,
            (s.t_end - s.t_start) as f64 / 1e3,
            s.epoch,
            s.layer,
            s.parent,
            comma
        );
    }
    out.push_str("]}\n");
    out
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with a switchable counter in front. Switched
/// off (the default, and the state of every timed run) it costs one
/// relaxed load per allocation.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn note(size: usize) {
    // Relaxed: the counters publish no other data; they are read only
    // after the counted threads have been joined.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with the allocation counter on and returns its result with
/// the `(allocations, bytes)` every thread made meanwhile.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ALLOC_COUNT.store(0, Ordering::SeqCst);
    ALLOC_BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (
        out,
        ALLOC_COUNT.load(Ordering::SeqCst),
        ALLOC_BYTES.load(Ordering::SeqCst),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_epoch_and_sum_by_phase() {
        let mut tr = RankTrace::new(3, Instant::now(), 8);
        let e0 = tr.now();
        let x = tr.span("gather", 0, 1, || 7);
        tr.span("gather", 0, 0, || ());
        tr.span("step", 0, NO_LAYER, || ());
        tr.close("epoch", "run", 0, e0);
        assert_eq!(x, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.rank == 3 && s.t_end >= s.t_start));
        let epoch = spans[3];
        assert_eq!((epoch.phase, epoch.parent), ("epoch", "run"));
        assert!(spans[..3]
            .iter()
            .all(|s| s.parent == "epoch" && s.t_start >= epoch.t_start && s.t_end <= epoch.t_end));
        let totals = phase_totals_ms(spans, |s| s.parent == "epoch");
        assert_eq!(totals.len(), 3);
        assert!(totals.contains_key(&("gather", 1)));
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let mut tr = RankTrace::new(0, Instant::now(), 2);
        tr.span("agg_fwd", 2, 0, || ());
        tr.span("loss", 2, NO_LAYER, || ());
        let json = chrome_trace("fullbatch-dense", tr.spans());
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"name\": \"agg_fwd\""));
        assert!(json.contains("\"gnn_layer\": -1"));
        assert!(crate::record::parse(&json).is_ok());
    }

    #[test]
    fn allocation_counter_sees_allocations_only_while_on() {
        let (v, count, bytes) = count_allocs(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(count >= 1 && bytes >= 4096);
    }
}
