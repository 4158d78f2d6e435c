//! Spans recorded from the benchmark's own files, around the calls into each
//! layer, and the counting allocator of the traced run.
//!
//! A traced op is issued as its constituent public calls; each call is one
//! span `{name, op_id, parent, start_ns, end_ns}`. Spans stay in memory
//! until the run ends. A layer's self time is its span's duration minus the
//! part of that interval its direct children cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub type SpanId = usize;

/// One thread's span buffer. Threads trace into their own `Tracer` (no
/// shared lock on the measured path) and the buffers are merged at the end.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u64,
    op_stride: u64,
}

impl Tracer {
    /// `lane` of `lanes` keeps op ids of concurrent tracers disjoint.
    pub fn new(epoch: Instant, lane: u64, lanes: u64) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            next_op: lane,
            op_stride: lanes.max(1),
        }
    }

    pub fn next_op(&mut self) -> u64 {
        let op = self.next_op;
        self.next_op += self.op_stride;
        op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, op_id: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `call` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<SpanId>,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op_id, parent);
        let out = call();
        self.close(id);
        out
    }
}

/// Self time per span: duration minus the direct children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// Per span name: summed self time in ms and the number of distinct ops
/// that contain a span of that name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub self_ms: f64,
    pub ops: u64,
}

impl LayerTime {
    /// Mean self time per op that crossed the layer.
    pub fn ms_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.self_ms / self.ops as f64
        }
    }
}

pub fn layer_times(tracers: &[Tracer]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for tracer in tracers {
        let own = self_times_ns(&tracer.spans);
        let mut seen: BTreeSet<(&'static str, u64)> = BTreeSet::new();
        for (span, own_ns) in tracer.spans.iter().zip(own) {
            let entry = out.entry(span.name).or_default();
            entry.self_ms += own_ns as f64 / 1e6;
            if seen.insert((span.name, span.op_id)) {
                entry.ops += 1;
            }
        }
    }
    out
}

/// The spans of every tracer as one JSON array (parents re-indexed into the
/// merged array).
pub fn spans_json(tracers: &[Tracer]) -> Json {
    let mut items = Vec::new();
    let mut base = 0usize;
    for tracer in tracers {
        for span in &tracer.spans {
            items.push(Json::obj([
                ("name", Json::Str(span.name.to_string())),
                ("op_id", Json::Num(span.op_id as f64)),
                (
                    "parent",
                    span.parent
                        .map_or(Json::Null, |p| Json::Num((base + p) as f64)),
                ),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
            ]));
        }
        base += tracer.spans.len();
    }
    Json::Arr(items)
}

/// Counts heap allocations while switched on. It is compiled into the one
/// binary and switched on only inside the traced window (a Cargo feature
/// would double the configurations to build and keep comparable); switched
/// off it costs one relaxed load per allocation, on both sides of every
/// comparison alike.
pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics that
// publish no other data, so `Relaxed` suffices and nothing here can unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller guarantees `layout` is valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was returned by `System` for `layout`; the caller
        // guarantees `new_size` is valid for `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation totals `(count, bytes)` since the process started counting.
pub fn allocation_totals() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

pub fn set_allocation_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op_id: op,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 with siblings a 10..30 and b 40..90; b has child c 50..60.
        let spans = vec![
            span("root", 1, None, 0, 100),
            span("a", 1, Some(0), 10, 30),
            span("b", 1, Some(0), 40, 90),
            span("c", 1, Some(2), 50, 60),
        ];
        // Only direct children are subtracted: root loses a and b, not c.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn layer_times_count_each_op_once_per_name() {
        let mut tracer = Tracer::new(Instant::now(), 0, 1);
        tracer.spans = vec![
            span("read", 0, None, 0, 1_000_000),
            span("exec", 0, Some(0), 0, 400_000),
            span("exec", 0, Some(0), 500_000, 700_000),
            span("read", 1, None, 1_000_000, 3_000_000),
        ];
        let layers = layer_times(&[tracer]);
        assert_eq!(layers["exec"].ops, 1);
        assert!((layers["exec"].self_ms - 0.6).abs() < 1e-12);
        assert_eq!(layers["read"].ops, 2);
        assert!((layers["read"].self_ms - 2.4).abs() < 1e-12);
        assert!((layers["read"].ms_per_op() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn op_ids_of_concurrent_tracers_are_disjoint() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0, 2);
        let mut b = Tracer::new(epoch, 1, 2);
        let ids: Vec<u64> = vec![a.next_op(), b.next_op(), a.next_op(), b.next_op()];
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn merged_span_json_reindexes_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0, 2);
        let mut b = Tracer::new(epoch, 1, 2);
        a.spans = vec![span("r", 0, None, 0, 5)];
        b.spans = vec![span("r", 1, None, 0, 5), span("c", 1, Some(0), 1, 2)];
        let merged = spans_json(&[a, b]);
        let items = merged.as_arr().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(items[0].get("parent"), Some(&Json::Null));
    }
}
