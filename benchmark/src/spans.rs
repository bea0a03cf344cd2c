//! The benchmark's own span recorder and the self-time computation.
//!
//! The benchmark records a span around every layer-boundary call it makes
//! (name, start, end, parent, iteration) and mirrors it into `dip_trace`,
//! so in the traced run the benchmark's spans and the spans recorded inside
//! the crates come back as one set on one clock. Nesting is recovered per
//! thread by containment, and a span's *self time* is its duration minus
//! the part its children cover.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// The benchmark's id of the calling thread.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Prefix of the operator names under which the benchmark mirrors its own
/// spans into `dip_trace` while that is collecting, e.g.
/// `bench|core/uninitialize`. Mirrored spans share clock and thread ids
/// with the spans recorded inside the crates, which is what lets
/// containment nest the two sets; the rest of the name is `layer/op`.
pub const MIRROR_PREFIX: &str = "bench|";

/// One span of the benchmark's own recorder.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    /// `layer/operation`, e.g. `core/uninitialize`, `engine/deliver:P04`.
    pub name: String,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    pub iteration: u32,
}

/// In-memory span store; written out when the workload ends.
pub struct Recorder {
    pub epoch: Instant,
    spans: Mutex<Vec<BenchSpan>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index (a parent handle).
    pub fn push(&self, span: BenchSpan) -> usize {
        let mut spans = self.spans.lock().expect("span store lock");
        spans.push(span);
        spans.len() - 1
    }

    /// Reserve a span that is still open (its end is filled by `close`),
    /// so children recorded meanwhile can name it as their parent.
    pub fn open(&self, name: &str, parent: Option<usize>, iteration: u32) -> usize {
        self.push(BenchSpan {
            name: name.to_string(),
            thread: thread_id(),
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent,
            iteration,
        })
    }

    pub fn close(&self, index: usize) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span store lock")[index].end_ns = end;
    }

    pub fn take(&self) -> Vec<BenchSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span store lock"))
    }
}

/// A span of either origin on the merged clock and thread ids.
#[derive(Debug, Clone)]
pub struct Node {
    pub layer: String,
    pub op: String,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-layer self time of a merged span set.
#[derive(Debug, Default, PartialEq)]
pub struct SelfTimes {
    /// Self nanoseconds by layer, summed over threads.
    pub by_layer: BTreeMap<String, u64>,
    /// Self nanoseconds by `layer/op`.
    pub by_op: BTreeMap<String, u64>,
    /// Self time of `main_thread` spans spent waiting for other threads'
    /// spans to finish — excluded from `by_layer`/`by_op`.
    pub wait_ns: u64,
}

impl SelfTimes {
    pub fn total_ns(&self) -> u64 {
        self.by_layer.values().sum()
    }
}

/// Length of the overlap between `[start, end)` and a sorted list of
/// disjoint intervals.
fn overlap(intervals: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let first = intervals.partition_point(|&(_, e)| e <= start);
    intervals[first..]
        .iter()
        .take_while(|&&(s, _)| s < end)
        .map(|&(s, e)| e.min(end) - s.max(start))
        .sum()
}

/// Compute self times by containment, per thread.
///
/// Within a thread a span is a child of the innermost span that contains
/// it. Spans of other threads never nest under it; instead, the part of a
/// `main_thread` span's self time during which any other thread had a span
/// open is a *wait* (the main thread blocked on a join) and is reported
/// apart, so concurrent work is not counted twice. Modeled spans (durations
/// that never elapsed) must be filtered out by the caller.
pub fn self_times(nodes: &[Node], main_thread: u64) -> SelfTimes {
    let mut by_thread: BTreeMap<u64, Vec<&Node>> = BTreeMap::new();
    for n in nodes {
        by_thread.entry(n.thread).or_default().push(n);
    }
    for spans in by_thread.values_mut() {
        // outer before inner: earlier start first, longer first on ties
        spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
    }

    // union of the other threads' root spans: when the main thread waits
    let mut busy: Vec<(u64, u64)> = Vec::new();
    for (_, spans) in by_thread.iter().filter(|(t, _)| **t != main_thread) {
        let mut reach = 0;
        for s in spans {
            if s.start_ns >= reach {
                busy.push((s.start_ns, s.end_ns));
            }
            reach = reach.max(s.end_ns);
        }
    }
    busy.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (s, e) in busy {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }

    let mut out = SelfTimes::default();
    for (thread, spans) in &by_thread {
        // stack of (node, end clipped to its parent, cursor): the cursor is
        // where the node's uncovered time resumes
        let mut stack: Vec<(&Node, u64, u64)> = Vec::new();
        let credit = |node: &Node, from: u64, to: u64, out: &mut SelfTimes| {
            if to <= from {
                return;
            }
            let mut own = to - from;
            if *thread == main_thread {
                let waited = overlap(&merged, from, to);
                out.wait_ns += waited;
                own -= waited;
            }
            *out.by_layer.entry(node.layer.clone()).or_insert(0) += own;
            *out.by_op
                .entry(format!("{}/{}", node.layer, node.op))
                .or_insert(0) += own;
        };
        for s in spans {
            // close every open span that ended before this one starts
            while let Some(&(top, end, cursor)) = stack.last() {
                if end > s.start_ns {
                    break;
                }
                credit(top, cursor, end, &mut out);
                stack.pop();
            }
            let mut end = s.end_ns;
            if let Some((top, top_end, cursor)) = stack.last_mut() {
                credit(top, *cursor, s.start_ns, &mut out);
                end = end.min(*top_end);
                *cursor = end;
            }
            stack.push((s, end, s.start_ns));
        }
        while let Some((top, end, cursor)) = stack.pop() {
            credit(top, cursor, end, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(layer: &str, op: &str, thread: u64, start: u64, end: u64) -> Node {
        Node {
            layer: layer.into(),
            op: op.into(),
            thread,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn nested_and_sibling_spans_subtract_from_the_parent() {
        // core 0..100 { relstore 10..40 { xmlkit 20..30 }, relstore 50..70 }
        let nodes = vec![
            node("core", "period", 1, 0, 100),
            node("relstore", "scan", 1, 10, 40),
            node("xmlkit", "parse", 1, 20, 30),
            node("relstore", "scan", 1, 50, 70),
        ];
        let st = self_times(&nodes, 1);
        assert_eq!(st.by_layer["core"], 100 - 30 - 20);
        assert_eq!(st.by_layer["relstore"], 20 + 20);
        assert_eq!(st.by_layer["xmlkit"], 10);
        assert_eq!(st.by_op["relstore/scan"], 40);
        assert_eq!(st.wait_ns, 0);
        assert_eq!(st.total_ns(), 100, "self times sum to the root's duration");
    }

    #[test]
    fn other_threads_never_nest_and_main_thread_wait_is_set_apart() {
        // main: core 0..100 with a child 80..90; workers busy 10..60 and
        // 30..70 (overlapping each other) — main waits 10..70
        let nodes = vec![
            node("core", "period", 1, 0, 100),
            node("core", "stream_C", 1, 80, 90),
            node("engine", "deliver", 2, 10, 60),
            node("relstore", "scan", 2, 20, 30),
            node("engine", "deliver", 3, 30, 70),
        ];
        let st = self_times(&nodes, 1);
        assert_eq!(st.wait_ns, 60);
        assert_eq!(st.by_op["core/period"], 100 - 10 - 60);
        assert_eq!(st.by_op["core/stream_C"], 10);
        assert_eq!(st.by_layer["engine"], (50 - 10) + 40);
        assert_eq!(st.by_layer["relstore"], 10);
        // busy thread-time = wall (100) − wait (60) + worker time (50 + 40)
        assert_eq!(st.total_ns(), 100 - 60 + 90);
    }

    #[test]
    fn identical_extents_nest_and_overlap_helper_is_exact() {
        let nodes = vec![node("a", "x", 1, 0, 10), node("b", "y", 1, 0, 10)];
        // the outer of two identical extents is wholly covered by the inner
        let st = self_times(&nodes, 1);
        assert_eq!(st.total_ns(), 10);
        assert_eq!(st.by_layer.get("b"), Some(&10));
        let iv = [(10, 20), (30, 40)];
        assert_eq!(overlap(&iv, 0, 5), 0);
        assert_eq!(overlap(&iv, 15, 35), 5 + 5);
        assert_eq!(overlap(&iv, 0, 100), 20);
        assert_eq!(overlap(&iv, 20, 30), 0);
    }
}
