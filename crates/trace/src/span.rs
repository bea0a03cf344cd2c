//! The span collector: a process-global, thread-safe sink for structured
//! trace spans and counters.
//!
//! Design constraints (see docs/OBSERVABILITY.md):
//!
//! * **Zero cost when disabled.** Every instrumentation site first performs
//!   one `Relaxed` atomic load; when tracing is off (the default) no clock
//!   is read, nothing allocates and nothing locks. Benchmark figure runs
//!   are therefore unaffected by the instrumentation being compiled in.
//! * **Cross-layer keying.** A span carries its [`Layer`] and operator name
//!   plus the benchmark identity of the work it belongs to — process type,
//!   period and instance id — taken from a thread-local instance scope the
//!   integration engines establish via [`instance_scope`].
//! * **Cost categories first-class.** The paper's Cc/Cm/Cp categories are
//!   span attributes, so exports can be rolled up per category exactly like
//!   the monitor's cost records.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The workspace layer a span originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark core: client, schedule, environment.
    Core,
    /// The in-memory relational engine.
    Relstore,
    /// The XML stack (parser, STX transformer, XSD validator).
    Xmlkit,
    /// The simulated network.
    Netsim,
    /// Web services and message-emitting applications.
    Services,
    /// The native MTM interpreter.
    Mtm,
    /// The federated-DBMS reference implementation.
    Feddbms,
}

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Relstore => "relstore",
            Layer::Xmlkit => "xmlkit",
            Layer::Netsim => "netsim",
            Layer::Services => "services",
            Layer::Mtm => "mtm",
            Layer::Feddbms => "feddbms",
        }
    }

    pub fn parse(s: &str) -> Option<Layer> {
        match s {
            "core" => Some(Layer::Core),
            "relstore" => Some(Layer::Relstore),
            "xmlkit" => Some(Layer::Xmlkit),
            "netsim" => Some(Layer::Netsim),
            "services" => Some(Layer::Services),
            "mtm" => Some(Layer::Mtm),
            "feddbms" => Some(Layer::Feddbms),
            _ => None,
        }
    }
}

/// The benchmark's three cost categories (paper §V), as span attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Cc — waiting for external systems.
    Communication,
    /// Cm — internal management not tied to instance data flow.
    Management,
    /// Cp — control-flow and data-flow processing.
    Processing,
}

impl Category {
    pub fn label(self) -> &'static str {
        match self {
            Category::Communication => "Cc",
            Category::Management => "Cm",
            Category::Processing => "Cp",
        }
    }

    pub fn parse(s: &str) -> Option<Category> {
        match s {
            "Cc" => Some(Category::Communication),
            "Cm" => Some(Category::Management),
            "Cp" => Some(Category::Processing),
            _ => None,
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub layer: Layer,
    /// Operator name, e.g. `"hash_join"` or `"stx_transform"`.
    pub op: &'static str,
    /// Cost category this work is charged to, when the site knows it.
    pub category: Option<Category>,
    /// Benchmark identity from the enclosing [`instance_scope`], if any.
    pub process: Option<String>,
    pub period: Option<u32>,
    pub instance: Option<u64>,
    /// Small sequential id of the recording thread.
    pub thread: u64,
    /// Start offset on the collector's epoch, nanoseconds.
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Clone)]
struct InstanceCtx {
    process: String,
    period: u32,
    instance: u64,
}

struct Collector {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<HashMap<&'static str, u64>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: OnceLock<Collector> = OnceLock::new();
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static CTX: RefCell<Vec<InstanceCtx>> = const { RefCell::new(Vec::new()) };
}

fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        counters: Mutex::new(HashMap::new()),
    })
}

/// Turn the collector on. Spans recorded from this point on are kept until
/// [`drain`]. (The epoch is fixed at first use, so spans from multiple
/// enable/disable windows share one time base.)
pub fn enable() {
    collector();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the collector off; instrumentation sites return to no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether spans are currently being collected.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Take all collected spans, leaving the collector empty.
pub fn drain() -> Vec<SpanRecord> {
    match COLLECTOR.get() {
        Some(c) => std::mem::take(&mut *c.spans.lock().unwrap()),
        None => Vec::new(),
    }
}

/// Take all counters, sorted by name.
pub fn drain_counters() -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = match COLLECTOR.get() {
        Some(c) => std::mem::take(&mut *c.counters.lock().unwrap())
            .into_iter()
            .map(|(k, n)| (k.to_string(), n))
            .collect(),
        None => Vec::new(),
    };
    v.sort();
    v
}

/// Number of spans currently buffered (diagnostic).
pub fn span_count() -> usize {
    COLLECTOR.get().map_or(0, |c| c.spans.lock().unwrap().len())
}

/// Add `delta` to a named counter. No-op while disabled.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    *collector()
        .counters
        .lock()
        .unwrap()
        .entry(name)
        .or_insert(0) += delta;
}

/// Establish the benchmark identity of the work running on this thread;
/// spans recorded until the guard drops inherit it. Scopes nest (e.g. a
/// subprocess instance inside its parent).
pub fn instance_scope(process: &str, period: u32, instance: u64) -> CtxGuard {
    if !is_enabled() {
        return CtxGuard { pushed: false };
    }
    CTX.with(|c| {
        c.borrow_mut().push(InstanceCtx {
            process: process.to_string(),
            period,
            instance,
        })
    });
    CtxGuard { pushed: true }
}

/// The instance context of this thread, for a thread it is about to spawn
/// (FORK branches, mart loaders): thread-locals are not inherited. `None`
/// outside any scope, and while tracing is off.
pub fn snapshot() -> Option<CtxSnapshot> {
    if !is_enabled() {
        return None;
    }
    CTX.with(|c| c.borrow().last().cloned().map(CtxSnapshot))
}

/// Re-establish a snapshotted instance context on this thread; spans
/// recorded until the guard drops carry the parent's identity.
pub fn adopt(snapshot: &CtxSnapshot) -> CtxGuard {
    CTX.with(|c| c.borrow_mut().push(snapshot.0.clone()));
    CtxGuard { pushed: true }
}

/// An instance context taken by [`snapshot`] for [`adopt`] on another thread.
pub struct CtxSnapshot(InstanceCtx);

/// Guard returned by [`instance_scope`] and [`adopt`]; pops the context on
/// drop.
pub struct CtxGuard {
    pushed: bool,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if self.pushed {
            CTX.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
}

struct ActiveSpan {
    layer: Layer,
    op: &'static str,
    category: Option<Category>,
    start: Instant,
}

/// An enter/exit span guard: created at the top of an instrumented block,
/// records the elapsed time when dropped. Inactive (and free apart from the
/// enabled check) while tracing is disabled.
pub struct Span {
    active: Option<ActiveSpan>,
}

/// Open a span without a cost category.
#[inline]
pub fn span(layer: Layer, op: &'static str) -> Span {
    span_inner(layer, op, None)
}

/// Open a span charged to a cost category.
#[inline]
pub fn span_cat(layer: Layer, op: &'static str, category: Category) -> Span {
    span_inner(layer, op, Some(category))
}

#[inline]
fn span_inner(layer: Layer, op: &'static str, category: Option<Category>) -> Span {
    if !is_enabled() {
        return Span { active: None };
    }
    Span {
        active: Some(ActiveSpan {
            layer,
            op,
            category,
            start: Instant::now(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.active.take() {
            let dur = s.start.elapsed();
            push_record(s.layer, s.op, s.category, s.start, dur);
        }
    }
}

/// Record a span whose duration is a *modeled* quantity rather than wall
/// time — e.g. netsim's accounted (not slept) transfer delay.
pub fn record_modeled(layer: Layer, op: &'static str, category: Option<Category>, dur: Duration) {
    if !is_enabled() {
        return;
    }
    push_record(layer, op, category, Instant::now(), dur);
}

fn push_record(
    layer: Layer,
    op: &'static str,
    category: Option<Category>,
    start: Instant,
    dur: Duration,
) {
    let c = collector();
    let (process, period, instance) = CTX.with(|ctx| {
        ctx.borrow().last().map_or((None, None, None), |i| {
            (Some(i.process.clone()), Some(i.period), Some(i.instance))
        })
    });
    let rec = SpanRecord {
        layer,
        op,
        category,
        process,
        period,
        instance,
        thread: THREAD_ID.with(|t| *t),
        start_ns: start.saturating_duration_since(c.epoch).as_nanos() as u64,
        dur_ns: dur.as_nanos() as u64,
    };
    c.spans.lock().unwrap().push(rec);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global, so the unit tests here run the whole
    // lifecycle inside one test to avoid cross-test interference.
    #[test]
    fn lifecycle_enable_record_drain_disable() {
        drain();
        drain_counters();

        // disabled: nothing recorded
        assert!(!is_enabled());
        {
            let _s = span(Layer::Relstore, "scan");
            count("rows", 10);
            let _g = instance_scope("P01", 0, 1);
            let _t = span_cat(Layer::Mtm, "translate", Category::Processing);
        }
        assert_eq!(span_count(), 0);
        assert!(drain().is_empty());
        assert!(drain_counters().is_empty());

        // enabled: spans carry context, category and thread id
        enable();
        {
            let _g = instance_scope("P04", 2, 7);
            let _s = span_cat(Layer::Xmlkit, "stx_transform", Category::Processing);
            count("net.bytes", 42);
            count("net.bytes", 8);
        }
        record_modeled(
            Layer::Netsim,
            "transfer",
            Some(Category::Communication),
            Duration::from_micros(1500),
        );
        disable();
        let spans = drain();
        assert_eq!(spans.len(), 2);
        let stx = &spans[0];
        assert_eq!(stx.layer, Layer::Xmlkit);
        assert_eq!(stx.op, "stx_transform");
        assert_eq!(stx.category, Some(Category::Processing));
        assert_eq!(stx.process.as_deref(), Some("P04"));
        assert_eq!(stx.period, Some(2));
        assert_eq!(stx.instance, Some(7));
        assert!(stx.thread > 0);
        let net = &spans[1];
        assert_eq!(net.dur_ns, 1_500_000);
        assert_eq!(net.process, None, "modeled span outside any scope");
        assert_eq!(drain_counters(), vec![("net.bytes".to_string(), 50)]);

        // a spawned thread does not inherit the scope; adopting a snapshot
        // gives its spans the parent's identity
        assert!(snapshot().is_none(), "disabled: nothing to hand over");
        enable();
        assert!(snapshot().is_none(), "outside any scope");
        {
            let _g = instance_scope("P14", 1, 9);
            let snap = snapshot();
            std::thread::scope(|s| {
                s.spawn(|| drop(span(Layer::Mtm, "orphan")));
                s.spawn(|| {
                    let _ctx = snap.as_ref().map(adopt);
                    drop(span(Layer::Mtm, "adopted"));
                });
            });
        }
        disable();
        let spans = drain();
        let by_op = |op: &str| spans.iter().find(|s| s.op == op).unwrap();
        assert_eq!(by_op("orphan").process, None);
        let adopted = by_op("adopted");
        assert_eq!(
            (adopted.process.as_deref(), adopted.period, adopted.instance),
            (Some("P14"), Some(1), Some(9))
        );

        // disabled again: back to no-op
        let _s = span(Layer::Core, "period");
        drop(_s);
        assert!(drain().is_empty());
    }

    #[test]
    fn labels_roundtrip() {
        for l in [
            Layer::Core,
            Layer::Relstore,
            Layer::Xmlkit,
            Layer::Netsim,
            Layer::Services,
            Layer::Mtm,
            Layer::Feddbms,
        ] {
            assert_eq!(Layer::parse(l.label()), Some(l));
        }
        for c in [
            Category::Communication,
            Category::Management,
            Category::Processing,
        ] {
            assert_eq!(Category::parse(c.label()), Some(c));
        }
        assert_eq!(Layer::parse("nope"), None);
        assert_eq!(Category::parse("Cx"), None);
    }
}
