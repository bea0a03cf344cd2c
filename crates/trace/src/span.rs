//! Span collectors: thread-safe sinks for structured trace spans and
//! counters, one per traced run.
//!
//! Design constraints (see docs/OBSERVABILITY.md):
//!
//! * **A run owns its trace.** [`enable`] hands the calling thread a
//!   collector; the threads the run starts record into it once they
//!   [`adopt`] its [`snapshot`]. A thread that did neither records
//!   nothing, so runs traced side by side in one process never see each
//!   other's spans or counters.
//! * **Zero cost when disabled.** Every instrumentation site first performs
//!   one `Relaxed` load of the process-wide count of collectors switched
//!   on; while it is zero (the default) no clock is read, nothing
//!   allocates and nothing locks. Benchmark figure runs are therefore
//!   unaffected by the instrumentation being compiled in.
//! * **Cross-layer keying.** A span carries its [`Layer`] and operator name
//!   plus the benchmark identity of the work it belongs to — process type,
//!   period and instance id — taken from a thread-local instance scope the
//!   integration engines establish via [`instance_scope`].
//! * **Cost categories first-class.** The paper's Cc/Cm/Cp categories are
//!   span attributes, so exports can be rolled up per category exactly like
//!   the monitor's cost records.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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

/// One run's spans and counters. The thread that [`enable`]s it owns it;
/// the threads that run starts record into it after [`adopt`]ing it.
struct Collector {
    epoch: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<HashMap<&'static str, u64>>,
}

impl Drop for Collector {
    fn drop(&mut self) {
        // an owner that ends without `disable` switches its collector off
        if *self.on.get_mut() {
            RECORDING.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Collectors switched on, process-wide: zero in every untraced run, so
/// an instrumentation site costs one relaxed load of it. The load publishes
/// nothing: a thread reaches a collector only through its own thread-local,
/// set by its own [`enable`] or by [`adopt`] on a thread spawned after the
/// switch, and the spawn orders the switch before the load.
static RECORDING: AtomicUsize = AtomicUsize::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// What this thread records into, and on whose behalf.
struct Local {
    collector: Option<Arc<Collector>>,
    scopes: Vec<InstanceCtx>,
}

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            collector: None,
            scopes: Vec::new(),
        })
    };
}

fn with_collector<T: Default>(f: impl FnOnce(&Collector) -> T) -> T {
    LOCAL.with(|l| l.borrow().collector.as_deref().map(f).unwrap_or_default())
}

/// Turn this thread's collector on, first giving the thread one if it has
/// none. Spans and counters recorded on this thread, and on the threads
/// that [`adopt`] its [`snapshot`], are kept until [`drain`]. (A thread
/// keeps its collector, so spans from several enable/disable windows share
/// one time base.)
pub fn enable() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let c = l.collector.get_or_insert_with(|| {
            Arc::new(Collector {
                epoch: Instant::now(),
                on: AtomicBool::new(false),
                spans: Mutex::new(Vec::new()),
                counters: Mutex::new(HashMap::new()),
            })
        });
        if !c.on.swap(true, Ordering::SeqCst) {
            RECORDING.fetch_add(1, Ordering::SeqCst);
        }
    })
}

/// Turn this thread's collector off; its instrumentation sites return to
/// no-ops. What it holds stays until [`drain`].
pub fn disable() {
    with_collector(|c| {
        if c.on.swap(false, Ordering::SeqCst) {
            RECORDING.fetch_sub(1, Ordering::SeqCst);
        }
    })
}

/// Whether spans recorded on this thread are being collected.
#[inline]
pub fn is_enabled() -> bool {
    RECORDING.load(Ordering::Relaxed) != 0 && recording()
}

#[inline(never)]
fn recording() -> bool {
    with_collector(|c| c.on.load(Ordering::Relaxed))
}

/// Take all spans of this thread's collector, leaving it empty.
pub fn drain() -> Vec<SpanRecord> {
    with_collector(|c| std::mem::take(&mut *c.spans.lock().unwrap()))
}

/// Take all counters of this thread's collector, sorted by name.
pub fn drain_counters() -> Vec<(String, u64)> {
    let counters = with_collector(|c| std::mem::take(&mut *c.counters.lock().unwrap()));
    let mut v: Vec<(String, u64)> = (counters.into_iter())
        .map(|(k, n)| (k.to_string(), n))
        .collect();
    v.sort();
    v
}

/// Add `delta` to a named counter. No-op while disabled.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    with_collector(|c| *c.counters.lock().unwrap().entry(name).or_insert(0) += delta);
}

/// Establish the benchmark identity of the work running on this thread;
/// spans recorded until the guard drops inherit it. Scopes nest (e.g. a
/// subprocess instance inside its parent).
pub fn instance_scope(process: &str, period: u32, instance: u64) -> CtxGuard {
    let pushed = is_enabled();
    if pushed {
        LOCAL.with(|l| {
            l.borrow_mut().scopes.push(InstanceCtx {
                process: process.to_string(),
                period,
                instance,
            })
        });
    }
    CtxGuard {
        pushed,
        previous: None,
    }
}

/// This thread's collector and instance context, for a thread it is about
/// to start (pool workers, FORK branches, mart loaders): thread-locals are
/// not inherited. `None` while this thread records nothing.
pub fn snapshot() -> Option<CtxSnapshot> {
    if !is_enabled() {
        return None;
    }
    LOCAL.with(|l| {
        let l = l.borrow();
        Some(CtxSnapshot {
            collector: Arc::clone(l.collector.as_ref()?),
            scope: l.scopes.last().cloned(),
        })
    })
}

/// Record into a snapshotted collector on this thread; spans recorded
/// until the guard drops carry the snapshot's instance identity.
pub fn adopt(snapshot: &CtxSnapshot) -> CtxGuard {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let previous = l.collector.replace(Arc::clone(&snapshot.collector));
        l.scopes.extend(snapshot.scope.clone());
        CtxGuard {
            pushed: snapshot.scope.is_some(),
            previous: Some(previous),
        }
    })
}

/// A collector and instance context taken by [`snapshot`] for [`adopt`] on
/// another thread.
pub struct CtxSnapshot {
    collector: Arc<Collector>,
    scope: Option<InstanceCtx>,
}

/// Guard returned by [`instance_scope`] and [`adopt`]; pops the context
/// and, after [`adopt`], gives the thread back the collector it had.
pub struct CtxGuard {
    pushed: bool,
    /// After [`adopt`]: the collector to give back.
    previous: Option<Option<Arc<Collector>>>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if !self.pushed && self.previous.is_none() {
            return;
        }
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if self.pushed {
                l.scopes.pop();
            }
            if let Some(previous) = self.previous.take() {
                l.collector = previous;
            }
        })
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
    LOCAL.with(|l| {
        let l = l.borrow();
        let Some(c) = &l.collector else { return };
        let scope = l.scopes.last();
        let rec = SpanRecord {
            layer,
            op,
            category,
            process: scope.map(|i| i.process.clone()),
            period: scope.map(|i| i.period),
            instance: scope.map(|i| i.instance),
            thread: THREAD_ID.with(|t| *t),
            start_ns: start.saturating_duration_since(c.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        };
        c.spans.lock().unwrap().push(rec);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_enable_record_drain_disable() {
        // disabled: nothing recorded, even into a collector switched off
        enable();
        disable();
        assert!(!is_enabled());
        {
            let _s = span(Layer::Relstore, "scan");
            count("rows", 10);
            let _g = instance_scope("P01", 0, 1);
            let _t = span_cat(Layer::Mtm, "translate", Category::Processing);
        }
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

        // disabled again: back to no-op
        let _s = span(Layer::Core, "period");
        drop(_s);
        count("rows", 1);
        assert!(drain().is_empty());
        assert!(drain_counters().is_empty());
    }

    /// A spawned thread records only after adopting a snapshot: then into
    /// the snapshotting thread's collector, under its instance identity.
    #[test]
    fn started_threads_record_only_what_they_adopt() {
        assert!(snapshot().is_none(), "disabled: nothing to hand over");
        enable();
        let bare = snapshot().expect("outside any scope: the collector alone");
        {
            let _g = instance_scope("P14", 1, 9);
            let snap = snapshot();
            std::thread::scope(|s| {
                s.spawn(|| {
                    drop(span(Layer::Mtm, "orphan"));
                    count("orphan", 1);
                });
                s.spawn(|| {
                    let _ctx = snap.as_ref().map(adopt);
                    drop(span(Layer::Mtm, "adopted"));
                    count("adopted", 1);
                });
                s.spawn(|| {
                    let _ctx = adopt(&bare);
                    drop(span(Layer::Mtm, "unscoped"));
                });
            });
        }
        disable();
        let spans = drain();
        let ops: Vec<&str> = spans.iter().map(|s| s.op).collect();
        assert!(!ops.contains(&"orphan"), "{ops:?}");
        let by_op = |op: &str| spans.iter().find(|s| s.op == op).unwrap();
        let adopted = by_op("adopted");
        assert_eq!(
            (adopted.process.as_deref(), adopted.period, adopted.instance),
            (Some("P14"), Some(1), Some(9))
        );
        assert_eq!(by_op("unscoped").process, None);
        assert_eq!(drain_counters(), vec![("adopted".to_string(), 1)]);
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
