//! Cost model and cost recording.
//!
//! The paper's cost model (taken from the authors' self-optimization work
//! \[22\]) splits integration-process costs into three categories:
//!
//! * **Cc — communication costs**: time waiting for external systems
//!   (network delay and external processing);
//! * **Cm — internal management costs**: time not correlated to a concrete
//!   process instance execution (plan creation, internal reorganization);
//! * **Cp — processing costs**: control-flow and data-flow processing.
//!
//! Every integration engine records, per executed process instance, the
//! time spent in each category plus the instance's wall-clock interval.
//! The benchmark monitor later normalizes these by concurrency and
//! aggregates them into the `NAVG+` metric.

use dip_relstore::error::{TransportFault, TransportKind};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The three cost categories of the benchmark metric — the same enum the
/// trace spans are tagged with, so the two ledgers cannot name them apart.
pub use dip_trace::Category as CostCategory;

/// Unique id of one executed process instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

/// The record of one completed process instance.
#[derive(Debug, Clone)]
pub struct InstanceRecord {
    pub instance: InstanceId,
    /// Process-type id, e.g. `"P04"`.
    pub process: String,
    /// Benchmark period the instance ran in.
    pub period: u32,
    /// Start/end offsets on the monitor's clock.
    pub start: Duration,
    pub end: Duration,
    pub comm: Duration,
    pub mgmt: Duration,
    pub proc: Duration,
    /// Whether the instance completed successfully (failed instances are
    /// reported separately and excluded from the metric).
    pub ok: bool,
}

impl InstanceRecord {
    /// Total attributed cost (all categories).
    pub fn total(&self) -> Duration {
        self.comm + self.mgmt + self.proc
    }
}

/// In-flight accumulator for one instance; cheap to clone (shared).
#[derive(Clone)]
pub struct InstanceCosts {
    inner: Arc<InstanceCostsInner>,
}

struct InstanceCostsInner {
    comm_micros: AtomicU64,
    mgmt_micros: AtomicU64,
    proc_micros: AtomicU64,
}

impl InstanceCosts {
    pub fn new() -> InstanceCosts {
        InstanceCosts {
            inner: Arc::new(InstanceCostsInner {
                comm_micros: AtomicU64::new(0),
                mgmt_micros: AtomicU64::new(0),
                proc_micros: AtomicU64::new(0),
            }),
        }
    }

    /// Add `d` to a category. Atomic — parallel operators and subprocesses
    /// of the same instance may record concurrently.
    pub fn add(&self, cat: CostCategory, d: Duration) {
        let micros = d.as_micros() as u64;
        match cat {
            CostCategory::Communication => {
                self.inner.comm_micros.fetch_add(micros, Ordering::Relaxed)
            }
            CostCategory::Management => self.inner.mgmt_micros.fetch_add(micros, Ordering::Relaxed),
            CostCategory::Processing => self.inner.proc_micros.fetch_add(micros, Ordering::Relaxed),
        };
    }

    pub fn snapshot(&self) -> (Duration, Duration, Duration) {
        (
            Duration::from_micros(self.inner.comm_micros.load(Ordering::Relaxed)),
            Duration::from_micros(self.inner.mgmt_micros.load(Ordering::Relaxed)),
            Duration::from_micros(self.inner.proc_micros.load(Ordering::Relaxed)),
        )
    }
}

impl Default for InstanceCosts {
    fn default() -> Self {
        Self::new()
    }
}

/// Collects finished instance records from all engines and streams.
pub struct CostRecorder {
    next_instance: AtomicU64,
    records: Mutex<Vec<InstanceRecord>>,
    /// The monitor's clock: instance intervals are offsets from it.
    epoch: Instant,
}

impl std::fmt::Debug for CostRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostRecorder")
            .field("records", &self.records.lock().len())
            .finish()
    }
}

impl CostRecorder {
    pub fn new() -> CostRecorder {
        CostRecorder {
            next_instance: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// Run one process instance inside the envelope every engine puts
    /// around it: the preparation since `mgmt_start` (definition lookup,
    /// plan/SQL preparation) booked as management cost, the trace and
    /// fault-schedule scopes (`seq` anchors the instance's deterministic
    /// fault identity), one transaction — committed on `Ok`, rolled back
    /// on `Err`, or discarded instead under `leak_rollbacks` (the run's
    /// `FaultPlan::leak_rollbacks`, the crash gate's teeth switch) — and
    /// the [`InstanceRecord`] either way. `transport` is the error type's
    /// transport-fault accessor. Returns the number of transport retries
    /// the resilience layer spent on the instance.
    #[allow(clippy::too_many_arguments)] // the instance's identity, then its policies
    pub fn run_instance<T, E>(
        &self,
        mgmt_start: Instant,
        process: &str,
        period: u32,
        seq: u32,
        leak_rollbacks: bool,
        transport: impl Fn(&E) -> Option<&TransportFault>,
        body: impl FnOnce(&InstanceCosts) -> Result<T, E>,
    ) -> Result<u32, E> {
        let costs = InstanceCosts::new();
        let instance = self.next_instance_id();
        costs.add(CostCategory::Management, mgmt_start.elapsed());
        let _ctx = dip_trace::instance_scope(process, period, instance.0);
        let _fault_scope = dip_netsim::fault::instance_scope(process, period, seq);
        let start = self.epoch.elapsed();
        let tx = dip_relstore::tx::begin_leaking(leak_rollbacks);
        let result = body(&costs);
        {
            // The undo log is freed (or applied) here: inside the record's
            // interval, outside the engine's own `instance` span.
            let op = if result.is_ok() { "commit" } else { "rollback" };
            let _span = dip_trace::span(dip_trace::Layer::Relstore, op);
            match &result {
                Ok(_) => tx.commit(),
                Err(_) => tx.rollback(),
            }
        }
        let end = self.epoch.elapsed();
        let retries = dip_netsim::fault::scope_retries();
        // A crash fault means the system died mid-instance: it never got to
        // write its cost record, and recovery will replay the instance after
        // restart. Recording it here would double-count the replay.
        let crashed = matches!(
            &result,
            Err(e) if transport(e).is_some_and(|t| t.kind == TransportKind::Crash)
        );
        if !crashed {
            let (comm, mgmt, proc) = costs.snapshot();
            self.record(InstanceRecord {
                instance,
                process: process.to_string(),
                period,
                start,
                end,
                comm,
                mgmt,
                proc,
                ok: result.is_ok(),
            });
        }
        result.map(|bound| {
            // What the body hands back — an MTM instance's variables, i.e.
            // every document and relation it bound — is freed here, after
            // `end` and outside every cost category; named so the trace
            // does not book it as the caller's own time.
            if std::mem::needs_drop::<T>() {
                let _span = dip_trace::span(dip_trace::Layer::Mtm, "release");
                drop(bound);
            }
            retries
        })
    }

    pub fn next_instance_id(&self) -> InstanceId {
        InstanceId(self.next_instance.fetch_add(1, Ordering::Relaxed))
    }

    pub fn record(&self, rec: InstanceRecord) {
        self.records.lock().push(rec);
    }

    /// Drain all records collected so far.
    pub fn drain(&self) -> Vec<InstanceRecord> {
        std::mem::take(&mut *self.records.lock())
    }

    /// Snapshot without draining.
    pub fn snapshot(&self) -> Vec<InstanceRecord> {
        self.records.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }
}

/// Run `n` parallel branches of the instance executing on this thread
/// (an MTM FORK, the federated P14 mart loaders and P15 refreshers),
/// each on a thread of its own. The three scopes [`run_instance`]
/// opened are thread-locals a spawned thread does not inherit, so they
/// are snapshotted once here and adopted by every branch: the trace
/// identity (branch spans carry the instance's `(process, period,
/// instance)`), the transaction (branch writes journal into the
/// instance's undo log, so a failing sibling rolls all of them back)
/// and the fault scope, derived by branch index — parallel branches
/// own disjoint, deterministic regions of the fault schedule whatever
/// the thread interleaving, and keep the root identity crash plans aim
/// at. Each branch's transport retries are folded back into this
/// thread's scope, a panicked branch becomes `panicked()`, and the
/// results come back in branch order (the first error wins).
///
/// [`run_instance`]: CostRecorder::run_instance
pub fn run_branches<T: Send, E: Send>(
    n: usize,
    panicked: impl Fn() -> E,
    branch: impl Fn(usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    let trace_ctx = dip_trace::snapshot();
    let tx_handle = dip_relstore::tx::handle();
    let fault_snap = dip_netsim::fault::snapshot();
    let outcomes: Vec<(Result<T, E>, u32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|idx| {
                let (trace_ctx, tx_handle, branch) =
                    (trace_ctx.as_ref(), tx_handle.as_ref(), &branch);
                scope.spawn(move || {
                    let _trace = trace_ctx.map(dip_trace::adopt);
                    let _tx = tx_handle.map(dip_relstore::tx::adopt);
                    let _fault = fault_snap.map(|s| dip_netsim::fault::adopt(s, idx as u32));
                    (branch(idx), dip_netsim::fault::scope_retries())
                })
            })
            .collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined
            .map(|outcome| outcome.unwrap_or_else(|_| (Err(panicked()), 0)))
            .collect()
    });
    let mut results = Vec::with_capacity(n);
    for (result, retries) in outcomes {
        dip_netsim::fault::note_retries(retries);
        results.push(result);
    }
    results.into_iter().collect()
}

impl Default for CostRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_accumulate_atomically() {
        let c = InstanceCosts::new();
        let c2 = c.clone();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..100 {
                    c2.add(CostCategory::Processing, Duration::from_micros(10));
                }
            });
            for _ in 0..100 {
                c.add(CostCategory::Processing, Duration::from_micros(10));
            }
        });
        let (_, _, p) = c.snapshot();
        assert_eq!(p, Duration::from_millis(2));
    }

    #[test]
    fn recorder_drains() {
        let r = CostRecorder::new();
        let id = r.next_instance_id();
        assert_eq!(id, InstanceId(0));
        r.record(InstanceRecord {
            instance: id,
            process: "P01".into(),
            period: 0,
            start: Duration::ZERO,
            end: Duration::from_millis(1),
            comm: Duration::from_micros(100),
            mgmt: Duration::from_micros(10),
            proc: Duration::from_micros(500),
            ok: true,
        });
        assert_eq!(r.len(), 1);
        let recs = r.drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].total(), Duration::from_micros(610));
        assert!(r.is_empty());
    }

    /// The hand-over of `run_branches`, scope by scope.
    #[test]
    fn branches_run_inside_the_instances_three_scopes() {
        use dip_netsim::fault;
        use dip_relstore::prelude::*;
        let db = Database::new("d");
        let schema = RelSchema::of(&[("k", SqlType::Int)]).shared();
        db.create_table(Table::new("t", schema));
        let table = db.table("t").unwrap();
        let _tracing = crate::TRACE_TESTS.lock().unwrap();
        dip_trace::enable();
        let recorder = CostRecorder::new();
        fn no_transport(_: &String) -> Option<&TransportFault> {
            None
        }
        let keys = std::sync::Mutex::new(Vec::new());
        let run = recorder.run_instance(Instant::now(), "PXX", 3, 0, false, no_transport, |_| {
            run_branches(
                2,
                || "panicked".to_string(),
                |idx| {
                    drop(dip_trace::span(dip_trace::Layer::Mtm, "in_branch"));
                    table.insert(vec![vec![Value::Int(idx as i64)]]).unwrap();
                    let op = fault::begin_op().expect("a branch is inside the fault scope");
                    keys.lock().unwrap().push(op.leg(0, 0));
                    fault::note_retries(idx as u32 + 1);
                    Ok(())
                },
            )?;
            // both branches' retries were folded into the instance's scope
            assert_eq!(fault::scope_retries(), 3);
            assert_eq!(table.row_count(), 2);
            Err::<(), String>("instance fails after its branches wrote".into())
        });
        dip_trace::disable();
        assert_eq!(run.unwrap_err(), "instance fails after its branches wrote");
        assert_eq!(
            table.row_count(),
            0,
            "branch writes roll back with the instance"
        );
        let keys = keys.into_inner().unwrap();
        assert_ne!(
            keys[0], keys[1],
            "each branch index owns its own fault keys"
        );
        let spans = dip_trace::drain();
        let mine: Vec<_> = spans.iter().filter(|s| s.op == "in_branch").collect();
        assert_eq!(mine.len(), 2);
        for s in mine {
            assert_eq!((s.process.as_deref(), s.period), (Some("PXX"), Some(3)));
            assert!(s.instance.is_some());
        }

        let boom = |idx| {
            if idx == 1 {
                panic!("branch 1")
            } else {
                Ok(idx)
            }
        };
        let joined: Result<Vec<usize>, String> = run_branches(2, || "panicked".into(), boom);
        assert_eq!(joined.unwrap_err(), "panicked", "the error, not a panic");
    }
}
