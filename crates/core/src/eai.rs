//! An EAI-server-style system under test — the paper's future work
//! ("we currently realize experiments with EAI servers and ETL tools",
//! §VII).
//!
//! Unlike the synchronous MTM engine and the trigger-driven federated
//! DBMS, an EAI server is a *message broker*: incoming messages are
//! accepted immediately, queued, and processed asynchronously by a pool of
//! worker threads. Time-driven processes act as barriers — a real broker
//! drains in-flight messages before running a scheduled batch job, which
//! also preserves the benchmark's stream-completion semantics (`T1(P04)`
//! etc.) and therefore the integrated data.
//!
//! Queues are partitioned by process type (destination), one worker per
//! partition set, so messages of the same type apply in arrival order —
//! the per-queue FIFO guarantee real brokers give. This matters for
//! correctness, not just fidelity: successive master-data updates (P01,
//! P02) may target the same entity, and reordering them across a shared
//! worker pool would integrate different final values than the
//! serialized engines.
//!
//! # Admission control
//!
//! Queues may be bounded per process type ([`AdmissionControl`]); when a
//! type's queue is at capacity the broker applies the configured
//! [`AdmissionPolicy`]:
//!
//! - `Block` — the producer waits for a slot (backpressure; no loss).
//! - `Shed` — the arriving message is rejected (drop-tail) and preserved
//!   in the dead-letter queue with `shed = true`.
//! - `Degrade` — the *oldest* waiting message of the same type is evicted
//!   (drop-head, bounding staleness) and dead-lettered as shed; the new
//!   message is admitted.
//!
//! Shed messages never execute, so they have no cost record; the E1
//! conservation check accounts for them via the dead-letter queue
//! (`scheduled = integrated + dead-lettered + failed + shed`).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::config::{AdmissionControl, AdmissionPolicy};
use crate::system::{settle, DeadLetter, DeadLetterQueue, Delivery, Event, IntegrationSystem};
use dip_mtm::cost::CostRecorder;
use dip_mtm::engine::MtmEngine;
use dip_mtm::error::MtmResult;
use dip_mtm::process::ProcessDef;
use dip_services::registry::ExternalWorld;
use dip_xmlkit::write_compact;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

struct Job {
    process: String,
    period: u32,
    seq: u32,
    msg: dip_xmlkit::node::Document,
    /// Compact XML kept for dead-lettering (armed runs only).
    payload: Option<String>,
}

#[derive(Default)]
struct Pending {
    count: Mutex<usize>,
    drained: Condvar,
}

impl Pending {
    fn inc(&self) {
        *self.count.lock() += 1;
    }

    fn dec(&self) {
        let mut n = self.count.lock();
        *n -= 1;
        if *n == 0 {
            self.drained.notify_all();
        }
    }
}

#[derive(Default)]
struct ShardState {
    queue: VecDeque<Job>,
    /// Waiting (not yet executing) messages per process type — the
    /// quantity the admission capacity bounds.
    queued: HashMap<String, usize>,
    closed: bool,
}

#[derive(Default)]
struct Shard {
    state: Mutex<ShardState>,
    /// Signaled when a job is enqueued (worker wakes).
    nonempty: Condvar,
    /// Signaled when a job leaves the queue (Block producers wake).
    room: Condvar,
    /// False when the worker thread failed to spawn; the shard then
    /// executes inline at deliver time instead of asynchronously.
    has_worker: AtomicBool,
}

/// The EAI-style asynchronous integration system.
pub struct EaiSystem {
    engine: Arc<MtmEngine>,
    /// One queue per worker; a process type always routes to the same
    /// queue, so same-type messages are processed in arrival order.
    shards: Vec<Arc<Shard>>,
    workers: Vec<JoinHandle<()>>,
    pending: Arc<Pending>,
    dlq: Arc<DeadLetterQueue>,
    admission: AdmissionControl,
    /// High-water mark over every shard's queue length.
    max_depth: Arc<AtomicU64>,
}

/// Raise the queue-depth high-water mark. Kept out of the dip-trace
/// counters on purpose: real queue depth depends on thread timing, and
/// putting it in the drained counter set would make same-seed run records
/// differ. The deterministic virtual depth ([`crate::overload`]) is the
/// one that flows into records; this one is an inspection accessor.
fn raise_max_depth(max_depth: &AtomicU64, depth: u64) {
    max_depth.fetch_max(depth, Ordering::Relaxed);
}

impl EaiSystem {
    /// Build the broker with `workers` message-processing threads and
    /// unbounded queues (the historical behavior).
    pub fn new(world: Arc<ExternalWorld>, workers: usize) -> EaiSystem {
        EaiSystem::with_admission(world, workers, AdmissionControl::UNBOUNDED)
    }

    /// Build the broker with bounded per-process-type queues.
    pub fn with_admission(
        world: Arc<ExternalWorld>,
        workers: usize,
        admission: AdmissionControl,
    ) -> EaiSystem {
        let engine = Arc::new(MtmEngine::new(world));
        let pending = Arc::new(Pending::default());
        let dlq = Arc::new(DeadLetterQueue::new());
        let shards: Vec<Arc<Shard>> = (0..workers.max(1))
            .map(|_| Arc::new(Shard::default()))
            .collect();
        let mut handles = Vec::new();
        for (i, shard) in shards.iter().enumerate() {
            let shard = shard.clone();
            let engine = engine.clone();
            let pending = pending.clone();
            let dlq = dlq.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("eai-worker-{i}"))
                .spawn({
                    let shard = shard.clone();
                    move || loop {
                        let job = {
                            let mut st = shard.state.lock();
                            loop {
                                if let Some(job) = st.queue.pop_front() {
                                    if let Some(n) = st.queued.get_mut(&job.process) {
                                        *n = n.saturating_sub(1);
                                    }
                                    shard.room.notify_all();
                                    break job;
                                }
                                if st.closed {
                                    return;
                                }
                                shard.nonempty.wait(&mut st);
                            }
                        };
                        // instance failures are captured in the cost
                        // records (ok = false) and, when transient, in
                        // the dead-letter queue; the broker keeps going
                        let result =
                            engine.execute_event(&job.process, job.period, job.seq, Some(job.msg));
                        settle(&dlq, &job.process, job.period, job.seq, job.payload, result);
                        pending.dec();
                    }
                });
            match spawned {
                Ok(h) => {
                    shard.has_worker.store(true, Ordering::Release);
                    handles.push(h);
                }
                // worker thread unavailable: the shard degrades to inline
                // execution at deliver time — slower, still correct
                Err(_) => shard.has_worker.store(false, Ordering::Release),
            }
        }
        EaiSystem {
            engine,
            shards,
            workers: handles,
            pending,
            dlq,
            admission,
            max_depth: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Partition key: which worker queue a process type's messages go to.
    fn shard(&self, process: &str) -> usize {
        // FNV-1a over the process id
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in process.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Block until every queued message has been processed.
    pub fn drain(&self) {
        let mut n = self.pending.count.lock();
        while *n > 0 {
            self.pending.drained.wait(&mut n);
        }
    }

    /// Messages currently queued or in flight.
    pub fn in_flight(&self) -> usize {
        *self.pending.count.lock()
    }

    /// High-water mark of any shard's queue length over the system's life.
    pub fn max_queue_depth(&self) -> u64 {
        self.max_depth.load(Ordering::Relaxed)
    }

    /// The configured admission control.
    pub fn admission(&self) -> AdmissionControl {
        self.admission
    }

    fn shed_letter(
        &self,
        process: &str,
        period: u32,
        seq: u32,
        payload: Option<String>,
        how: &str,
    ) {
        self.dlq.push(DeadLetter {
            process: process.to_string(),
            period,
            seq,
            reason: format!("admission: queue full ({how})"),
            payload,
            shed: true,
        });
    }
}

impl Drop for EaiSystem {
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.state.lock().closed = true;
            shard.nonempty.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl IntegrationSystem for EaiSystem {
    fn name(&self) -> &str {
        "eai-server"
    }

    fn deploy(&self, defs: Vec<ProcessDef>) -> MtmResult<()> {
        for def in defs {
            self.engine.deploy(def)?;
        }
        Ok(())
    }

    fn deliver(&self, event: Event) -> Delivery {
        match event {
            Event::Message {
                process,
                period,
                seq,
                msg,
            } => {
                // asynchronous acceptance: `Completed` means "queued" —
                // processing failures surface later in the cost records
                // and the dead-letter queue
                let payload = (self.engine.world.resilience().is_some()
                    || dip_netsim::fault::abort_armed())
                .then(|| write_compact(&msg));
                let shard = &self.shards[self.shard(&process)];
                if !shard.has_worker.load(Ordering::Acquire) {
                    // workerless shard: execute inline, like the
                    // synchronous engines (queue depth stays 0)
                    let result = self.engine.execute_event(&process, period, seq, Some(msg));
                    return settle(&self.dlq, &process, period, seq, payload, result);
                }
                let mut st = shard.state.lock();
                if self.admission.is_bounded() {
                    let depth = st.queued.get(&process).copied().unwrap_or(0);
                    if depth >= self.admission.capacity {
                        match self.admission.policy {
                            AdmissionPolicy::Block => {
                                while st.queued.get(&process).copied().unwrap_or(0)
                                    >= self.admission.capacity
                                {
                                    shard.room.wait(&mut st);
                                }
                            }
                            AdmissionPolicy::Shed => {
                                drop(st);
                                self.shed_letter(&process, period, seq, payload, "shed");
                                return Delivery::Shed {
                                    reason: "admission: queue full (shed)".to_string(),
                                };
                            }
                            AdmissionPolicy::Degrade => {
                                // evict the oldest waiting message of this
                                // type; the evicted job never executes, so
                                // settle its pending slot here
                                if let Some(pos) =
                                    st.queue.iter().position(|j| j.process == process)
                                {
                                    if let Some(old) = st.queue.remove(pos) {
                                        if let Some(n) = st.queued.get_mut(&old.process) {
                                            *n = n.saturating_sub(1);
                                        }
                                        dip_trace::count("eai.degrade_evict", 1);
                                        self.shed_letter(
                                            &old.process,
                                            old.period,
                                            old.seq,
                                            old.payload,
                                            "degrade",
                                        );
                                        self.pending.dec();
                                    }
                                }
                            }
                        }
                    }
                }
                self.pending.inc();
                st.queue.push_back(Job {
                    process: process.clone(),
                    period,
                    seq,
                    msg,
                    payload,
                });
                *st.queued.entry(process).or_insert(0) += 1;
                raise_max_depth(&self.max_depth, st.queue.len() as u64);
                shard.nonempty.notify_one();
                Delivery::Completed
            }
            Event::Timed {
                process,
                period,
                seq,
            } => {
                // scheduled batch jobs run after the broker drained — this
                // also realizes the schedule's completion chaining
                // (T1(P04), T1(Stream B))
                self.drain();
                let result = self.engine.execute_event(&process, period, seq, None);
                settle(&self.dlq, &process, period, seq, None, result)
            }
        }
    }

    fn recorder(&self) -> Arc<CostRecorder> {
        self.engine.recorder()
    }

    fn dead_letters(&self) -> Arc<DeadLetterQueue> {
        self.dlq.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::verify;

    #[test]
    fn eai_runs_the_benchmark_and_verifies() {
        let _serial = crate::testlock::hold();
        let config =
            BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(1);
        let env = BenchEnvironment::new(config).unwrap();
        let system = Arc::new(EaiSystem::new(env.world.clone(), 4));
        let client = Client::new(&env, system.clone()).unwrap();
        let outcome = client.run().unwrap();
        // queued messages fail only via records; dispatch itself never errors
        assert!(outcome.failures.is_empty(), "{:#?}", outcome.failures);
        assert_eq!(outcome.metrics.len(), 15);
        system.drain();
        assert_eq!(system.in_flight(), 0);
        let report = verify::verify(&env).unwrap();
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn eai_matches_mtm_integrated_data() {
        let _serial = crate::testlock::hold();
        let config =
            BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(1);
        let run = |eai: bool| {
            let env = BenchEnvironment::new(config).unwrap();
            let system: Arc<dyn IntegrationSystem> = if eai {
                Arc::new(EaiSystem::new(env.world.clone(), 3))
            } else {
                Arc::new(MtmSystem::new(env.world.clone()))
            };
            let client = Client::new(&env, system).unwrap();
            client.run().unwrap();
            env
        };
        let a = run(true);
        let b = run(false);
        for table in ["orders", "orderline", "customer", "product", "orders_mv"] {
            let mut x = a.db("dwh").table(table).unwrap().scan();
            let mut y = b.db("dwh").table(table).unwrap().scan();
            let keys: Vec<usize> = (0..x.schema.len()).collect();
            x.sort_by_columns(&keys);
            y.sort_by_columns(&keys);
            assert_eq!(x.rows, y.rows, "dwh.{table} differs between EAI and MTM");
        }
    }

    #[test]
    fn timed_events_barrier_on_queue() {
        // a timed event fired right after a burst of messages must observe
        // all of their effects
        let _serial = crate::testlock::hold();
        let config =
            BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(1);
        let env = BenchEnvironment::new(config).unwrap();
        let system = Arc::new(EaiSystem::new(env.world.clone(), 4));
        system.deploy(crate::processes::all_processes()).unwrap();
        env.initialize_sources(0).unwrap();
        let n = crate::schedule::p04_count(0.02);
        for m in 0..n {
            let d = system.deliver(Event::message(
                "P04",
                0,
                m,
                env.generator.vienna_message(0, m),
            ));
            assert!(d.is_ok(), "{d:?}");
        }
        // P05 is timed: it must drain the broker first
        assert!(system.deliver(Event::timed("P05", 0, 0)).is_ok());
        assert_eq!(system.in_flight(), 0);
        let staged = env
            .db("sales_cleaning")
            .table("orders_staging")
            .unwrap()
            .scan_where(
                &dip_relstore::expr::Expr::col(6).eq(dip_relstore::expr::Expr::lit("vienna")),
                None,
            )
            .unwrap();
        assert_eq!(staged.len() as u32, n);
    }

    /// Flood one shard past capacity while its worker is parked on the
    /// test lock, then check each policy's accounting closes.
    fn flood(policy: AdmissionPolicy) -> (u32, Vec<DeadLetter>, u64) {
        let config =
            BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(1);
        let env = BenchEnvironment::new(config).unwrap();
        let system = Arc::new(EaiSystem::with_admission(
            env.world.clone(),
            1,
            AdmissionControl::bounded(4, policy),
        ));
        system.deploy(crate::processes::all_processes()).unwrap();
        env.initialize_sources(0).unwrap();
        let n = crate::schedule::p04_count(0.02).max(12);
        let mut admitted = 0;
        for m in 0..n {
            let d = system.deliver(Event::message(
                "P04",
                0,
                m % crate::schedule::p04_count(0.02),
                env.generator
                    .vienna_message(0, m % crate::schedule::p04_count(0.02)),
            ));
            if d.is_ok() {
                admitted += 1;
            } else {
                assert!(matches!(d, Delivery::Shed { .. }), "{d:?}");
            }
        }
        system.drain();
        let depth = system.max_queue_depth();
        (admitted, system.dead_letters().snapshot(), depth)
    }

    #[test]
    fn shed_policy_bounds_queue_and_accounts_rejections() {
        let _serial = crate::testlock::hold();
        let n = crate::schedule::p04_count(0.02).max(12);
        let (admitted, letters, depth) = flood(AdmissionPolicy::Shed);
        let shed = letters.iter().filter(|l| l.shed).count() as u32;
        assert_eq!(admitted + shed, n, "conservation: admitted + shed = sent");
        assert!(depth <= 4 + 1, "queue depth {depth} exceeds capacity");
    }

    #[test]
    fn degrade_policy_admits_newest_and_sheds_oldest() {
        let _serial = crate::testlock::hold();
        let n = crate::schedule::p04_count(0.02).max(12);
        let (admitted, letters, depth) = flood(AdmissionPolicy::Degrade);
        // every send is admitted; evictions surface as shed letters
        assert_eq!(admitted, n);
        let shed: Vec<_> = letters.iter().filter(|l| l.shed).collect();
        for l in &shed {
            assert!(l.reason.contains("degrade"), "{}", l.reason);
        }
        assert!(depth <= 4 + 1, "queue depth {depth} exceeds capacity");
    }

    #[test]
    fn block_policy_sheds_nothing() {
        let _serial = crate::testlock::hold();
        let n = crate::schedule::p04_count(0.02).max(12);
        let (admitted, letters, _depth) = flood(AdmissionPolicy::Block);
        assert_eq!(admitted, n);
        assert!(letters.iter().all(|l| !l.shed));
    }
}
