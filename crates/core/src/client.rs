//! The Client: autonomous benchmark execution.
//!
//! Implements the work phase of Fig. 6/7: for each period `k`, all external
//! systems are uninitialized, the source systems initialized, then the
//! four streams run — A and B concurrently, C and D serialized after them.
//! Within a stream, events are a serialized sequence (the paper's
//! definition of a stream); the client generates E1 input messages on the
//! fly and fires E2 scheduling events. Every phase is a DAG drained by the
//! one dispatcher, [`crate::sched::run_pool`] (`docs/SCHEDULER.md`).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::config::{BenchConfig, PacingMode};
use crate::env::BenchEnvironment;
use crate::metric::{process_metrics, ProcessMetric};
use crate::monitor::{normalize, NormalizedRecord};
use crate::processes;
use crate::sched::{self, PeriodPlan, TaskOutcome, TypeProfile};
use crate::schedule;
use crate::system::{DeadLetter, Delivery, Event, IntegrationSystem};
use dip_mtm::cost::InstanceRecord;
use dip_relstore::prelude::{StoreError, StoreResult, TransportKind};
use dip_xmlkit::node::Document;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One dispatch failure (the run continues; the engine has already
/// recorded the failed instance).
#[derive(Debug, Clone)]
pub struct DispatchFailure {
    pub process: String,
    pub period: u32,
    pub seq: u32,
    pub error: String,
}

impl DispatchFailure {
    /// The dispatch failure an event's outcome stands for, if any.
    /// Dead-lettered messages are not dispatch failures: the system
    /// handled them (DLQ + failed instance record) and the run goes on —
    /// they surface in [`RunOutcome::dead_letters`] instead.
    pub(crate) fn of(
        process: &str,
        period: u32,
        seq: u32,
        outcome: TaskOutcome,
    ) -> Option<DispatchFailure> {
        match outcome {
            TaskOutcome::Failed(error) => Some(DispatchFailure {
                process: process.to_string(),
                period,
                seq,
                error,
            }),
            _ => None,
        }
    }
}

/// Exactly which events of a period are settled — the replay-skip set a
/// recovering run hands back to [`Client::run_period_from`]: per stream
/// (A, B, C, D) the settled event indices, ascending. A crash leaves a
/// DAG-downward-closed set that need not be a per-stream prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplaySkip {
    indices: [Vec<usize>; 4],
}

impl ReplaySkip {
    /// Nothing settled yet (a fresh, uncrashed run).
    pub fn none() -> ReplaySkip {
        ReplaySkip::default()
    }

    /// Whether the event at `index` of stream slot `slot` is settled.
    pub fn skips(&self, slot: usize, index: usize) -> bool {
        self.indices[slot].binary_search(&index).is_ok()
    }

    /// Number of settled events in stream slot `slot`.
    pub fn settled_in(&self, slot: usize) -> usize {
        self.indices[slot].len()
    }
}

/// What one period (or a resumed fraction of one) dispatched.
#[derive(Debug)]
pub struct PeriodRun {
    pub failures: Vec<DispatchFailure>,
    /// Events settled this period, *including replay-skipped ones*: on a
    /// crash-free run this covers every stream in full; after a crash it
    /// is the exact set whose outcomes the system durably produced — the
    /// skip set a recovery replay passes back in.
    pub settled: ReplaySkip,
    /// Whether the system crashed (injected) during this period.
    pub crashed: bool,
}

/// Everything a work-phase run produces.
#[derive(Debug)]
pub struct RunOutcome {
    pub system: String,
    pub config: BenchConfig,
    pub records: Vec<InstanceRecord>,
    pub normalized: Vec<NormalizedRecord>,
    pub metrics: Vec<ProcessMetric>,
    pub failures: Vec<DispatchFailure>,
    /// E1 messages whose transport retries were exhausted, in
    /// deterministic `(period, process, seq)` order.
    pub dead_letters: Vec<DeadLetter>,
    /// Events dispatched past their schedule deadline under `RealTime`
    /// pacing (Eager never sleeps, so it is never late). Before this
    /// counter existed, lag silently stretched the clock.
    pub late_dispatch: u64,
    pub wall_time: Duration,
}

impl RunOutcome {
    pub fn metric_for(&self, process: &str) -> Option<&ProcessMetric> {
        self.metrics.iter().find(|m| m.process == process)
    }
}

/// A span over a piece of the client's own (management) work.
fn span(op: &'static str) -> dip_trace::Span {
    dip_trace::span_cat(dip_trace::Layer::Core, op, dip_trace::Category::Management)
}

/// Generate the E1 input message of an event (`None` for a timed event).
pub(crate) fn message_for(
    env: &BenchEnvironment,
    process: &str,
    period: u32,
    seq: u32,
) -> Option<Document> {
    let g = &env.generator;
    match process {
        "P01" => Some(g.beijing_master_message(period, seq)),
        "P02" => Some(g.mdm_message(period, seq)),
        "P04" => Some(g.vienna_message(period, seq)),
        "P08" => Some(g.hongkong_message(period, seq)),
        "P10" => Some(g.san_diego_message(period, seq).0),
        _ => None,
    }
}

/// The benchmark client.
pub struct Client<'a> {
    env: &'a BenchEnvironment,
    system: Arc<dyn IntegrationSystem>,
    /// Statically derived per-type resource footprints, used by the
    /// conflict DAG of [`PeriodPlan::concurrent_phase`].
    profiles: BTreeMap<String, TypeProfile>,
    /// Events dispatched past their deadline (RealTime pacing only)
    /// since the last [`Client::build_outcome`].
    late: AtomicU64,
}

impl<'a> Client<'a> {
    /// Create a client and deploy the 15 process types on the system under
    /// test.
    pub fn new(env: &'a BenchEnvironment, system: Arc<dyn IntegrationSystem>) -> StoreResult<Self> {
        let defs = processes::all_processes();
        let profiles = sched::derive_profiles(&defs);
        system
            .deploy(defs)
            .map_err(|e| StoreError::Invalid(format!("deploy failed: {e}")))?;
        Ok(Client {
            env,
            system,
            profiles,
            late: AtomicU64::new(0),
        })
    }

    /// Deliver one scheduled event — generate its E1 message (if any),
    /// hand it to the system under test — and classify what came back.
    /// The engines open their own fault scope and transaction per
    /// delivery, so this is self-contained on whichever thread runs it.
    ///
    /// [`TaskOutcome::Crashed`] is the event whose instance the injected
    /// crash killed: its partial writes were rolled back and no record
    /// was kept, so it is neither settled nor reported as a dispatch
    /// failure — recovery replays it, and counting it here too would
    /// double it in the conservation totals. A system the crash already
    /// killed is handed nothing more.
    pub(crate) fn dispatch(&self, process: &'static str, period: u32, seq: u32) -> TaskOutcome {
        if self.env.world.network.crash_tripped() {
            return TaskOutcome::Crashed;
        }
        let event = match message_for(self.env, process, period, seq) {
            Some(msg) => Event::message(process, period, seq, msg),
            None => Event::timed(process, period, seq),
        };
        match self.system.deliver(event) {
            Delivery::Failed { error }
                if error
                    .transport()
                    .is_some_and(|t| t.kind == TransportKind::Crash) =>
            {
                TaskOutcome::Crashed
            }
            Delivery::Failed { error } => TaskOutcome::Failed(error.to_string()),
            _ => TaskOutcome::Settled,
        }
    }

    /// Under `RealTime` pacing, sleep until `deadline_tu` past `start`;
    /// Eager pacing dispatches in deadline order without sleeping.
    fn pace(&self, start: Instant, deadline_tu: f64) {
        if self.env.config.pacing != PacingMode::RealTime {
            return;
        }
        let deadline = self.env.config.scale.tu().mul_f64(deadline_tu);
        let elapsed = start.elapsed();
        if deadline > elapsed {
            std::thread::sleep(deadline - elapsed);
        } else if deadline < elapsed {
            // behind schedule: dispatch immediately, but record the slip —
            // the closed loop used to stretch the clock with no trace of
            // the lag
            dip_trace::count("client.late_dispatch", 1);
            self.late.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drain one phase of period `k` through [`sched::run_pool`] — the
    /// one dispatch path of every run, gate and recovery replay — and
    /// add what it durably produced to `run`. Deadlines are relative to
    /// the phase's start. A dead system dispatches nothing: only the
    /// replay-skipped events of the phase come back settled.
    fn run_phase(
        &self,
        k: u32,
        plan: &PeriodPlan,
        threads: usize,
        skip: &ReplaySkip,
        run: &mut PeriodRun,
    ) {
        let _span = span("worker_pool");
        let start = Instant::now();
        let pool = sched::run_pool(
            plan,
            threads,
            &|slot, index| skip.skips(slot, index),
            &|task| {
                self.pace(start, task.deadline_tu);
                self.dispatch(task.process, k, task.seq)
            },
        );
        // a trip nobody reported (a broker thread's instance, a branch whose
        // sibling failed first) still means everything unsettled replays
        run.crashed |= pool.crashed || self.env.world.network.crash_tripped();
        // tasks are in virtual-time order, which keeps each stream's
        // indices ascending and the failures deterministic
        for (task, outcome) in plan.tasks().iter().zip(pool.outcomes) {
            if outcome.settled() {
                run.settled.indices[task.slot].push(task.index);
            }
            run.failures
                .extend(DispatchFailure::of(task.process, k, task.seq, outcome));
        }
    }

    /// Execute one benchmark period: uninitialize, initialize, streams
    /// A ∥ B, then C, then D.
    pub fn run_period(&self, k: u32) -> StoreResult<Vec<DispatchFailure>> {
        self.run_period_from(k, &ReplaySkip::none(), true)
            .map(|p| p.failures)
    }

    /// [`Client::run_period`] with a replay-skip set: already-settled
    /// events (from a previous, crashed run) are not re-dispatched, and
    /// `reinit` turns off the uninitialize/initialize prologue — a
    /// recovering run restores the period's mid-flight state from a
    /// checkpoint instead of rebuilding it.
    pub fn run_period_from(
        &self,
        k: u32,
        skip: &ReplaySkip,
        reinit: bool,
    ) -> StoreResult<PeriodRun> {
        let _period_span = span("period");
        if reinit {
            {
                let _span = span("uninitialize");
                self.env.uninitialize()?;
            }
            {
                let _span = span("initialize_sources");
                self.env.initialize_sources(k)?;
            }
        }
        let streams = schedule::period_streams(k, self.env.config.scale.datasize);
        let mut run = PeriodRun {
            failures: Vec::new(),
            settled: ReplaySkip::none(),
            crashed: false,
        };
        // A ∥ B: the paper's two serial streams on a thread each, or
        // (`workers > 1`) independent instances across the workers
        let workers = self.env.config.workers;
        let (concurrent, threads) = match workers {
            0 | 1 => (PeriodPlan::by_stream(&streams, 0..2), 2),
            _ => (
                PeriodPlan::concurrent_phase(&streams, &self.profiles),
                workers,
            ),
        };
        self.run_phase(k, &concurrent, threads, skip, &mut run);
        // streams C and D keep their declared serialization
        for slot in 2..4 {
            let chain = PeriodPlan::by_stream(&streams, slot..slot + 1);
            self.run_phase(k, &chain, 1, skip, &mut run);
        }
        Ok(run)
    }

    /// Execute the whole work phase and aggregate the metric.
    pub fn run(&self) -> StoreResult<RunOutcome> {
        let start = Instant::now();
        let mut failures = Vec::new();
        for k in 0..self.env.config.periods {
            failures.extend(self.run_period(k)?);
        }
        let records = self.system.recorder().drain();
        let dead_letters = self.system.dead_letters().drain();
        Ok(self.build_outcome(records, failures, dead_letters, start.elapsed()))
    }

    /// Aggregate already-collected raw results into a [`RunOutcome`] —
    /// the tail of [`Client::run`], split out so a recovering run can
    /// merge pre-crash and post-restart records before aggregating.
    pub fn build_outcome(
        &self,
        mut records: Vec<InstanceRecord>,
        mut failures: Vec<DispatchFailure>,
        mut dead_letters: Vec<DeadLetter>,
        wall_time: Duration,
    ) -> RunOutcome {
        // arrival order is interleaving-dependent under concurrent
        // streams (and any worker count > 1); canonicalize every
        // order-carrying output into schedule order so same-seed runs
        // are byte-identical. Records have no seq, but same-type
        // instances complete in series order on every path, so a stable
        // sort by (period, process) yields one deterministic sequence.
        records.sort_by(|a, b| (a.period, a.process.as_str()).cmp(&(b.period, b.process.as_str())));
        failures.sort_by(|a, b| {
            (a.period, a.process.as_str(), a.seq).cmp(&(b.period, b.process.as_str(), b.seq))
        });
        dead_letters.sort_by(|a, b| {
            (a.period, a.process.as_str(), a.seq).cmp(&(b.period, b.process.as_str(), b.seq))
        });
        let normalized = normalize(&records);
        let metrics = process_metrics(&normalized, &self.env.config.scale);
        RunOutcome {
            system: self.system.name().to_string(),
            config: self.env.config,
            records,
            normalized,
            metrics,
            failures,
            dead_letters,
            // taken, not read: a client reused for a second run reports that
            // run's lag only
            late_dispatch: self.late.swap(0, Ordering::Relaxed),
            wall_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::{Distribution, ScaleFactors};

    /// The schedule's message/timed split (which decides the cross-stream
    /// edges of `PeriodPlan::by_stream`) and the message generator must
    /// name the same five E1 types. (Split and definitions read one table,
    /// `processes::catalog::process_types`.)
    #[test]
    fn message_processes_are_the_ones_with_a_generated_message() {
        let scale = ScaleFactors::new(0.02, 1.0, Distribution::Uniform);
        let env = BenchEnvironment::new(BenchConfig::new(scale)).unwrap();
        for def in processes::all_processes() {
            assert_eq!(
                schedule::is_message_process(&def.id),
                message_for(&env, &def.id, 0, 0).is_some(),
                "{}",
                def.id
            );
        }
    }
}
