//! The Client: autonomous benchmark execution.
//!
//! Implements the work phase of Fig. 6/7: for each period `k`, all external
//! systems are uninitialized, the source systems initialized, then the
//! four streams run — A and B concurrently, C and D serialized after them.
//! Within a stream, events are a serialized sequence (the paper's
//! definition of a stream); the client generates E1 input messages on the
//! fly and fires E2 scheduling events. Every phase is a DAG drained by the
//! one dispatcher, [`crate::sched::run_pool`] (`docs/SCHEDULER.md`).
//!
//! Every run walks its periods in one loop, whatever its config asks for:
//! [`run`] builds the environment and system and runs closed or open-loop
//! arrivals (`BenchConfig::arrivals`, [`crate::overload`]), crashed or not
//! (`BenchConfig::faults`, [`crate::recovery`]), and returns the world it
//! ended in. A built [`Client`] runs single periods
//! ([`Client::run_period_from`]) and aggregates their records
//! ([`Client::build_outcome`]), the way `benchmark/` reuses one client.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::config::{BenchConfig, PacingMode};
use crate::env::BenchEnvironment;
use crate::metric::{process_metrics, ProcessMetric};
use crate::monitor::{normalize, NormalizedRecord};
use crate::overload::{self, OverloadStats};
use crate::processes;
use crate::recovery;
use crate::sched::{self, PeriodPlan, TaskOutcome, TypeProfile};
use crate::schedule;
use crate::system::{DeadLetter, Delivery, Event, IntegrationSystem};
use crate::verify::{self, VerificationReport};
use dip_mtm::cost::InstanceRecord;
use dip_relstore::prelude::{StoreError, StoreResult, TransportKind};
use dip_xmlkit::node::Document;
use std::cell::OnceCell;
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
/// DAG-downward-closed set that need not be a per-stream prefix. An
/// open-loop period hands in its shed events the same way, in mid-stream.
/// The pool knows nothing of it: a skipped event stays a task of its
/// chain, and the client's dispatch settles it without delivering it.
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

    /// The events at these `(slot, index)` pairs, given in any order.
    pub(crate) fn of(events: impl IntoIterator<Item = (usize, usize)>) -> ReplaySkip {
        let mut skip = ReplaySkip::none();
        for (slot, index) in events {
            skip.indices[slot].push(index);
        }
        skip.indices.iter_mut().for_each(|v| v.sort_unstable());
        skip
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

/// Builds the system under test over an environment's world: for a run,
/// and again for its restart after an injected crash.
pub type MakeSystem<'m> = &'m dyn Fn(&BenchEnvironment) -> Arc<dyn IntegrationSystem>;

/// Everything one run of a config produces, whatever its load.
pub struct Run {
    /// The world the run ended in: after a crash, the restarted one.
    pub env: BenchEnvironment,
    /// The outcome, merged over a crash (pre-crash + post-restart).
    pub outcome: RunOutcome,
    /// Verification over the outcome and the final state.
    pub verification: VerificationReport,
    /// Per-table digests of the final (after a crash: recovered) state.
    pub digests: BTreeMap<String, u64>,
    /// Whether the config's crash fired (false once its step walks past
    /// the instance's last materialization step — the crash sweep's
    /// termination signal).
    pub tripped: bool,
    /// Materialization steps the crash's target instance executed.
    pub steps_seen: u32,
    /// Events the restarted system replayed: everything the crashed
    /// period had not settled.
    pub replayed_events: usize,
    /// Virtual-time queueing statistics of the arrival model (zeros on a
    /// closed run).
    pub stats: OverloadStats,
}

/// Run the benchmark `config` describes on a fresh environment and a
/// system from `make_system`, then verify the outcome and digest the final
/// state. A crash the config plans restarts the run on a fresh
/// environment and system (see [`crate::recovery`]), and the outcome
/// merges both halves.
pub fn run(config: BenchConfig, make_system: MakeSystem) -> StoreResult<Run> {
    let env = BenchEnvironment::new(config)?;
    let restarted = OnceCell::new();
    let (outcome, replayed_events, stats) =
        Client::new(&env, make_system(&env))?.drive(make_system, &restarted)?;
    let network = &env.world.network;
    let (tripped, steps_seen) = (network.crash_tripped(), network.crash_steps_seen());
    let env = restarted.into_inner().unwrap_or(env);
    Ok(Run {
        verification: verify::verify_outcome(&env, &outcome)?,
        digests: recovery::digest_tables(&env.world)?,
        env,
        outcome,
        tripped,
        steps_seen,
        replayed_events,
        stats,
    })
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

/// How the client counts a delivery. [`TaskOutcome::Crashed`] is the
/// event whose instance the injected crash killed: its partial writes were
/// rolled back and no record was kept, so it is neither settled nor
/// reported as a dispatch failure — recovery replays it, and counting it
/// here too would double it in the conservation totals.
pub(crate) fn outcome(delivery: Delivery) -> TaskOutcome {
    match delivery {
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

/// The benchmark client.
pub struct Client<'a> {
    env: &'a BenchEnvironment,
    system: Arc<dyn IntegrationSystem>,
    /// Statically derived per-type resource footprints, used by the
    /// conflict DAG of [`PeriodPlan::concurrent_phase`] and the message
    /// edges of [`PeriodPlan::by_stream`].
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
    /// A system the crash already killed is handed nothing more.
    fn dispatch(&self, process: &'static str, period: u32, seq: u32) -> TaskOutcome {
        if self.env.world.network.crash_tripped() {
            return TaskOutcome::Crashed;
        }
        let event = match message_for(self.env, process, period, seq) {
            Some(msg) => Event::message(process, period, seq, msg),
            None => Event::timed(process, period, seq),
        };
        outcome(self.system.deliver(event))
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
    /// the phase's start. An event in `skip` is a task like any other: it
    /// waits for its prerequisites and then settles without pacing or
    /// delivery. It counts as settled even if a crash stops the phase
    /// before the pool reaches it, and a dead system dispatches nothing
    /// else.
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
        let outcomes = sched::run_pool(plan, threads, &|task| {
            if skip.skips(task.slot, task.index) {
                return TaskOutcome::Settled;
            }
            self.pace(start, task.deadline_tu);
            self.dispatch(task.process, k, task.seq)
        });
        // a trip nobody reported (a queued message a barrier ran, a branch
        // whose sibling failed first) still means everything unsettled
        // replays
        run.crashed |=
            outcomes.contains(&TaskOutcome::Crashed) || self.env.world.network.crash_tripped();
        // tasks are in virtual-time order, which keeps each stream's
        // indices ascending and the failures deterministic
        for (task, outcome) in plan.tasks().iter().zip(outcomes) {
            if outcome.settled() || skip.skips(task.slot, task.index) {
                run.settled.indices[task.slot].push(task.index);
            }
            run.failures
                .extend(DispatchFailure::of(task.process, k, task.seq, outcome));
        }
        // queued messages the phase's barriers ran and that failed for good
        run.failures.extend(self.system.take_failures());
    }

    /// Execute one benchmark period: uninitialize, initialize, streams
    /// A ∥ B, then C, then D. Events in `skip` (shed, or settled by a
    /// crashed run) are not dispatched, and `reinit: false` turns off the
    /// uninitialize/initialize prologue — a recovering run restores the
    /// period's mid-flight state from a checkpoint instead of rebuilding
    /// it.
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
            0 | 1 => (PeriodPlan::by_stream(&streams, 0..2, &self.profiles), 2),
            _ => (
                PeriodPlan::concurrent_phase(&streams, &self.profiles),
                workers,
            ),
        };
        self.run_phase(k, &concurrent, threads, skip, &mut run);
        // streams C and D keep their declared serialization
        for slot in 2..4 {
            let chain = PeriodPlan::by_stream(&streams, slot..slot + 1, &self.profiles);
            self.run_phase(k, &chain, 1, skip, &mut run);
        }
        Ok(run)
    }

    /// The one period loop. Each period's skip set is, under open-loop
    /// arrivals, the events its virtual queues shed, dead-lettered first
    /// ([`overload::shed_period`]); then [`Client::run_period_from`] runs
    /// it. On a crash the loop restarts into `slot` with a system from
    /// `make_system` ([`recovery::restart`]) and replays the crashed period
    /// without re-initialization, skipping its settled set (its sheds
    /// included), then carries on. Returns the merged outcome, the events
    /// the restart replayed and the arrival model's statistics.
    fn drive(
        &self,
        make_system: MakeSystem,
        slot: &'a OnceCell<BenchEnvironment>,
    ) -> StoreResult<(RunOutcome, usize, OverloadStats)> {
        let config = self.env.config;
        let _span = config.arrivals.map(|_| span("overload"));
        let start = Instant::now();
        let restarted = OnceCell::new();
        let mut client = self;
        let (mut records, mut failures, mut dead_letters) = (Vec::new(), Vec::new(), Vec::new());
        let (mut late, mut replayed, mut stats) = (0, 0, OverloadStats::default());
        // the crashed period's settled set, for the restart to replay
        let mut replay: Option<ReplaySkip> = None;
        let mut k = 0;
        while k < config.periods {
            let reinit = replay.is_none();
            let skip = match (replay.take(), &config.arrivals) {
                (Some(settled), _) => settled,
                (None, Some(arrivals)) => {
                    overload::shed_period(client.env, &*client.system, k, arrivals, &mut stats)
                }
                (None, None) => ReplaySkip::none(),
            };
            let period = client.run_period_from(k, &skip, reinit)?;
            failures.extend(period.failures);
            if !period.crashed {
                k += 1;
                continue;
            }
            // the crashed system produced no record of the instance it
            // killed, so its replay adds exactly one
            records.extend(client.system.recorder().drain());
            dead_letters.extend(client.system.dead_letters().drain());
            late += client.late.swap(0, Ordering::Relaxed);
            let fresh = recovery::restart(client.env, make_system, slot)?;
            client = restarted.get_or_init(|| fresh);
            let settled: usize = (0..4).map(|slot| period.settled.settled_in(slot)).sum();
            replayed =
                schedule::period_event_count(k, config.scale.datasize).saturating_sub(settled);
            dip_trace::count("recovery.replayed_events", replayed as u64);
            replay = Some(period.settled);
        }
        if config.arrivals.is_some() {
            stats.finish();
        }
        records.extend(client.system.recorder().drain());
        dead_letters.extend(client.system.dead_letters().drain());
        let mut outcome = client.build_outcome(records, failures, dead_letters, start.elapsed());
        outcome.late_dispatch += late;
        Ok((outcome, replayed, stats))
    }

    /// Aggregate already-collected raw results into a [`RunOutcome`] —
    /// the tail of the period loop, which merges a crashed system's
    /// records with its restart's before aggregating.
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
        // are byte-identical
        records.sort_by(|a, b| {
            (a.period, a.process.as_str(), a.seq).cmp(&(b.period, b.process.as_str(), b.seq))
        });
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
    use dip_mtm::cost::CostRecorder;
    use dip_mtm::error::{MtmError, MtmResult};
    use dip_mtm::process::ProcessDef;
    use dip_relstore::prelude::TransportFault;
    use std::sync::Mutex;

    /// Accepts every event; the first `take_failures` reports one queued
    /// message that failed after it was accepted.
    #[derive(Default)]
    struct Deferred {
        recorder: Arc<CostRecorder>,
        taken: Mutex<bool>,
    }

    impl IntegrationSystem for Deferred {
        fn name(&self) -> &str {
            "deferred"
        }

        fn deploy(&self, _defs: Vec<ProcessDef>) -> MtmResult<()> {
            Ok(())
        }

        fn deliver(&self, _event: Event) -> Delivery {
            Delivery::Completed
        }

        fn recorder(&self) -> Arc<CostRecorder> {
            self.recorder.clone()
        }

        fn take_failures(&self) -> Vec<DispatchFailure> {
            let mut taken = self.taken.lock().unwrap();
            let failure = DispatchFailure {
                process: "P04".into(),
                period: 0,
                seq: 7,
                error: "late".into(),
            };
            let failures = if *taken { Vec::new() } else { vec![failure] };
            *taken = true;
            failures
        }
    }

    /// What a system reports through `take_failures` is one of the run's
    /// failures, under closed and open-loop arrivals alike.
    #[test]
    fn failures_of_queued_messages_reach_the_run() {
        let scale = ScaleFactors::new(0.02, 1.0, Distribution::Uniform);
        let closed = BenchConfig::new(scale).with_periods(1);
        let open = BenchConfig {
            arrivals: Some(crate::overload::OverloadOptions::default()),
            ..closed
        };
        for config in [closed, open] {
            let failures = run(config, &|_| Arc::new(Deferred::default()))
                .unwrap()
                .outcome
                .failures;
            let names = failures
                .iter()
                .map(|f| (f.process.as_str(), f.period, f.seq));
            assert_eq!(names.collect::<Vec<_>>(), [("P04", 0, 7)], "{failures:?}");
        }
    }

    /// Records what it is delivered. With `crash`, the first delivery
    /// kills it and every later one finds it dead.
    #[derive(Default)]
    struct Recording {
        recorder: Arc<CostRecorder>,
        crash: bool,
        delivered: Mutex<Vec<(String, u32)>>,
    }

    impl IntegrationSystem for Recording {
        fn name(&self) -> &str {
            "recording"
        }

        fn deploy(&self, _defs: Vec<ProcessDef>) -> MtmResult<()> {
            Ok(())
        }

        fn deliver(&self, event: Event) -> Delivery {
            let id = (event.process().to_string(), event.seq());
            self.delivered.lock().unwrap().push(id);
            match self.crash {
                false => Delivery::Completed,
                true => Delivery::Failed {
                    error: MtmError::Transport(TransportFault {
                        endpoint: "recording".into(),
                        kind: TransportKind::Crash,
                        attempts: 0,
                    }),
                },
            }
        }

        fn recorder(&self) -> Arc<CostRecorder> {
            self.recorder.clone()
        }
    }

    /// A skip set in mid-stream — every third event of streams A and B,
    /// messages and timed events alike — is settled by the client: none
    /// of it reaches the system, all of it is reported settled, and so it
    /// stays when a crash stops the period before the pool reaches it.
    #[test]
    fn skipped_events_are_settled_and_never_delivered() {
        let scale = ScaleFactors::new(0.02, 1.0, Distribution::Uniform);
        let streams = schedule::period_streams(0, scale.datasize);
        let skipped: Vec<(usize, usize)> = (0..2)
            .flat_map(|slot| {
                (1..streams[slot].1.len())
                    .step_by(3)
                    .map(move |i| (slot, i))
            })
            .collect();
        let skip = ReplaySkip::of(skipped.iter().copied());
        let ids: Vec<(String, u32)> = (skipped.iter())
            .map(|&(slot, i)| &streams[slot].1[i])
            .map(|e| (e.process.to_string(), e.seq))
            .collect();
        for workers in [1, 4] {
            let config = BenchConfig::new(scale).with_periods(1);
            let env = BenchEnvironment::new(config.with_workers(workers)).unwrap();
            for crash in [false, true] {
                let system = Arc::new(Recording {
                    crash,
                    ..Recording::default()
                });
                let client = Client::new(&env, system.clone()).unwrap();
                let run = client.run_period_from(0, &skip, true).unwrap();
                let delivered = system.delivered.lock().unwrap();
                assert!(!delivered.is_empty(), "workers {workers} crash {crash}");
                assert!(
                    delivered.iter().all(|d| !ids.contains(d)),
                    "workers {workers} crash {crash}: a skipped event was delivered"
                );
                assert_eq!(run.crashed, crash, "workers {workers}");
                for &(slot, i) in &skipped {
                    assert!(
                        run.settled.skips(slot, i),
                        "workers {workers} crash {crash}: skipped ({slot}, {i}) not settled"
                    );
                }
                // a crash-free period settles everything, a crashed one
                // not the event the crash killed
                let all: usize = streams.iter().map(|(_, events)| events.len()).sum();
                let settled: usize = (0..4).map(|slot| run.settled.settled_in(slot)).sum();
                assert_eq!(settled == all, !crash, "workers {workers}");
            }
        }
    }

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
