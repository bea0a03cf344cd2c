//! Open-loop overload harness: saturation behavior as a first-class,
//! deterministic measurement.
//!
//! The paper's client is closed-loop — `run_period` sleeps until each
//! event's deadline, then dispatches *synchronously*, so when the system
//! falls behind the clock silently stretches and the measured load never
//! exceeds the service rate. Production systems don't get that mercy:
//! arrivals keep coming on their own schedule. This module asks the
//! production question — *how does the system degrade at saturation?* —
//! while keeping the reproduction's core invariant: **same-seed runs are
//! byte-identical**, counters included.
//!
//! # Two-phase design
//!
//! Real open-loop execution makes admission decisions depend on wall-clock
//! timing, which is irreproducible. Instead the harness splits the run:
//!
//! 1. **Virtual-time queueing simulation.** Arrivals are generated in
//!    abstract time units from the schedule: each E1 message series gets
//!    inter-arrival gaps drawn by [`crate::datagen::dist::sample_gap_tu`]
//!    under the `f` scale factor (uniform gaps reproduce the schedule
//!    exactly; zipfian gaps bunch arrivals into bursts at the same average
//!    rate), then the whole pattern is compressed by the `rate`
//!    multiplier. A deterministic single-server FIFO queue per process
//!    type (service time = base + message bytes) decides every event's
//!    fate — [`Fate::Admitted`] with its queueing wait, or [`Fate::Shed`]
//!    under a bounded queue's [`AdmissionPolicy`]. The gap RNG streams
//!    depend only on `(seed, period, process)`, never on `rate`, so a
//!    higher rate compresses the *same* arrival pattern: load is monotone
//!    in the multiplier by construction.
//! 2. **Deterministic dispatch.** Admitted events are delivered to the
//!    real [`IntegrationSystem`] in canonical schedule order (streams A+B
//!    merged by virtual time — a serial walk of the order
//!    [`crate::sched::PeriodPlan::by_stream`] allows, `docs/SCHEDULER.md` —
//!    then C, then D) through the client's one dispatch function. It
//!    stays on one thread: two would reorder the EAI broker's single
//!    FIFO. Shed events are never delivered; they land in the
//!    system's [`DeadLetterQueue`](crate::system::DeadLetterQueue) with
//!    `shed = true`, so the E1 conservation check still closes:
//!    `scheduled = integrated + dead-lettered + failed + shed`.
//!
//! Because every admission decision is made in virtual time, wall-clock
//! jitter cannot change integrated data, records, dead letters, or
//! counters — the property the `overload-*` rows of `dipbench gate` pin.
//!
//! This is the one admission model: the real broker
//! ([`crate::eai::EaiSystem`]) keeps unbounded queues, so the virtual
//! simulation is the sole shedder and fates stay deterministic.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::client::{message_for, Client, DispatchFailure, RunOutcome};
use crate::config::{AdmissionControl, AdmissionPolicy};
use crate::datagen::dist;
use crate::env::BenchEnvironment;
use crate::sched::PeriodPlan;
use crate::schedule::{self, is_message_process, ScheduledEvent};
use crate::system::{DeadLetter, IntegrationSystem};
use dip_relstore::prelude::StoreResult;
use dip_xmlkit::write_compact;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Virtual service time: a fixed per-message overhead plus a throughput
/// term proportional to the compact message size. Chosen so the uniform
/// schedule at rate 1 is comfortably under capacity (the E1 series space
/// messages 2–3 tu apart) while rate ≥ 2 saturates the P04/P08/P10
/// servers — the regime the overload sweep measures.
const SERVICE_BASE_TU: f64 = 0.6;
const SERVICE_BYTES_PER_TU: f64 = 1500.0;

/// Knobs of one overload cell.
#[derive(Debug, Clone, Copy)]
pub struct OverloadOptions {
    /// Arrival-rate multiplier: all inter-arrival gaps divide by this.
    /// `1.0` replays the schedule's average rate; `2.0` doubles it.
    pub rate: f64,
    /// Virtual per-process-type queue bound + full-queue policy.
    pub admission: AdmissionControl,
}

impl Default for OverloadOptions {
    fn default() -> Self {
        OverloadOptions {
            rate: 1.0,
            admission: AdmissionControl::bounded(16, AdmissionPolicy::Shed),
        }
    }
}

/// The simulated outcome of one scheduled E1 message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// Enters service after `wait_tu` in the queue.
    Admitted { wait_tu: f64 },
    /// Rejected by admission control; `degraded` when the event was
    /// admitted and later evicted by a newer arrival (drop-head).
    Shed { degraded: bool },
}

/// Aggregate queueing statistics over every simulated E1 series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverloadStats {
    /// E1 messages in the schedule (timed events are excluded — they are
    /// barriers, not queued work).
    pub scheduled_messages: u64,
    pub admitted: u64,
    pub shed: u64,
    /// Subset of `shed` evicted by the `Degrade` policy.
    pub degraded_evictions: u64,
    /// High-water mark of any process type's waiting queue.
    pub max_depth: u64,
    /// Admitted messages that waited at all.
    pub delayed: u64,
    pub mean_wait_tu: f64,
    pub max_wait_tu: f64,
    /// Total producer stall under the `Block` policy.
    pub blocked_tu: f64,
}

/// One overload run: the real execution outcome plus the virtual-time
/// queueing statistics that shaped it.
#[derive(Debug)]
pub struct OverloadRun {
    pub outcome: RunOutcome,
    pub stats: OverloadStats,
}

/// Per-event simulated arrival (virtual tu, already rate-compressed).
struct SeriesEvent {
    /// Index into the stream's event vector.
    index: usize,
    arrival_tu: f64,
    service_tu: f64,
}

/// Simulate one process type's single-server FIFO queue over its arrival
/// series, deciding each event's [`Fate`]. `events` is in arrival order.
fn simulate_series(
    events: &[SeriesEvent],
    admission: AdmissionControl,
    stats: &mut OverloadStats,
) -> Vec<(usize, Fate)> {
    let n = events.len();
    let mut shed = vec![false; n];
    let mut degraded = vec![false; n];
    let mut waits = vec![0.0f64; n];
    // indices waiting (admitted, not yet in service)
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut in_service: Option<usize> = None;
    let mut busy_until = 0.0f64;
    // Block policy: the producer's clock after its last stall
    let mut stall = 0.0f64;

    // complete everything due by `now`, pulling waiters into service
    let advance = |now: f64,
                   in_service: &mut Option<usize>,
                   busy_until: &mut f64,
                   waiting: &mut VecDeque<usize>,
                   waits: &mut [f64]| {
        while in_service.is_some() && *busy_until <= now {
            *in_service = waiting.pop_front();
            if let Some(j) = *in_service {
                let start = busy_until.max(events[j].arrival_tu);
                waits[j] = start - events[j].arrival_tu;
                *busy_until = start + events[j].service_tu;
            }
        }
    };

    for i in 0..n {
        let mut now = events[i].arrival_tu.max(stall);
        advance(
            now,
            &mut in_service,
            &mut busy_until,
            &mut waiting,
            &mut waits,
        );
        if waiting.len() >= admission.capacity {
            match admission.policy {
                AdmissionPolicy::Block => {
                    let before = now;
                    while waiting.len() >= admission.capacity && in_service.is_some() {
                        now = now.max(busy_until);
                        advance(
                            now,
                            &mut in_service,
                            &mut busy_until,
                            &mut waiting,
                            &mut waits,
                        );
                    }
                    stats.blocked_tu += now - before;
                    stall = now;
                }
                AdmissionPolicy::Shed => {
                    shed[i] = true;
                    continue;
                }
                AdmissionPolicy::Degrade => {
                    if let Some(old) = waiting.pop_front() {
                        shed[old] = true;
                        degraded[old] = true;
                    }
                }
            }
        }
        if in_service.is_none() {
            // idle server: enters service immediately
            busy_until = now + events[i].service_tu;
            waits[i] = now - events[i].arrival_tu;
            in_service = Some(i);
        } else {
            waiting.push_back(i);
        }
        stats.max_depth = stats.max_depth.max(waiting.len() as u64);
    }
    // drain: everything still queued eventually runs
    advance(
        f64::INFINITY,
        &mut in_service,
        &mut busy_until,
        &mut waiting,
        &mut waits,
    );

    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        stats.scheduled_messages += 1;
        let fate = if shed[i] {
            stats.shed += 1;
            if degraded[i] {
                stats.degraded_evictions += 1;
            }
            Fate::Shed {
                degraded: degraded[i],
            }
        } else {
            stats.admitted += 1;
            let w = waits[i];
            if w > 1e-9 {
                stats.delayed += 1;
            }
            stats.max_wait_tu = stats.max_wait_tu.max(w);
            // mean_wait_tu holds the running *sum* here; finalized by the
            // caller once every series contributed
            stats.mean_wait_tu += w;
            Fate::Admitted { wait_tu: w }
        };
        out.push((events[i].index, fate));
    }
    out
}

/// Phase 1 for one period: per-slot fates, `None` for timed events.
fn plan_period(
    env: &BenchEnvironment,
    streams: &[(schedule::StreamId, Vec<ScheduledEvent>)],
    period: u32,
    opts: &OverloadOptions,
    stats: &mut OverloadStats,
) -> Vec<Vec<Option<Fate>>> {
    let f = env.config.scale.distribution;
    let rate = opts.rate.max(1e-6);
    let mut fates: Vec<Vec<Option<Fate>>> =
        streams.iter().map(|(_, ev)| vec![None; ev.len()]).collect();
    for (slot, (_, events)) in streams.iter().enumerate() {
        // group the slot's message events into per-process series,
        // preserving schedule (deadline) order within each series
        let mut processes: Vec<&'static str> = Vec::new();
        for e in events {
            if is_message_process(e.process) && !processes.contains(&e.process) {
                processes.push(e.process);
            }
        }
        for process in processes {
            let series: Vec<(usize, &ScheduledEvent)> = events
                .iter()
                .enumerate()
                .filter(|(_, e)| e.process == process)
                .collect();
            let mut rng = env
                .generator
                .rng(period, &format!("overload.gaps.{process}"));
            let mut sim_events: Vec<SeriesEvent> = Vec::with_capacity(series.len());
            let mut clock_tu = 0.0f64;
            let mut prev_deadline = 0.0f64;
            for (i, (index, e)) in series.iter().enumerate() {
                if i == 0 {
                    clock_tu = e.deadline_tu;
                } else {
                    let mean = (e.deadline_tu - prev_deadline).max(0.0);
                    clock_tu += dist::sample_gap_tu(f, &mut rng, mean);
                }
                prev_deadline = e.deadline_tu;
                let service_tu = match message_for(env, process, period, e.seq) {
                    Some(msg) => {
                        SERVICE_BASE_TU + write_compact(&msg).len() as f64 / SERVICE_BYTES_PER_TU
                    }
                    None => SERVICE_BASE_TU,
                };
                sim_events.push(SeriesEvent {
                    index: *index,
                    arrival_tu: clock_tu / rate,
                    service_tu,
                });
            }
            for (index, fate) in simulate_series(&sim_events, opts.admission, stats) {
                fates[slot][index] = Some(fate);
            }
        }
    }
    fates
}

/// Run the whole benchmark under open-loop overload: simulate fates in
/// virtual time, then dispatch admitted events to `system` in canonical
/// schedule order and dead-letter the shed ones (`shed = true`).
///
/// The returned outcome's records/failures/dead-letters are canonically
/// sorted; same-seed invocations are byte-identical.
pub fn run_overload(
    env: &BenchEnvironment,
    system: Arc<dyn IntegrationSystem>,
    opts: &OverloadOptions,
) -> StoreResult<OverloadRun> {
    let _span = dip_trace::span_cat(
        dip_trace::Layer::Core,
        "overload",
        dip_trace::Category::Management,
    );
    let start = Instant::now();
    let client = Client::new(env, system.clone())?;
    let mut stats = OverloadStats::default();
    let mut failures: Vec<DispatchFailure> = Vec::new();
    for k in 0..env.config.periods {
        env.uninitialize()?;
        env.initialize_sources(k)?;
        let streams = schedule::period_streams(k, env.config.scale.datasize);
        let fates = plan_period(env, &streams, k, opts, &mut stats);
        // canonical dispatch order: the client's phases (A ∥ B, then C,
        // then D), each walked serially in its plan's virtual-time order
        for slots in [0..2, 2..3, 3..4] {
            for task in PeriodPlan::by_stream(&streams, slots).tasks() {
                match fates[task.slot][task.index] {
                    Some(Fate::Shed { degraded }) => {
                        let payload =
                            message_for(env, task.process, k, task.seq).map(|m| write_compact(&m));
                        system.dead_letters().push(DeadLetter {
                            process: task.process.to_string(),
                            period: k,
                            seq: task.seq,
                            reason: format!(
                                "overload admission: queue full ({})",
                                if degraded { "degrade" } else { "shed" }
                            ),
                            payload,
                            shed: true,
                        });
                    }
                    _ => failures.extend(DispatchFailure::of(
                        task.process,
                        k,
                        task.seq,
                        client.dispatch(task.process, k, task.seq),
                    )),
                }
            }
        }
    }
    // finalize the wait mean (simulate_series accumulated the sum)
    if stats.admitted > 0 {
        stats.mean_wait_tu /= stats.admitted as f64;
    }
    // deterministic virtual-time counters for the gate fingerprint
    dip_trace::count("overload.queue_depth_max", stats.max_depth);
    dip_trace::count("overload.delayed", stats.delayed);
    let records = system.recorder().drain();
    let dead_letters = system.dead_letters().drain();
    let outcome = client.build_outcome(records, failures, dead_letters, start.elapsed());
    Ok(OverloadRun { outcome, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn mini_env(f: Distribution, periods: u32) -> BenchEnvironment {
        let config = BenchConfig::new(ScaleFactors::new(0.02, 1.0, f)).with_periods(periods);
        BenchEnvironment::new(config).unwrap()
    }

    #[test]
    fn uniform_rate_one_is_lossless_and_waitless() {
        // D/D/1 with utilization < 1: the uniform schedule at rate 1
        // never queues, so nothing sheds and nothing waits
        let env = mini_env(Distribution::Uniform, 1);
        let system = Arc::new(MtmSystem::new(env.world.clone()));
        let run = run_overload(&env, system, &OverloadOptions::default()).unwrap();
        assert_eq!(run.stats.shed, 0, "{:?}", run.stats);
        assert_eq!(run.stats.max_depth, 0, "{:?}", run.stats);
        assert!(run.outcome.failures.is_empty());
        let report = crate::verify::verify_outcome(&env, &run.outcome).unwrap();
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn overload_sheds_and_conserves() {
        let env = mini_env(Distribution::Zipf10, 1);
        let system = Arc::new(MtmSystem::new(env.world.clone()));
        let opts = OverloadOptions {
            rate: 3.0,
            admission: AdmissionControl::bounded(4, AdmissionPolicy::Shed),
        };
        let run = run_overload(&env, system, &opts).unwrap();
        assert!(run.stats.shed > 0, "{:?}", run.stats);
        assert!(run.stats.max_depth <= 4, "{:?}", run.stats);
        let shed_letters = run.outcome.dead_letters.iter().filter(|l| l.shed).count() as u64;
        assert_eq!(shed_letters, run.stats.shed);
        assert_eq!(
            run.stats.admitted + run.stats.shed,
            run.stats.scheduled_messages
        );
        // shed-aware conservation closes on the real integrated data
        let report = crate::verify::verify_outcome(&env, &run.outcome).unwrap();
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn same_seed_double_runs_are_byte_identical() {
        let opts = OverloadOptions {
            rate: 2.0,
            admission: AdmissionControl::bounded(4, AdmissionPolicy::Degrade),
        };
        let run_once = || {
            let env = mini_env(Distribution::Zipf10, 1);
            let system = Arc::new(MtmSystem::new(env.world.clone()));
            let run = run_overload(&env, system, &opts).unwrap();
            let digest = crate::recovery::digest_tables(&env.world).unwrap();
            (run, digest)
        };
        let (a, da) = run_once();
        let (b, db) = run_once();
        assert_eq!(da, db, "integrated data differs between same-seed runs");
        assert_eq!(a.outcome.dead_letters, b.outcome.dead_letters);
        assert_eq!(a.stats.shed, b.stats.shed);
        assert_eq!(a.stats.max_depth, b.stats.max_depth);
        assert!((a.stats.mean_wait_tu - b.stats.mean_wait_tu).abs() < 1e-12);
    }

    #[test]
    fn block_policy_never_sheds_but_stalls() {
        let env = mini_env(Distribution::Zipf10, 1);
        let system = Arc::new(MtmSystem::new(env.world.clone()));
        let opts = OverloadOptions {
            rate: 3.0,
            admission: AdmissionControl::bounded(2, AdmissionPolicy::Block),
        };
        let run = run_overload(&env, system, &opts).unwrap();
        assert_eq!(run.stats.shed, 0);
        assert!(run.stats.blocked_tu > 0.0, "{:?}", run.stats);
        assert!(run.stats.max_depth <= 2 + 1, "{:?}", run.stats);
    }

    #[test]
    fn shed_grows_monotonically_with_rate() {
        let mut prev = 0u64;
        for rate in [1.0, 2.0, 4.0] {
            let env = mini_env(Distribution::Zipf10, 1);
            let system = Arc::new(MtmSystem::new(env.world.clone()));
            let opts = OverloadOptions {
                rate,
                admission: AdmissionControl::bounded(4, AdmissionPolicy::Shed),
            };
            let run = run_overload(&env, system, &opts).unwrap();
            assert!(
                run.stats.shed >= prev,
                "shed fell from {prev} to {} at rate {rate}",
                run.stats.shed
            );
            prev = run.stats.shed;
        }
    }
}
