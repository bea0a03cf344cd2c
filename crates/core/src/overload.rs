//! Open-loop arrivals: saturation behavior as a first-class,
//! deterministic measurement.
//!
//! The paper's client is closed-loop — it sleeps until each
//! event's deadline, then dispatches *synchronously*, so when the system
//! falls behind the clock silently stretches and the measured load never
//! exceeds the service rate. Production systems don't get that mercy:
//! arrivals keep coming on their own schedule. A run whose config sets
//! `BenchConfig::arrivals` asks the production question — *how does the
//! system degrade at saturation?* — while keeping the reproduction's core
//! invariant: **same-seed runs are byte-identical**, counters included.
//!
//! # Two-phase design
//!
//! Real open-loop execution makes admission decisions depend on wall-clock
//! timing, which is irreproducible. Instead each period of the run's one
//! period loop ([`crate::client::run`]) is split:
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
//!    when the arrival finds `capacity` messages already waiting
//!    (drop-tail). The gap RNG streams depend only on
//!    `(seed, period, process)`, never on `rate`, so a higher rate
//!    compresses the *same* arrival pattern: load is monotone in the
//!    multiplier by construction.
//! 2. **Real dispatch.** The period then runs through the client's one
//!    dispatcher, [`Client::run_period_from`](crate::client::Client::run_period_from),
//!    with the shed events in its skip set: A ∥ B on the client's pool at
//!    `config.workers`, then C, then D, exactly as a closed run
//!    (`docs/SCHEDULER.md`). A skipped event stays a task of its stream,
//!    which the client settles without delivering it, so its dependents
//!    run, as in a recovery replay. Shed events are never delivered; they
//!    land in the system's
//!    [`DeadLetterQueue`](crate::system::DeadLetterQueue) with
//!    `shed = true`, so the E1 conservation check still closes:
//!    `scheduled = integrated + dead-lettered + failed + shed`.
//!
//! Because every admission decision is made in virtual time, wall-clock
//! jitter cannot change integrated data, records, dead letters, or
//! counters — the property the `overload-*` rows of `dipbench gate` pin.
//! A crash in an overloaded run decides no fate twice: the crashed
//! period's sheds are already dead-lettered and in its settled set, and
//! the restart replays that set without planning the period again.
//!
//! This is the one admission model: the real broker
//! ([`crate::eai::EaiSystem`]) keeps an unbounded queue, so the virtual
//! simulation is the sole shedder and fates stay deterministic.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::client::{message_for, ReplaySkip};
use crate::datagen::dist;
use crate::env::BenchEnvironment;
use crate::schedule::{self, is_message_process, ScheduledEvent};
use crate::system::{DeadLetter, IntegrationSystem};
use dip_xmlkit::{compact_len, write_compact};
use std::collections::VecDeque;

/// Virtual service time: a fixed per-message overhead plus a throughput
/// term proportional to the compact message size. Chosen so the uniform
/// schedule at rate 1 is comfortably under capacity (the E1 series space
/// messages 2–3 tu apart) while rate ≥ 2 saturates the P04/P08/P10
/// servers — the regime the overload sweep measures.
const SERVICE_BASE_TU: f64 = 0.6;
const SERVICE_BYTES_PER_TU: f64 = 1500.0;

/// The open-loop arrival model of a run (`BenchConfig::arrivals`).
#[derive(Debug, Clone, Copy)]
pub struct OverloadOptions {
    /// Arrival-rate multiplier: all inter-arrival gaps divide by this.
    /// `1.0` replays the schedule's average rate; `2.0` doubles it.
    pub rate: f64,
    /// Maximum queued (not yet executing) messages per process type; an
    /// arrival that finds the queue full is shed. Values below 1 act as 1.
    pub capacity: usize,
}

impl Default for OverloadOptions {
    fn default() -> Self {
        OverloadOptions {
            rate: 1.0,
            capacity: 16,
        }
    }
}

/// The simulated outcome of one scheduled E1 message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// Enters service after `wait_tu` in the queue.
    Admitted { wait_tu: f64 },
    /// Rejected on arrival: its process type's queue was full.
    Shed,
}

/// Aggregate queueing statistics over every simulated E1 series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverloadStats {
    /// E1 messages in the schedule (timed events are excluded — they are
    /// barriers, not queued work).
    pub scheduled_messages: u64,
    pub admitted: u64,
    pub shed: u64,
    /// High-water mark of any process type's waiting queue.
    pub max_depth: u64,
    /// Admitted messages that waited at all.
    pub delayed: u64,
    pub mean_wait_tu: f64,
    pub max_wait_tu: f64,
}

impl OverloadStats {
    /// Close a run's statistics: turn the wait sum into a mean and count
    /// the deterministic virtual-time counters of the gate fingerprint.
    pub(crate) fn finish(&mut self) {
        if self.admitted > 0 {
            self.mean_wait_tu /= self.admitted as f64;
        }
        dip_trace::count("overload.queue_depth_max", self.max_depth);
        dip_trace::count("overload.delayed", self.delayed);
    }
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
    capacity: usize,
    stats: &mut OverloadStats,
) -> Vec<(usize, Fate)> {
    // service start times of the admitted messages not yet in service
    let mut waiting: VecDeque<f64> = VecDeque::new();
    let mut busy_until = 0.0f64;
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        stats.scheduled_messages += 1;
        // whatever entered service by now has left the queue
        while waiting.front().is_some_and(|&start| start <= e.arrival_tu) {
            waiting.pop_front();
        }
        if waiting.len() >= capacity.max(1) {
            stats.shed += 1;
            out.push((e.index, Fate::Shed));
            continue;
        }
        // FIFO: service starts when the server frees up, or at arrival
        let start = busy_until.max(e.arrival_tu);
        busy_until = start + e.service_tu;
        if start > e.arrival_tu {
            waiting.push_back(start);
        }
        stats.max_depth = stats.max_depth.max(waiting.len() as u64);
        let w = start - e.arrival_tu;
        stats.admitted += 1;
        if w > 1e-9 {
            stats.delayed += 1;
        }
        stats.max_wait_tu = stats.max_wait_tu.max(w);
        // mean_wait_tu holds the running *sum* here; finalized by the
        // caller once every series contributed
        stats.mean_wait_tu += w;
        out.push((e.index, Fate::Admitted { wait_tu: w }));
    }
    out
}

/// Phase 1 for one period: the `(slot, index)` of every event the
/// virtual queues shed.
fn plan_period(
    env: &BenchEnvironment,
    streams: &[(schedule::StreamId, Vec<ScheduledEvent>)],
    period: u32,
    opts: &OverloadOptions,
    stats: &mut OverloadStats,
) -> Vec<(usize, usize)> {
    let f = env.config.scale.distribution;
    let rate = opts.rate.max(1e-6);
    let mut shed = Vec::new();
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
                    Some(msg) => SERVICE_BASE_TU + compact_len(&msg) as f64 / SERVICE_BYTES_PER_TU,
                    None => SERVICE_BASE_TU,
                };
                sim_events.push(SeriesEvent {
                    index: *index,
                    arrival_tu: clock_tu / rate,
                    service_tu,
                });
            }
            for (index, fate) in simulate_series(&sim_events, opts.capacity, stats) {
                if fate == Fate::Shed {
                    shed.push((slot, index));
                }
            }
        }
    }
    shed
}

/// Phase 1 of period `k`: the events the virtual queues shed, each
/// dead-lettered on `system` (`shed = true`) — the period's skip set.
pub(crate) fn shed_period(
    env: &BenchEnvironment,
    system: &dyn IntegrationSystem,
    k: u32,
    opts: &OverloadOptions,
    stats: &mut OverloadStats,
) -> ReplaySkip {
    let streams = schedule::period_streams(k, env.config.scale.datasize);
    let shed = plan_period(env, &streams, k, opts, stats);
    for &(slot, index) in &shed {
        let e = &streams[slot].1[index];
        system.dead_letters().push(DeadLetter {
            process: e.process.to_string(),
            period: k,
            seq: e.seq,
            reason: "overload admission: queue full (shed)".into(),
            payload: message_for(env, e.process, k, e.seq).map(|m| write_compact(&m)),
            shed: true,
        });
    }
    ReplaySkip::of(shed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{run, Run};
    use crate::prelude::*;
    use std::sync::Arc;

    /// One mtm period under `opts` arrivals.
    fn overloaded(f: Distribution, opts: OverloadOptions) -> Run {
        let config = BenchConfig {
            arrivals: Some(opts),
            ..BenchConfig::new(ScaleFactors::new(0.02, 1.0, f)).with_periods(1)
        };
        run(config, &|env| Arc::new(MtmSystem::new(env.world.clone()))).unwrap()
    }

    #[test]
    fn uniform_rate_one_is_lossless_and_waitless() {
        // D/D/1 with utilization < 1: the uniform schedule at rate 1
        // never queues, so nothing sheds and nothing waits
        let run = overloaded(Distribution::Uniform, OverloadOptions::default());
        assert_eq!(run.stats.shed, 0, "{:?}", run.stats);
        assert_eq!(run.stats.max_depth, 0, "{:?}", run.stats);
        assert!(run.outcome.failures.is_empty());
        assert!(run.verification.passed(), "{}", run.verification);
    }

    #[test]
    fn overload_sheds_and_conserves() {
        let opts = OverloadOptions {
            rate: 3.0,
            capacity: 4,
        };
        let run = overloaded(Distribution::Zipf10, opts);
        assert!(run.stats.shed > 0, "{:?}", run.stats);
        assert!(run.stats.max_depth <= 4, "{:?}", run.stats);
        let shed_letters = run.outcome.dead_letters.iter().filter(|l| l.shed).count() as u64;
        assert_eq!(shed_letters, run.stats.shed);
        assert_eq!(
            run.stats.admitted + run.stats.shed,
            run.stats.scheduled_messages
        );
        // shed-aware conservation closes on the real integrated data
        assert!(run.verification.passed(), "{}", run.verification);
    }

    #[test]
    fn same_seed_double_runs_are_byte_identical() {
        let opts = OverloadOptions {
            rate: 2.0,
            capacity: 4,
        };
        let a = overloaded(Distribution::Zipf10, opts);
        let b = overloaded(Distribution::Zipf10, opts);
        assert!(a.stats.shed > 0, "{:?}", a.stats);
        assert_eq!(
            a.digests, b.digests,
            "integrated data differs between same-seed runs"
        );
        assert_eq!(a.outcome.dead_letters, b.outcome.dead_letters);
        assert_eq!(a.stats.shed, b.stats.shed);
        assert_eq!(a.stats.max_depth, b.stats.max_depth);
        assert!((a.stats.mean_wait_tu - b.stats.mean_wait_tu).abs() < 1e-12);
    }

    #[test]
    fn shed_grows_monotonically_with_rate() {
        let mut prev = 0u64;
        for rate in [1.0, 2.0, 4.0] {
            let opts = OverloadOptions { rate, capacity: 4 };
            let shed = overloaded(Distribution::Zipf10, opts).stats.shed;
            assert!(
                shed >= prev,
                "shed fell from {prev} to {shed} at rate {rate}"
            );
            prev = shed;
        }
    }
}
