//! The four workloads and the loop that runs one iteration of any of them.
//!
//! Method (fixed): closed loop, `PacingMode::Eager`, `TransferMode::
//! Accounted`, default `ExecMode::Auto`, faults off, `workers = 1`. All of
//! these are `BenchConfig::new`'s defaults, so the benchmark sets only the
//! scale factors, the period count and the seed.

use crate::spans::{BenchSpan, Recorder, MIRROR_PREFIX};
use crate::timed::{Sample, TimedSystem};
use dip_bench::{build_system, EngineKind};
use dipbench::client::{DispatchFailure, ReplaySkip};
use dipbench::prelude::*;
use dipbench::schedule;
use dipbench::verify::VerificationReport;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// How a workload's period dispatches events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// The paper's full period: streams A ∥ B, then C, then D, dispatched
    /// by the repo's `Client`.
    FullPeriods,
    /// Only the E1 messages of streams A and B, delivered one after the
    /// other by the benchmark itself; `passes` sweeps over the periods make
    /// one iteration.
    E1Storm { passes: u32 },
}

/// One workload. Names are permanent: results are compared by name.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Registry tag of the engine under test.
    pub engine: &'static str,
    /// Engine of the untimed same-seed pass whose digests must be equal.
    pub reference_engine: &'static str,
    pub datasize: f64,
    pub distribution: Distribution,
    pub periods: u32,
    pub shape: Shape,
    pub why: &'static str,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "fed_d05",
        engine: "fed",
        reference_engine: "mtm",
        datasize: 0.05,
        distribution: Distribution::Uniform,
        periods: 3,
        shape: Shape::FullPeriods,
        why: "Paper Fig. 10 cell and the repo's historical gate: mixed load over feddbms \
              triggers/procs/CLOB XML, relstore joins and scans, services P09 result sets",
    },
    Spec {
        name: "mtm_d20_zipf",
        engine: "mtm",
        reference_engine: "fed",
        datasize: 0.2,
        distribution: Distribution::Zipf10,
        periods: 2,
        shape: Shape::FullPeriods,
        why: "Large, skewed, read-dominated: working set beyond the caches, plans cross the \
              batch threshold; MTM operators, relstore scans and bulk inserts carry the period",
    },
    Spec {
        name: "ivm_d02",
        engine: "ivm",
        reference_engine: "fed",
        datasize: 0.02,
        distribution: Distribution::Uniform,
        periods: 6,
        shape: Shape::FullPeriods,
        why: "Small data, many instances: fixed per-instance costs dominate (tx, plan build, \
              change-capture drains); the third engine, standing queries over feddbms",
    },
    Spec {
        name: "e1_storm",
        engine: "mtm",
        reference_engine: "fed",
        datasize: 0.1,
        distribution: Distribution::Uniform,
        periods: 3,
        shape: Shape::E1Storm { passes: 4 },
        why: "Only E1 messages: point inserts under tx, xmlkit STX/XSD, services and netsim per \
              message, bulk load/wipe at period edges, no query-executor work; the control",
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    pub fn config(&self, seed: u64) -> BenchConfig {
        BenchConfig::new(ScaleFactors::new(self.datasize, 1.0, self.distribution))
            .with_periods(self.periods)
            .with_seed(seed)
    }

    /// Sweeps over the periods that make one iteration.
    pub fn passes(&self) -> u32 {
        match self.shape {
            Shape::FullPeriods => 1,
            Shape::E1Storm { passes } => passes,
        }
    }

    /// Periods executed by one iteration.
    pub fn periods_per_iteration(&self) -> u32 {
        self.periods * self.passes()
    }
}

/// Resolve a registry tag; the tags used by `WORKLOADS` always exist.
pub fn engine_kind(tag: &str) -> EngineKind {
    EngineKind::parse(tag).unwrap_or_else(|| panic!("engine tag {tag:?} is not in the registry"))
}

/// Environment + decorated system of one workload.
pub struct Rig {
    pub env: BenchEnvironment,
    pub timed: Arc<TimedSystem>,
}

impl Rig {
    /// Fresh environment and system under test (not yet deployed).
    pub fn build(engine: &str, config: BenchConfig, epoch: Instant) -> Rig {
        let env = BenchEnvironment::new(config).expect("environment construction");
        let system = build_system(engine_kind(engine), &env);
        Rig {
            timed: Arc::new(TimedSystem::new(system, epoch)),
            env,
        }
    }

    /// Deploy the 15 process types.
    pub fn client(&self) -> Client<'_> {
        Client::new(&self.env, self.timed.clone()).expect("deployment")
    }

    /// Cold generation + load of every period the workload uses; fills the
    /// environment's snapshot cache.
    pub fn load_all_periods(&self, spec: &Spec) {
        for k in 0..spec.periods {
            self.env.uninitialize().expect("uninitialize");
            self.env.initialize_sources(k).expect("initialize sources");
        }
    }
}

/// The E1 input message of an event, as the repo's client generates it.
pub fn e1_message(
    env: &BenchEnvironment,
    process: &str,
    period: u32,
    seq: u32,
) -> Option<dip_xmlkit::Document> {
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

/// The E1 events of period `k`: stream A's, then stream B's, in schedule
/// order.
pub fn e1_events(k: u32, d: f64) -> Vec<schedule::ScheduledEvent> {
    schedule::stream_a(k, d)
        .into_iter()
        .chain(schedule::stream_b(d))
        .filter(|e| matches!(e.process, "P01" | "P02" | "P04" | "P08" | "P10"))
        .collect()
}

/// What one iteration measured (raw nanoseconds; not yet normalized).
pub struct Iteration {
    pub wall_ns: u64,
    pub uninit_ns: u64,
    pub init_ns: u64,
    /// Outcome aggregation: recorder drain + `build_outcome`.
    pub monitor_ns: u64,
    /// Every `deliver` of the iteration, compacted: the measured loop
    /// keeps these until it ends, inside the process whose peak RSS it
    /// reports.
    pub deliveries: Vec<Delivered>,
    /// Mean NAVG+ across the process types that ran, tu.
    pub navg_plus_tu: f64,
    pub attempted: u64,
    pub failed: u64,
    pub instances: u64,
    pub dead_letters: u64,
    pub net_bytes: u64,
    pub net_messages: u64,
    pub net_modeled_ns: u64,
    /// The last pass's outcome, for verification (the measured loop drops
    /// it from every iteration but the last).
    pub outcome: Option<RunOutcome>,
}

/// One timed `deliver`, 8 bytes.
#[derive(Debug, Clone, Copy)]
pub struct Delivered {
    /// Process number 1..=15.
    pub process: u8,
    pub e1: bool,
    pub retried: bool,
    pub period: u8,
    /// Saturates at 4.29 s.
    pub dur_ns: u32,
}

impl From<&Sample> for Delivered {
    fn from(s: &Sample) -> Delivered {
        Delivered {
            process: s.process,
            e1: s.e1,
            retried: s.retried,
            period: s.period.min(255) as u8,
            dur_ns: s.dur_ns.min(u32::MAX as u64) as u32,
        }
    }
}

/// Runs iterations of one workload against a rig.
pub struct Runner<'a> {
    pub spec: &'a Spec,
    pub rig: &'a Rig,
    pub client: &'a Client<'a>,
    /// Span recorder, present in the traced run only.
    pub recorder: Option<&'a Recorder>,
}

impl Runner<'_> {
    /// Run `f` as a span of the benchmark: `mirror_op` is the span's name
    /// behind [`MIRROR_PREFIX`].
    fn spanned<T>(
        &self,
        mirror_op: &'static str,
        parent: Option<usize>,
        it: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let _mirror = dip_trace::span(dip_trace::Layer::Core, mirror_op);
        match self.recorder {
            None => f(),
            Some(rec) => {
                let id = rec.open(&mirror_op[MIRROR_PREFIX.len()..], parent, it);
                let out = f();
                rec.close(id);
                out
            }
        }
    }

    /// Deliver the period's E1 messages one after the other.
    fn storm_period(&self, k: u32) -> Vec<DispatchFailure> {
        let mut failures = Vec::new();
        for ev in e1_events(k, self.spec.datasize) {
            let msg = e1_message(&self.rig.env, ev.process, k, ev.seq).expect("E1 event");
            let delivery = self
                .rig
                .timed
                .deliver(Event::message(ev.process, k, ev.seq, msg));
            if let Delivery::Failed { error } = delivery {
                failures.push(DispatchFailure {
                    process: ev.process.to_string(),
                    period: k,
                    seq: ev.seq,
                    error: error.to_string(),
                });
            }
        }
        failures
    }

    /// One iteration: every pass runs the workload's periods in order, each
    /// as uninitialize → initialize sources → dispatch, then aggregates the
    /// pass's cost records exactly as `Client::run` does.
    pub fn iteration(&self, it: u32) -> Iteration {
        let env = &self.rig.env;
        let system = &self.rig.timed;
        let passes = self.spec.passes();
        let net_before = env.world.network.stats();
        let (mut uninit_ns, mut init_ns, mut monitor_ns) = (0u64, 0u64, 0u64);
        let (mut navg_sum, mut instances, mut dead_letters, mut lost) = (0.0, 0u64, 0u64, 0u64);
        let mut last_outcome = None;

        let root = self.recorder.map(|r| r.open("bench/iteration", None, it));
        let mirror_root = dip_trace::span(dip_trace::Layer::Core, "bench|bench/iteration");
        let start = Instant::now();
        for _ in 0..passes {
            let pass_start = Instant::now();
            let mut failures = Vec::new();
            for k in 0..self.spec.periods {
                let t0 = Instant::now();
                self.spanned("bench|core/uninitialize", root, it, || env.uninitialize())
                    .expect("uninitialize");
                let t1 = Instant::now();
                self.spanned("bench|core/initialize_sources", root, it, || {
                    env.initialize_sources(k)
                })
                .expect("initialize sources");
                let t2 = Instant::now();
                uninit_ns += (t1 - t0).as_nanos() as u64;
                init_ns += (t2 - t1).as_nanos() as u64;
                failures.extend(self.spanned("bench|core/dispatch", root, it, || {
                    match self.spec.shape {
                        Shape::FullPeriods => {
                            self.client
                                .run_period_from(k, &ReplaySkip::none(), false)
                                .expect("period")
                                .failures
                        }
                        Shape::E1Storm { .. } => self.storm_period(k),
                    }
                }));
            }
            let t3 = Instant::now();
            let outcome = self.spanned("bench|core/aggregate", root, it, || {
                let records = system.recorder().drain();
                let letters = system.dead_letters().drain();
                self.client
                    .build_outcome(records, failures, letters, pass_start.elapsed())
            });
            monitor_ns += t3.elapsed().as_nanos() as u64;
            let ran: Vec<f64> = outcome
                .metrics
                .iter()
                .filter(|m| m.instances > 0)
                .map(|m| m.navg_plus_tu)
                .collect();
            navg_sum += crate::stats::mean(&ran);
            instances += outcome.records.len() as u64;
            dead_letters += outcome.dead_letters.len() as u64;
            lost += (outcome.failures.len() + outcome.dead_letters.len()) as u64;
            last_outcome = Some(outcome);
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        drop(mirror_root);
        if let (Some(rec), Some(root)) = (self.recorder, root) {
            rec.close(root);
        }

        let samples = system.take();
        if let (Some(rec), Some(root)) = (self.recorder, root) {
            for s in &samples {
                rec.push(BenchSpan {
                    name: format!("engine/deliver:P{:02}", s.process),
                    thread: s.thread,
                    start_ns: s.start_ns,
                    end_ns: s.start_ns + s.dur_ns,
                    parent: Some(root),
                    iteration: it,
                });
            }
        }
        let net = env.world.network.stats();
        let not_ok = samples.iter().filter(|s| !s.ok).count() as u64;
        Iteration {
            wall_ns,
            uninit_ns,
            init_ns,
            monitor_ns,
            navg_plus_tu: navg_sum / passes as f64,
            attempted: samples.len() as u64,
            // every failed or dead-lettered event is also a not-ok delivery;
            // the outcome's lists are the second witness
            failed: not_ok.max(lost),
            instances,
            dead_letters,
            net_bytes: net.bytes - net_before.bytes,
            net_messages: net.messages - net_before.messages,
            net_modeled_ns: (net.total_delay - net_before.total_delay).as_nanos() as u64,
            deliveries: samples.iter().map(Delivered::from).collect(),
            outcome: last_outcome,
        }
    }

    /// Verify the state the last iteration left behind. The full-period
    /// workloads must pass every check of the repo's verifier; `e1_storm`
    /// never runs the warehouse processes, so only the checks about E1
    /// messages apply to it.
    pub fn verify(&self, iteration: &Iteration) -> Result<(), String> {
        let outcome = iteration
            .outcome
            .as_ref()
            .ok_or("iteration kept no outcome")?;
        let report: VerificationReport =
            dipbench::verify::verify_outcome(&self.rig.env, outcome).map_err(|e| e.to_string())?;
        let applies = |name: &str| match self.spec.shape {
            Shape::FullPeriods => true,
            Shape::E1Storm { .. } => {
                matches!(
                    name,
                    "failed_messages_match_injected" | "e1_message_conservation"
                )
            }
        };
        let mut checked = 0;
        for c in report.checks.iter().filter(|c| applies(c.name)) {
            checked += 1;
            if !c.passed {
                return Err(format!("verification failed: {} — {}", c.name, c.detail));
            }
        }
        if checked == 0 {
            return Err("no verification check applied".to_string());
        }
        Ok(())
    }

    pub fn digest(&self) -> BTreeMap<String, u64> {
        digest_tables(&self.rig.env.world).expect("table digests")
    }
}

/// One untimed same-seed iteration on the workload's reference engine; the
/// repo guarantees cross-engine byte identity, so its digests must equal
/// the engine under test's.
pub fn reference_digest(spec: &Spec, seed: u64) -> BTreeMap<String, u64> {
    let rig = Rig::build(spec.reference_engine, spec.config(seed), Instant::now());
    let client = rig.client();
    let runner = Runner {
        spec,
        rig: &rig,
        client: &client,
        recorder: None,
    };
    runner.iteration(0);
    runner.digest()
}

/// Fold a digest map into one value (for printing and comparison).
pub fn fold_digest(digests: &BTreeMap<String, u64>) -> u64 {
    digests.iter().fold(0xcbf2_9ce4_8422_2325, |h, (k, v)| {
        let mut h = h;
        for b in k.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
