//! Benchmark run configuration.

use crate::scale::ScaleFactors;
use dip_netsim::FaultPlan;
use dip_services::ResiliencePolicy;

/// How the client paces the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacingMode {
    /// Dispatch events in deadline order without sleeping. Deterministic
    /// ordering and concurrency structure, fastest wall time — the default
    /// for tests and CI.
    Eager,
    /// Sleep until each event's deadline (`tu × 1/t` ms) — wall-clock
    /// faithful runs, as the paper's toolsuite executes them.
    RealTime,
}

/// What a bounded queue does when a process type's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Backpressure: the producer blocks until a slot frees up. No message
    /// is ever lost, but under sustained overload waits grow without bound
    /// (classic closed-loop collapse — kept as the honest baseline).
    Block,
    /// Drop-tail: reject the *arriving* message. The shed message lands in
    /// the dead-letter queue with `shed = true` so E1 conservation still
    /// closes.
    Shed,
    /// Drop-head: evict the *oldest* waiting message of the same process
    /// type and admit the newest — bounds staleness instead of loss-rate.
    /// The evicted message is dead-lettered with `shed = true`.
    Degrade,
}

impl AdmissionPolicy {
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Block => "block",
            AdmissionPolicy::Shed => "shed",
            AdmissionPolicy::Degrade => "degrade",
        }
    }
}

/// Per-process-type queue bound + full-queue policy of an open-loop cell
/// ([`crate::overload::OverloadOptions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Maximum queued (not yet executing) messages per process type.
    pub capacity: usize,
    pub policy: AdmissionPolicy,
}

impl AdmissionControl {
    pub fn bounded(capacity: usize, policy: AdmissionPolicy) -> AdmissionControl {
        AdmissionControl {
            capacity: capacity.max(1),
            policy,
        }
    }
}

/// Everything a benchmark run needs to know.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    pub scale: ScaleFactors,
    /// Number of benchmark periods `k = 0 .. periods-1`. The specification
    /// says 100; smaller values keep CI runs short and are reported as
    /// such in EXPERIMENTS.md.
    pub periods: u32,
    /// Seed for the data generator and the network jitter.
    pub seed: u64,
    pub pacing: PacingMode,
    /// Everything the run injects: the seeded transport-fault model and the
    /// crash gate's crash point, instance abort and rollback-off switch
    /// (default: nothing — zero overhead).
    pub faults: FaultPlan,
    /// Retry/timeout/breaker policy, engaged only when `faults` is active.
    pub resilience: ResiliencePolicy,
    /// Worker threads for schedule execution. `1` (the default) runs the
    /// paper's order — streams A and B as two serial chains on a thread
    /// each; `> 1` runs independent process instances of A ∥ B on that
    /// many threads under a conflict DAG. Both are plans for the one
    /// dispatcher, [`crate::sched::run_pool`], and same-seed runs are
    /// byte-identical at every worker count.
    pub workers: usize,
}

impl BenchConfig {
    pub fn new(scale: ScaleFactors) -> BenchConfig {
        BenchConfig {
            scale,
            periods: 3,
            seed: 0xD1B,
            pacing: PacingMode::Eager,
            faults: FaultPlan::NONE,
            resilience: ResiliencePolicy::DEFAULT,
            workers: 1,
        }
    }

    pub fn with_periods(mut self, periods: u32) -> BenchConfig {
        self.periods = periods;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> BenchConfig {
        self.seed = seed;
        self
    }

    pub fn with_pacing(mut self, pacing: PacingMode) -> BenchConfig {
        self.pacing = pacing;
        self
    }

    pub fn with_faults(mut self, faults: FaultPlan) -> BenchConfig {
        self.faults = faults;
        self
    }

    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> BenchConfig {
        self.resilience = resilience;
        self
    }

    pub fn with_workers(mut self, workers: usize) -> BenchConfig {
        self.workers = workers.max(1);
        self
    }
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig::new(ScaleFactors::default())
    }
}
