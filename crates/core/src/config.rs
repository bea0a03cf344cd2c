//! Benchmark run configuration.

use crate::overload::OverloadOptions;
use crate::scale::ScaleFactors;
use dip_netsim::FaultPlan;

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
    /// Attempts per remote operation (1 = no retry), engaged only when
    /// `faults` is active. The call timeout and the backoff are constants
    /// of [`dip_services::resilience`].
    pub attempts: u32,
    /// Worker threads for schedule execution. `1` (the default) runs the
    /// paper's order — streams A and B as two serial chains on a thread
    /// each; `> 1` runs independent process instances of A ∥ B on that
    /// many threads under a conflict DAG. Both are plans for the one
    /// dispatcher, [`crate::sched::run_pool`], and same-seed runs are
    /// byte-identical at every worker count.
    pub workers: usize,
    /// The arrival model. `None` (the default) is the paper's closed loop;
    /// `Some` fires the E1 messages open-loop at a rate multiplier against
    /// bounded queues and sheds what finds them full
    /// ([`crate::overload`]).
    pub arrivals: Option<OverloadOptions>,
}

impl BenchConfig {
    pub fn new(scale: ScaleFactors) -> BenchConfig {
        BenchConfig {
            scale,
            periods: 3,
            seed: 0xD1B,
            pacing: PacingMode::Eager,
            faults: FaultPlan::NONE,
            attempts: dip_services::resilience::DEFAULT_ATTEMPTS,
            workers: 1,
            arrivals: None,
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

    pub fn with_attempts(mut self, attempts: u32) -> BenchConfig {
        self.attempts = attempts.max(1);
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
