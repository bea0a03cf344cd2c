//! The robustness gates as data plus one interpreter: one [`Fingerprint`]
//! of what a run durably produced, one [`run_cell`] that produces it for
//! any config — a cell's faults, crash point and arrival model are all
//! fields of its [`BenchConfig`] — one [`judge`] per [`Check`], and the
//! declared [`GATES`] table that `dipbench gate`, the exploratory
//! `faults`/`crash`/`overload` commands and the integration tests all walk.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::{build_system, EngineKind};
use dip_relstore::error::StoreResult;
use dipbench::client;
use dipbench::prelude::*;
use dipbench::verify::VerificationReport;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Everything a run durably produces, in byte-comparable form. Wall-clock
/// metrics are real durations and stay out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fingerprint {
    /// Content digest of every table of every database.
    pub digests: BTreeMap<String, u64>,
    pub dead_letters: Vec<DeadLetter>,
    /// The dispatch failures, rendered.
    pub failures: String,
    /// Per process type, the instances that ran: `(process, ok, failed)`.
    pub instances: Vec<(String, usize, usize)>,
    /// Every counter the run drained, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Whether the verification phase passed.
    pub verified: bool,
}

impl Fingerprint {
    /// What a finished run produced: its outcome, its verification and the
    /// table `digests` of its world. The counters are [`run_cell`]'s to
    /// fill in.
    pub fn of(
        outcome: &RunOutcome,
        verification: &VerificationReport,
        digests: BTreeMap<String, u64>,
    ) -> Fingerprint {
        Fingerprint {
            digests,
            dead_letters: outcome.dead_letters.clone(),
            failures: format!("{:?}", outcome.failures),
            instances: (outcome.metrics.iter())
                .map(|m| (m.process.clone(), m.instances, m.failures))
                .collect(),
            counters: Vec::new(),
            verified: verification.passed(),
        }
    }

    /// The stand-in for a cell that errored instead of finishing: equal to
    /// no real run, never verified.
    pub fn failed(error: String) -> Fingerprint {
        Fingerprint {
            failures: error,
            ..Fingerprint::default()
        }
    }

    /// The components on which two runs differ (empty: identical). The
    /// counters are compared only between two runs of the *same cell*: a
    /// recovered run or another worker count legitimately counts different
    /// work on the way to the same data.
    pub fn diff(&self, other: &Fingerprint, same_cell: bool) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let tables = self.digests.keys().chain(other.digests.keys());
        for table in tables.collect::<BTreeSet<_>>() {
            if self.digests.get(table) != other.digests.get(table) {
                out.push(format!("table {table}"));
            }
        }
        if self.dead_letters != other.dead_letters {
            out.push("dead letters".into());
        }
        if self.failures != other.failures {
            out.push("dispatch failures".into());
        }
        if self.instances != other.instances {
            out.push("instances".into());
        }
        if self.verified != other.verified {
            out.push("verification".into());
        }
        if same_cell {
            let (ours, theirs): (BTreeSet<_>, BTreeSet<_>) = (
                self.counters.iter().collect(),
                other.counters.iter().collect(),
            );
            let odd = ours.symmetric_difference(&theirs);
            out.extend(odd.map(|(name, n)| format!("counter {name}={n}")));
        }
        out
    }

    /// Dead letters that admission control shed.
    pub fn shed(&self) -> usize {
        self.dead_letters.iter().filter(|l| l.shed).count()
    }
}

/// One executed cell: the comparable fingerprint plus the run the
/// exploratory commands print.
pub struct CellRun {
    pub fingerprint: Fingerprint,
    pub run: Run,
}

/// Run one cell with counter tracing on. The cell's trace collector is
/// this thread's, so cells on other threads count apart from it.
pub fn run_cell(kind: EngineKind, config: BenchConfig) -> StoreResult<CellRun> {
    dip_trace::enable();
    let run = client::run(config, &|env| build_system(kind, env));
    let _ = dip_trace::drain();
    let mut counters = dip_trace::drain_counters();
    dip_trace::disable();
    counters.sort();
    let run = run?;
    let fingerprint = Fingerprint {
        counters,
        ..Fingerprint::of(&run.outcome, &run.verification, run.digests.clone())
    };
    Ok(CellRun { fingerprint, run })
}

/// The process types the crash sweep kills, one per group of Fig. 9's
/// materialization points: E1 message, extraction, consolidation, mart.
pub const CRASH_TARGETS: [&str; 4] = ["P02", "P05", "P09", "P13"];

/// The crash sweep: an uncrashed reference, then for each target process
/// instance `(period, seq)` one recovered cell per materialization step
/// (`at`: only that step) until the ordinal falls off the instance's last
/// round trip. `rollback: false` turns instance rollback off until the
/// crash, so aborted instances leak partial writes. Returns the
/// fingerprints, reference first; `on_cell` sees the reference fingerprint
/// and every cell as it finishes.
pub fn crash_sweep(
    kind: EngineKind,
    config: BenchConfig,
    targets: &[&str],
    (period, seq): (u32, u32),
    at: Option<u32>,
    rollback: bool,
    on_cell: &mut dyn FnMut(&CrashTarget, &Fingerprint, &StoreResult<CellRun>),
) -> Result<Vec<Fingerprint>, String> {
    // Deterministic mid-write dead-letter: P04 seq 0 aborts at its third
    // materialization step, in the reference and every recovery run alike.
    // The benchmark's data flows are replay-idempotent, so a *crashed*
    // (replayed) instance can never expose missing rollback — but a
    // dead-lettered instance is never replayed, and its partial writes
    // stay out of the durable state only because the transaction layer
    // rolled them back. With rollback off they leak and digests diverge.
    let workload = config.with_faults(FaultPlan {
        abort: Some(CrashPlan::at("P04", period, 0, 2)),
        ..config.faults
    });
    let reference = run_cell(kind, workload).map_err(|e| e.to_string())?;
    if !reference.fingerprint.verified {
        let report = reference.run.verification;
        return Err(format!("reference run failed verification:\n{report}"));
    }
    let mut fps = vec![reference.fingerprint];
    let mut crashed = workload;
    crashed.faults.leak_rollbacks = !rollback;
    for process in targets {
        for step in at.map_or(0..u32::MAX, |k| k..k.saturating_add(1)) {
            let target = CrashTarget {
                process: process.to_string(),
                period,
                seq,
                step,
            };
            let cell = run_cell(kind, crash_cell(crashed, &target));
            on_cell(&target, &fps[0], &cell);
            match cell {
                Ok(cell) if !cell.run.tripped => break,
                Ok(cell) => fps.push(cell.fingerprint),
                // leaked partial writes can make the replay itself blow
                // up (duplicate keys): equal to no reference, so diverged
                Err(e) => fps.push(Fingerprint::failed(e.to_string())),
            }
        }
    }
    if fps.len() == 1 {
        return Err("no crash step ever fired — nothing was tested".into());
    }
    Ok(fps)
}

/// The configuration of one crash cell: `base`, killed at `target` and
/// recovered.
pub fn crash_cell(mut base: BenchConfig, target: &CrashTarget) -> BenchConfig {
    base.faults.crash = Some(target.plan());
    base
}

/// The configuration of one open-loop cell: `base` with `f`-skewed
/// arrivals at `rate` × the schedule's average against queues that hold
/// at most `capacity` waiting messages per process type.
pub fn overload_cell(
    base: BenchConfig,
    f: Distribution,
    rate: f64,
    capacity: usize,
) -> BenchConfig {
    let scale = ScaleFactors::new(base.scale.datasize, base.scale.time, f);
    let arrivals = Some(OverloadOptions { rate, capacity });
    BenchConfig {
        scale,
        arrivals,
        ..base
    }
}

/// How a gate row's cells are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Cells come in consecutive pairs of the same cell; each pair must be
    /// byte-identical, counters included, and every run must verify.
    SameSeedTwice,
    /// Every cell must equal the first on data, and every run must verify.
    EqualsReference,
    /// At least one cell must differ from the first: the row proves the
    /// comparison can fail.
    MustDiverge,
    /// Shed counts must never fall from one cell to the next, and every
    /// run must verify.
    MonotoneShed,
}

impl Check {
    pub fn label(self) -> &'static str {
        match self {
            Check::SameSeedTwice => "same-seed-twice",
            Check::EqualsReference => "equals-reference",
            Check::MustDiverge => "must-diverge",
            Check::MonotoneShed => "monotone-shed",
        }
    }
}

/// The outcome of judging one row's cells.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub cells: usize,
    pub verified: usize,
    /// Comparisons that held (for `monotone-shed`: shed did not fall).
    pub identical: usize,
    /// Comparisons that did not, each explained in `notes`.
    pub diverged: usize,
    pub notes: Vec<String>,
    pub pass: bool,
}

/// Judge a row's fingerprints under its check. Pure: the teeth tests feed
/// it fabricated fingerprints.
pub fn judge(check: Check, cells: &[Fingerprint]) -> Verdict {
    let mut verdict = Verdict {
        cells: cells.len(),
        verified: cells.iter().filter(|c| c.verified).count(),
        ..Verdict::default()
    };
    let pairs: Vec<(&Fingerprint, &Fingerprint)> = match check {
        Check::SameSeedTwice => cells.chunks(2).map(|p| (&p[0], &p[p.len() - 1])).collect(),
        Check::EqualsReference | Check::MustDiverge => {
            cells.iter().skip(1).map(|c| (&cells[0], c)).collect()
        }
        Check::MonotoneShed => cells.windows(2).map(|w| (&w[0], &w[1])).collect(),
    };
    for (i, (a, b)) in pairs.iter().enumerate() {
        let differences = match check {
            Check::MonotoneShed if b.shed() < a.shed() => {
                vec![format!("shed fell from {} to {}", a.shed(), b.shed())]
            }
            Check::MonotoneShed => Vec::new(),
            _ => b.diff(a, check == Check::SameSeedTwice),
        };
        if differences.is_empty() {
            verdict.identical += 1;
        } else {
            verdict.diverged += 1;
            verdict
                .notes
                .push(format!("comparison {}: {}", i + 1, differences.join(", ")));
        }
    }
    verdict.pass = !pairs.is_empty()
        && match check {
            Check::MustDiverge => verdict.diverged > 0,
            _ => verdict.diverged == 0 && verdict.verified == verdict.cells,
        };
    verdict
}

/// Which cells a gate row runs.
#[derive(Debug, Clone, Copy)]
pub enum Cells {
    /// The closed-loop cell under a seeded transport drop rate.
    Drop(f64),
    /// The clean closed-loop cell at the row's worker count, then at each
    /// of these — over three periods, as `bench --scaling` ran it, so the
    /// pool is torn down and rebuilt across period boundaries.
    Workers(&'static [usize]),
    /// The [`crash_sweep`] over [`CRASH_TARGETS`].
    CrashSweep { rollback: bool },
    /// One zipf(1.0) open-loop cell per arrival rate, shedding at
    /// `capacity`. A row none of whose cells sheds fails: its conservation
    /// check never saw a shed message.
    Overload {
        rates: &'static [f64],
        capacity: usize,
    },
}

/// One declared gate: a named row of cells and the check they must pass.
/// Every row runs at `t = 1`, for one period unless its cells say otherwise.
#[derive(Debug)]
pub struct Gate {
    pub name: &'static str,
    pub engine: EngineKind,
    pub workers: usize,
    pub d: f64,
    pub seed: u64,
    pub cells: Cells,
    pub check: Check,
}

use Cells::{CrashSweep, Drop, Overload, Workers};
use Check::{EqualsReference, MonotoneShed, MustDiverge, SameSeedTwice};
use EngineKind::{Eai, Federated as Fed, Ivm, Mtm};

const DOUBLE_RATE: Cells = Overload {
    rates: &[2.0],
    capacity: 2,
};

/// The gate matrix CI walks with one `dipbench gate`.
#[rustfmt::skip]
pub const GATES: &[Gate] = &[
    // conservation + determinism under a 5% seeded drop rate: the reference engine, the
    // undo-journaled change-log drains of ivm, and retries dispatched across four workers
    Gate { name: "chaos-fed", engine: Fed, workers: 1, d: 0.05, seed: 7, cells: Drop(0.05), check: SameSeedTwice },
    Gate { name: "chaos-ivm", engine: Ivm, workers: 1, d: 0.05, seed: 7, cells: Drop(0.05), check: SameSeedTwice },
    Gate { name: "chaos-w4", engine: Fed, workers: 4, d: 0.05, seed: 7, cells: Drop(0.05), check: SameSeedTwice },
    // 2x open-loop arrivals on the three message engines: bounded depth, shed-extended
    // conservation over messages that really were shed, byte-identical double runs
    Gate { name: "overload-fed", engine: Fed, workers: 1, d: 0.02, seed: 7, cells: DOUBLE_RATE, check: SameSeedTwice },
    Gate { name: "overload-mtm", engine: Mtm, workers: 1, d: 0.02, seed: 7, cells: DOUBLE_RATE, check: SameSeedTwice },
    Gate { name: "overload-eai", engine: Eai, workers: 1, d: 0.02, seed: 7, cells: DOUBLE_RATE, check: SameSeedTwice },
    Gate { name: "overload-monotone", engine: Fed, workers: 1, d: 0.02, seed: 7, cells: Overload { rates: &[1.0, 2.0, 4.0], capacity: 4 }, check: MonotoneShed },
    // a crash at every materialization step recovers to the uncrashed bytes — on mtm, across
    // ivm's drain-then-load boundary, and with A∥B spread over four workers; with rollback off it must not
    Gate { name: "crash-mtm", engine: Mtm, workers: 1, d: 0.02, seed: 7, cells: CrashSweep { rollback: true }, check: EqualsReference },
    Gate { name: "crash-ivm", engine: Ivm, workers: 1, d: 0.02, seed: 7, cells: CrashSweep { rollback: true }, check: EqualsReference },
    Gate { name: "crash-w4", engine: Mtm, workers: 4, d: 0.02, seed: 7, cells: CrashSweep { rollback: true }, check: EqualsReference },
    Gate { name: "crash-teeth", engine: Mtm, workers: 1, d: 0.02, seed: 7, cells: CrashSweep { rollback: false }, check: MustDiverge },
    // the worker pool never changes the bytes
    Gate { name: "workers-fed", engine: Fed, workers: 1, d: 0.05, seed: 7, cells: Workers(&[2, 4, 8]), check: EqualsReference },
];

/// Run one gate row and judge it. `Err` is a row that could not be judged
/// (a cell errored, a queue bound broke, nothing was tested).
pub fn run_gate(gate: &Gate) -> Result<Verdict, String> {
    let kind = gate.engine;
    let base = BenchConfig::new(ScaleFactors::new(gate.d, 1.0, Distribution::Uniform))
        .with_periods(1)
        .with_seed(gate.seed)
        .with_workers(gate.workers);
    let repeats = if gate.check == SameSeedTwice { 2 } else { 1 };
    let mut cells: Vec<BenchConfig> = Vec::new();
    match gate.cells {
        CrashSweep { rollback } => {
            let fps = crash_sweep(
                kind,
                base,
                &CRASH_TARGETS,
                (0, 0),
                None,
                rollback,
                &mut |_, _, _| {},
            )?;
            return Ok(judge(gate.check, &fps));
        }
        Drop(rate) => cells.push(base.with_faults(FaultPlan::drops(rate))),
        Workers(counts) => {
            let counts = std::iter::once(&gate.workers).chain(counts);
            let cell = |&w| base.with_periods(3).with_workers(w);
            cells.extend(counts.map(cell));
        }
        Overload { rates, capacity } => {
            let cell = |&rate| overload_cell(base, Distribution::Zipf10, rate, capacity);
            cells.extend(rates.iter().map(cell));
        }
    }
    let mut fps = Vec::new();
    for config in cells {
        for _ in 0..repeats {
            let cell = run_cell(kind, config).map_err(|e| e.to_string())?;
            let depth = cell.run.stats.max_depth;
            if config.arrivals.is_some_and(|a| depth > a.capacity as u64) {
                return Err(format!("queue depth {depth} broke the bound"));
            }
            fps.push(cell.fingerprint);
        }
    }
    if matches!(gate.cells, Overload { .. }) && fps.iter().all(|f| f.shed() == 0) {
        return Err(
            "no cell shed a message: the shed-extended conservation check saw nothing".into(),
        );
    }
    Ok(judge(gate.check, &fps))
}

/// Run gate rows, two at a time, each on a thread of its own; `report`
/// gets each row's verdict in the order of `rows`, as soon as that row and
/// every row before it are done.
pub fn run_gates(rows: &[&Gate], mut report: impl FnMut(&Gate, Result<Verdict, String>)) {
    let next = &AtomicUsize::new(0);
    let (done, finished) = mpsc::channel();
    std::thread::scope(|s| {
        for done in [done.clone(), done] {
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(row) = rows.get(i) else { break };
                let Ok(()) = done.send((i, run_gate(row))) else {
                    break;
                };
            });
        }
        let mut waiting: Vec<_> = rows.iter().map(|_| None).collect();
        let mut reported = 0;
        for (i, verdict) in finished {
            waiting[i] = Some(verdict);
            while let Some(verdict) = waiting.get_mut(reported).and_then(Option::take) {
                report(rows[reported], verdict);
                reported += 1;
            }
        }
    });
}
