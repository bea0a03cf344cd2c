//! Crash-at-every-step recovery sweep — the `crash-mtm` and `crash-teeth`
//! rows of `dip_bench::gate::GATES`, driven in-process at a smaller scale.
//!
//! One representative process per group (Fig. 9's materialization
//! points): P02 (E1 message, single step), P05 (extraction, stream A),
//! P09 (consolidation, stream C), P13 (mart refresh, stream D). For
//! every materialization step k of each instance the system is killed at
//! step k, recovered from the checkpoint + journal, and the merged run
//! must pass E1 conservation and end byte-identical to an uncrashed
//! same-seed reference — including a deterministic mid-write dead-letter
//! (P04 aborts at its third step) whose partial writes only rollback
//! keeps out of the durable state.
//!
//! The crash point, the abort and the rollback-off switch are part of each
//! cell's config, so the tests here (and every other test of this binary)
//! run side by side. The last tests check what the merge of a crashed
//! system's records and its restart's hands the monitor, that the merged
//! outcome counts both systems' late dispatches, and that a crashed run
//! returns the restarted world.

use dip_bench::gate::CRASH_TARGETS;
use dip_bench::gate::{crash_sweep, judge, CellRun, Check, Fingerprint};
use dip_bench::EngineKind;
use dip_mtm::{CostRecorder, InstanceRecord, MtmResult, ProcessDef};
use dip_relstore::error::StoreResult;
use dipbench::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// The sweep over `targets` on mtm at d = 0.01; a cell that errors panics.
fn sweep(targets: &[&str], rollback: bool) -> Vec<Fingerprint> {
    let config =
        BenchConfig::new(ScaleFactors::new(0.01, 1.0, Distribution::Uniform)).with_periods(1);
    let no_errors = &mut |target: &CrashTarget, _: &Fingerprint, cell: &StoreResult<CellRun>| {
        if let Err(e) = cell {
            panic!(
                "{} step {}: recovery error {e}",
                target.process, target.step
            );
        }
    };
    crash_sweep(
        EngineKind::Mtm,
        config,
        targets,
        (0, 0),
        None,
        rollback,
        no_errors,
    )
    .unwrap()
}

#[test]
fn crash_at_every_step_recovers_and_conserves() {
    let recovered = sweep(&CRASH_TARGETS, true);
    assert!(
        !recovered[0].dead_letters.is_empty(),
        "the planned P04 abort must dead-letter its message"
    );
    assert!(
        recovered.len() > CRASH_TARGETS.len(),
        "the sweep exercised only {} crash points",
        recovered.len() - 1
    );
    let verdict = judge(Check::EqualsReference, &recovered);
    assert!(
        verdict.pass,
        "a recovered run diverged: {:#?}",
        verdict.notes
    );
}

/// Teeth: with rollback disabled until the crash, the dead-lettered P04
/// instance leaks its partial writes — it is never replayed, so the final
/// state must demonstrably diverge.
#[test]
fn without_rollback_a_recovered_run_diverges() {
    let verdict = judge(Check::MustDiverge, &sweep(&["P09"], false));
    assert!(verdict.pass, "rollback disabled yet every recovery matched");
}

/// The mtm system, keeping the largest snapshot its recorder showed after
/// a delivery: every record is written inside a delivery, and the run
/// drains the recorders itself.
struct Keeping {
    inner: MtmSystem,
    kept: Arc<Mutex<Vec<InstanceRecord>>>,
}

impl IntegrationSystem for Keeping {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn deploy(&self, defs: Vec<ProcessDef>) -> MtmResult<()> {
        self.inner.deploy(defs)
    }

    fn deliver(&self, event: Event) -> Delivery {
        let delivery = self.inner.deliver(event);
        let now = self.inner.recorder().snapshot();
        let mut kept = self.kept.lock().unwrap();
        if now.len() > kept.len() {
            *kept = now;
        }
        delivery
    }

    fn recorder(&self) -> Arc<CostRecorder> {
        self.inner.recorder()
    }

    fn dead_letters(&self) -> Arc<DeadLetterQueue> {
        self.inner.dead_letters()
    }
}

/// A crashed system's records and its restart's are merged into one
/// outcome and normalized in one sweep, so they keep their events'
/// distinct `(process, period, seq)` and lie on one monitor clock: the
/// restart's instances start after every pre-crash instance ended.
#[test]
fn recovered_records_keep_their_names_on_one_clock() {
    let mut config = BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform))
        .with_periods(1)
        .with_seed(7);
    config.faults.crash = Some(CrashPlan::at("P09", 0, 0, 1));
    let systems: Mutex<Vec<Arc<Mutex<Vec<InstanceRecord>>>>> = Mutex::new(Vec::new());
    let run = dipbench::client::run(config, &|env| {
        let kept = Arc::new(Mutex::new(Vec::new()));
        systems.lock().unwrap().push(kept.clone());
        Arc::new(Keeping {
            inner: MtmSystem::new(env.world.clone()),
            kept,
        })
    })
    .unwrap();
    assert!(run.tripped, "P09 should reach step 1");
    assert!(run.verification.passed(), "{}", run.verification);

    let merged = &run.outcome.records;
    let names: BTreeSet<_> = merged
        .iter()
        .map(|r| (r.process.as_str(), r.period, r.seq))
        .collect();
    assert_eq!(names.len(), merged.len(), "two records share a name");

    let systems = systems.into_inner().unwrap();
    let [before, after] = &systems[..] else {
        panic!(
            "{} systems built, not a crashed one and its restart",
            systems.len()
        );
    };
    let (before, after) = (before.lock().unwrap(), after.lock().unwrap());
    assert!(!before.is_empty() && !after.is_empty());
    assert_eq!(before.len() + after.len(), merged.len());
    let crashed_at = before.iter().map(|r| r.end).max().unwrap();
    for r in after.iter() {
        assert!(
            r.start >= crashed_at,
            "{} {} seq {} restarted at {:?}, before the last pre-crash end {crashed_at:?}",
            r.process,
            r.period,
            r.seq,
            r.start
        );
    }
}

/// Under `RealTime` pacing at t = 1e6 (1 tu = 1 ns) practically every
/// dispatch is late. A crashed run's outcome counts the late dispatches of
/// the crashed client and of its restart, as the trace counter does.
#[test]
fn a_recovered_run_counts_the_lag_of_both_clients() {
    let scale = ScaleFactors::new(0.02, 1e6, Distribution::Uniform);
    let mut config = BenchConfig::new(scale)
        .with_periods(1)
        .with_pacing(PacingMode::RealTime);
    config.faults.crash = Some(CrashPlan::at("P09", 0, 0, 1));
    dip_trace::enable();
    let run = dipbench::client::run(config, &|env| Arc::new(MtmSystem::new(env.world.clone())));
    let _ = dip_trace::drain();
    let counters = dip_trace::drain_counters();
    dip_trace::disable();
    let run = run.unwrap();
    assert!(run.tripped, "P09 should reach step 1");
    let counted = (counters.iter())
        .find(|(name, _)| name == "client.late_dispatch")
        .map_or(0, |(_, n)| *n);
    assert!(counted > 0, "no dispatch was late");
    assert_eq!(
        run.outcome.late_dispatch, counted,
        "the outcome lost a client's late dispatches"
    );
}

/// A crashed run returns the world it ended in: the restarted one, not the
/// one the crash killed. Its tables are the run's digests and pass the
/// verification of the merged outcome.
#[test]
fn a_recovered_run_returns_the_restarted_world() {
    let mut config = BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform))
        .with_periods(1)
        .with_seed(7);
    config.faults.crash = Some(CrashPlan::at("P09", 0, 0, 1));
    let run = dipbench::client::run(config, &EngineKind::Mtm.spec().build).unwrap();
    assert!(run.tripped, "P09 should reach step 1");
    assert!(run.env.config.faults.crash.is_none(), "the crashed world");
    assert!(!run.env.world.network.crash_tripped(), "the crashed world");
    assert_eq!(digest_tables(&run.env.world).unwrap(), run.digests);
    let report = dipbench::verify::verify_outcome(&run.env, &run.outcome).unwrap();
    assert!(report.passed(), "{report}");
}
