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
//! keeps out of the durable state. Last, executor-vs-oracle across a
//! crash-restart: `fed` killed inside P13 must recover to the bytes of
//! an uncrashed `fed-unopt` (reference interpreter) run.
//!
//! Everything lives in ONE test function: the crash and abort plans are
//! process-global, so concurrent test threads would corrupt each other.

use dip_bench::gate::CRASH_TARGETS;
use dip_bench::gate::{crash_sweep, judge, run_cell, CellRun, Check, Detail, Fingerprint, Load};
use dip_bench::EngineKind;
use dip_relstore::error::StoreResult;
use dipbench::prelude::*;

#[test]
fn crash_at_every_step_recovers_and_conserves() {
    let config =
        BenchConfig::new(ScaleFactors::new(0.01, 1.0, Distribution::Uniform)).with_periods(1);
    let sweep = |rollback| {
        let targets: &[&str] = if rollback { &CRASH_TARGETS } else { &["P09"] };
        let no_errors =
            &mut |target: &CrashTarget, _: &Fingerprint, cell: &StoreResult<CellRun>| {
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
    };

    let recovered = sweep(true);
    assert!(
        !recovered[0].dead_letters.is_empty(),
        "the armed P04 abort must dead-letter its message"
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

    // Teeth: with rollback disabled until the crash, the dead-lettered
    // P04 instance leaks its partial writes — it is never replayed, so
    // the final state must demonstrably diverge.
    let verdict = judge(Check::MustDiverge, &sweep(false));
    assert!(verdict.pass, "rollback disabled yet every recovery matched");

    // Executor vs oracle: kill `fed` at the first materialization step
    // of P13 (stream D — a join + grouped aggregate through the batch
    // executor), recover, and require the bytes of an uncrashed
    // `fed-unopt` run, whose local queries go through the oracle.
    let oracle = run_cell(EngineKind::FederatedUnoptimized, config, &Load::Closed).unwrap();
    assert!(
        oracle.outcome.failures.is_empty(),
        "{:#?}",
        oracle.outcome.failures
    );
    let target = CrashTarget {
        process: "P13".to_string(),
        period: 0,
        seq: 0,
        step: 0,
    };
    let crashed = Load::Crash {
        target,
        rollback: true,
    };
    let run = run_cell(EngineKind::Federated, config, &crashed).expect("fed recovery run");
    let fired = matches!(run.detail, Detail::Crash { tripped: true, .. });
    assert!(fired, "the armed P13 crash never fired");
    let differs = run.fingerprint.diff(&oracle.fingerprint, false);
    assert!(
        run.fingerprint.verified && differs.is_empty(),
        "recovered fed diverged from the uncrashed fed-unopt run: {differs:?}\n{}",
        run.verification
    );
}
