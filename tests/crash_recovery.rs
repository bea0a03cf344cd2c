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
//! run side by side.

use dip_bench::gate::CRASH_TARGETS;
use dip_bench::gate::{crash_sweep, judge, CellRun, Check, Fingerprint};
use dip_bench::EngineKind;
use dip_relstore::error::StoreResult;
use dipbench::prelude::*;

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
