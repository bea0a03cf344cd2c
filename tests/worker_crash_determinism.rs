//! Crash-recovery determinism across worker counts: killing the system
//! mid-instance and recovering from the checkpoint + journal must land on
//! the same bytes at every worker count — including crashes *inside* the
//! pooled A∥B phase, where the settled set handed to the replay is
//! DAG-downward-closed rather than a per-stream prefix. (`crash-w4` in
//! `dip_bench::gate::GATES` sweeps every step at four workers; this walks
//! the worker counts.)
//!
//! Everything lives in ONE test function: the crash plan is
//! process-global, so concurrent test threads would corrupt each other
//! (same rule as `crash_recovery.rs`; this suite is a separate binary, so
//! it cannot race that one either).

use dip_bench::gate::{run_cell, CellRun, Detail, Load};
use dip_bench::EngineKind;
use dipbench::prelude::*;

/// Kill `process` seq 0 at its second materialization step and recover.
fn crashed(kind: EngineKind, config: BenchConfig, process: &str) -> CellRun {
    let target = CrashTarget {
        process: process.to_string(),
        period: 0,
        seq: 0,
        step: 1,
    };
    let label = format!("{process} workers={}", config.workers);
    let crash = Load::Crash {
        target,
        rollback: true,
    };
    let run =
        run_cell(kind, config, &crash).unwrap_or_else(|e| panic!("{label}: recovery error {e}"));
    let fired = matches!(run.detail, Detail::Crash { tripped: true, .. });
    assert!(fired, "{label}: the armed crash never fired");
    run
}

#[test]
fn crash_recovery_is_byte_identical_at_every_worker_count() {
    let config =
        BenchConfig::new(ScaleFactors::new(0.01, 1.0, Distribution::Uniform)).with_periods(1);

    // Uncrashed 1-worker reference — the bytes every recovered run of
    // every worker count must land on.
    let reference = run_cell(EngineKind::Mtm, config, &Load::Closed).unwrap();
    assert!(reference.fingerprint.verified, "{}", reference.verification);

    // P05 seq 0 dies inside the pooled A∥B phase (stream A extraction);
    // P09 dies in the serial C phase, after the pool has drained — so the
    // replay-skip set it hands back covers pooled-settled work.
    for process in ["P05", "P09"] {
        for workers in [1, 2, 4, 8] {
            let run = crashed(EngineKind::Mtm, config.with_workers(workers), process);
            let differs = run.fingerprint.diff(&reference.fingerprint, false);
            assert!(
                differs.is_empty(),
                "{process} workers={workers}: recovered run diverged from the uncrashed run \
                 on {differs:?}\n{}",
                run.verification
            );
        }
    }

    // Engine cross-check: the incremental-view engine recovers to the
    // same bytes it would have produced uncrashed at the same worker
    // count — its change logs are replay-order sensitive, so a pooled
    // crash is the hardest case it faces.
    let pooled = config.with_workers(4);
    let ivm_ref = run_cell(EngineKind::Ivm, pooled, &Load::Closed).unwrap();
    let run = crashed(EngineKind::Ivm, pooled, "P05");
    assert_eq!(
        run.fingerprint.digests, ivm_ref.fingerprint.digests,
        "ivm workers=4: recovered state diverged from the uncrashed run"
    );
}
