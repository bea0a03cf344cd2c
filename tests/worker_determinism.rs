//! Cross-worker determinism suite — the property the `core::sched` worker
//! pool exists to keep: a same-seed run is byte-identical at every worker
//! count. For workers ∈ {1, 2, 4, 8} and each engine the gate fingerprint
//! (every table of every database, digested; the dead-letter queue; the
//! dispatch-failure list; the instances each process type ran and failed;
//! verification) must match the 1-worker run exactly — on clean runs,
//! under a retried fault plan, under a no-retry plan aggressive enough to
//! dead-letter messages, and after a crash-restart.

use dip_bench::gate::{crash_cell, run_cell, CellRun, Detail, Load};
use dip_bench::EngineKind;
use dipbench::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const ENGINES: [EngineKind; 3] = [EngineKind::Mtm, EngineKind::Federated, EngineKind::Ivm];

fn scale() -> ScaleFactors {
    ScaleFactors::new(0.02, 1.0, Distribution::Uniform)
}

/// One run — its gate fingerprint is the byte-comparable part (wall-clock
/// metrics are excluded on purpose: they are real durations).
fn fingerprint(config: BenchConfig, engine: EngineKind) -> CellRun {
    run_cell(engine, config, &Load::Closed).unwrap()
}

/// A divergence names the artifact (and for digests, the tables) that
/// differ. The counters stay out: worker counts differ between the runs.
fn assert_same(run: &CellRun, reference: &CellRun, label: &str) {
    let differs = run.fingerprint.diff(&reference.fingerprint, false);
    assert!(
        differs.is_empty(),
        "{label}: diverged from the 1-worker run on {differs:?}"
    );
}

fn conserves(run: &CellRun) -> bool {
    let checks = &run.verification.checks;
    checks
        .iter()
        .any(|c| c.name == "e1_message_conservation" && c.passed)
}

/// Clean runs: every engine, every worker count, two periods (so the pool
/// is torn down and rebuilt across a period boundary), full verification,
/// byte-identical state against the 1-worker reference.
#[test]
fn clean_runs_are_byte_identical_across_worker_counts() {
    let base = BenchConfig::new(scale()).with_periods(2);
    for engine in ENGINES {
        let reference = fingerprint(base, engine);
        assert!(
            reference.fingerprint.verified,
            "{engine:?} workers=1 failed"
        );
        for workers in WORKER_COUNTS {
            let fp = fingerprint(base.with_workers(workers), engine);
            assert_same(
                &fp,
                &reference,
                &format!("{engine:?} workers={workers} clean"),
            );
        }
    }
}

/// Retried faults: a 5% drop rate with a 6-attempt budget exercises the
/// retry machinery on worker threads without changing outcomes — every
/// worker count absorbs the same fault schedule into the same state.
#[test]
fn retried_fault_runs_are_byte_identical_across_worker_counts() {
    let base = BenchConfig::new(scale())
        .with_periods(1)
        .with_faults(FaultPlan::drops(0.05))
        .with_resilience(ResiliencePolicy::DEFAULT.with_attempts(6));
    for engine in ENGINES {
        let reference = fingerprint(base, engine);
        assert!(
            reference.fingerprint.verified,
            "{engine:?} workers=1 failed"
        );
        assert!(
            reference.fingerprint.dead_letters.is_empty(),
            "{engine:?}: retries should have absorbed all faults"
        );
        for workers in WORKER_COUNTS {
            let fp = fingerprint(base.with_workers(workers), engine);
            let label = format!("{engine:?} workers={workers} retried-fault");
            assert_same(&fp, &reference, &label);
        }
    }
}

/// Dead-lettering faults: a 20% no-retry drop plan (breaker excluded —
/// its consecutive-failure count is interleaving-dependent) produces a
/// nonempty dead-letter queue, and that queue is byte-identical at every
/// worker count.
#[test]
fn dead_letter_queues_are_byte_identical_across_worker_counts() {
    let base = BenchConfig::new(scale())
        .with_periods(1)
        .with_faults(FaultPlan::drops(0.2))
        .with_resilience(ResiliencePolicy::NO_RETRY);
    let reference = fingerprint(base, EngineKind::Federated);
    assert!(
        !reference.fingerprint.dead_letters.is_empty(),
        "a 20% no-retry drop rate must dead-letter some messages"
    );
    assert!(conserves(&reference), "conservation failed at workers=1");
    for workers in WORKER_COUNTS {
        let run = fingerprint(base.with_workers(workers), EngineKind::Federated);
        assert!(conserves(&run), "conservation failed at workers={workers}");
        assert_same(
            &run,
            &reference,
            &format!("fed workers={workers} dead-letter"),
        );
    }
}

/// Kill `process` seq 0 at its second materialization step and recover.
fn crashed(kind: EngineKind, config: BenchConfig, process: &str) -> CellRun {
    let target = CrashTarget {
        process: process.to_string(),
        period: 0,
        seq: 0,
        step: 1,
    };
    let label = format!("{process} workers={}", config.workers);
    let (config, load) = crash_cell(config, &target);
    let run =
        run_cell(kind, config, &load).unwrap_or_else(|e| panic!("{label}: recovery error {e}"));
    let fired = matches!(run.detail, Detail::Crash { tripped: true, .. });
    assert!(fired, "{label}: the planned crash never fired");
    run
}

/// Crash recovery: killing the system mid-instance and recovering from the
/// checkpoint + journal must land on the same bytes at every worker count
/// — including crashes *inside* the pooled A∥B phase, where the settled
/// set handed to the replay is DAG-downward-closed rather than a
/// per-stream prefix. (`crash-w4` in `dip_bench::gate::GATES` sweeps every
/// step at four workers; this walks the worker counts.)
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
        for workers in WORKER_COUNTS {
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
