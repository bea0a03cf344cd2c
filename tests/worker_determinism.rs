//! Cross-worker determinism suite — the property the `core::sched` worker
//! pool exists to keep: a same-seed run is byte-identical at every worker
//! count. For workers ∈ {1, 2, 4, 8} and each engine the gate fingerprint
//! (every table of every database, digested; the dead-letter queue; the
//! dispatch-failure list; the instances each process type ran and failed;
//! verification) must match the 1-worker run exactly — on clean runs,
//! under a retried fault plan, under a no-retry plan aggressive enough to
//! dead-letter messages, and after a crash-restart. Fed's own catalog, the
//! queue tables no fingerprint reads, is compared on its own.

use dip_bench::gate::{crash_cell, run_cell, CellRun};
use dip_bench::{build_system, EngineKind};
use dip_feddbms::{FedDbms, FedOptions};
use dipbench::client;
use dipbench::prelude::*;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const ENGINES: [EngineKind; 4] = [
    EngineKind::Mtm,
    EngineKind::Federated,
    EngineKind::Ivm,
    EngineKind::Eai,
];

fn scale() -> ScaleFactors {
    ScaleFactors::new(0.02, 1.0, Distribution::Uniform)
}

/// One run — its gate fingerprint is the byte-comparable part (wall-clock
/// metrics are excluded on purpose: they are real durations).
fn fingerprint(config: BenchConfig, engine: EngineKind) -> CellRun {
    run_cell(engine, config).unwrap()
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
    let checks = &run.run.verification.checks;
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

/// Fed's own catalog under the pool: two same-seed runs at 1, 2 and 4
/// workers leave the same queue tables, every row with its `tid`, as the
/// first 1-worker run.
#[test]
fn fed_queue_tables_are_byte_identical_across_worker_counts() {
    let local_tables = |workers: usize| -> Vec<(String, String)> {
        let config = BenchConfig::new(scale())
            .with_periods(2)
            .with_workers(workers);
        let fed = OnceCell::new();
        let make_system = |env: &BenchEnvironment| {
            let system = Arc::new(FedDbms::new(env.world.clone(), FedOptions::default()));
            fed.get_or_init(|| system.clone());
            system as Arc<dyn IntegrationSystem>
        };
        client::run(config, &make_system).unwrap();
        let fed = fed.get().unwrap();
        let tables = fed.local.table_names().into_iter();
        let dump = |t: String| {
            let rows = fed.local.table(&t).unwrap().scan().rows;
            (t, format!("{rows:?}"))
        };
        tables.map(dump).collect()
    };
    let reference = local_tables(1);
    assert!(reference.iter().any(|(t, _)| t == "p04_queue"));
    for workers in [1, 2, 4] {
        for run in 0..2 {
            let tables = local_tables(workers);
            let names =
                |ts: &[(String, String)]| ts.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>();
            assert_eq!(names(&tables), names(&reference));
            for ((table, rows), (_, want)) in tables.iter().zip(&reference) {
                assert!(
                    rows == want,
                    "workers={workers} run {run}: fed.local.{table} differs from the reference"
                );
            }
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
        .with_attempts(6);
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

/// Dead-lettering faults: a 20% no-retry drop plan produces a nonempty
/// dead-letter queue, and that queue is byte-identical at every worker
/// count. At 30% with one attempt on four workers — where a retry loop
/// that kept state across operations would read their arrival order —
/// two same-seed runs of every engine agree on everything, counters
/// included.
#[test]
fn dead_letter_queues_are_byte_identical_across_worker_counts() {
    let base = BenchConfig::new(scale())
        .with_periods(1)
        .with_faults(FaultPlan::drops(0.2))
        .with_attempts(1);
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
    let heavy = BenchConfig::new(scale())
        .with_periods(1)
        .with_faults(FaultPlan::drops(0.3))
        .with_attempts(1)
        .with_workers(4);
    for engine in ENGINES {
        for seed in [1, 2, 3] {
            assert_same_seed_twice(engine, heavy.with_seed(seed), "30% drop");
        }
    }
}

/// Two runs of one cell agree on everything, every counter included.
fn assert_same_seed_twice(engine: EngineKind, config: BenchConfig, label: &str) {
    let (a, b) = (fingerprint(config, engine), fingerprint(config, engine));
    let differs = b.fingerprint.diff(&a.fingerprint, true);
    let seed = config.seed;
    assert!(
        differs.is_empty(),
        "{engine:?} seed={seed} {label}: same-seed runs differ on {differs:?}"
    );
}

/// The closed-loop EAI broker runs its queued E1 messages in the order
/// the client hands them over, at one client thread or four, so a
/// same-seed pair agrees on every counter, `netsim.bytes` included: the
/// P04 enrichment reads the customers P02 upserts only after the
/// virtually-earlier P02 messages (`PeriodPlan::by_stream` and
/// `concurrent_phase` both order them).
#[test]
fn eai_same_seed_runs_agree_on_every_counter() {
    let config =
        BenchConfig::new(ScaleFactors::new(0.05, 1.0, Distribution::Uniform)).with_periods(1);
    for workers in [1, 4] {
        for seed in 1..=10 {
            let label = format!("closed loop, workers={workers}");
            let config = config.with_workers(workers).with_seed(seed);
            assert_same_seed_twice(EngineKind::Eai, config, &label);
        }
    }
}

/// A run owns its trace: a fed cell and an mtm cell run at once, while a
/// third thread keeps driving a `Client` directly with tracing off, and
/// each cell counts exactly what it counts alone.
#[test]
fn concurrent_cells_count_only_their_own_work() {
    let config = BenchConfig::new(scale()).with_periods(1).with_seed(7);
    let counters = |engine| fingerprint(config, engine).fingerprint.counters;
    let (fed_alone, mtm_alone) = (counters(EngineKind::Federated), counters(EngineKind::Mtm));
    assert!(!fed_alone.is_empty() && !mtm_alone.is_empty());
    let start = Barrier::new(3);
    let cells_done = AtomicBool::new(false);
    let (fed, mtm) = std::thread::scope(|s| {
        let cell = |engine| {
            let start = &start;
            s.spawn(move || {
                start.wait();
                counters(engine)
            })
        };
        let (fed, mtm) = (cell(EngineKind::Federated), cell(EngineKind::Mtm));
        let direct = s.spawn(|| {
            start.wait();
            while !cells_done.load(Ordering::Relaxed) {
                client::run(config, &|env| build_system(EngineKind::Federated, env)).unwrap();
            }
        });
        let joined = (fed.join().unwrap(), mtm.join().unwrap());
        cells_done.store(true, Ordering::Relaxed);
        direct.join().unwrap();
        joined
    });
    assert_eq!(fed, fed_alone, "fed cell beside other runs");
    assert_eq!(mtm, mtm_alone, "mtm cell beside other runs");
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
    let cell = run_cell(kind, crash_cell(config, &target))
        .unwrap_or_else(|e| panic!("{label}: recovery error {e}"));
    assert!(cell.run.tripped, "{label}: the planned crash never fired");
    cell
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
    let reference = run_cell(EngineKind::Mtm, config).unwrap();
    let verification = &reference.run.verification;
    assert!(reference.fingerprint.verified, "{verification}");

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
                run.run.verification
            );
        }
    }

    // Engine cross-check: the incremental-view engine recovers to the
    // same bytes it would have produced uncrashed at the same worker
    // count — its change logs are replay-order sensitive, so a pooled
    // crash is the hardest case it faces.
    let pooled = config.with_workers(4);
    let ivm_ref = run_cell(EngineKind::Ivm, pooled).unwrap();
    let run = crashed(EngineKind::Ivm, pooled, "P05");
    assert_eq!(
        run.fingerprint.digests, ivm_ref.fingerprint.digests,
        "ivm workers=4: recovered state diverged from the uncrashed run"
    );
}
