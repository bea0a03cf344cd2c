//! Cross-worker determinism suite — the property the `core::sched` worker
//! pool exists to keep: a same-seed run is byte-identical at every worker
//! count. For workers ∈ {1, 2, 4, 8} and each engine the full external
//! state (every table of every database, digested), the dead-letter
//! queue, the dispatch-failure list and the pinned run record must match
//! the 1-worker run exactly — on clean runs, under a retried fault plan,
//! and under a no-retry plan aggressive enough to dead-letter messages.
//!
//! Crash-plan determinism lives in `worker_crash_determinism.rs`: crash
//! plans are process-global, so they need a test binary of their own.

use dip_feddbms::{FedDbms, FedOptions};
use dip_ivm::IvmSystem;
use dipbench::prelude::*;
use dipbench::recovery;
use dipbench::verify;
use std::collections::BTreeMap;
use std::sync::Arc;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const ENGINES: [&str; 3] = ["mtm", "fed", "ivm"];

fn scale() -> ScaleFactors {
    ScaleFactors::new(0.02, 1.0, Distribution::Uniform)
}

fn system(engine: &str, env: &BenchEnvironment) -> Arc<dyn IntegrationSystem> {
    match engine {
        "mtm" => Arc::new(MtmSystem::new(env.world.clone())),
        "fed" => Arc::new(FedDbms::new(env.world.clone(), FedOptions::default())),
        "ivm" => Arc::new(IvmSystem::new(env.world.clone())),
        other => panic!("unknown engine {other}"),
    }
}

/// Everything the benchmark durably produces, in byte-comparable form.
/// Wall-clock metrics are excluded on purpose — they are real durations —
/// via the same pinning `dipbench diff` applies to run records.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    digests: BTreeMap<String, u64>,
    dead_letters: Vec<DeadLetter>,
    failures: String,
    record: String,
}

fn pinned_record(out: &RunOutcome, config: BenchConfig, engine: &str) -> dip_trace::RunRecord {
    dip_trace::RunRecord {
        schema_version: dip_trace::SCHEMA_VERSION,
        created_unix: 0,
        commit: "pinned".to_string(),
        engine: engine.to_string(),
        exec_mode: "vectorized".to_string(),
        datasize: config.scale.datasize,
        time: config.scale.time,
        distribution: config.scale.distribution.label().to_string(),
        periods: config.periods as u64,
        wall_ms: 0.0,
        processes: out
            .metrics
            .iter()
            .map(|m| dip_trace::ProcessStats {
                process: m.process.clone(),
                instances: m.instances as u64,
                failures: m.failures as u64,
                navg_tu: 0.0,
                stddev_tu: 0.0,
                navg_plus_tu: 0.0,
                comm_tu: 0.0,
                mgmt_tu: 0.0,
                proc_tu: 0.0,
            })
            .collect(),
        rollups: Vec::new(),
        counters: Vec::new(),
        cells: Vec::new(),
    }
}

/// Field-wise equality so a divergence names the artifact (and for
/// digests, the tables) that differ.
fn assert_same(fp: &Fingerprint, reference: &Fingerprint, label: &str) {
    let diff: Vec<&String> = fp
        .digests
        .iter()
        .filter(|(t, d)| reference.digests.get(*t) != Some(d))
        .map(|(t, _)| t)
        .collect();
    assert!(
        diff.is_empty() && fp.digests.len() == reference.digests.len(),
        "{label}: table digests diverged from the 1-worker run: {diff:?}"
    );
    assert_eq!(
        fp.dead_letters, reference.dead_letters,
        "{label}: dead-letter queue diverged from the 1-worker run"
    );
    assert_eq!(
        fp.failures, reference.failures,
        "{label}: dispatch failures diverged from the 1-worker run"
    );
    assert_eq!(
        fp.record, reference.record,
        "{label}: pinned run record diverged from the 1-worker run"
    );
}

fn fingerprint(config: BenchConfig, engine: &str) -> (Fingerprint, verify::VerificationReport) {
    let env = BenchEnvironment::new(config).unwrap();
    let client = Client::new(&env, system(engine, &env)).unwrap();
    let out = client.run().unwrap();
    let report = verify::verify_outcome(&env, &out).unwrap();
    (
        Fingerprint {
            digests: recovery::digest_tables(&env.world).unwrap(),
            dead_letters: out.dead_letters.clone(),
            failures: format!("{:?}", out.failures),
            record: pinned_record(&out, config, engine).render(),
        },
        report,
    )
}

/// Clean runs: every engine, every worker count, two periods (so the pool
/// is torn down and rebuilt across a period boundary), full verification,
/// byte-identical state against the 1-worker reference.
#[test]
fn clean_runs_are_byte_identical_across_worker_counts() {
    let base = BenchConfig::new(scale()).with_periods(2);
    for engine in ENGINES {
        let (reference, report) = fingerprint(base, engine);
        assert!(report.passed(), "{engine} workers=1 failed:\n{report}");
        for workers in WORKER_COUNTS {
            let (fp, report) = fingerprint(base.with_workers(workers), engine);
            assert!(
                report.passed(),
                "{engine} workers={workers} failed:\n{report}"
            );
            assert_same(
                &fp,
                &reference,
                &format!("{engine} workers={workers} clean"),
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
        let (reference, report) = fingerprint(base, engine);
        assert!(report.passed(), "{engine} workers=1 failed:\n{report}");
        assert!(
            reference.dead_letters.is_empty(),
            "{engine}: retries should have absorbed all faults"
        );
        for workers in WORKER_COUNTS {
            let (fp, _) = fingerprint(base.with_workers(workers), engine);
            assert_same(
                &fp,
                &reference,
                &format!("{engine} workers={workers} retried-fault"),
            );
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
    let (reference, report) = fingerprint(base, "fed");
    assert!(
        !reference.dead_letters.is_empty(),
        "a 20% no-retry drop rate must dead-letter some messages"
    );
    assert!(
        report
            .checks
            .iter()
            .any(|c| c.name == "e1_message_conservation" && c.passed),
        "conservation failed at workers=1:\n{report}"
    );
    for workers in WORKER_COUNTS {
        let (fp, report) = fingerprint(base.with_workers(workers), "fed");
        assert!(
            report
                .checks
                .iter()
                .any(|c| c.name == "e1_message_conservation" && c.passed),
            "conservation failed at workers={workers}:\n{report}"
        );
        assert_same(
            &fp,
            &reference,
            &format!("fed workers={workers} dead-letter"),
        );
    }
}
