//! Chaos-engineering regression tests for the fault-injection and
//! resilience layer: the fault schedule is a pure function of the seed, so
//! same-seed runs must agree byte-for-byte on what was dead-lettered and
//! what was integrated; with enough retry budget every engine must
//! integrate identical data *despite* a nonzero fault rate; and a rate-0
//! plan must leave the pipeline untouched.

use dip_bench::gate::{run_cell, Fingerprint, Load};
use dip_bench::{build_system, EngineKind};
use dipbench::prelude::*;
use dipbench::verify;
use dipbench_suite::{run_benchmark, sorted_rows};
use std::sync::Arc;

fn scale() -> ScaleFactors {
    ScaleFactors::new(0.02, 1.0, Distribution::Uniform)
}

fn run(system: Arc<dyn IntegrationSystem>, env: &BenchEnvironment) -> RunOutcome {
    let client = Client::new(env, system).unwrap();
    client.run().unwrap()
}

fn run_fed(config: BenchConfig) -> (BenchEnvironment, RunOutcome) {
    run_benchmark(EngineKind::Federated, config)
}

/// The gate fingerprint of a finished run over `env`, as it stands now.
fn fingerprint(env: &BenchEnvironment, out: &RunOutcome) -> Fingerprint {
    let report = verify::verify_outcome(env, out).unwrap();
    Fingerprint::of(out, &report, digest_tables(&env.world).unwrap())
}

/// Tables that together cover every integration target layer.
const PROBE_TABLES: [(&str, &str); 6] = [
    ("sales_cleaning", "customer_staging"),
    ("sales_cleaning", "failed_messages"),
    ("dwh", "orders"),
    ("dwh", "orders_mv"),
    ("dm_europe", "sales_mv"),
    ("seoul_db", "customers"),
];

fn check(report: &verify::VerificationReport, name: &str) -> bool {
    report
        .checks
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("check {name} missing from report"))
        .passed
}

/// Same seed ⇒ same fault schedule: two runs under an aggressive no-retry
/// drop plan dead-letter the *same* messages (same payloads, same reasons)
/// and integrate the same data, and the DLQ-aware verifier accounts every
/// scheduled message.
#[test]
fn same_seed_produces_identical_dead_letters_and_data() {
    // no retries and no breaker: every transport verdict maps 1:1 to a
    // delivery outcome, so the run is a pure function of the seed (the
    // breaker is deliberately excluded — its consecutive-failure count is
    // interleaving-dependent across the concurrent streams)
    let config = BenchConfig::new(scale())
        .with_periods(1)
        .with_faults(FaultPlan::drops(0.2))
        .with_resilience(ResiliencePolicy::NO_RETRY);
    let (env_a, out_a) = run_fed(config);
    let (env_b, out_b) = run_fed(config);

    assert!(
        !out_a.dead_letters.is_empty(),
        "a 20% no-retry drop rate must dead-letter some messages"
    );
    assert_eq!(
        out_a.dead_letters, out_b.dead_letters,
        "same-seed runs dead-lettered different messages"
    );
    for (db, table) in PROBE_TABLES {
        assert_eq!(
            sorted_rows(&env_a, db, table),
            sorted_rows(&env_b, db, table),
            "{db}.{table}: same-seed chaos runs integrated different data"
        );
    }

    // conservation: scheduled = integrated + dead-lettered + failed, and
    // the failed-data expectation excludes dead-lettered P10 messages
    for (env, out) in [(&env_a, &out_a), (&env_b, &out_b)] {
        let report = verify::verify_outcome(env, out).unwrap();
        assert!(check(&report, "e1_message_conservation"), "{report}");
        assert!(check(&report, "failed_messages_match_injected"), "{report}");
    }
}

/// With a retry budget that outlasts the fault rate, every engine delivers
/// everything: the three engines integrate identical data under the same
/// nonzero fault schedule, and the full verifier passes.
#[test]
fn engines_agree_under_fault_schedule() {
    // 6 attempts at 5% drop: the chance any single operation exhausts its
    // retries is ~1e-6, so all messages deliver and the engines stay
    // comparable — faults inflate costs, not outcomes
    let config = BenchConfig::new(scale())
        .with_periods(1)
        .with_faults(FaultPlan::drops(0.05))
        .with_resilience(ResiliencePolicy::DEFAULT.with_attempts(6));

    let mut results = Vec::new();
    for engine in ["mtm", "fed", "eai"] {
        let env = BenchEnvironment::new(config).unwrap();
        let system: Arc<dyn IntegrationSystem> = match EngineKind::parse(engine) {
            Some(EngineKind::Eai) => Arc::new(EaiSystem::new(env.world.clone(), 4)),
            kind => build_system(kind.unwrap(), &env),
        };
        let outcome = run(system, &env);
        assert!(
            outcome.dead_letters.is_empty(),
            "{engine}: retries should have absorbed all faults, got {:#?}",
            outcome.dead_letters
        );
        assert!(
            outcome.failures.is_empty(),
            "{engine}: {:#?}",
            outcome.failures
        );
        let report = verify::verify_outcome(&env, &outcome).unwrap();
        assert!(report.passed(), "{engine} failed verification:\n{report}");
        results.push((engine, env));
    }
    let (_, reference) = &results[0];
    for (engine, env) in &results[1..] {
        for (db, table) in PROBE_TABLES {
            assert_eq!(
                sorted_rows(reference, db, table),
                sorted_rows(env, db, table),
                "{db}.{table}: {engine} diverged from mtm under the same fault schedule"
            );
        }
    }
}

/// A rate-0 fault plan is the seed behavior: the resilience layer stays
/// unarmed and the integrated data is byte-identical to a run that never
/// heard of fault plans.
#[test]
fn rate_zero_plan_is_byte_identical_to_unarmed_run() {
    let plain = BenchConfig::new(scale()).with_periods(1);
    // rate-0 model + a custom policy: is_active() is false, so neither may
    // change anything
    let rate0 = plain
        .with_faults(FaultPlan::drops(0.0))
        .with_resilience(ResiliencePolicy::DEFAULT.with_attempts(9));
    let (env_a, out_a) = run_fed(plain);
    let (env_b, out_b) = run_fed(rate0);
    assert!(out_a.dead_letters.is_empty() && out_b.dead_letters.is_empty());
    assert!(out_a.failures.is_empty() && out_b.failures.is_empty());
    for (db, table) in PROBE_TABLES {
        assert_eq!(
            sorted_rows(&env_a, db, table),
            sorted_rows(&env_b, db, table),
            "{db}.{table}: a rate-0 fault plan changed the integrated data"
        );
    }
    assert!(verify::verify_outcome(&env_b, &out_b).unwrap().passed());
}

/// Same seed ⇒ same fingerprint: two independent runs of the default
/// configuration leave identical gate fingerprints — every table digest
/// and the instances each process type ran and failed. Wall-clock metrics
/// are real durations and stay out of the fingerprint; so do the counters
/// here (the collector is process-global and this binary's other tests run
/// beside this one — the `chaos-*` gate rows compare them).
#[test]
fn same_seed_fingerprints_are_identical() {
    let config = BenchConfig::new(scale()).with_periods(1);
    let cell = || run_cell(EngineKind::Federated, config, &Load::Closed).unwrap();
    let (a, b) = (cell().fingerprint, cell().fingerprint);
    assert_eq!(a.instances.len(), 15, "one entry per process type");
    assert!(a.instances.iter().all(|(_, ran, _)| *ran > 0));
    assert_eq!(a.diff(&b, false), Vec::<String>::new());
}

/// Replaying cached period snapshots must be invisible to the benchmark:
/// a second run over the same environment (every `initialize_sources` is
/// a cache hit) leaves the same gate fingerprint — integrated data and
/// per-process instance counts — as the first run and as a run over a
/// fresh environment that generates from scratch.
#[test]
fn cached_snapshot_rerun_matches_fresh_run() {
    let config = BenchConfig::new(scale()).with_periods(1);
    let env = BenchEnvironment::new(config).unwrap();
    let first = run(build_system(EngineKind::Federated, &env), &env);
    let first = fingerprint(&env, &first);
    assert_eq!(env.cached_periods(), 1, "first run should fill the cache");
    // second run over the same environment: sources replay from the cache
    let second = run(build_system(EngineKind::Federated, &env), &env);
    let second = fingerprint(&env, &second);
    assert_eq!(env.cached_periods(), 1, "rerun must not regenerate");
    let (fresh_env, fresh) = run_fed(config);
    let fresh = fingerprint(&fresh_env, &fresh);
    assert!(second.verified);
    assert_eq!(second.diff(&fresh, false), Vec::<String>::new());
    assert_eq!(second.diff(&first, false), Vec::<String>::new());
}
