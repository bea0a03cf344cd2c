//! Executor-vs-oracle at the engine level: `fed` runs its local queries
//! through the one batch executor, `fed-unopt` through the naive reference
//! interpreter, and both must integrate byte-identical data — at any
//! worker count and under drop faults (the crash-restart twin lives in
//! `crash_recovery.rs`, because the crash plan is process-global). The
//! digests committed at PR 11 (when three executors and `Auto` routing
//! still existed) pin the same bytes across commits.

use dip_trace::Json;
use dipbench::prelude::*;
use dipbench_suite::{run_benchmark, EngineKind};
use std::collections::BTreeMap;

fn config() -> BenchConfig {
    BenchConfig::new(ScaleFactors::new(0.01, 1.0, Distribution::Uniform)).with_periods(1)
}

fn with_drops() -> BenchConfig {
    config()
        .with_faults(FaultPlan::drops(0.05))
        .with_resilience(ResiliencePolicy::DEFAULT)
}

/// Run the full benchmark and digest every table of every database.
fn digests(kind: EngineKind, config: BenchConfig) -> BTreeMap<String, u64> {
    let (env, outcome) = run_benchmark(kind, config);
    assert!(outcome.failures.is_empty(), "{:#?}", outcome.failures);
    digest_tables(&env.world).unwrap()
}

#[test]
fn executor_matches_oracle_at_1_and_4_workers() {
    let oracle = digests(EngineKind::FederatedUnoptimized, config());
    for workers in [1, 4] {
        assert_eq!(
            digests(EngineKind::Federated, config().with_workers(workers)),
            oracle,
            "fed at {workers} workers diverged from fed-unopt"
        );
    }
}

#[test]
fn executor_matches_oracle_under_drop_faults() {
    assert_eq!(
        digests(EngineKind::Federated, with_drops()),
        digests(EngineKind::FederatedUnoptimized, with_drops()),
        "fed diverged from fed-unopt under drop faults"
    );
}

/// `digest_tables` is FNV over sorted row renderings, so it is stable
/// across processes and commits: the fixture was written by the parent
/// commit (default `Auto` routing over the streaming and vectorized
/// executors) and the one executor must land on the same bytes.
#[test]
fn one_executor_reproduces_the_pr11_digests() {
    let fixture = Json::parse(include_str!("fixtures/digests_pr11.json")).unwrap();
    let cells = [
        ("fed_w1", EngineKind::Federated, config()),
        ("fed_w4", EngineKind::Federated, config().with_workers(4)),
        ("fed_drops", EngineKind::Federated, with_drops()),
        ("mtm_w1", EngineKind::Mtm, config()),
        ("ivm_w1", EngineKind::Ivm, config()),
        ("fed-unopt_w1", EngineKind::FederatedUnoptimized, config()),
    ];
    for (name, kind, cfg) in cells {
        let Some(Json::Obj(fields)) = fixture.get(name) else {
            panic!("fixture has no cell {name}");
        };
        let expect: BTreeMap<String, u64> = fields
            .iter()
            .map(|(table, hex)| {
                let hex = hex.as_str().expect("hex digest string");
                (table.clone(), u64::from_str_radix(hex, 16).unwrap())
            })
            .collect();
        assert_eq!(digests(kind, cfg), expect, "{name} diverged from PR 11");
    }
}
