//! Executor-vs-oracle at the engine level: `fed` runs its local queries
//! through the one batch executor, `fed-unopt` through the naive reference
//! interpreter, and both must integrate byte-identical data — at any
//! worker count, under drop faults and across a crash-restart. The
//! digests committed at PR 11 (when three executors and `Auto` routing
//! still existed) pin the same bytes across commits.

use dip_bench::gate::{crash_cell, run_cell};
use dip_trace::Json;
use dipbench::client;
use dipbench::prelude::*;
use dipbench_suite::EngineKind;
use std::collections::BTreeMap;

fn config() -> BenchConfig {
    BenchConfig::new(ScaleFactors::new(0.01, 1.0, Distribution::Uniform)).with_periods(1)
}

fn with_drops() -> BenchConfig {
    config().with_faults(FaultPlan::drops(0.05))
}

/// Run the full benchmark and digest every table of every database.
fn digests(kind: EngineKind, config: BenchConfig) -> BTreeMap<String, u64> {
    let run = client::run(config, &kind.spec().build).unwrap();
    let failures = &run.outcome.failures;
    assert!(failures.is_empty(), "{failures:#?}");
    run.digests
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

/// Kill `fed` at the first materialization step of P13 (stream D: a join
/// and a grouped aggregate through the batch executor), recover, and
/// require the bytes of an uncrashed `fed-unopt` run, whose local queries
/// go through the oracle.
#[test]
fn executor_matches_oracle_across_a_crash_restart() {
    let oracle = run_cell(EngineKind::FederatedUnoptimized, config()).unwrap();
    let failures = &oracle.run.outcome.failures;
    assert!(failures.is_empty(), "{failures:#?}");
    let target = CrashTarget {
        process: "P13".to_string(),
        period: 0,
        seq: 0,
        step: 0,
    };
    let cell = run_cell(EngineKind::Federated, crash_cell(config(), &target));
    let cell = cell.expect("fed recovery run");
    assert!(cell.run.tripped, "the planned P13 crash never fired");
    let differs = cell.fingerprint.diff(&oracle.fingerprint, false);
    assert!(
        cell.fingerprint.verified && differs.is_empty(),
        "recovered fed diverged from the uncrashed fed-unopt run: {differs:?}\n{}",
        cell.run.verification
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
