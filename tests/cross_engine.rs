//! Cross-engine equivalence: the MTM engine and the federated-DBMS
//! reference implementation must produce *identical* integrated data from
//! identical inputs — the central system-independence claim of the
//! benchmark. Costs may (and should) differ; data must not.

use dipbench::prelude::*;
use dipbench::{quality, verify};
use dipbench_suite::{run_benchmark as run, sorted_rows, test_config as config, EngineKind};

#[test]
fn fed_runs_and_verifies() {
    let (env, outcome) = run(EngineKind::Federated, config());
    assert_eq!(outcome.system, "federated-dbms");
    assert!(outcome.failures.is_empty(), "{:#?}", outcome.failures);
    assert_eq!(outcome.metrics.len(), 15);
    let report = verify::verify(&env).unwrap();
    assert!(report.passed(), "verification failed:\n{report}");
}

#[test]
fn engines_produce_identical_integrated_data() {
    let (mtm_env, _) = run(EngineKind::Mtm, config());
    let (fed_env, _) = run(EngineKind::Federated, config());
    // every target system must match, table by table
    let targets: [(&str, &[&str]); 6] = [
        (
            "dwh",
            &["customer", "product", "orders", "orderline", "orders_mv"],
        ),
        (
            "sales_cleaning",
            &[
                "customer_staging",
                "product_staging",
                "failed_messages",
                "customer",
                "product",
            ],
        ),
        ("us_eastcoast", &["customer", "part", "orders", "lineitem"]),
        (
            "dm_europe",
            &["orders", "orderline", "customer_d", "product_d", "sales_mv"],
        ),
        (
            "dm_unitedstates",
            &["orders", "orderline", "customer_d", "product", "sales_mv"],
        ),
        (
            "dm_asia",
            &["orders", "orderline", "customer", "product_d", "sales_mv"],
        ),
    ];
    for (db, tables) in targets {
        for table in tables {
            let a = sorted_rows(&mtm_env, db, table);
            let b = sorted_rows(&fed_env, db, table);
            assert_eq!(
                a.len(),
                b.len(),
                "{db}.{table}: row counts differ (mtm {} vs fed {})",
                a.len(),
                b.len()
            );
            assert_eq!(a, b, "{db}.{table}: contents differ");
        }
    }
    // ... and the source systems received the same master-data updates
    for table in ["cust", "ord"] {
        assert_eq!(
            sorted_rows(&mtm_env, "berlin_paris", table),
            sorted_rows(&fed_env, "berlin_paris", table),
            "berlin_paris.{table} differs"
        );
    }
    assert_eq!(
        sorted_rows(&mtm_env, "seoul_db", "customers"),
        sorted_rows(&fed_env, "seoul_db", "customers"),
        "seoul master data differs"
    );
}

#[test]
fn ivm_engine_matches_fed_and_mtm() {
    // the incremental engine's standing queries must integrate
    // byte-identical data: compare full digests (every table of every
    // world-registered database) across all three engines, multi-period so
    // the change logs actually cycle through truncate/capture/drain
    let config = config().with_periods(2);
    let (ivm_env, ivm_out) = run(EngineKind::Ivm, config);
    assert_eq!(ivm_out.system, "ivm-engine");
    assert!(ivm_out.failures.is_empty(), "{:#?}", ivm_out.failures);
    assert_eq!(ivm_out.metrics.len(), 15);
    assert!(verify::verify(&ivm_env).unwrap().passed());

    let (fed_env, _) = run(EngineKind::Federated, config);
    let (mtm_env, _) = run(EngineKind::Mtm, config);

    let ivm_digest = digest_tables(&ivm_env.world).unwrap();
    assert_eq!(
        ivm_digest,
        digest_tables(&fed_env.world).unwrap(),
        "ivm and fed digests diverge"
    );
    assert_eq!(
        ivm_digest,
        digest_tables(&mtm_env.world).unwrap(),
        "ivm and mtm digests diverge"
    );
}

#[test]
fn ivm_agrees_with_fed_under_drop_faults() {
    // with the default retry budget a modest drop rate must not change
    // integrated data for either engine — and they must still agree
    let faulty = config()
        .with_faults(FaultPlan::drops(0.05))
        .with_resilience(ResiliencePolicy::DEFAULT);
    let (ivm_env, ivm_out) = run(EngineKind::Ivm, faulty);
    assert!(ivm_out.failures.is_empty(), "{:#?}", ivm_out.failures);
    assert!(verify::verify(&ivm_env).unwrap().passed());

    let (fed_env, fed_out) = run(EngineKind::Federated, faulty);
    assert!(fed_out.failures.is_empty(), "{:#?}", fed_out.failures);

    assert_eq!(
        digest_tables(&ivm_env.world).unwrap(),
        digest_tables(&fed_env.world).unwrap(),
        "ivm and fed digests diverge under drop faults"
    );
}

#[test]
fn fed_without_optimizer_still_correct() {
    let (env, outcome) = run(EngineKind::FederatedUnoptimized, config());
    assert!(outcome.failures.is_empty(), "{:#?}", outcome.failures);
    assert!(verify::verify(&env).unwrap().passed());
}

#[test]
fn optimizer_does_not_change_integrated_data() {
    // the batch executor over optimized plans (fused scans, index joins)
    // and the naive oracle must integrate byte-identical data
    let (on_env, _) = run(EngineKind::Federated, config());
    let (off_env, _) = run(EngineKind::FederatedUnoptimized, config());
    for (db, table) in [
        ("dwh", "orders"),
        ("dwh", "orderline"),
        ("dwh", "orders_mv"),
        ("dm_europe", "sales_mv"),
        ("dm_unitedstates", "sales_mv"),
        ("dm_asia", "sales_mv"),
        ("us_eastcoast", "lineitem"),
        ("sales_cleaning", "customer"),
    ] {
        assert_eq!(
            sorted_rows(&on_env, db, table),
            sorted_rows(&off_env, db, table),
            "{db}.{table}: optimizer changed integrated data"
        );
    }
}

/// The data-quality extension (`dipbench::quality`, whose unit tests run
/// the native engine only) holds whichever engine integrated the data.
#[test]
fn quality_extension_holds_on_both_engines() {
    for engine in [EngineKind::Mtm, EngineKind::Federated] {
        let (env, _) = run(engine, config());
        let q = quality::measure(&env).unwrap();
        assert!(q.quality_increases(), "{engine:?}:\n{q}");
        assert!(
            (q.warehouse.consistency - 1.0).abs() < 1e-9,
            "{engine:?}:\n{q}"
        );
    }
}
