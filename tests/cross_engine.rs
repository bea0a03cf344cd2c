//! Cross-engine equivalence: the MTM engine and the federated-DBMS
//! reference implementation must produce *identical* integrated data from
//! identical inputs — the central system-independence claim of the
//! benchmark. Costs may (and should) differ; data must not.

use dip_bench::gate::Fingerprint;
use dip_bench::ENGINES;
use dip_mtm::error::MtmError;
use dip_relstore::prelude::StoreError;
use dipbench::prelude::*;
use dipbench::schema::europe;
use dipbench::{client, processes, quality};
use dipbench_suite::{sorted_rows, test_config as config, EngineKind};

fn run(kind: EngineKind, config: BenchConfig) -> Run {
    client::run(config, &kind.spec().build).unwrap()
}

#[test]
fn fed_runs_and_verifies() {
    let run = run(EngineKind::Federated, config());
    let outcome = &run.outcome;
    assert_eq!(outcome.system, "federated-dbms");
    assert!(outcome.failures.is_empty(), "{:#?}", outcome.failures);
    assert_eq!(outcome.metrics.len(), 15);
    let report = &run.verification;
    assert!(report.passed(), "verification failed:\n{report}");
}

#[test]
fn engines_produce_identical_integrated_data() {
    let mtm_env = run(EngineKind::Mtm, config()).env;
    let fed_env = run(EngineKind::Federated, config()).env;
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
    let ivm = run(EngineKind::Ivm, config);
    assert_eq!(ivm.outcome.system, "ivm-engine");
    assert!(
        ivm.outcome.failures.is_empty(),
        "{:#?}",
        ivm.outcome.failures
    );
    assert_eq!(ivm.outcome.metrics.len(), 15);
    assert!(ivm.verification.passed(), "{}", ivm.verification);

    let fed = run(EngineKind::Federated, config);
    let mtm = run(EngineKind::Mtm, config);

    assert_eq!(ivm.digests, fed.digests, "ivm and fed digests diverge");
    assert_eq!(ivm.digests, mtm.digests, "ivm and mtm digests diverge");
}

#[test]
fn ivm_agrees_with_fed_under_drop_faults() {
    // with the default retry budget a modest drop rate must not change
    // integrated data for either engine — and they must still agree
    let faulty = config().with_faults(FaultPlan::drops(0.05));
    let ivm = run(EngineKind::Ivm, faulty);
    assert!(
        ivm.outcome.failures.is_empty(),
        "{:#?}",
        ivm.outcome.failures
    );
    assert!(ivm.verification.passed(), "{}", ivm.verification);

    let fed = run(EngineKind::Federated, faulty);
    assert!(
        fed.outcome.failures.is_empty(),
        "{:#?}",
        fed.outcome.failures
    );

    assert_eq!(
        ivm.digests, fed.digests,
        "ivm and fed digests diverge under drop faults"
    );
}

#[test]
fn fed_without_optimizer_still_correct() {
    let run = run(EngineKind::FederatedUnoptimized, config());
    let failures = &run.outcome.failures;
    assert!(failures.is_empty(), "{failures:#?}");
    assert!(run.verification.passed(), "{}", run.verification);
}

#[test]
fn optimizer_does_not_change_integrated_data() {
    // the batch executor over optimized plans (fused scans, index joins)
    // and the naive oracle must integrate byte-identical data
    let on_env = run(EngineKind::Federated, config()).env;
    let off_env = run(EngineKind::FederatedUnoptimized, config()).env;
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
        let q = quality::measure(&run(engine, config()).env).unwrap();
        assert!(q.quality_increases(), "{engine:?}:\n{q}");
        assert!(
            (q.warehouse.consistency - 1.0).abs() < 1e-9,
            "{engine:?}:\n{q}"
        );
    }
}

/// Every engine reports a failed event alike: through the one delivery
/// path, as the one failure type. An undeployed process fails before any
/// instance starts, so it leaves no cost record; a store error keeps its
/// class and its text. (The federated engines recorded the undeployed
/// instance as failed and handed every non-transport error back as
/// `custom step failed: …`.)
#[test]
fn every_engine_reports_a_failed_event_alike() {
    let mut texts = Vec::new();
    for spec in &ENGINES {
        let env = BenchEnvironment::new(config()).unwrap();
        let system = (spec.build)(&env);
        system.deploy(processes::all_processes()).unwrap();
        let tag = spec.tag;

        let delivery = system.deliver(Event::timed("P99", 0, 0));
        let Delivery::Failed { error } = delivery else {
            panic!("{tag}: {delivery:?}")
        };
        let undeployed =
            matches!(&error, MtmError::InvalidProcess(m) if m == "process P99 not deployed");
        assert!(undeployed, "{tag}: {error:?}");
        assert!(
            system.recorder().is_empty(),
            "{tag}: an instance was recorded"
        );

        // every source table P05 extracts from is gone
        let source = env.db(europe::BERLIN_PARIS);
        for table in source.table_names() {
            source.drop_table(&table);
        }
        let delivery = system.deliver(Event::timed("P05", 0, 0));
        let Delivery::Failed { error } = delivery else {
            panic!("{tag}: {delivery:?}")
        };
        let missing = matches!(&error, MtmError::Store(StoreError::NoSuchTable(_)));
        assert!(missing, "{tag}: {error:?}");
        let records = system.recorder().drain();
        assert!(records.len() == 1 && !records[0].ok, "{tag}: {records:?}");
        texts.push((tag, error.to_string()));
    }
    let (first, text) = &texts[0];
    for (tag, other) in &texts[1..] {
        assert_eq!(
            other, text,
            "{tag} and {first} word the failure differently"
        );
    }
}

/// The harness may deploy a system more than once (`benchmark/` deploys
/// through a throw-away client, then through the measuring one), and the
/// benchmark measures the redeployed system. Deploying again replaces
/// every definition: a system deployed twice runs one period exactly like
/// one deployed once — the same data and, counters included, the same
/// work (a queue trigger appended instead of replaced fires its body twice
/// per message, which the digests alone do not show).
#[test]
fn a_redeployed_system_runs_like_one_deployed_once() {
    let config = config().with_seed(7);
    let traced = |make: client::MakeSystem| {
        dip_trace::enable();
        let run = client::run(config, make).unwrap();
        let _ = dip_trace::drain();
        let mut counters = dip_trace::drain_counters();
        dip_trace::disable();
        counters.sort();
        Fingerprint {
            counters,
            ..Fingerprint::of(&run.outcome, &run.verification, run.digests)
        }
    };
    let mut diverged = Vec::new();
    for spec in &ENGINES {
        let once = traced(&spec.build);
        let twice = traced(&|env| {
            let system = (spec.build)(env);
            system.deploy(processes::all_processes()).unwrap();
            system
        });
        assert!(once.verified, "{}: the run failed verification", spec.tag);
        let differs = twice.diff(&once, true);
        if !differs.is_empty() {
            diverged.push(format!("{}: {differs:?}", spec.tag));
        }
    }
    assert!(
        diverged.is_empty(),
        "redeployed systems differ from ones deployed once:\n{}",
        diverged.join("\n")
    );
}

/// The sources a period writes share their rows with the cached snapshot
/// the next period refills them from, so a write that reached a shared
/// row would show in the refill. For every engine: after a full period
/// (P02 upserts Europe's `cust`, P01 updates Seoul's customers), a wipe
/// and a refill from the cache leave every table exactly as a fresh
/// environment's first fill of that period does.
#[test]
fn a_cache_hit_refill_after_a_writing_period_matches_a_fresh_fill() {
    let config = config().with_seed(7);
    let fresh = BenchEnvironment::new(config).unwrap();
    fresh.initialize_sources(0).unwrap();
    let fresh = digest_tables(&fresh.world).unwrap();
    for spec in &ENGINES {
        let env = client::run(config, &spec.build).unwrap().env;
        let written = digest_tables(&env.world).unwrap();
        for table in ["berlin_paris.cust", "seoul_db.customers"] {
            assert_ne!(
                written[table], fresh[table],
                "{}: no write to {table}",
                spec.tag
            );
        }
        env.uninitialize().unwrap();
        env.initialize_sources(0).unwrap();
        assert_eq!(
            env.cached_periods(),
            1,
            "{}: the refill hit the cache",
            spec.tag
        );
        let refilled = digest_tables(&env.world).unwrap();
        let differs: Vec<&String> = (fresh.iter())
            .filter(|(table, digest)| refilled.get(*table) != Some(digest))
            .map(|(table, _)| table)
            .collect();
        assert!(
            differs.is_empty(),
            "{}: refilled tables differ: {differs:?}",
            spec.tag
        );
    }
}
