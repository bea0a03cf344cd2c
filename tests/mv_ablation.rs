//! DWH `OrdersMV` refresh-mode ablation: incremental maintenance must
//! produce exactly the same materialized view as full recomputation over
//! a complete benchmark run, and the quality extension must hold on both.

use dip_relstore::mview::RefreshMode;
use dipbench::{quality, verify};
use dipbench_suite::{run_benchmark, test_config, EngineKind};

#[test]
fn incremental_mv_matches_full_over_whole_benchmark() {
    let (env_full, _) = run_benchmark(
        EngineKind::Mtm,
        test_config().with_mv_mode(RefreshMode::Full),
    );
    let (env_inc, _) = run_benchmark(
        EngineKind::Mtm,
        test_config().with_mv_mode(RefreshMode::Incremental),
    );
    let mut a = env_full.db("dwh").table("orders_mv").unwrap().scan();
    let mut b = env_inc.db("dwh").table("orders_mv").unwrap().scan();
    a.sort_by_columns(&[0]);
    b.sort_by_columns(&[0]);
    assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra[0], rb[0]);
        assert_eq!(ra[1], rb[1]);
        let (x, y) = (ra[2].to_float().unwrap(), rb[2].to_float().unwrap());
        assert!((x - y).abs() < 1e-6 * (1.0 + x.abs()), "{x} vs {y}");
    }
    // the incremental path was actually taken
    let stats = env_inc.db("dwh").view("orders_mv").unwrap().stats();
    assert!(stats.incremental_refreshes > 0, "{stats:?}");
    assert!(verify::verify(&env_inc).unwrap().passed());
}

#[test]
fn quality_extension_holds_on_both_engines() {
    for engine in [EngineKind::Mtm, EngineKind::Federated] {
        let (env, _) = run_benchmark(engine, test_config());
        let q = quality::measure(&env).unwrap();
        assert!(q.quality_increases(), "{engine:?}:\n{q}");
        assert!(
            (q.warehouse.consistency - 1.0).abs() < 1e-9,
            "{engine:?}:\n{q}"
        );
    }
}
