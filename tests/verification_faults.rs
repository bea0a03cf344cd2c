//! Fault injection against the verification phase: verification must
//! *fail* when the integrated data is corrupted after a run — otherwise
//! the post phase proves nothing.

use dip_relstore::prelude::*;
use dipbench::prelude::*;
use dipbench::{client, verify};
use std::sync::Arc;

fn clean_run() -> Run {
    let config =
        BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(1);
    client::run(config, &|env| Arc::new(MtmSystem::new(env.world.clone()))).unwrap()
}

/// The checks that fail on the run's world as it stands now.
fn failing_check(run: &Run) -> Vec<String> {
    verify::verify_outcome(&run.env, &run.outcome)
        .unwrap()
        .failed_checks()
        .iter()
        .map(|c| c.name.to_string())
        .collect()
}

#[test]
fn clean_run_passes() {
    let run = clean_run();
    assert!(run.verification.passed(), "{}", run.verification);
    assert_eq!(failing_check(&run), Vec::<String>::new());
}

#[test]
fn dangling_order_detected() {
    let run = clean_run();
    // delete a customer that has orders
    let dwh = run.env.db("dwh");
    let some_custkey = dwh.table("orders").unwrap().scan().rows[0][1].clone();
    dwh.table("customer")
        .unwrap()
        .delete_where(&Expr::col(0).eq(Expr::Lit(some_custkey)))
        .unwrap();
    let failed = failing_check(&run);
    assert!(
        failed.iter().any(|n| n == "dwh_orders_fk_customer"),
        "failed checks: {failed:?}"
    );
}

#[test]
fn stale_materialized_view_detected() {
    let run = clean_run();
    let dwh = run.env.db("dwh");
    // tamper with one MV row's revenue
    dwh.table("orders_mv")
        .unwrap()
        .update_where(&Expr::lit(true), &[(2, Expr::lit(1.0e9))])
        .unwrap();
    let failed = failing_check(&run);
    assert!(
        failed.iter().any(|n| n == "orders_mv_consistent"),
        "{failed:?}"
    );
}

#[test]
fn leftover_cdb_movement_detected() {
    let run = clean_run();
    run.env
        .db("sales_cleaning")
        .table("orders")
        .unwrap()
        .insert(vec![vec![
            Value::Int(999_999_999),
            Value::Int(1),
            Value::Date(0),
            Value::Float(1.0),
            Value::str("HIGH"),
            Value::str("OPEN"),
        ]])
        .unwrap();
    let failed = failing_check(&run);
    assert!(
        failed.iter().any(|n| n == "cdb_movement_consumed"),
        "{failed:?}"
    );
}

#[test]
fn wrong_mart_partition_detected() {
    let run = clean_run();
    // smuggle an Asian customer into the Europe mart
    run.env
        .db("dm_europe")
        .table("customer_d")
        .unwrap()
        .insert(vec![vec![
            Value::Int(987_654_321),
            Value::str("intruder"),
            Value::str("addr"),
            Value::str("Seoul"),
            Value::str("Korea"),
            Value::str("Asia"),
            Value::str("AUTO"),
        ]])
        .unwrap();
    let failed = failing_check(&run);
    assert!(
        failed.iter().any(|n| n == "dm_region_partitioning"),
        "{failed:?}"
    );
}

#[test]
fn vocabulary_violation_detected() {
    let run = clean_run();
    run.env
        .db("dwh")
        .table("orders")
        .unwrap()
        .update_where(&Expr::lit(true), &[(4, Expr::lit("MEGA-URGENT"))])
        .unwrap();
    let failed = failing_check(&run);
    assert!(
        failed.iter().any(|n| n == "dwh_canonical_vocabulary"),
        "{failed:?}"
    );
}

#[test]
fn spurious_failed_message_detected() {
    let run = clean_run();
    run.env
        .db("sales_cleaning")
        .table("failed_messages")
        .unwrap()
        .insert(vec![vec![
            Value::Int(123_456_789),
            Value::str("P10"),
            Value::str("forged"),
            Value::str("<junk/>"),
        ]])
        .unwrap();
    let failed = failing_check(&run);
    assert!(
        failed.iter().any(|n| n == "failed_messages_match_injected"),
        "{failed:?}"
    );
}
