//! The post phase: verification of the functional correctness of the
//! integrated data (paper Fig. 6's "Benchmark Verification").
//!
//! All checks are structural invariants of the final state (after the last
//! period) and of what the run delivered ([`verify_outcome`]), so they hold for *any* correct integration system — this is
//! what makes benchmark results comparable across systems.

use crate::client::RunOutcome;
use crate::env::BenchEnvironment;
use crate::schema::{cdb, dm, dwh};
use dip_relstore::prelude::*;
use std::collections::HashSet;
use std::fmt;

/// One verification check result.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// The full verification report.
#[derive(Debug, Clone, Default)]
pub struct VerificationReport {
    pub checks: Vec<Check>,
}

impl VerificationReport {
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    pub fn failed_checks(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| !c.passed).collect()
    }

    fn push(&mut self, name: &'static str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            passed,
            detail: detail.into(),
        });
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.checks {
            writeln!(
                f,
                "[{}] {:<42} {}",
                if c.passed { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            )?;
        }
        Ok(())
    }
}

fn key_set(db: &Database, table: &str, cols: &[usize]) -> StoreResult<HashSet<Vec<Value>>> {
    let mut out = HashSet::new();
    db.table(table)?.for_each(|row| {
        out.insert(cols.iter().map(|&c| row[c].clone()).collect());
        Ok::<(), StoreError>(())
    })?;
    Ok(out)
}

/// Run every verification check against the final state of a run and
/// its delivery outcomes: messages the transport dead-lettered never
/// reached the integration layer, so the failed-data expectation excludes
/// them, and the conservation check accounts every scheduled E1 message
/// as integrated, dead-lettered, failed or shed.
pub fn verify_outcome(
    env: &BenchEnvironment,
    outcome: &RunOutcome,
) -> StoreResult<VerificationReport> {
    let mut report = VerificationReport::default();
    let cdb_db = env.db(cdb::CDB);
    let dwh_db = env.db(dwh::DWH);

    // 1. P13 removed the loaded movement data from the CDB.
    let leftover = cdb_db.table("orders")?.row_count() + cdb_db.table("orderline")?.row_count();
    report.push(
        "cdb_movement_consumed",
        leftover == 0,
        format!("{leftover} movement rows left in CDB clean tables"),
    );

    // 2. The DWH received data.
    let dwh_orders = dwh_db.table("orders")?.row_count();
    report.push(
        "dwh_loaded",
        dwh_orders > 0,
        format!("{dwh_orders} orders in the data warehouse"),
    );

    // 3. Referential integrity in the DWH.
    let custkeys = key_set(&dwh_db, "customer", &[0])?;
    let prodkeys = key_set(&dwh_db, "product", &[0])?;
    let orderkeys = key_set(&dwh_db, "orders", &[0])?;
    let mut orphan_orders = 0usize;
    dwh_db.table("orders")?.for_each(|r| {
        if !custkeys.contains(&vec![r[1].clone()]) {
            orphan_orders += 1;
        }
        Ok::<(), StoreError>(())
    })?;
    report.push(
        "dwh_orders_fk_customer",
        orphan_orders == 0,
        format!("{orphan_orders} orders referencing unknown customers"),
    );
    let mut orphan_lines = 0usize;
    dwh_db.table("orderline")?.for_each(|r| {
        if !orderkeys.contains(&vec![r[0].clone()]) || !prodkeys.contains(&vec![r[2].clone()]) {
            orphan_lines += 1;
        }
        Ok::<(), StoreError>(())
    })?;
    report.push(
        "dwh_orderline_fk",
        orphan_lines == 0,
        format!("{orphan_lines} order lines with dangling references"),
    );

    // 4. Only canonical vocabularies reach the DWH.
    let mut bad_vocab = 0usize;
    dwh_db.table("orders")?.for_each(|r| {
        let prio_ok = matches!(&r[4], Value::Str(s) if crate::schema::vocab::is_canon_priority(s));
        let state_ok = matches!(&r[5], Value::Str(s) if crate::schema::vocab::is_canon_state(s));
        if !prio_ok || !state_ok {
            bad_vocab += 1;
        }
        Ok::<(), StoreError>(())
    })?;
    report.push(
        "dwh_canonical_vocabulary",
        bad_vocab == 0,
        format!("{bad_vocab} orders with non-canonical priority/state"),
    );

    // 5. OrdersMV is consistent with the fact table — recomputed through
    // the reference interpreter, so the check does not run the executor
    // whose output it checks.
    let recomputed = dwh::orders_mv_definition().run_oracle(&dwh_db)?;
    let mut materialized = dwh_db.table("orders_mv")?.scan();
    let mut recomputed = recomputed;
    recomputed.sort_by_columns(&[0]);
    materialized.sort_by_columns(&[0]);
    let mv_ok = mv_equivalent(&recomputed, &materialized);
    report.push(
        "orders_mv_consistent",
        mv_ok,
        format!(
            "materialized {} rows vs recomputed {} rows",
            materialized.len(),
            recomputed.len()
        ),
    );

    // 6. Data marts: partitioning and coverage.
    let mut mart_orders_total = 0usize;
    let mut partition_ok = true;
    let mut subset_ok = true;
    for mart in dm::Mart::ALL {
        let mdb = env.db(mart.db_name());
        let orders = mdb.table("orders")?;
        mart_orders_total += orders.row_count();
        // every mart order exists in the DWH
        orders.for_each(|r| {
            if !orderkeys.contains(&vec![r[0].clone()]) {
                subset_ok = false;
            }
            Ok::<(), StoreError>(())
        })?;
        // partitioning: every customer in the mart belongs to the region
        if mart.denormalized_location() {
            mdb.table("customer_d")?.for_each(|r| {
                if r[5] != Value::str(mart.region_name()) {
                    partition_ok = false;
                }
                Ok::<(), StoreError>(())
            })?;
        } else {
            // normalized mart: resolve citykey through its own dims
            let cities = key_set(&mdb, "city", &[0])?;
            mdb.table("customer")?.for_each(|r| {
                if !cities.contains(&vec![r[3].clone()]) {
                    partition_ok = false;
                }
                Ok::<(), StoreError>(())
            })?;
            // region check via refdata
            let region = crate::datagen::refdata::RefData::standard();
            let mut bad = false;
            mdb.table("customer")?.for_each(|r| {
                let citykey = r[3].to_int().unwrap_or(-1);
                let city = region.cities.iter().find(|c| c.citykey == citykey);
                let rk = city.and_then(|c| {
                    region
                        .nations
                        .iter()
                        .find(|(k, _, _)| *k == c.nationkey)
                        .map(|(_, _, r)| *r)
                });
                let expect = match mart {
                    dm::Mart::Europe => crate::datagen::refdata::REGION_EUROPE,
                    dm::Mart::Asia => crate::datagen::refdata::REGION_ASIA,
                    dm::Mart::UnitedStates => crate::datagen::refdata::REGION_AMERICA,
                };
                if rk != Some(expect) {
                    bad = true;
                }
                Ok::<(), StoreError>(())
            })?;
            if bad {
                partition_ok = false;
            }
        }
    }
    report.push(
        "dm_orders_subset_of_dwh",
        subset_ok,
        "all data mart orders exist in the DWH".to_string(),
    );
    report.push(
        "dm_region_partitioning",
        partition_ok,
        "mart customers belong to their mart's region".to_string(),
    );
    // coverage: marts together hold every DWH order that has order lines
    let orders_with_lines = key_set(&dwh_db, "orderline", &[0])?;
    let covered = mart_orders_total;
    let expected: usize = orders_with_lines
        .iter()
        .filter(|k| orderkeys.contains(&vec![k[0].clone()]))
        .count();
    report.push(
        "dm_coverage",
        covered == expected,
        format!("marts hold {covered} orders, DWH has {expected} orders with lines"),
    );

    // 7. Mart MVs are consistent.
    let mut mv_marts_ok = true;
    for mart in dm::Mart::ALL {
        let mdb = env.db(mart.db_name());
        let mut recomputed = dm::sales_mv_definition().run_oracle(&mdb)?;
        let mut materialized = mdb.table("sales_mv")?.scan();
        recomputed.sort_by_columns(&[0]);
        materialized.sort_by_columns(&[0]);
        if !mv_equivalent(&recomputed, &materialized) {
            mv_marts_ok = false;
        }
    }
    report.push(
        "dm_sales_mv_consistent",
        mv_marts_ok,
        "per-mart MV recomputation matches",
    );

    // 8. Failed-data handling: exactly the injected San Diego errors of
    // the final period sit in the failed-messages table. Dead-lettered P10
    // messages never reached the CDB, so their injected errors are excluded.
    let last_period = env.config.periods.saturating_sub(1);
    let n_p10 = crate::schedule::p10_count(env.config.scale.datasize);
    let dlq: HashSet<u32> = (outcome.dead_letters.iter())
        .filter(|d| d.process == "P10" && d.period == last_period)
        .map(|d| d.seq)
        .collect();
    let expected_failures = (0..n_p10)
        .filter(|m| !dlq.contains(m))
        .filter(|&m| env.generator.san_diego_message(last_period, m).1)
        .count();
    let actual_failures = cdb_db.table("failed_messages")?.row_count();
    report.push(
        "failed_messages_match_injected",
        actual_failures == expected_failures,
        format!("{actual_failures} failed messages, {expected_failures} injected"),
    );

    // 9. E1 message conservation: every scheduled message is accounted for
    // exactly once. Messages the broker shed (admission control) never
    // executed, so they have no instance record but sit in the dead-letter
    // queue with `shed = true`; everything else has a record and either
    // integrated (ok), was dead-lettered after exhausted transport
    // retries, or failed outright:
    // `scheduled = integrated + dead-lettered + failed + shed`.
    let d = env.config.scale.datasize;
    let mut conserved = true;
    let mut detail = String::new();
    for k in 0..env.config.periods {
        for (process, scheduled) in [
            ("P01", crate::schedule::p01_count(k, d)),
            ("P02", crate::schedule::p02_count(k, d)),
            ("P04", crate::schedule::p04_count(d)),
            ("P08", crate::schedule::p08_count(d)),
            ("P10", n_p10),
        ] {
            let scheduled = scheduled as usize;
            let recs = outcome
                .records
                .iter()
                .filter(|r| r.process == process && r.period == k);
            let (mut total, mut ok) = (0usize, 0usize);
            for r in recs {
                total += 1;
                ok += r.ok as usize;
            }
            let (mut dlq, mut shed) = (0usize, 0usize);
            for l in outcome
                .dead_letters
                .iter()
                .filter(|l| l.process == process && l.period == k)
            {
                if l.shed {
                    shed += 1;
                } else {
                    dlq += 1;
                }
            }
            let failed = outcome
                .failures
                .iter()
                .filter(|f| f.process == process && f.period == k)
                .count();
            if total + shed != scheduled || ok + dlq + failed + shed != scheduled {
                conserved = false;
                detail = format!(
                    "{process} period {k}: scheduled {scheduled}, \
                     recorded {total}, ok {ok} + dlq {dlq} + failed {failed} \
                     + shed {shed}"
                );
            }
        }
    }
    if detail.is_empty() {
        let dlq_total = outcome.dead_letters.iter().filter(|l| !l.shed).count();
        let shed_total = outcome.dead_letters.len() - dlq_total;
        detail =
            format!("all E1 messages accounted ({dlq_total} dead-lettered, {shed_total} shed)");
    }
    report.push("e1_message_conservation", conserved, detail);

    Ok(report)
}

/// Compare two sorted aggregate relations with float tolerance.
fn mv_equivalent(a: &Relation, b: &Relation) -> bool {
    if a.len() != b.len() {
        return false;
    }
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        for (va, vb) in ra.iter().zip(rb.iter()) {
            let close = match (va.to_float(), vb.to_float()) {
                (Some(x), Some(y)) => (x - y).abs() < 1e-6 * (1.0 + x.abs()),
                _ => va == vb,
            };
            if !close {
                return false;
            }
        }
    }
    true
}
