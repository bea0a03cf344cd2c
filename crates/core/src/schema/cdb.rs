//! The consolidated database (CDB) — the staging area `Sales_Cleaning`.
//!
//! "The schema of the consolidated database is equal to the data warehouse
//! schema, except for the materialized view OrdersMV" (paper §III-B). On
//! top of the canonical tables the CDB carries the *staging* machinery the
//! integration processes need: staging tables per entity (raw data from
//! the heterogeneous sources, city/nation still by name), the
//! failed-messages destinations for P10, and the two cleansing stored
//! procedures invoked by P12/P13.

use super::canonical;
use crate::schema::vocab;
use dip_relstore::prelude::*;
use std::sync::Arc;

/// Logical database name of the CDB in the `ExternalWorld` registry.
pub const CDB: &str = "sales_cleaning";

pub fn customer_staging_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("custkey", SqlType::Int),
        Column::new("name", SqlType::Str),
        Column::new("address", SqlType::Str),
        Column::new("city_name", SqlType::Str),
        Column::new("nation_name", SqlType::Str),
        Column::new("segment", SqlType::Str),
        Column::new("phone", SqlType::Str),
        Column::new("acctbal", SqlType::Float),
        Column::not_null("source", SqlType::Str),
        Column::not_null("integrated", SqlType::Bool),
    ])
    .shared()
}

pub fn product_staging_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("prodkey", SqlType::Int),
        Column::new("name", SqlType::Str),
        Column::new("group_name", SqlType::Str),
        Column::new("line_name", SqlType::Str),
        Column::new("price", SqlType::Float),
        Column::not_null("source", SqlType::Str),
        Column::not_null("integrated", SqlType::Bool),
    ])
    .shared()
}

pub fn orders_staging_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("orderkey", SqlType::Int),
        Column::not_null("custkey", SqlType::Int),
        Column::new("orderdate", SqlType::Date),
        Column::new("totalprice", SqlType::Float),
        Column::new("priority", SqlType::Str),
        Column::new("state", SqlType::Str),
        Column::not_null("source", SqlType::Str),
    ])
    .shared()
}

pub fn orderline_staging_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("orderkey", SqlType::Int),
        Column::not_null("lineno", SqlType::Int),
        Column::not_null("prodkey", SqlType::Int),
        Column::new("quantity", SqlType::Int),
        Column::new("extendedprice", SqlType::Float),
        Column::new("discount", SqlType::Float),
        Column::not_null("source", SqlType::Str),
    ])
    .shared()
}

pub fn failed_messages_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("failkey", SqlType::Int),
        Column::not_null("process", SqlType::Str),
        Column::new("reason", SqlType::Str),
        Column::new("payload", SqlType::Str),
    ])
    .shared()
}

/// Result shape returned by the cleansing procedures: rows scanned, rows
/// rejected as dirty, rows loaded into the clean tables.
pub fn cleansing_report_schema() -> SchemaRef {
    RelSchema::of(&[
        ("scanned", SqlType::Int),
        ("rejected", SqlType::Int),
        ("loaded", SqlType::Int),
    ])
    .shared()
}

/// Build the complete CDB: canonical tables + staging + failed-data tables
/// + cleansing procedures.
pub fn create_cdb() -> StoreResult<Arc<Database>> {
    let db = Arc::new(Database::new(CDB));
    canonical::create_dimension_tables(&db)?;
    canonical::create_core_tables(&db)?;
    db.create_table(
        Table::new("customer_staging", customer_staging_schema())
            .with_primary_key(&["custkey"])?
            .with_index("cs_integrated", &["integrated"])?,
    );
    db.create_table(
        Table::new("product_staging", product_staging_schema())
            .with_primary_key(&["prodkey"])?
            .with_index("ps_integrated", &["integrated"])?,
    );
    db.create_table(
        Table::new("orders_staging", orders_staging_schema()).with_primary_key(&["orderkey"])?,
    );
    db.create_table(
        Table::new("orderline_staging", orderline_staging_schema())
            .with_primary_key(&["orderkey", "lineno"])?,
    );
    db.create_table(
        Table::new("failed_messages", failed_messages_schema()).with_primary_key(&["failkey"])?,
    );
    register_cleansing_procedures(&db);
    Ok(db)
}

/// Install `sp_runMasterDataCleansing` and `sp_runMovementDataCleansing`.
pub fn register_cleansing_procedures(db: &Database) {
    db.create_procedure("sp_runMasterDataCleansing", Arc::new(master_data_cleansing));
    db.create_procedure(
        "sp_runMovementDataCleansing",
        Arc::new(movement_data_cleansing),
    );
}

/// P12's cleansing: eliminate duplicates (handled structurally by the
/// staging primary keys) and error-prone master data, resolve dimension
/// keys by name, and copy clean rows into the canonical tables.
///
/// Pending staging rows (`integrated = false`, through the staging
/// table's index) are read in place; only the cells of the rows it loads
/// are copied.
fn master_data_cleansing(db: &Database, _args: &[Value]) -> StoreResult<Option<Relation>> {
    let mut scanned = 0i64;
    let mut rejected = 0i64;
    let mut loaded = 0i64;

    // --- customers ---
    let staging = db.table("customer_staging")?;
    let city = db.table("city")?;
    let pending = Expr::col(9).eq(Expr::lit(false)); // integrated = false
    let mut clean_rows: Vec<SharedRow> = Vec::new();
    staging.for_each_where(&pending, |r| {
        scanned += 1;
        // dirty-data rules: empty name, absurd balance, unknown city
        let name_ok = matches!(&r[1], Value::Str(s) if !s.trim().is_empty());
        let bal_ok = r[7].to_float().is_none_or(|b| b > -9_000.0);
        match (name_ok && bal_ok, key_by_name(&city, &r[3])?) {
            (true, Some(ck)) => clean_rows.push(SharedRow::from([
                r[0].clone(), // custkey
                r[1].clone(), // name
                r[2].clone(), // address
                ck,
                r[5].clone(), // segment
                r[6].clone(), // phone
                r[7].clone(), // acctbal
            ])),
            _ => rejected += 1,
        }
        Ok(())
    })?;
    // canonicalize: staging row order depends on how the concurrent
    // extract/message instances interleaved their loads, so clean output
    // is emitted in key order — downstream scan-order-sensitive consumers
    // (float aggregates) stay byte-identical at any worker count
    clean_rows.sort_by_key(|r| r[0].to_int());
    loaded += db.table("customer")?.insert_ignore_duplicates(clean_rows)? as i64;

    // --- products ---
    let staging_p = db.table("product_staging")?;
    let groups = db.table("productgroup")?;
    let pending_p = Expr::col(6).eq(Expr::lit(false));
    let mut clean_rows: Vec<SharedRow> = Vec::new();
    staging_p.for_each_where(&pending_p, |r| {
        scanned += 1;
        let name_ok = matches!(&r[1], Value::Str(s) if !s.trim().is_empty());
        let price_ok = r[4].to_float().is_none_or(|p| p >= 0.0);
        match (name_ok && price_ok, key_by_name(&groups, &r[2])?) {
            (true, Some(gk)) => {
                clean_rows.push([r[0].clone(), r[1].clone(), gk, r[4].clone()].into())
            }
            _ => rejected += 1,
        }
        Ok(())
    })?;
    clean_rows.sort_by_key(|r| r[0].to_int());
    loaded += db.table("product")?.insert_ignore_duplicates(clean_rows)? as i64;

    // flag everything we just processed as integrated (but keep it — P12
    // only marks master data, it never removes it)
    staging.update_where(&pending, &[(9, Expr::lit(true))])?;
    staging_p.update_where(&pending_p, &[(6, Expr::lit(true))])?;

    Ok(Some(cleansing_report(scanned, rejected, loaded)))
}

/// The key (column 0) of the first row of a dimension table whose name
/// (column 1) is `name`; `None` for an unknown or non-text name.
fn key_by_name(dimension: &Table, name: &Value) -> StoreResult<Option<Value>> {
    let Value::Str(name) = name else {
        return Ok(None);
    };
    let named = dimension.scan_where(&Expr::col(1).eq(Expr::lit(&**name)), Some(&[0]))?;
    Ok(named.rows.first().and_then(|row| row.first().cloned()))
}

/// P13's cleansing: eliminate movement-data errors (bad totals, unknown
/// vocabulary, orphaned foreign keys) and copy clean movement data into the
/// canonical tables. Staging movement rows are consumed (truncated).
///
/// Staging is read in place, foreign keys are probed on the primary key
/// without copying the row they find, and only the rows it loads are
/// copied.
fn movement_data_cleansing(db: &Database, _args: &[Value]) -> StoreResult<Option<Relation>> {
    let mut scanned = 0i64;
    let mut rejected = 0i64;
    let mut loaded = 0i64;

    let staging_o = db.table("orders_staging")?;
    let staging_l = db.table("orderline_staging")?;
    let customer = db.table("customer")?;
    let product = db.table("product")?;
    let orders = db.table("orders")?;

    let mut clean_orders: Vec<SharedRow> = Vec::new();
    let mut kept_orderkeys: std::collections::HashSet<i64> = std::collections::HashSet::new();
    staging_o.for_each(|r| {
        scanned += 1;
        let total_ok = r[3].to_float().is_some_and(|t| t > 0.0);
        let prio_ok = matches!(&r[4], Value::Str(p) if vocab::is_canon_priority(p));
        let state_ok = matches!(&r[5], Value::Str(s) if vocab::is_canon_state(s));
        let date_ok = !r[2].is_null();
        if total_ok && prio_ok && state_ok && date_ok && customer.contains_key(&r[1..2]) {
            kept_orderkeys.insert(r[0].to_int().unwrap_or(-1));
            clean_orders.push(SharedRow::from(&r[..6]));
        } else {
            rejected += 1;
        }
        Ok::<(), StoreError>(())
    })?;
    // canonicalize: staging order is interleaving-dependent under the
    // worker pool, and `OrdersMV`'s revenue is a float sum in fact-table
    // scan order — key-sorted output keeps it byte-identical
    clean_orders.sort_by_key(|r| r[0].to_int());
    loaded += orders.insert_ignore_duplicates(clean_orders)? as i64;

    let mut clean_lines: Vec<SharedRow> = Vec::new();
    staging_l.for_each(|r| {
        scanned += 1;
        let order_ok = r[0].to_int().is_some_and(|k| kept_orderkeys.contains(&k))
            || orders.contains_key(&r[..1]);
        let qty_ok = r[3].to_int().is_some_and(|q| q > 0);
        if order_ok && qty_ok && product.contains_key(&r[2..3]) {
            clean_lines.push(SharedRow::from(&r[..6]));
        } else {
            rejected += 1;
        }
        Ok::<(), StoreError>(())
    })?;
    clean_lines.sort_by_key(|r| (r[0].to_int(), r[1].to_int()));
    loaded += db
        .table("orderline")?
        .insert_ignore_duplicates(clean_lines)? as i64;

    // movement staging is consumed by cleansing
    staging_o.truncate();
    staging_l.truncate();

    Ok(Some(cleansing_report(scanned, rejected, loaded)))
}

/// The one row a cleansing procedure returns.
fn cleansing_report(scanned: i64, rejected: i64, loaded: i64) -> Relation {
    Relation::new(
        cleansing_report_schema(),
        vec![SharedRow::from([
            Value::Int(scanned),
            Value::Int(rejected),
            Value::Int(loaded),
        ])],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_relstore::value::days_from_civil;

    fn seeded_cdb() -> Arc<Database> {
        let db = create_cdb().unwrap();
        db.table("region")
            .unwrap()
            .insert(vec![vec![Value::Int(1), Value::str("Europe")]])
            .unwrap();
        db.table("nation")
            .unwrap()
            .insert(vec![vec![
                Value::Int(10),
                Value::str("Germany"),
                Value::Int(1),
            ]])
            .unwrap();
        db.table("city")
            .unwrap()
            .insert(vec![vec![
                Value::Int(100),
                Value::str("Berlin"),
                Value::Int(10),
            ]])
            .unwrap();
        db.table("productline")
            .unwrap()
            .insert(vec![vec![Value::Int(1), Value::str("Hardware")]])
            .unwrap();
        db.table("productgroup")
            .unwrap()
            .insert(vec![vec![
                Value::Int(5),
                Value::str("Bolts"),
                Value::Int(1),
            ]])
            .unwrap();
        db
    }

    fn stage_customer(db: &Database, key: i64, name: &str, city: &str, bal: f64) {
        db.table("customer_staging")
            .unwrap()
            .insert(vec![vec![
                Value::Int(key),
                Value::str(name),
                Value::str("addr"),
                Value::str(city),
                Value::str("Germany"),
                Value::str("AUTO"),
                Value::str("+49"),
                Value::Float(bal),
                Value::str("berlin"),
                Value::Bool(false),
            ]])
            .unwrap();
    }

    #[test]
    fn master_cleansing_resolves_and_rejects() {
        let db = seeded_cdb();
        stage_customer(&db, 1, "good", "Berlin", 100.0);
        stage_customer(&db, 2, "", "Berlin", 100.0); // empty name -> reject
        stage_customer(&db, 3, "badcity", "Atlantis", 100.0); // unknown city
        stage_customer(&db, 4, "badbal", "Berlin", -99999.0); // absurd balance
        let report = db
            .call_procedure("sp_runMasterDataCleansing", &[])
            .unwrap()
            .unwrap();
        assert_eq!(report.get(0, "scanned"), &Value::Int(4));
        assert_eq!(report.get(0, "rejected"), &Value::Int(3));
        assert_eq!(report.get(0, "loaded"), &Value::Int(1));
        let clean = db.table("customer").unwrap();
        assert_eq!(clean.row_count(), 1);
        let row = clean.get_by_pk(&[Value::Int(1)]).unwrap();
        assert_eq!(row[3], Value::Int(100)); // citykey resolved
                                             // staging flagged integrated, not removed
        let staging = db.table("customer_staging").unwrap();
        assert_eq!(staging.row_count(), 4);
        let unintegrated = staging
            .scan_where(&Expr::col(9).eq(Expr::lit(false)), None)
            .unwrap();
        assert_eq!(unintegrated.len(), 0);
        // second run: nothing pending
        let report2 = db
            .call_procedure("sp_runMasterDataCleansing", &[])
            .unwrap()
            .unwrap();
        assert_eq!(report2.get(0, "scanned"), &Value::Int(0));
    }

    #[test]
    fn movement_cleansing_checks_fks_and_consumes_staging() {
        let db = seeded_cdb();
        stage_customer(&db, 1, "good", "Berlin", 1.0);
        db.table("product_staging")
            .unwrap()
            .insert(vec![vec![
                Value::Int(11),
                Value::str("bolt"),
                Value::str("Bolts"),
                Value::str("Hardware"),
                Value::Float(1.5),
                Value::str("berlin"),
                Value::Bool(false),
            ]])
            .unwrap();
        db.call_procedure("sp_runMasterDataCleansing", &[]).unwrap();

        let d = days_from_civil(2008, 4, 7);
        let order = |k: i64, cust: i64, total: f64, prio: &str| {
            vec![
                Value::Int(k),
                Value::Int(cust),
                Value::Date(d),
                Value::Float(total),
                Value::str(prio),
                Value::str("OPEN"),
                Value::str("berlin"),
            ]
        };
        db.table("orders_staging")
            .unwrap()
            .insert(vec![
                order(100, 1, 50.0, "HIGH"),
                order(101, 999, 50.0, "HIGH"),      // orphan customer
                order(102, 1, -5.0, "HIGH"),        // bad total
                order(103, 1, 50.0, "MEGA-URGENT"), // non-canonical vocab
            ])
            .unwrap();
        let line = |ok: i64, no: i64, pk: i64, qty: i64| {
            vec![
                Value::Int(ok),
                Value::Int(no),
                Value::Int(pk),
                Value::Int(qty),
                Value::Float(1.0),
                Value::Float(0.0),
                Value::str("berlin"),
            ]
        };
        db.table("orderline_staging")
            .unwrap()
            .insert(vec![
                line(100, 1, 11, 2),
                line(100, 2, 999, 2), // unknown product
                line(101, 1, 11, 2),  // parent rejected
                line(100, 3, 11, 0),  // zero quantity
            ])
            .unwrap();

        let report = db
            .call_procedure("sp_runMovementDataCleansing", &[])
            .unwrap()
            .unwrap();
        assert_eq!(report.get(0, "scanned"), &Value::Int(8));
        assert_eq!(report.get(0, "rejected"), &Value::Int(6));
        assert_eq!(report.get(0, "loaded"), &Value::Int(2));
        assert_eq!(db.table("orders").unwrap().row_count(), 1);
        assert_eq!(db.table("orderline").unwrap().row_count(), 1);
        // movement staging consumed
        assert_eq!(db.table("orders_staging").unwrap().row_count(), 0);
        assert_eq!(db.table("orderline_staging").unwrap().row_count(), 0);
    }
}
