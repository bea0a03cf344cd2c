//! The CDB cleansing procedures against the loops they replaced.
//!
//! `sp_runMasterDataCleansing` and `sp_runMovementDataCleansing` read
//! staging in place and probe keys without copying rows. The loops below
//! are the procedures as they were before that: every staging table
//! scanned into a copy, every existence test a copied row, the `orders`
//! table looked up once per order line. They are kept here, unchanged, as
//! the oracle. On the same staged rows both must leave the same canonical
//! tables, the same staging tables and the same report rows.

use dip_relstore::prelude::*;
use dipbench::datagen::refdata::RefData;
use dipbench::datagen::{DIRTY_CUSTOMER_RATE, DIRTY_LINE_RATE, DIRTY_ORDER_RATE};
use dipbench::schema::cdb::{self, cleansing_report_schema};
use dipbench::schema::vocab;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The master-data cleansing loop as it was.
fn oracle_master(db: &Database, _args: &[Value]) -> StoreResult<Option<Relation>> {
    let mut scanned = 0i64;
    let mut rejected = 0i64;
    let mut loaded = 0i64;

    // --- customers ---
    let staging = db.table("customer_staging")?;
    let city = db.table("city")?;
    let pending = staging.scan_where(
        &Expr::col(9).eq(Expr::lit(false)), // integrated = false
        None,
    )?;
    scanned += pending.len() as i64;
    let mut clean_rows: Vec<SharedRow> = Vec::new();
    for r in &pending.rows {
        // dirty-data rules: empty name, absurd balance, unknown city
        let name_ok = matches!(&r[1], Value::Str(s) if !s.trim().is_empty());
        let bal_ok = r[7].to_float().is_none_or(|b| b > -9_000.0);
        let citykey = match &r[3] {
            Value::Str(cn) => city
                .scan_where(&Expr::col(1).eq(Expr::lit(&**cn)), Some(&[0]))?
                .rows
                .first()
                .map(|row| row[0].clone()),
            _ => None,
        };
        match (name_ok && bal_ok, citykey) {
            (true, Some(ck)) => clean_rows.push(
                [
                    r[0].clone(), // custkey
                    r[1].clone(), // name
                    r[2].clone(), // address
                    ck,
                    r[5].clone(), // segment
                    r[6].clone(), // phone
                    r[7].clone(), // acctbal
                ]
                .into(),
            ),
            _ => rejected += 1,
        }
    }
    clean_rows.sort_by_key(|r| r[0].to_int());
    loaded += db.table("customer")?.insert_ignore_duplicates(clean_rows)? as i64;

    // --- products ---
    let staging_p = db.table("product_staging")?;
    let groups = db.table("productgroup")?;
    let pending_p = staging_p.scan_where(&Expr::col(6).eq(Expr::lit(false)), None)?;
    scanned += pending_p.len() as i64;
    let mut clean_rows: Vec<SharedRow> = Vec::new();
    for r in &pending_p.rows {
        let name_ok = matches!(&r[1], Value::Str(s) if !s.trim().is_empty());
        let price_ok = r[4].to_float().is_none_or(|p| p >= 0.0);
        let groupkey = match &r[2] {
            Value::Str(g) => groups
                .scan_where(&Expr::col(1).eq(Expr::lit(&**g)), Some(&[0]))?
                .rows
                .first()
                .map(|row| row[0].clone()),
            _ => None,
        };
        match (name_ok && price_ok, groupkey) {
            (true, Some(gk)) => {
                clean_rows.push([r[0].clone(), r[1].clone(), gk, r[4].clone()].into())
            }
            _ => rejected += 1,
        }
    }
    clean_rows.sort_by_key(|r| r[0].to_int());
    loaded += db.table("product")?.insert_ignore_duplicates(clean_rows)? as i64;

    staging.update_where(&Expr::col(9).eq(Expr::lit(false)), &[(9, Expr::lit(true))])?;
    staging_p.update_where(&Expr::col(6).eq(Expr::lit(false)), &[(6, Expr::lit(true))])?;

    Ok(Some(Relation::new(
        cleansing_report_schema(),
        vec![[
            Value::Int(scanned),
            Value::Int(rejected),
            Value::Int(loaded),
        ]
        .into()],
    )))
}

/// The movement-data cleansing loop as it was.
fn oracle_movement(db: &Database, _args: &[Value]) -> StoreResult<Option<Relation>> {
    let mut scanned = 0i64;
    let mut rejected = 0i64;
    let mut loaded = 0i64;

    let staging_o = db.table("orders_staging")?;
    let staging_l = db.table("orderline_staging")?;
    let customer = db.table("customer")?;
    let product = db.table("product")?;

    let pending = staging_o.scan();
    scanned += pending.len() as i64;
    let mut clean_orders: Vec<SharedRow> = Vec::new();
    let mut kept_orderkeys: std::collections::HashSet<i64> = std::collections::HashSet::new();
    for r in &pending.rows {
        let total_ok = r[3].to_float().is_some_and(|t| t > 0.0);
        let prio_ok = matches!(&r[4], Value::Str(p) if vocab::is_canon_priority(p));
        let state_ok = matches!(&r[5], Value::Str(s) if vocab::is_canon_state(s));
        let cust_ok = customer.get_by_pk(&[r[1].clone()]).is_some();
        let date_ok = !r[2].is_null();
        if total_ok && prio_ok && state_ok && cust_ok && date_ok {
            kept_orderkeys.insert(r[0].to_int().unwrap_or(-1));
            clean_orders.push(r[..6].to_vec().into());
        } else {
            rejected += 1;
        }
    }
    clean_orders.sort_by_key(|r| r[0].to_int());
    loaded += db.table("orders")?.insert_ignore_duplicates(clean_orders)? as i64;

    let pending_l = staging_l.scan();
    scanned += pending_l.len() as i64;
    let mut clean_lines: Vec<SharedRow> = Vec::new();
    for r in &pending_l.rows {
        let order_ok = r[0].to_int().is_some_and(|k| kept_orderkeys.contains(&k))
            || db.table("orders")?.get_by_pk(&[r[0].clone()]).is_some();
        let prod_ok = product.get_by_pk(&[r[2].clone()]).is_some();
        let qty_ok = r[3].to_int().is_some_and(|q| q > 0);
        if order_ok && prod_ok && qty_ok {
            clean_lines.push(r[..6].to_vec().into());
        } else {
            rejected += 1;
        }
    }
    clean_lines.sort_by_key(|r| (r[0].to_int(), r[1].to_int()));
    loaded += db
        .table("orderline")?
        .insert_ignore_duplicates(clean_lines)? as i64;

    staging_o.truncate();
    staging_l.truncate();

    Ok(Some(Relation::new(
        cleansing_report_schema(),
        vec![[
            Value::Int(scanned),
            Value::Int(rejected),
            Value::Int(loaded),
        ]
        .into()],
    )))
}

/// A CDB with the reference data loaded; `oracle` installs the loops above
/// under the procedures' names.
fn cdb(oracle: bool) -> Arc<Database> {
    let db = cdb::create_cdb().unwrap();
    RefData::standard().preload(&db).unwrap();
    if oracle {
        db.create_procedure("sp_runMasterDataCleansing", Arc::new(oracle_master));
        db.create_procedure("sp_runMovementDataCleansing", Arc::new(oracle_movement));
    }
    db
}

/// One period's staging rows, per staging table.
#[derive(Debug, Default, Clone)]
struct Staged {
    customers: Vec<SharedRow>,
    products: Vec<SharedRow>,
    orders: Vec<SharedRow>,
    lines: Vec<SharedRow>,
}

/// `n` orders of staging data for `period`, dirty at the generator's rates.
/// Master keys overlap the previous period's, so some rows are staged
/// again after they were integrated, and some orders reference customers
/// or products that never became canonical.
fn generate(seed: u64, period: i64, n: usize) -> Staged {
    let refdata = RefData::standard();
    let mut rng = StdRng::seed_from_u64(seed ^ period as u64);
    let mut staged = Staged::default();
    let keys = |rng: &mut StdRng, base: i64| base + period * 20 + rng.gen_range(0..40i64);
    for _ in 0..n.div_ceil(2) {
        let dirty = rng.gen_bool(DIRTY_CUSTOMER_RATE);
        let key = keys(&mut rng, 0);
        let city = refdata.cities[rng.gen_range(0..refdata.cities.len())].name;
        let city = if dirty && rng.gen_bool(0.5) {
            "Atlantis"
        } else {
            city
        };
        let name = if dirty && rng.gen_bool(0.5) {
            String::new()
        } else {
            format!("c{key}")
        };
        let bal = if dirty && rng.gen_bool(0.5) {
            -99_999.0
        } else {
            rng.gen_range(-500.0..10_000.0)
        };
        staged.customers.push(customer(key, &name, city, bal));
        let dirty = rng.gen_bool(DIRTY_CUSTOMER_RATE);
        let key = keys(&mut rng, 1000);
        let group = refdata.groups[rng.gen_range(0..refdata.groups.len())].1;
        let group = if dirty && rng.gen_bool(0.5) {
            "Nogroup"
        } else {
            group
        };
        let price = if dirty && rng.gen_bool(0.5) {
            -1.0
        } else {
            rng.gen_range(0.5..500.0)
        };
        staged
            .products
            .push(product(key, &format!("p{key}"), group, price));
    }
    for i in 0..n as i64 {
        let dirty = rng.gen_bool(DIRTY_ORDER_RATE);
        let orderkey = period * 10_000 + i;
        let prio = vocab::CANON_PRIORITY[rng.gen_range(0..vocab::CANON_PRIORITY.len())];
        let prio = if dirty && rng.gen_bool(0.5) {
            "??"
        } else {
            prio
        };
        let total: f64 = rng.gen_range(1.0..900.0);
        let total = if dirty { -total } else { total };
        let date = Value::Date(days_from_civil(2008, 1, 1) + rng.gen_range(0..364));
        staged
            .orders
            .push(order(orderkey, keys(&mut rng, 0), date, total, prio));
        for lineno in 1..=rng.gen_range(1..=4i64) {
            let qty = if rng.gen_bool(DIRTY_LINE_RATE) {
                0
            } else {
                rng.gen_range(1..=20)
            };
            staged
                .lines
                .push(line(orderkey, lineno, keys(&mut rng, 1000), qty));
        }
    }
    staged
}

fn customer(key: i64, name: &str, city: &str, bal: f64) -> SharedRow {
    [
        Value::Int(key),
        Value::str(name),
        Value::str(format!("{key} main street")),
        Value::str(city),
        Value::str("Germany"),
        Value::str("AUTO"),
        Value::str("+49"),
        Value::Float(bal),
        Value::str("berlin"),
        Value::Bool(false),
    ]
    .into()
}

fn product(key: i64, name: &str, group: &str, price: f64) -> SharedRow {
    [
        Value::Int(key),
        Value::str(name),
        Value::str(group),
        Value::str("Hardware"),
        Value::Float(price),
        Value::str("berlin"),
        Value::Bool(false),
    ]
    .into()
}

fn order(key: i64, cust: i64, date: Value, total: f64, prio: &str) -> SharedRow {
    [
        Value::Int(key),
        Value::Int(cust),
        date,
        Value::Float(total),
        Value::str(prio),
        Value::str("OPEN"),
        Value::str("berlin"),
    ]
    .into()
}

fn line(order: i64, lineno: i64, prod: i64, qty: i64) -> SharedRow {
    [
        Value::Int(order),
        Value::Int(lineno),
        Value::Int(prod),
        Value::Int(qty),
        Value::Float(10.0),
        Value::Float(0.1),
        Value::str("berlin"),
    ]
    .into()
}

/// Stage `rows`, run both procedures, and return their reports.
fn cleanse(db: &Database, rows: &Staged) -> (Relation, Relation) {
    for (table, rows) in [
        ("customer_staging", &rows.customers),
        ("product_staging", &rows.products),
        ("orders_staging", &rows.orders),
        ("orderline_staging", &rows.lines),
    ] {
        let staging = db.table(table).unwrap();
        staging.insert_ignore_duplicates(rows.clone()).unwrap();
    }
    let call = |proc: &str| db.call_procedure(proc, &[]).unwrap().unwrap();
    (
        call("sp_runMasterDataCleansing"),
        call("sp_runMovementDataCleansing"),
    )
}

/// Every table either procedure reads or writes, rows in slot order.
fn tables(db: &Database) -> Vec<(&'static str, Vec<SharedRow>)> {
    [
        "customer",
        "product",
        "orders",
        "orderline",
        "customer_staging",
        "product_staging",
        "orders_staging",
        "orderline_staging",
    ]
    .into_iter()
    .map(|t| (t, db.table(t).unwrap().scan().rows))
    .collect()
}

/// Cleanse `periods` one after the other on the oracle's CDB and on the
/// procedures'; `Err` names the first difference.
fn agree(periods: &[Staged]) -> Result<(), String> {
    let (oracle, new) = (cdb(true), cdb(false));
    for (k, rows) in periods.iter().enumerate() {
        let reports = (cleanse(&oracle, rows), cleanse(&new, rows));
        if reports.0 != reports.1 {
            return Err(format!(
                "period {k}: reports {:?} vs {:?}",
                reports.0, reports.1
            ));
        }
        for ((table, want), (_, got)) in tables(&oracle).into_iter().zip(tables(&new)) {
            if want != got {
                return Err(format!("period {k}: {table}\n{want:?}\nvs\n{got:?}"));
            }
        }
    }
    Ok(())
}

/// Generated staging over three periods, plus one row of every dirty
/// kind planted by hand, including an order line whose order became
/// canonical in an earlier period.
#[test]
fn the_procedures_cleanse_as_the_loops_did() {
    let mut periods: Vec<Staged> = (0..3).map(|k| generate(7, k, 120)).collect();
    let date = || Value::Date(days_from_civil(2008, 4, 7));
    let canonical_order = periods[0]
        .orders
        .iter()
        .find(|o| o[3].to_float().is_some_and(|t| t > 0.0) && o[4] != Value::str("??"))
        .map(|o| o[0].to_int().unwrap())
        .unwrap();
    let planted = &mut periods[1];
    let mut no_balance = customer(902, "no balance", "Berlin", 1.0).to_vec();
    no_balance[7] = Value::Null;
    planted.customers.extend([
        customer(900, "unknown city", "Atlantis", 1.0),
        customer(901, " ", "Berlin", 1.0),
        no_balance.into(),
    ]);
    let mut no_group = product(1903, "no group", "Bolts", 1.0).to_vec();
    no_group[2] = Value::Null;
    planted.products.extend([
        product(1900, "unknown group", "Nogroup", 1.0),
        product(1901, "", "Bolts", 1.0),
        product(1902, "negative price", "Bolts", -0.01),
        no_group.into(),
    ]);
    planted.orders.extend([
        order(90_000, 902, Value::Null, 10.0, "HIGH"),
        order(90_001, 902, date(), 10.0, "HIGH"),
        order(90_002, 99_999, date(), 10.0, "HIGH"),
    ]);
    planted.lines.extend([
        line(90_001, 1, 1903, 0),
        line(90_001, 2, 1000, 3),
        line(90_003, 1, 1000, 3),
        line(canonical_order, 99, 1000, 3),
    ]);
    agree(&periods).unwrap();
    // every period has rows of both fates, in both procedures
    let db = cdb(true);
    for rows in &periods {
        let (master, movement) = cleanse(&db, rows);
        for report in [master, movement] {
            let [rejected, loaded] = ["rejected", "loaded"].map(|c| report.get(0, c).to_int());
            assert!(rejected > Some(0) && loaded > Some(0), "{report:?}");
        }
    }
}

/// The oracle tells a wrong procedure apart: one that loads an order line
/// whose order is not canonical is caught.
#[test]
fn the_comparison_catches_an_orphan_line_loaded() {
    let sloppy = |db: &Database, args: &[Value]| {
        let report = oracle_movement(db, args)?;
        db.table("orderline")?
            .insert(vec![line(99_999, 1, 1000, 1)[..6].to_vec()])?;
        Ok(report)
    };
    let periods = [generate(11, 0, 40)];
    let (oracle, wrong) = (cdb(true), cdb(true));
    wrong.create_procedure("sp_runMovementDataCleansing", Arc::new(sloppy));
    cleanse(&oracle, &periods[0]);
    cleanse(&wrong, &periods[0]);
    assert_ne!(tables(&oracle), tables(&wrong));
    agree(&periods).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seed and size of generated staging, over two periods.
    #[test]
    fn generated_staging_cleanses_as_the_loops_did(seed in any::<u64>(), n in 0usize..80) {
        let periods = [generate(seed, 0, n), generate(seed, 1, n)];
        if let Err(diff) = agree(&periods) {
            panic!("seed {seed}, {n} orders: {diff}");
        }
    }
}
