//! Per-process behavioural tests: each of the 15 process types executed in
//! isolation on the MTM engine, with its specific data effect asserted
//! (the end-to-end tests check the composition; these pin down each
//! process's own contract).

use dip_relstore::prelude::*;
use dip_xmlkit::path::value as xpath;
use dipbench::prelude::*;
use dipbench::schema::{europe, messages};
use dipbench::{datagen, schedule};
use std::sync::Arc;

struct Fixture {
    env: BenchEnvironment,
    system: Arc<MtmSystem>,
}

fn fixture() -> Fixture {
    let config =
        BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(1);
    let env = BenchEnvironment::new(config).unwrap();
    let system = Arc::new(MtmSystem::new(env.world.clone()));
    use dipbench::system::IntegrationSystem;
    system.deploy(dipbench::processes::all_processes()).unwrap();
    env.initialize_sources(0).unwrap();
    Fixture { env, system }
}

fn timed(f: &Fixture, p: &str) {
    use dipbench::system::IntegrationSystem;
    let d = f.system.deliver(Event::timed(p, 0, 0));
    assert!(d.is_ok(), "{p}: {d:?}");
}

fn message(f: &Fixture, p: &str, doc: dip_xmlkit::Document) {
    use dipbench::system::IntegrationSystem;
    let d = f.system.deliver(Event::message(p, 0, 0, doc));
    assert!(d.is_ok(), "{p}: {d:?}");
}

#[test]
fn p01_replicates_master_data_to_seoul() {
    let f = fixture();
    let msg = f.env.generator.beijing_master_message(0, 0);
    // capture the keys carried by the message
    let ck: i64 = xpath(&msg.root, "bjMasterData/bjCustomers/bjCustomer/bjKey")
        .unwrap()
        .unwrap()
        .parse()
        .unwrap();
    let name = xpath(&msg.root, "bjMasterData/bjCustomers/bjCustomer/bjName")
        .unwrap()
        .unwrap();
    message(&f, "P01", msg);
    let seoul = f.env.db("seoul_db");
    let row = seoul
        .table("customers")
        .unwrap()
        .get_by_pk(&[Value::Int(ck)])
        .unwrap();
    assert_eq!(row[1], Value::str(name));
}

#[test]
fn p02_routes_updates_by_custkey_range() {
    let f = fixture();
    // craft MDM messages deterministically until each branch is hit
    let mut berlin_hit = false;
    let mut paris_hit = false;
    let mut trondheim_hit = false;
    for m in 0..40 {
        let msg = f.env.generator.mdm_message(0, m);
        let key: i64 = xpath(&msg.root, "mdmCustomer/ident/custKey")
            .unwrap()
            .unwrap()
            .parse()
            .unwrap();
        message(&f, "P02", msg);
        if key < datagen::keys::P02_BERLIN_BELOW {
            berlin_hit = true;
            let bp = f.env.db(europe::BERLIN_PARIS);
            let row = bp
                .table("cust")
                .unwrap()
                .get_by_pk(&[Value::Int(key)])
                .unwrap();
            assert_eq!(row[8], Value::str("berlin"), "custkey {key}");
        } else if key < datagen::keys::P02_PARIS_BELOW {
            paris_hit = true;
            let bp = f.env.db(europe::BERLIN_PARIS);
            let row = bp
                .table("cust")
                .unwrap()
                .get_by_pk(&[Value::Int(key)])
                .unwrap();
            assert_eq!(row[8], Value::str("paris"), "custkey {key}");
        } else {
            trondheim_hit = true;
            let tr = f.env.db(europe::TRONDHEIM);
            assert!(tr
                .table("cust")
                .unwrap()
                .get_by_pk(&[Value::Int(key)])
                .is_some());
        }
    }
    assert!(
        berlin_hit && paris_hit && trondheim_hit,
        "all three branches should be exercised"
    );
}

#[test]
fn p03_union_distinct_consolidates_overlaps() {
    let f = fixture();
    timed(&f, "P03");
    let us = f.env.db("us_eastcoast");
    // every source customer appears exactly once despite overlap
    let mut expected: std::collections::HashSet<i64> = std::collections::HashSet::new();
    for src in ["chicago", "baltimore", "madison"] {
        f.env
            .db(src)
            .table("customer")
            .unwrap()
            .for_each(|r| {
                expected.insert(r[0].to_int().unwrap());
                Ok::<(), StoreError>(())
            })
            .unwrap();
    }
    assert_eq!(us.table("customer").unwrap().row_count(), expected.len());
    // orders from all three disjoint ranges arrived
    let orders = us.table("orders").unwrap().scan();
    for base in [
        datagen::keys::ORD_CHICAGO,
        datagen::keys::ORD_BALTIMORE,
        datagen::keys::ORD_MADISON,
    ] {
        assert!(
            orders.rows.iter().any(|r| {
                let k = r[0].to_int().unwrap();
                k >= base && k < base + 100_000
            }),
            "no orders from base {base}"
        );
    }
}

#[test]
fn p04_enriches_and_stages_vienna_orders() {
    let f = fixture();
    let msg = f.env.generator.vienna_message(0, 0);
    let orderkey: i64 = xpath(&msg.root, "viennaOrder/orderHeader/orderKey")
        .unwrap()
        .unwrap()
        .parse()
        .unwrap();
    message(&f, "P04", msg);
    let cdb = f.env.db("sales_cleaning");
    let staged = cdb
        .table("orders_staging")
        .unwrap()
        .get_by_pk(&[Value::Int(orderkey)])
        .unwrap();
    assert_eq!(staged[6], Value::str("vienna"));
    // vocabulary already canonical after translation
    let prio = staged[4].render();
    assert!(
        dipbench::schema::vocab::is_canon_priority(&prio) || prio == "??",
        "unexpected priority {prio}"
    );
    assert!(cdb.table("orderline_staging").unwrap().row_count() > 0);
}

#[test]
fn p05_to_p07_stage_each_location_separately() {
    let f = fixture();
    timed(&f, "P05");
    let cdb = f.env.db("sales_cleaning");
    let after_berlin = cdb.table("orders_staging").unwrap().row_count();
    assert!(after_berlin > 0);
    let sources: std::collections::HashSet<String> = cdb
        .table("orders_staging")
        .unwrap()
        .scan()
        .column_values("source")
        .map(|v| v.render())
        .collect();
    assert_eq!(sources, ["berlin".to_string()].into_iter().collect());
    timed(&f, "P06");
    timed(&f, "P07");
    let sources: std::collections::HashSet<String> = cdb
        .table("orders_staging")
        .unwrap()
        .scan()
        .column_values("source")
        .map(|v| v.render())
        .collect();
    assert_eq!(
        sources,
        ["berlin", "paris", "trondheim"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    );
    // the shared European product catalog deduplicated on the pk
    assert_eq!(
        cdb.table("product_staging").unwrap().row_count(),
        f.env.generator.cards.products
    );
}

#[test]
fn p08_stages_hongkong_messages_with_asia_vocab_mapped() {
    let f = fixture();
    let msg = f.env.generator.hongkong_message(0, 1);
    let orderkey: i64 = xpath(&msg.root, "hkOrder/hkOrderKey")
        .unwrap()
        .unwrap()
        .parse()
        .unwrap();
    message(&f, "P08", msg);
    let cdb = f.env.db("sales_cleaning");
    let staged = cdb
        .table("orders_staging")
        .unwrap()
        .get_by_pk(&[Value::Int(orderkey)])
        .unwrap();
    assert_eq!(staged[6], Value::str("hongkong"));
    let state = staged[5].render();
    assert!(
        dipbench::schema::vocab::is_canon_state(&state),
        "asia state not mapped: {state}"
    );
}

#[test]
fn p09_merges_beijing_and_seoul_without_duplicates() {
    let f = fixture();
    timed(&f, "P09");
    let cdb = f.env.db("sales_cleaning");
    // shared master data arrives once
    assert_eq!(
        cdb.table("customer_staging").unwrap().row_count(),
        f.env.generator.cards.customers
    );
    // disjoint orders arrive from both services
    let orders = cdb.table("orders_staging").unwrap().scan();
    assert_eq!(orders.len(), 2 * f.env.generator.cards.orders);
    let beijing_orders = orders
        .rows
        .iter()
        .filter(|r| {
            let k = r[0].to_int().unwrap();
            (datagen::keys::ORD_BEIJING..datagen::keys::ORD_SEOUL).contains(&k)
        })
        .count();
    assert_eq!(beijing_orders, f.env.generator.cards.orders);
    for r in &orders.rows {
        assert_eq!(r[6], Value::str("asia_ws"));
    }
}

#[test]
fn p10_splits_valid_and_invalid_messages() {
    let f = fixture();
    let n = schedule::p10_count(0.02);
    let mut injected = 0;
    for m in 0..n {
        let (msg, bad) = f.env.generator.san_diego_message(0, m);
        injected += bad as usize;
        message(&f, "P10", msg);
    }
    let cdb = f.env.db("sales_cleaning");
    assert_eq!(cdb.table("failed_messages").unwrap().row_count(), injected);
    // every failed row carries the process id and a reason
    cdb.table("failed_messages")
        .unwrap()
        .for_each(|r| {
            assert_eq!(r[1], Value::str("P10"));
            assert!(!r[2].render().is_empty());
            assert!(r[3].render().starts_with("<?xml"));
            Ok::<(), StoreError>(())
        })
        .unwrap();
    let staged = cdb
        .table("orders_staging")
        .unwrap()
        .scan_where(&Expr::col(6).eq(Expr::lit("san_diego")), None)
        .unwrap();
    assert_eq!(staged.len(), n as usize - injected);
}

#[test]
fn p11_maps_tpch_names_into_staging() {
    let f = fixture();
    timed(&f, "P03"); // fill us_eastcoast first
    timed(&f, "P11");
    let cdb = f.env.db("sales_cleaning");
    let us = f.env.db("us_eastcoast");
    assert_eq!(
        cdb.table("orders_staging").unwrap().row_count(),
        us.table("orders").unwrap().row_count()
    );
    // America's single-letter states arrive canonicalized
    cdb.table("orders_staging")
        .unwrap()
        .for_each(|r| {
            let s = r[5].render();
            assert!(
                dipbench::schema::vocab::is_canon_state(&s) || s == "??",
                "state {s} not mapped"
            );
            Ok::<(), StoreError>(())
        })
        .unwrap();
}

#[test]
fn p12_p13_cleanse_and_load_the_dwh() {
    let f = fixture();
    timed(&f, "P05");
    timed(&f, "P06");
    timed(&f, "P07");
    timed(&f, "P12");
    let cdb = f.env.db("sales_cleaning");
    let dwh = f.env.db("dwh");
    // master data flagged integrated, clean copies in CDB + DWH
    let pending = cdb
        .table("customer_staging")
        .unwrap()
        .scan_where(&Expr::col(9).eq(Expr::lit(false)), None)
        .unwrap();
    assert_eq!(pending.len(), 0);
    assert!(dwh.table("customer").unwrap().row_count() > 0);
    assert_eq!(
        dwh.table("customer").unwrap().row_count(),
        cdb.table("customer").unwrap().row_count()
    );
    timed(&f, "P13");
    assert!(dwh.table("orders").unwrap().row_count() > 0);
    assert!(dwh.table("orders_mv").unwrap().row_count() > 0);
    // movement removed from the CDB for delta determination
    assert_eq!(cdb.table("orders").unwrap().row_count(), 0);
    assert_eq!(cdb.table("orderline").unwrap().row_count(), 0);
}

#[test]
fn p14_p15_partition_marts_and_refresh_views() {
    let f = fixture();
    for p in ["P03", "P05", "P06", "P07", "P09", "P11", "P12", "P13"] {
        timed(&f, p);
    }
    timed(&f, "P14");
    timed(&f, "P15");
    let dwh_orders = f.env.db("dwh").table("orders").unwrap().row_count();
    let mart_total: usize = ["dm_europe", "dm_unitedstates", "dm_asia"]
        .iter()
        .map(|m| f.env.db(m).table("orders").unwrap().row_count())
        .sum();
    assert!(mart_total > 0 && mart_total <= dwh_orders);
    for mart in ["dm_europe", "dm_unitedstates", "dm_asia"] {
        let db = f.env.db(mart);
        assert!(
            db.table("sales_mv").unwrap().row_count() > 0,
            "{mart} MV empty"
        );
    }
    // Europe mart only holds Europe customers
    f.env
        .db("dm_europe")
        .table("customer_d")
        .unwrap()
        .for_each(|r| {
            assert_eq!(r[5], Value::str("Europe"));
            Ok::<(), StoreError>(())
        })
        .unwrap();
}

#[test]
fn stx_stylesheets_compose_with_decoders() {
    // the chain every message process relies on: app shape → STX → decoder
    let f = fixture();
    let g = &f.env.generator;
    for m in 0..10 {
        let v = g.vienna_message(0, m);
        let t = messages::stx_vienna_to_cdb().transform(&v).unwrap();
        assert!(
            messages::decode_order("vienna", &t).is_ok(),
            "vienna msg {m}"
        );
        let h = g.hongkong_message(0, m);
        let t = messages::stx_hongkong_to_cdb().transform(&h).unwrap();
        assert!(messages::decode_order("hongkong", &t).is_ok(), "hk msg {m}");
    }
}
