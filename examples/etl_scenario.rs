//! A guided tour of the DIPBench ETL scenario (paper Fig. 1): watch the
//! data flow layer by layer — sources → consolidated database → data
//! warehouse → data marts — on the federated-DBMS reference
//! implementation.
//!
//! ```sh
//! cargo run --release --example etl_scenario
//! ```

use dip_feddbms::{FedDbms, FedOptions};
use dipbench::prelude::*;
use dipbench::{schedule, verify};
use std::sync::Arc;
use std::time::Instant;

fn count(env: &BenchEnvironment, db: &str, table: &str) -> usize {
    env.db(db).table(table).map(|t| t.row_count()).unwrap_or(0)
}

fn dispatch(system: &Arc<dyn IntegrationSystem>, event: Event) {
    let p = event.process().to_string();
    let d = system.deliver(event);
    assert!(d.is_ok(), "{p}: {d:?}");
}

fn main() {
    let config = BenchConfig::new(ScaleFactors::paper_fig10()).with_periods(1);
    let env = BenchEnvironment::new(config).expect("environment");
    let system: Arc<dyn IntegrationSystem> =
        Arc::new(FedDbms::new(env.world.clone(), FedOptions::default()));
    // the client deploys the 15 process types; this tour delivers the
    // period's events by hand instead of through its streams
    let client = Client::new(&env, system.clone()).expect("deploy");
    let start = Instant::now();
    env.initialize_sources(0).expect("initializer");
    let d = config.scale.datasize;

    println!("== Layer 1: source systems (after initialization) ==");
    println!(
        "  berlin_paris.cust  = {}",
        count(&env, "berlin_paris", "cust")
    );
    println!("  trondheim.ord      = {}", count(&env, "trondheim", "ord"));
    println!(
        "  chicago.orders     = {}",
        count(&env, "chicago", "orders")
    );
    println!(
        "  beijing_db.orders  = {}",
        count(&env, "beijing_db", "orders")
    );

    println!("\n== Group A: source-system management ==");
    let n_p01 = schedule::p01_count(0, d);
    for m in 0..n_p01 {
        let msg = env.generator.beijing_master_message(0, m);
        dispatch(&system, Event::message("P01", 0, m, msg));
    }
    println!("  P01 x{n_p01}: Beijing master data replicated to Seoul");
    let n_p02 = schedule::p02_count(0, d);
    for m in 0..n_p02 {
        let msg = env.generator.mdm_message(0, m);
        dispatch(&system, Event::message("P02", 0, m, msg));
    }
    println!("  P02 x{n_p02}: MDM customer updates routed into Europe");
    dispatch(&system, Event::timed("P03", 0, 0));
    println!(
        "  P03: US local consolidation -> us_eastcoast.orders = {}",
        count(&env, "us_eastcoast", "orders")
    );

    println!("\n== Group B: data consolidation into the CDB ==");
    let n_p04 = schedule::p04_count(d);
    for m in 0..n_p04 {
        dispatch(
            &system,
            Event::message("P04", 0, m, env.generator.vienna_message(0, m)),
        );
    }
    println!("  P04 x{n_p04}: Vienna messages staged");
    for p in ["P05", "P06", "P07"] {
        dispatch(&system, Event::timed(p, 0, 0));
    }
    println!("  P05-P07: European extracts staged");
    let n_p08 = schedule::p08_count(d);
    for m in 0..n_p08 {
        dispatch(
            &system,
            Event::message("P08", 0, m, env.generator.hongkong_message(0, m)),
        );
    }
    dispatch(&system, Event::timed("P09", 0, 0));
    println!("  P08/P09: Asian flow staged");
    let n_p10 = schedule::p10_count(d);
    let mut rejected = 0;
    for m in 0..n_p10 {
        let (msg, injected) = env.generator.san_diego_message(0, m);
        dispatch(&system, Event::message("P10", 0, m, msg));
        rejected += injected as usize;
    }
    dispatch(&system, Event::timed("P11", 0, 0));
    println!("  P10 x{n_p10}: San Diego messages ({rejected} routed to failed data)");
    println!("  P11: US_Eastcoast loaded into the global CDB");
    println!(
        "  CDB staging: customers={} products={} orders={} lines={} failed={}",
        count(&env, "sales_cleaning", "customer_staging"),
        count(&env, "sales_cleaning", "product_staging"),
        count(&env, "sales_cleaning", "orders_staging"),
        count(&env, "sales_cleaning", "orderline_staging"),
        count(&env, "sales_cleaning", "failed_messages"),
    );

    println!("\n== Group C: data warehouse update ==");
    dispatch(&system, Event::timed("P12", 0, 0));
    dispatch(&system, Event::timed("P13", 0, 0));
    println!(
        "  DWH: customers={} products={} orders={} lines={} OrdersMV rows={}",
        count(&env, "dwh", "customer"),
        count(&env, "dwh", "product"),
        count(&env, "dwh", "orders"),
        count(&env, "dwh", "orderline"),
        count(&env, "dwh", "orders_mv"),
    );
    println!(
        "  CDB movement after delta load: orders={} (P13 removed them)",
        count(&env, "sales_cleaning", "orders")
    );

    println!("\n== Group D: data mart update ==");
    dispatch(&system, Event::timed("P14", 0, 0));
    dispatch(&system, Event::timed("P15", 0, 0));
    for mart in ["dm_europe", "dm_unitedstates", "dm_asia"] {
        println!(
            "  {mart}: orders={} sales_mv={}",
            count(&env, mart, "orders"),
            count(&env, mart, "sales_mv"),
        );
    }

    println!("\n== Post phase: verification ==");
    let records = system.recorder().drain();
    let dead_letters = system.dead_letters().drain();
    let outcome = client.build_outcome(records, Vec::new(), dead_letters, start.elapsed());
    let report = verify::verify_outcome(&env, &outcome).expect("verification");
    print!("{report}");
    println!("overall: {}", if report.passed() { "PASS" } else { "FAIL" });
}
