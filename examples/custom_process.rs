//! Extend the benchmark: define a *custom* integration process type with
//! the MTM operator set and run it on the engine — the way a user would
//! prototype their own integration workload on this library.
//!
//! The custom process "P16" archives closed orders: it extracts CLOSED
//! orders from the data warehouse, projects them into a compact archive
//! schema, and loads them into a dedicated archive table.
//!
//! ```sh
//! cargo run --release --example custom_process
//! ```

use dip_mtm::process::{EventType, LoadMode, ProcessDef, Step};
use dip_mtm::MtmEngine;
use dip_relstore::prelude::*;
use dipbench::prelude::*;
use dipbench::processes::{col_as, lit_as};

fn main() {
    // Start from a loaded environment: run one normal benchmark period so
    // the DWH has data to archive.
    let config =
        BenchConfig::new(ScaleFactors::new(0.05, 1.0, Distribution::Uniform)).with_periods(1);
    let mtm = |env: &BenchEnvironment| std::sync::Arc::new(MtmSystem::new(env.world.clone())) as _;
    let env = dipbench::client::run(config, &mtm)
        .expect("benchmark run")
        .env;

    // Add an archive table to the DWH.
    let dwh = env.db("dwh");
    let archive_schema = RelSchema::of(&[
        ("orderkey", SqlType::Int),
        ("custkey", SqlType::Int),
        ("totalprice", SqlType::Float),
        ("archived_by", SqlType::Str),
    ])
    .shared();
    dwh.create_table(
        Table::new("orders_archive", archive_schema)
            .with_primary_key(&["orderkey"])
            .unwrap(),
    );

    // Define the custom process with the same operator vocabulary the 15
    // benchmark processes use.
    let p16 = ProcessDef::new(
        "P16",
        "Archive closed orders",
        'C',
        EventType::Timed,
        vec![
            Step::DbQuery {
                db: "dwh".into(),
                plan: Plan::scan("orders").filter(Expr::col(5).eq(Expr::lit("CLOSED"))),
                output: "closed".into(),
            },
            Step::Projection {
                input: "closed".into(),
                exprs: vec![
                    col_as(0, "orderkey", SqlType::Int),
                    col_as(1, "custkey", SqlType::Int),
                    col_as(3, "totalprice", SqlType::Float),
                    lit_as(Value::str("P16"), "archived_by", SqlType::Str),
                ],
                output: "archive_rows".into(),
            },
            Step::DbInsert {
                db: "dwh".into(),
                table: "orders_archive".into(),
                input: "archive_rows".into(),
                mode: LoadMode::InsertIgnore,
            },
        ],
    );

    // Deploy and execute it on a fresh engine over the same world.
    let engine = MtmEngine::new(env.world.clone());
    engine.deploy(p16).expect("P16 is statically valid");
    engine.execute("P16", 0, None).expect("P16 runs");

    let total = dwh.table("orders").unwrap().row_count();
    let archived = dwh.table("orders_archive").unwrap().row_count();
    println!("DWH orders: {total}, archived CLOSED orders: {archived}");
    assert!(archived > 0, "some orders should be CLOSED");

    // The engine recorded the instance's cost profile like any benchmark
    // process.
    let records = engine.recorder().drain();
    let rec = &records[0];
    println!(
        "P16 costs: communication={:?} management={:?} processing={:?}",
        rec.comm, rec.mgmt, rec.proc
    );
}
