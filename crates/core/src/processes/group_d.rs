//! Group D — the data mart update (P14, P15): the benchmark's
//! high-parallelism, data-intensive tail.
//!
//! P14 consists of a main process and four subprocesses: `P14_S1` loads
//! *all* master and movement data from the DWH (a nine-way join
//! denormalized to line granularity) and returns it; then three concurrent
//! threads each run a SELECTION (the region partition) and invoke a
//! mart-specific loader subprocess realizing the DWH → DM schema mapping.

use super::catalog;
use crate::schema::{dm, dwh};
use dip_mtm::process::{EventType, LoadMode, ProcessDef, Step};
use dip_relstore::prelude::*;
use std::sync::Arc;

/// Named column positions of the denormalized sales relation P14_S1
/// returns.
pub mod sales_cols {
    pub const ORDERKEY: usize = 0;
    pub const LINENO: usize = 1;
    pub const PRODKEY: usize = 2;
    pub const QUANTITY: usize = 3;
    pub const EXTENDEDPRICE: usize = 4;
    pub const DISCOUNT: usize = 5;
    pub const CUSTKEY: usize = 6;
    pub const ORDERDATE: usize = 7;
    pub const TOTALPRICE: usize = 8;
    pub const PRIORITY: usize = 9;
    pub const STATE: usize = 10;
    pub const CNAME: usize = 11;
    pub const CADDRESS: usize = 12;
    pub const CITYKEY: usize = 13;
    pub const SEGMENT: usize = 14;
    pub const PHONE: usize = 15;
    pub const ACCTBAL: usize = 16;
    pub const CITY: usize = 17;
    pub const NATION: usize = 18;
    pub const REGION: usize = 19;
    pub const PNAME: usize = 20;
    pub const GROUPKEY: usize = 21;
    pub const PPRICE: usize = 22;
    pub const GROUP_NAME: usize = 23;
    pub const LINE_NAME: usize = 24;
}

/// The schema of the denormalized sales relation.
pub fn sales_schema() -> SchemaRef {
    RelSchema::of(&[
        ("orderkey", SqlType::Int),
        ("lineno", SqlType::Int),
        ("prodkey", SqlType::Int),
        ("quantity", SqlType::Int),
        ("extendedprice", SqlType::Float),
        ("discount", SqlType::Float),
        ("custkey", SqlType::Int),
        ("orderdate", SqlType::Date),
        ("totalprice", SqlType::Float),
        ("priority", SqlType::Str),
        ("state", SqlType::Str),
        ("cname", SqlType::Str),
        ("caddress", SqlType::Str),
        ("citykey", SqlType::Int),
        ("segment", SqlType::Str),
        ("phone", SqlType::Str),
        ("acctbal", SqlType::Float),
        ("city", SqlType::Str),
        ("nation", SqlType::Str),
        ("region", SqlType::Str),
        ("pname", SqlType::Str),
        ("groupkey", SqlType::Int),
        ("pprice", SqlType::Float),
        ("group_name", SqlType::Str),
        ("line_name", SqlType::Str),
    ])
    .shared()
}

/// The nine-way join + projection P14_S1 runs on the DWH. Join column
/// positions follow the concatenation order (each join appends the right
/// side's columns).
pub fn s1_plan() -> Plan {
    s1_join_from(Plan::scan("orderline"))
}

/// The same nine-way join + projection, seeded from an orderline *delta*
/// relation instead of the full `orderline` scan — the standing-query form
/// an incremental view-maintenance engine evaluates per change batch. Both
/// forms project identical columns, so on equal input rows they produce
/// byte-identical sales rows.
pub fn s1_delta_plan(orderline_delta: Relation) -> Plan {
    s1_join_from(Plan::Values(Arc::new(orderline_delta)))
}

fn s1_join_from(orderline: Plan) -> Plan {
    let joined = orderline
        .hash_join(Plan::scan("orders"), vec![0], vec![0]) // +6 @6
        .hash_join(Plan::scan("customer"), vec![7], vec![0]) // +7 @12
        .hash_join(Plan::scan("city"), vec![15], vec![0]) // +3 @19
        .hash_join(Plan::scan("nation"), vec![21], vec![0]) // +3 @22
        .hash_join(Plan::scan("region"), vec![24], vec![0]) // +2 @25
        .hash_join(Plan::scan("product"), vec![2], vec![0]) // +4 @27
        .hash_join(Plan::scan("productgroup"), vec![29], vec![0]) // +3 @31
        .hash_join(Plan::scan("productline"), vec![33], vec![0]); // +2 @34
    let out = sales_schema();
    let src = [
        0usize, 1, 2, 3, 4, 5, // line facts
        7, 8, 9, 10, 11, // order facts
        13, 14, 15, 16, 17, 18, // customer
        20, 23, 26, // city / nation / region names
        28, 29, 30, 32, 35, // product name, groupkey, price, group, line
    ];
    let exprs: Vec<ProjExpr> = src
        .iter()
        .zip(out.columns())
        .map(|(&i, c)| ProjExpr::new(Expr::col(i), c.name.clone(), c.ty))
        .collect();
    joined.project(exprs)
}

/// P14_S1 — load all master and movement data from the DWH and return it.
pub fn p14_s1() -> ProcessDef {
    ProcessDef::new(
        "P14_S1",
        "Load denormalized sales data from DWH",
        'D',
        EventType::Timed,
        vec![Step::DbQuery {
            db: dwh::DWH.into(),
            plan: s1_plan(),
            output: "output".into(),
        }],
    )
}

/// The loader subprocess for one mart: DWH → DM schema mapping plus load.
/// Reads the selected sales subset from the conventional `input` variable.
pub fn p14_loader(mart: dm::Mart) -> ProcessDef {
    let mut steps: Vec<Step> = Vec::new();
    for load in catalog::mart_loads(mart) {
        // dedup from line grain where the target is coarser
        let projected = match load.distinct {
            Some(_) => format!("{}_raw", load.var),
            None => load.var.to_string(),
        };
        steps.push(Step::Projection {
            input: "input".into(),
            exprs: load.exprs,
            output: projected.clone(),
        });
        if load.distinct.is_some() {
            steps.push(Step::UnionDistinct {
                inputs: vec![projected],
                key: load.distinct,
                output: load.var.into(),
            });
        }
        steps.push(Step::DbInsert {
            db: mart.db_name().into(),
            table: load.table.into(),
            input: load.var.into(),
            mode: LoadMode::InsertIgnore,
        });
    }
    ProcessDef::new(
        format!("P14_{}", mart.db_name()),
        format!("Load data mart {}", mart.region_name()),
        'D',
        EventType::Timed,
        steps,
    )
}

/// P14 — refreshing data mart data (E2): S1 + three concurrent
/// selection+loader threads.
pub fn p14() -> ProcessDef {
    let branches: Vec<Vec<Step>> = dm::Mart::ALL
        .iter()
        .map(|&mart| {
            let sel = format!("sales_{}", mart.db_name());
            vec![
                Step::Selection {
                    input: "sales".into(),
                    predicate: catalog::mart_partition(mart),
                    output: sel.clone(),
                },
                Step::Subprocess {
                    process: Arc::new(p14_loader(mart)),
                    input: Some(sel),
                    output: None,
                },
            ]
        })
        .collect();
    catalog::define(
        "P14",
        vec![
            Step::Subprocess {
                process: Arc::new(p14_s1()),
                input: None,
                output: Some("sales".into()),
            },
            Step::Fork { branches },
        ],
    )
}

/// P15 — refreshing the data mart materialized views (E2): no
/// dependencies between the marts, so the three refreshes run in parallel.
pub fn p15() -> ProcessDef {
    let branches: Vec<Vec<Step>> = dm::Mart::ALL
        .iter()
        .map(|&mart| {
            vec![Step::DbCall {
                db: mart.db_name().into(),
                proc: "sp_refreshDataMartViews".into(),
                args: vec![],
                output: None,
            }]
        })
        .collect();
    catalog::define("P15", vec![Step::Fork { branches }])
}
