//! The catalog: the 15 process types (paper Table I), P02's route and
//! *what* the time-driven processes P03–P14 move, declared once as data.
//!
//! The paper specifies the process types platform-independently and lets
//! each system under test choose only how to execute them. This module is
//! that platform-independent half for every extract → stage → load flow:
//! which source table, narrowed how, is projected onto which target table.
//! The MTM definitions (`group_a` … `group_d`) turn an entry into `DbQuery →
//! Projection → DbInsert` steps, the federated procedures
//! (`dip_feddbms::procs`) into `remote_query → materialize → local_query →
//! remote_load`, the ivm engine swaps only how the input relation is
//! obtained. Control flow, materialization points and the XML path stay
//! hand-written per engine — they are what the engines are compared on.
//!
//! A projection is written as one source expression per *target* column,
//! in the target's column order (`onto`): names and types come from the
//! schema of the table it loads, so a mapping cannot name a column its
//! table lacks.

use super::group_d::sales_cols;
use super::{col_as, lit_as};
use crate::datagen::keys;
use crate::schema::{america, asia, canonical, cdb, dm, europe, messages, vocab};
use dip_mtm::process::EventType::{self, Message, Timed};
use dip_mtm::process::{ProcessDef, Step};
use dip_relstore::prelude::*;
use dip_xmlkit::node::{Document, Element};
use dip_xmlkit::stx::Stylesheet;
use dip_xmlkit::XmlNode;
use std::sync::Arc;

/// One Table-I row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessInfo {
    pub group: char,
    pub id: &'static str,
    pub name: &'static str,
    pub event: EventType,
    /// The key space the type's `InsertIgnore` staging loads draw on
    /// (`datagen::keys`). Loads from one space may stage duplicate primary
    /// keys whose first-wins resolution depends on load order, so they do
    /// not commute; loads from different spaces are key-disjoint and do.
    pub staging: &'static str,
}

/// Paper Table I in id order: `(group, id, name, initiating event, shared
/// staging key space)`. One European product catalog is replicated across
/// Berlin, Paris and Trondheim (`keys::PROD_EUROPE`), so the three extracts
/// stage colliding product keys; every other type's staging keys are
/// disjoint from all of its siblings' (order keys are strictly per system,
/// the shared Asia / America master spaces are each staged by one type) —
/// `None`, a key space of its own.
#[rustfmt::skip] // a table: one row per line
const TABLE_I: [(char, &str, &str, EventType, Option<&str>); 15] = [
    ('A', "P01", "Master data exchange Asia",                   Message, None),
    ('A', "P02", "Master data subscription Europe",             Message, None),
    ('A', "P03", "Local data consolidation America",            Timed,   None),
    ('B', "P04", "Receive messages from Vienna",                Message, None),
    ('B', "P05", "Extract data from Berlin",                    Timed,   Some("europe")),
    ('B', "P06", "Extract data from Paris",                     Timed,   Some("europe")),
    ('B', "P07", "Extract data from Trondheim",                 Timed,   Some("europe")),
    ('B', "P08", "Receive messages from Hongkong",              Message, None),
    ('B', "P09", "Extract wrapped data from Beijing and Seoul", Timed,   None),
    ('B', "P10", "Receive error-prone messages from San Diego", Message, None),
    ('B', "P11", "Extract data from CDB America",               Timed,   None),
    ('C', "P12", "Bulk-loading data warehouse master data",     Timed,   None),
    ('C', "P13", "Bulk-loading data warehouse movement data",   Timed,   None),
    ('D', "P14", "Refreshing data mart data",                   Timed,   None),
    ('D', "P15", "Refreshing data mart materialized views",     Timed,   None),
];

/// The Table-I rows, in id order.
pub fn process_types() -> impl Iterator<Item = ProcessInfo> {
    TABLE_I.into_iter().map(|(group, id, name, event, shared)| {
        let staging = shared.unwrap_or(id);
        ProcessInfo {
            group,
            id,
            name,
            event,
            staging,
        }
    })
}

/// The Table-I row of process type `id`.
pub fn process_type(id: &str) -> Option<ProcessInfo> {
    process_types().find(|p| p.id == id)
}

/// The definition of Table-I type `id`: its row as the header of `steps`.
pub fn define(id: &str, steps: Vec<Step>) -> ProcessDef {
    let Some(info) = process_type(id) else {
        panic!("{id} is not a Table-I process type");
    };
    ProcessDef::new(info.id, info.name, info.group, info.event, steps)
}

/// P02's route by customer key, `(keys below, database, location)`: the
/// first row whose bound exceeds the key takes the message, the unbounded
/// last row the rest. The MTM SWITCH and the federated trigger are both
/// built from it.
pub const P02_ROUTES: [(Option<i64>, &str, Option<&str>); 3] = [
    (
        Some(keys::P02_BERLIN_BELOW),
        europe::BERLIN_PARIS,
        Some(europe::LOC_BERLIN),
    ),
    (
        Some(keys::P02_PARIS_BELOW),
        europe::BERLIN_PARIS,
        Some(europe::LOC_PARIS),
    ),
    (None, europe::TRONDHEIM, None),
];

/// Where P02 sends the customer with `key`: `(database, location)`.
pub fn p02_route(key: i64) -> (&'static str, Option<&'static str>) {
    let [.., (_, rest_db, rest_loc)] = P02_ROUTES;
    let hit = P02_ROUTES
        .iter()
        .find(|(below, ..)| below.is_some_and(|b| key < b));
    hit.map_or((rest_db, rest_loc), |&(_, db, loc)| (db, loc))
}

/// Project `sources` onto `target`, one expression per target column.
fn onto(target: &RelSchema, sources: Vec<Expr>) -> Vec<ProjExpr> {
    assert_eq!(sources.len(), target.len(), "one source per target column");
    let named = sources.into_iter().zip(target.columns());
    named
        .map(|(e, col)| ProjExpr::new(e, col.name.clone(), col.ty))
        .collect()
}

fn cols(idx: &[usize]) -> Vec<Expr> {
    idx.iter().map(|&i| Expr::col(i)).collect()
}

/// Column `idx` mapped through a vocabulary table (semantic heterogeneity:
/// each region spells priorities and order states its own way).
fn via(map: &'static [(&'static str, &'static str)], idx: usize) -> Expr {
    let f = Arc::new(move |args: &[Value]| -> StoreResult<Value> {
        Ok(match &args[0] {
            Value::Str(s) => Value::str(vocab::map_vocab(map, s)),
            other => other.clone(),
        })
    });
    Expr::Apply(f, vec![Expr::col(idx)])
}

/// One relational source table replicated into a CDB staging table.
pub struct Extract {
    /// Source table.
    pub table: &'static str,
    /// What the source runs: the table scan, narrowed to one location
    /// where Berlin and Paris share a database.
    pub plan: Plan,
    /// Name the extracted relation travels under: the MTM variable, the
    /// stem of the federated temp table.
    pub var: &'static str,
    /// Source columns → staging columns.
    pub exprs: Vec<ProjExpr>,
    /// CDB staging table.
    pub staging: &'static str,
}

/// The four Europe extracts of P05 / P06 (`loc` = Berlin / Paris, a
/// selection on the location column of the shared database) and P07
/// (Trondheim: its own database, no location column).
pub fn europe_extracts(loc: Option<&'static str>) -> Vec<Extract> {
    let source = || Expr::lit(loc.unwrap_or("trondheim"));
    let select = |table: &'static str, loc_col: usize| match loc {
        Some(l) => Plan::scan(table).filter(Expr::col(loc_col).eq(Expr::lit(l))),
        None => Plan::scan(table),
    };
    // c_id, c_name, c_street, c_city, c_nation, c_seg, c_phone, c_bal [, c_loc]
    let mut cust = cols(&[0, 1, 2, 3, 4, 5, 6, 7]);
    cust.extend([source(), Expr::lit(false)]);
    // pr_id, pr_name, pr_group, pr_line, pr_price (catalog shared by all locations)
    let mut prod = cols(&[0, 1, 2, 3, 4]);
    prod.extend([source(), Expr::lit(false)]);
    // o_id, o_cust, o_date, o_total, o_prio, o_state [, o_loc]
    let mut ord = cols(&[0, 1, 2, 3]);
    ord.extend([via(&vocab::EUROPE_PRIORITY_MAP, 4), Expr::col(5), source()]);
    // p_ord, p_no, p_prod, p_qty, p_price, p_disc [, p_loc]
    let mut pos = cols(&[0, 1, 2, 3, 4, 5]);
    pos.push(source());
    staging_extracts([
        ("cust", "cust", select("cust", 8), cust),
        ("prod", "prod", Plan::scan("prod"), prod),
        ("ord", "ord", select("ord", 6), ord),
        ("pos", "pos", select("pos", 6), pos),
    ])
}

/// The four US-Eastcoast extracts of P11: TPC-H → staging.
pub fn america_extracts() -> Vec<Extract> {
    let source = || Expr::lit("us_eastcoast");
    // c_custkey, c_name, c_address, c_city, c_nation, c_phone, c_acctbal, c_mktsegment
    let mut cust = cols(&[0, 1, 2, 3, 4, 7, 5, 6]);
    cust.extend([source(), Expr::lit(false)]);
    // p_partkey, p_name, p_group, p_line, p_retailprice
    let mut part = cols(&[0, 1, 2, 3, 4]);
    part.extend([source(), Expr::lit(false)]);
    // o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, o_orderpriority
    let mut ord = cols(&[0, 1, 4, 3]);
    ord.extend([
        via(&vocab::AMERICA_PRIORITY_MAP, 5),
        via(&vocab::AMERICA_STATE_MAP, 2),
        source(),
    ]);
    // l_orderkey, l_linenumber, l_partkey, l_quantity, l_extendedprice, l_discount
    let mut line = cols(&[0, 1, 2, 3, 4, 5]);
    line.push(source());
    staging_extracts([
        ("customer", "cust", Plan::scan("customer"), cust),
        ("part", "part", Plan::scan("part"), part),
        ("orders", "ord", Plan::scan("orders"), ord),
        ("lineitem", "line", Plan::scan("lineitem"), line),
    ])
}

/// The CDB staging tables, in the order every source loads them
/// (customers, products, orders, order lines).
fn staging_tables() -> [(&'static str, SchemaRef); 4] {
    [
        ("customer_staging", cdb::customer_staging_schema()),
        ("product_staging", cdb::product_staging_schema()),
        ("orders_staging", cdb::orders_staging_schema()),
        ("orderline_staging", cdb::orderline_staging_schema()),
    ]
}

/// Pair `(source table, variable, source plan, source expressions)` with
/// the staging tables, in their order.
fn staging_extracts(sources: [(&'static str, &'static str, Plan, Vec<Expr>); 4]) -> Vec<Extract> {
    let staged = sources.into_iter().zip(staging_tables());
    staged
        .map(|((table, var, plan, exprs), (staging, schema))| Extract {
            table,
            plan,
            var,
            exprs: onto(&schema, exprs),
            staging,
        })
        .collect()
}

/// One entity P09 pulls from both Asia web services.
pub struct AsiaEntity {
    /// Web-service operation.
    pub operation: &'static str,
    /// CDB staging table, and the schema the result sets decode to.
    pub staging: &'static str,
    pub schema: SchemaRef,
    /// UNION DISTINCT key across the two services.
    pub key: Vec<usize>,
}

impl AsiaEntity {
    /// The pass-through projection that fills in the staging bookkeeping
    /// columns the services do not send.
    pub fn bookkeeping(&self) -> Vec<ProjExpr> {
        let fill = |(i, col): (usize, &Column)| match col.name.as_str() {
            "source" => lit_as(Value::str("asia_ws"), "source", SqlType::Str),
            "integrated" => lit_as(Value::Bool(false), "integrated", SqlType::Bool),
            _ => col_as(i, &col.name, col.ty),
        };
        self.schema.columns().iter().enumerate().map(fill).collect()
    }
}

pub fn asia_entities() -> Vec<AsiaEntity> {
    let keyed = [
        ("customers", vec![0]),
        ("parts", vec![0]),
        ("orders", vec![0]),
        ("orderlines", vec![0, 1]),
    ];
    let staged = keyed.into_iter().zip(staging_tables());
    staged
        .map(|((operation, key), (staging, schema))| AsiaEntity {
            operation,
            staging,
            schema,
            key,
        })
        .collect()
}

/// The two Asia web services P09 queries, each with the stylesheet that
/// translates its result sets to the canonical shape.
pub fn asia_services() -> [(&'static str, Arc<Stylesheet>); 2] {
    [
        (asia::BEIJING, messages::stx_beijing_rs_to_canon()),
        (asia::SEOUL, messages::stx_seoul_rs_to_canon()),
    ]
}

/// The overlapping America sources P03 consolidates.
pub const CONSOLIDATION_SOURCES: [&str; 3] =
    [america::CHICAGO, america::BALTIMORE, america::MADISON];

/// `(table, UNION DISTINCT key)` per consolidated entity; source and
/// target tables share their name and schema.
pub const CONSOLIDATION_ENTITIES: [(&str, &[usize]); 4] = [
    ("customer", &[0]),
    ("part", &[0]),
    ("orders", &[0]),
    ("lineitem", &[0, 1]),
];

/// One cleansed CDB table loaded into the DWH table of the same name,
/// with the load-time check it must pass first.
pub struct DwhLoad {
    pub table: &'static str,
    /// The MTM variable the extracted relation travels in.
    pub var: &'static str,
    /// Columns that must be non-null.
    pub required: &'static [usize],
    /// Columns that must hold canonical priority / state vocabulary.
    pub priority_col: Option<usize>,
    pub state_col: Option<usize>,
}

impl DwhLoad {
    const fn new(table: &'static str, var: &'static str, required: &'static [usize]) -> DwhLoad {
        DwhLoad {
            table,
            var,
            required,
            priority_col: None,
            state_col: None,
        }
    }

    /// Check a relation's rows against the load-time constraints. Shared
    /// between the MTM VALIDATE steps and the federated procedures.
    pub fn check(&self, rel: &Relation) -> Result<(), String> {
        for (i, row) in rel.rows.iter().enumerate() {
            if let Some(c) = self.required.iter().find(|&&c| row[c].is_null()) {
                return Err(format!("row {i}: NULL in required column {c}"));
            }
            match self.priority_col.map(|p| &row[p]) {
                Some(Value::Str(s)) if vocab::is_canon_priority(s) => {}
                Some(other) => return Err(format!("row {i}: bad priority {other}")),
                None => {}
            }
            match self.state_col.map(|s| &row[s]) {
                Some(Value::Str(v)) if vocab::is_canon_state(v) => {}
                Some(other) => return Err(format!("row {i}: bad state {other}")),
                None => {}
            }
        }
        Ok(())
    }
}

/// P12: keys and dimension references must be present (cleansing
/// guarantees this; the check is part of the process per the paper).
pub static MASTER_LOADS: [DwhLoad; 2] = [
    DwhLoad::new("customer", "customers", &[0, 1, 3]),
    DwhLoad::new("product", "products", &[0, 1, 2]),
];

/// P13: orders additionally carry canonical priority and state.
pub static MOVEMENT_LOADS: [DwhLoad; 2] = [
    DwhLoad {
        priority_col: Some(4),
        state_col: Some(5),
        ..DwhLoad::new("orders", "orders", &[0, 1, 2])
    },
    DwhLoad::new("orderline", "orderlines", &[0, 1, 2]),
];

/// One mart table loaded from the denormalized sales relation
/// (`group_d::sales_schema`).
pub struct MartLoad {
    /// Target table in the mart.
    pub table: &'static str,
    /// The MTM variable the loaded relation travels in.
    pub var: &'static str,
    /// Sales columns → target columns.
    pub exprs: Vec<ProjExpr>,
    /// Dedup key, where the target is coarser than the sales relation.
    pub distinct: Option<Vec<usize>>,
}

/// The region partition of the sales relation a mart receives.
pub fn mart_partition(mart: dm::Mart) -> Expr {
    Expr::col(sales_cols::REGION).eq(Expr::lit(mart.region_name()))
}

/// The four loads of one mart: facts keep the canonical shape everywhere,
/// the dimensions follow the mart's denormalization (paper §III-B).
pub fn mart_loads(mart: dm::Mart) -> [MartLoad; 4] {
    use sales_cols::*;
    // every target but the order lines is coarser than the sales
    // relation's line grain: dedup by its (first-column) key
    let deduped = |table, var, target: SchemaRef, sales: &[usize]| MartLoad {
        table,
        var,
        exprs: onto(&target, cols(sales)),
        distinct: Some(vec![0]),
    };
    let orders = [ORDERKEY, CUSTKEY, ORDERDATE, TOTALPRICE, PRIORITY, STATE];
    let lines = [ORDERKEY, LINENO, PRODKEY, QUANTITY, EXTENDEDPRICE, DISCOUNT];
    let customer = if mart.denormalized_location() {
        let sales = [CUSTKEY, CNAME, CADDRESS, CITY, NATION, REGION, SEGMENT];
        deduped("customer_d", "cust", dm::customer_denorm_schema(), &sales)
    } else {
        let sales = [CUSTKEY, CNAME, CADDRESS, CITYKEY, SEGMENT, PHONE, ACCTBAL];
        deduped("customer", "cust", canonical::customer_schema(), &sales)
    };
    let product = if mart.denormalized_product() {
        let sales = [PRODKEY, PNAME, GROUP_NAME, LINE_NAME, PPRICE];
        deduped("product_d", "prod", dm::product_denorm_schema(), &sales)
    } else {
        let sales = [PRODKEY, PNAME, GROUPKEY, PPRICE];
        deduped("product", "prod", canonical::product_schema(), &sales)
    };
    [
        deduped("orders", "orders", canonical::orders_schema(), &orders),
        MartLoad {
            table: "orderline",
            var: "lines",
            exprs: onto(&canonical::orderline_schema(), cols(&lines)),
            distinct: None,
        },
        customer,
        product,
    ]
}

/// P10: the `failed_messages` row for a message that failed validation,
/// keyed by a hash of its serialized payload — unique per distinct failed
/// message. How the payload is serialized is the engine's business.
pub fn failed_message_row(payload: String, reason: String) -> Row {
    let mut h: i64 = 0xcbf2;
    for b in payload.bytes() {
        h = h.wrapping_mul(0x0100_01b3) ^ b as i64;
    }
    vec![
        Value::Int(h.abs()),
        Value::str("P10"),
        Value::str(reason),
        Value::str(payload),
    ]
}

/// P04: the order message enriched with the segment of the customer
/// master row looked up for it (unchanged when the lookup found none).
pub fn enrich_with_segment(order: &Document, master: &Relation) -> Document {
    let mut doc = order.clone();
    if let Some(row) = master.rows.first() {
        let segment = Element::leaf("customer_segment", row[5].render());
        doc.root.children.push(XmlNode::Element(segment));
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processes::group_d::sales_schema;

    /// A projection fits when it yields exactly the target table's column
    /// names and types in order, and every passed-through source column
    /// already has its target's type.
    fn assert_fits(what: &str, exprs: &[ProjExpr], source: &RelSchema, target: &RelSchema) {
        let shape = |cols: &mut dyn Iterator<Item = &Column>| -> Vec<(String, SqlType)> {
            cols.map(|c| (c.name.clone(), c.ty)).collect()
        };
        assert_eq!(
            shape(&mut exprs.iter().map(|p| &p.column)),
            shape(&mut target.columns().iter()),
            "{what}"
        );
        for p in exprs {
            if let Expr::Col(i) = p.expr {
                assert_eq!(source.column(i).ty, p.column.ty, "{what}.{}", p.column.name);
            }
        }
    }

    #[test]
    fn every_staging_projection_fits_its_cdb_table() {
        let cdb = cdb::create_cdb().unwrap();
        let fits = |source: StoreResult<Arc<Database>>, extracts: Vec<Extract>| {
            let source = source.unwrap();
            for e in extracts {
                let what = format!("{}.{}", source.name, e.table);
                let from = &source.table(e.table).unwrap().schema;
                let target = &cdb.table(e.staging).unwrap().schema;
                assert_fits(&what, &e.exprs, from, target);
            }
        };
        let us_eastcoast = america::create_tpch_db(america::US_EASTCOAST);
        fits(us_eastcoast, america_extracts());
        fits(europe::create_trondheim(), europe_extracts(None));
        for loc in [europe::LOC_BERLIN, europe::LOC_PARIS] {
            fits(europe::create_berlin_paris(), europe_extracts(Some(loc)));
        }
        for e in asia_entities() {
            let target = &cdb.table(e.staging).unwrap().schema;
            assert_fits(e.operation, &e.bookkeeping(), &e.schema, target);
        }
    }

    #[test]
    fn every_mart_projection_fits_its_mart_table() {
        for mart in dm::Mart::ALL {
            let db = dm::create_mart(mart).unwrap();
            for load in mart_loads(mart) {
                let target = &db.table(load.table).unwrap().schema;
                let what = format!("{}.{}", mart.db_name(), load.table);
                assert_fits(&what, &load.exprs, &sales_schema(), target);
            }
        }
    }
}
