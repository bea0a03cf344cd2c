//! Hand-written realizations of the 15 process types on the federated
//! DBMS, mirroring the paper's reference implementation: message-driven
//! types as queue-table triggers, time-driven types as stored procedures
//! over temp-table materialization points.
//!
//! Data semantics are identical to the MTM definitions in
//! `dipbench::processes` (the cross-engine equivalence test in the
//! workspace `tests/` directory checks exactly that); only the *execution
//! strategy* differs — relational work runs through the planner, XML work
//! through the unoptimized [`crate::xmlfn`] stack.

use crate::engine::{E1Body, E2Body, FedCtx, FedDbms, FedError, FedResult};
use crate::xmlfn;
use dip_relstore::prelude::*;
use dip_services::registry::LoadMode;
use dip_xmlkit::node::Element;
use dipbench::datagen::keys;
use dipbench::processes::group_d::{s1_plan, sales_cols, sales_schema};
use dipbench::processes::{check_relation, col_as, lit_as, vocab_as};
use dipbench::schema::{america, asia, cdb, dm, dwh, europe, messages, vocab};
use std::sync::Arc;

/// Install every process realization on the engine.
pub fn deploy_all(fed: &FedDbms) -> FedResult<()> {
    fed.deploy_queue("P01", p01_body())?;
    fed.deploy_queue("P02", p02_body())?;
    fed.deploy_procedure("P03", p03_body());
    fed.deploy_queue("P04", p04_body())?;
    fed.deploy_procedure(
        "P05",
        europe_extract_body(europe::BERLIN_PARIS, Some(europe::LOC_BERLIN)),
    );
    fed.deploy_procedure(
        "P06",
        europe_extract_body(europe::BERLIN_PARIS, Some(europe::LOC_PARIS)),
    );
    fed.deploy_procedure("P07", europe_extract_body(europe::TRONDHEIM, None));
    fed.deploy_queue("P08", p08_body())?;
    fed.deploy_procedure("P09", p09_body());
    fed.deploy_queue("P10", p10_body())?;
    fed.deploy_procedure("P11", p11_body());
    fed.deploy_procedure("P12", p12_body());
    fed.deploy_procedure("P13", p13_body());
    fed.deploy_procedure("P14", p14_body());
    fed.deploy_procedure("P15", p15_body());
    Ok(())
}

// -----------------------------------------------------------------------
// Group A
// -----------------------------------------------------------------------

fn p01_body() -> E1Body {
    Arc::new(|ctx, doc| {
        let translated =
            ctx.processing(|| Ok(xmlfn::transform(doc, &messages::stx_beijing_to_seoul())?))?;
        ctx.ws_update(asia::SEOUL, "masterdata", &translated)?;
        Ok(())
    })
}

fn p02_body() -> E1Body {
    Arc::new(|ctx, doc| {
        let translated =
            ctx.processing(|| Ok(xmlfn::transform(doc, &messages::stx_mdm_to_europe())?))?;
        let key: i64 = ctx.processing(|| {
            xmlfn::extract(&translated, "euCustomer/custkey")?
                .and_then(|t| t.trim().parse().ok())
                .ok_or_else(|| FedError::Other("message has no <custkey>".into()))
        })?;
        let (db, loc) = if key < keys::P02_BERLIN_BELOW {
            (europe::BERLIN_PARIS, Some(europe::LOC_BERLIN))
        } else if key < keys::P02_PARIS_BELOW {
            (europe::BERLIN_PARIS, Some(europe::LOC_PARIS))
        } else {
            (europe::TRONDHEIM, None)
        };
        let row = ctx.processing(|| {
            messages::europe_customer_row(&translated, loc).map_err(FedError::Other)
        })?;
        ctx.remote_load(db, "cust", vec![row], LoadMode::Upsert)?;
        Ok(())
    })
}

fn p03_body() -> E2Body {
    Arc::new(|ctx| {
        let sources = [america::CHICAGO, america::BALTIMORE, america::MADISON];
        let entities: [(&str, Vec<usize>); 4] = [
            ("customer", vec![0]),
            ("part", vec![0]),
            ("orders", vec![0]),
            ("lineitem", vec![0, 1]),
        ];
        for (table, key) in entities {
            let mut temp_scans = Vec::new();
            for source in sources {
                let rel = ctx.remote_query(source, &Plan::scan(table))?;
                let temp = ctx.materialize(&format!("{table}_{source}"), rel)?;
                temp_scans.push(Plan::scan(temp));
            }
            let merged = ctx.local_query(&Plan::UnionDistinct {
                inputs: temp_scans,
                key: Some(key),
            })?;
            ctx.remote_load(
                america::US_EASTCOAST,
                table,
                merged.rows,
                LoadMode::InsertIgnore,
            )?;
        }
        Ok(())
    })
}

// -----------------------------------------------------------------------
// Group B
// -----------------------------------------------------------------------

fn p04_body() -> E1Body {
    Arc::new(|ctx, doc| {
        let translated =
            ctx.processing(|| Ok(xmlfn::transform(doc, &messages::stx_vienna_to_cdb())?))?;
        let key: i64 = ctx.processing(|| {
            xmlfn::extract(&translated, "cdbOrder/custkey")?
                .and_then(|t| t.trim().parse().ok())
                .ok_or_else(|| FedError::Other("message has no <custkey>".into()))
        })?;
        let master = ctx.remote_query(
            europe::BERLIN_PARIS,
            &Plan::scan("cust").filter(Expr::col(0).eq(Expr::lit(key))),
        )?;
        let enriched = ctx.processing(|| {
            let mut out = translated.clone();
            if let Some(row) = master.rows.first() {
                out.root
                    .children
                    .push(dip_xmlkit::XmlNode::Element(Element::leaf(
                        "customer_segment",
                        row[5].render(),
                    )));
            }
            Ok(out)
        })?;
        load_cdb_order(ctx, &enriched, "vienna")
    })
}

/// Decode a canonical order message and load it into the CDB staging area.
fn load_cdb_order(ctx: &FedCtx, doc: &dip_xmlkit::node::Document, source: &str) -> FedResult<()> {
    let batches =
        ctx.processing(|| messages::cdb_order_decoder(source)(doc).map_err(FedError::Other))?;
    for batch in batches {
        ctx.remote_load(cdb::CDB, &batch.table, batch.rows, LoadMode::InsertIgnore)?;
    }
    Ok(())
}

/// Shared stored procedure for P05/P06/P07: extract the four entity tables
/// from a European source, project them into the staging schema through a
/// temp-table materialization point, and load them into the CDB.
fn europe_extract_body(db: &'static str, loc: Option<&'static str>) -> E2Body {
    Arc::new(move |ctx| {
        let source = loc.unwrap_or("trondheim");
        let filter = |plan: Plan, col: usize| match loc {
            Some(l) => plan.filter(Expr::col(col).eq(Expr::lit(l))),
            None => plan,
        };
        // customers
        let rel = ctx.remote_query(db, &filter(Plan::scan("cust"), 8))?;
        let temp = ctx.materialize("eu_cust", rel)?;
        let mapped = ctx.local_query(&Plan::scan(temp).project(vec![
            col_as(0, "custkey", SqlType::Int),
            col_as(1, "name", SqlType::Str),
            col_as(2, "address", SqlType::Str),
            col_as(3, "city_name", SqlType::Str),
            col_as(4, "nation_name", SqlType::Str),
            col_as(5, "segment", SqlType::Str),
            col_as(6, "phone", SqlType::Str),
            col_as(7, "acctbal", SqlType::Float),
            lit_as(Value::str(source), "source", SqlType::Str),
            lit_as(Value::Bool(false), "integrated", SqlType::Bool),
        ]))?;
        ctx.remote_load(
            cdb::CDB,
            "customer_staging",
            mapped.rows,
            LoadMode::InsertIgnore,
        )?;
        // products
        let rel = ctx.remote_query(db, &Plan::scan("prod"))?;
        let temp = ctx.materialize("eu_prod", rel)?;
        let mapped = ctx.local_query(&Plan::scan(temp).project(vec![
            col_as(0, "prodkey", SqlType::Int),
            col_as(1, "name", SqlType::Str),
            col_as(2, "group_name", SqlType::Str),
            col_as(3, "line_name", SqlType::Str),
            col_as(4, "price", SqlType::Float),
            lit_as(Value::str(source), "source", SqlType::Str),
            lit_as(Value::Bool(false), "integrated", SqlType::Bool),
        ]))?;
        ctx.remote_load(
            cdb::CDB,
            "product_staging",
            mapped.rows,
            LoadMode::InsertIgnore,
        )?;
        // orders
        let rel = ctx.remote_query(db, &filter(Plan::scan("ord"), 6))?;
        let temp = ctx.materialize("eu_ord", rel)?;
        let mapped = ctx.local_query(&Plan::scan(temp).project(vec![
            col_as(0, "orderkey", SqlType::Int),
            col_as(1, "custkey", SqlType::Int),
            col_as(2, "orderdate", SqlType::Date),
            col_as(3, "totalprice", SqlType::Float),
            vocab_as(&vocab::EUROPE_PRIORITY_MAP, 4, "priority"),
            col_as(5, "state", SqlType::Str),
            lit_as(Value::str(source), "source", SqlType::Str),
        ]))?;
        ctx.remote_load(
            cdb::CDB,
            "orders_staging",
            mapped.rows,
            LoadMode::InsertIgnore,
        )?;
        // order positions
        let rel = ctx.remote_query(db, &filter(Plan::scan("pos"), 6))?;
        let temp = ctx.materialize("eu_pos", rel)?;
        let mapped = ctx.local_query(&Plan::scan(temp).project(vec![
            col_as(0, "orderkey", SqlType::Int),
            col_as(1, "lineno", SqlType::Int),
            col_as(2, "prodkey", SqlType::Int),
            col_as(3, "quantity", SqlType::Int),
            col_as(4, "extendedprice", SqlType::Float),
            col_as(5, "discount", SqlType::Float),
            lit_as(Value::str(source), "source", SqlType::Str),
        ]))?;
        ctx.remote_load(
            cdb::CDB,
            "orderline_staging",
            mapped.rows,
            LoadMode::InsertIgnore,
        )?;
        Ok(())
    })
}

fn p08_body() -> E1Body {
    Arc::new(|ctx, doc| {
        let translated =
            ctx.processing(|| Ok(xmlfn::transform(doc, &messages::stx_hongkong_to_cdb())?))?;
        load_cdb_order(ctx, &translated, "hongkong")
    })
}

/// The four Asia-WS entities P09 replicates:
/// (ws operation, CDB staging table, staging schema, distinct key).
pub fn p09_entities() -> [(&'static str, &'static str, SchemaRef, Vec<usize>); 4] {
    [
        (
            "customers",
            "customer_staging",
            cdb::customer_staging_schema(),
            vec![0],
        ),
        (
            "parts",
            "product_staging",
            cdb::product_staging_schema(),
            vec![0],
        ),
        (
            "orders",
            "orders_staging",
            cdb::orders_staging_schema(),
            vec![0],
        ),
        (
            "orderlines",
            "orderline_staging",
            cdb::orderline_staging_schema(),
            vec![0, 1],
        ),
    ]
}

/// Fetch one P09 entity from both Asia web services, canonicalize through
/// the proprietary XML stack, dedup across services, and fill the staging
/// bookkeeping columns. Shared by the full-refresh P09 realization and the
/// ivm engine's snapshot-differential variant; both must flow through the
/// identical WS + transform + decode path or float/date canonicalization
/// could diverge between engines.
pub fn p09_fetch(
    ctx: &FedCtx,
    operation: &str,
    schema: &SchemaRef,
    key: Vec<usize>,
) -> FedResult<Relation> {
    let mut temp_scans = Vec::new();
    for (service, stx) in [
        (asia::BEIJING, messages::stx_beijing_rs_to_canon()),
        (asia::SEOUL, messages::stx_seoul_rs_to_canon()),
    ] {
        let doc = ctx.ws_query(service, operation)?;
        // translation + decode through the proprietary XML stack
        let rel = ctx.processing(|| {
            let canon = xmlfn::transform(&doc, &stx)?;
            Ok(dip_services::resultset::decode(&canon, schema)?)
        })?;
        let temp = ctx.materialize(&format!("{operation}_{service}"), rel)?;
        temp_scans.push(Plan::scan(temp));
    }
    let union = Plan::UnionDistinct {
        inputs: temp_scans,
        key: Some(key),
    };
    // fill in bookkeeping columns in the same pass
    let exprs: Vec<ProjExpr> = schema
        .columns()
        .iter()
        .enumerate()
        .map(|(i, c)| match c.name.as_str() {
            "source" => lit_as(Value::str("asia_ws"), "source", SqlType::Str),
            "integrated" => lit_as(Value::Bool(false), "integrated", SqlType::Bool),
            _ => col_as(i, &c.name, c.ty),
        })
        .collect();
    ctx.local_query(&union.project(exprs))
}

fn p09_body() -> E2Body {
    Arc::new(|ctx| {
        for (operation, staging, schema, key) in p09_entities() {
            let finished = p09_fetch(ctx, operation, &schema, key)?;
            ctx.remote_load(cdb::CDB, staging, finished.rows, LoadMode::InsertIgnore)?;
        }
        Ok(())
    })
}

fn p10_body() -> E1Body {
    Arc::new(|ctx, doc| {
        let xsd = messages::san_diego_xsd();
        let issues = ctx.processing(|| Ok(xmlfn::validate(doc, &xsd)?))?;
        if issues.is_empty() {
            let translated =
                ctx.processing(|| Ok(xmlfn::transform(doc, &messages::stx_san_diego_to_cdb())?))?;
            load_cdb_order(ctx, &translated, "san_diego")
        } else {
            let row = ctx.processing(|| {
                let payload = xmlfn::to_clob(doc);
                let reason = issues[0].to_string();
                let mut h: i64 = 0xcbf2;
                for b in payload.bytes() {
                    h = h.wrapping_mul(0x0100_01b3) ^ b as i64;
                }
                Ok(vec![
                    Value::Int(h.abs()),
                    Value::str("P10"),
                    Value::str(reason),
                    Value::str(payload),
                ])
            })?;
            ctx.remote_load(
                cdb::CDB,
                "failed_messages",
                vec![row],
                LoadMode::InsertIgnore,
            )?;
            Ok(())
        }
    })
}

/// The four US-Eastcoast entities P11 replicates:
/// (source table, temp-table stem, CDB staging table, staging projection).
/// Shared by the full-scan P11 realization and the ivm engine's
/// change-pull variant so the schema mappings cannot drift apart.
pub fn p11_entities() -> [(&'static str, &'static str, &'static str, Vec<ProjExpr>); 4] {
    [
        (
            "customer",
            "us_cust",
            "customer_staging",
            vec![
                col_as(0, "custkey", SqlType::Int),
                col_as(1, "name", SqlType::Str),
                col_as(2, "address", SqlType::Str),
                col_as(3, "city_name", SqlType::Str),
                col_as(4, "nation_name", SqlType::Str),
                col_as(7, "segment", SqlType::Str),
                col_as(5, "phone", SqlType::Str),
                col_as(6, "acctbal", SqlType::Float),
                lit_as(Value::str("us_eastcoast"), "source", SqlType::Str),
                lit_as(Value::Bool(false), "integrated", SqlType::Bool),
            ],
        ),
        (
            "part",
            "us_part",
            "product_staging",
            vec![
                col_as(0, "prodkey", SqlType::Int),
                col_as(1, "name", SqlType::Str),
                col_as(2, "group_name", SqlType::Str),
                col_as(3, "line_name", SqlType::Str),
                col_as(4, "price", SqlType::Float),
                lit_as(Value::str("us_eastcoast"), "source", SqlType::Str),
                lit_as(Value::Bool(false), "integrated", SqlType::Bool),
            ],
        ),
        (
            "orders",
            "us_ord",
            "orders_staging",
            vec![
                col_as(0, "orderkey", SqlType::Int),
                col_as(1, "custkey", SqlType::Int),
                col_as(4, "orderdate", SqlType::Date),
                col_as(3, "totalprice", SqlType::Float),
                vocab_as(&vocab::AMERICA_PRIORITY_MAP, 5, "priority"),
                vocab_as(&vocab::AMERICA_STATE_MAP, 2, "state"),
                lit_as(Value::str("us_eastcoast"), "source", SqlType::Str),
            ],
        ),
        (
            "lineitem",
            "us_line",
            "orderline_staging",
            vec![
                col_as(0, "orderkey", SqlType::Int),
                col_as(1, "lineno", SqlType::Int),
                col_as(2, "prodkey", SqlType::Int),
                col_as(3, "quantity", SqlType::Int),
                col_as(4, "extendedprice", SqlType::Float),
                col_as(5, "discount", SqlType::Float),
                lit_as(Value::str("us_eastcoast"), "source", SqlType::Str),
            ],
        ),
    ]
}

fn p11_body() -> E2Body {
    Arc::new(|ctx| {
        for (table, stem, staging, exprs) in p11_entities() {
            let rel = ctx.remote_query(america::US_EASTCOAST, &Plan::scan(table))?;
            let temp = ctx.materialize(stem, rel)?;
            let mapped = ctx.local_query(&Plan::scan(temp).project(exprs))?;
            ctx.remote_load(cdb::CDB, staging, mapped.rows, LoadMode::InsertIgnore)?;
        }
        Ok(())
    })
}

// -----------------------------------------------------------------------
// Group C
// -----------------------------------------------------------------------

fn p12_body() -> E2Body {
    Arc::new(|ctx| {
        ctx.remote_call(cdb::CDB, "sp_runMasterDataCleansing")?;
        let customers = ctx.remote_query(cdb::CDB, &Plan::scan("customer"))?;
        let products = ctx.remote_query(cdb::CDB, &Plan::scan("product"))?;
        ctx.processing(|| {
            check_relation(&customers, &[0, 1, 3], None, None).map_err(FedError::Other)?;
            check_relation(&products, &[0, 1, 2], None, None).map_err(FedError::Other)
        })?;
        ctx.remote_load(dwh::DWH, "customer", customers.rows, LoadMode::InsertIgnore)?;
        ctx.remote_load(dwh::DWH, "product", products.rows, LoadMode::InsertIgnore)?;
        Ok(())
    })
}

/// The quality-gated tail of P13: completeness/consistency checks, the
/// DWH load, the orders-MV refresh and the CDB cleanup. Shared by the
/// full-scan realization and the ivm engine's change-pull variant — only
/// how `orders`/`lines` were obtained differs between the two.
pub fn p13_apply(ctx: &FedCtx, orders: Relation, lines: Relation) -> FedResult<()> {
    ctx.processing(|| {
        check_relation(&orders, &[0, 1, 2], Some(4), Some(5)).map_err(FedError::Other)?;
        check_relation(&lines, &[0, 1, 2], None, None).map_err(FedError::Other)
    })?;
    ctx.remote_load(dwh::DWH, "orders", orders.rows, LoadMode::InsertIgnore)?;
    ctx.remote_load(dwh::DWH, "orderline", lines.rows, LoadMode::InsertIgnore)?;
    ctx.remote_call(dwh::DWH, "sp_refreshOrdersMV")?;
    ctx.remote_delete(cdb::CDB, "orders", &Expr::lit(true))?;
    ctx.remote_delete(cdb::CDB, "orderline", &Expr::lit(true))?;
    Ok(())
}

fn p13_body() -> E2Body {
    Arc::new(|ctx| {
        ctx.remote_call(cdb::CDB, "sp_runMovementDataCleansing")?;
        let orders = ctx.remote_query(cdb::CDB, &Plan::scan("orders"))?;
        let lines = ctx.remote_query(cdb::CDB, &Plan::scan("orderline"))?;
        p13_apply(ctx, orders, lines)
    })
}

// -----------------------------------------------------------------------
// Group D
// -----------------------------------------------------------------------

fn p14_body() -> E2Body {
    Arc::new(|ctx| {
        // S1: pull the denormalized sales relation from the DWH and
        // materialize it locally
        let sales = ctx.remote_query(dwh::DWH, &s1_plan())?;
        debug_assert_eq!(sales.schema.len(), sales_schema().len());
        let sales_temp = ctx.materialize("sales", sales)?;
        p14_load_marts(ctx, sales_temp)
    })
}

/// The mart-loading half of P14: three concurrent loaders over a
/// materialized sales relation. Shared by the full-refresh realization
/// and the ivm engine, whose S1 stage computes the sales relation from an
/// orderline delta instead of the full DWH join.
pub fn p14_load_marts(ctx: &FedCtx, sales_temp: String) -> FedResult<()> {
    {
        use sales_cols as c;
        // three concurrent mart loaders; each joins the instance's
        // transaction so a failing sibling rolls all mart writes back
        let tx_handle = dip_relstore::tx::handle();
        // and the instance's trace identity, which is a thread-local too
        let trace_ctx = dip_trace::snapshot();
        let results: Vec<FedResult<()>> = std::thread::scope(|scope| {
            dm::Mart::ALL
                .iter()
                .map(|&mart| {
                    let ctx = ctx.clone();
                    let sales_temp = sales_temp.clone();
                    let tx_handle = tx_handle.clone();
                    let trace_ctx = trace_ctx.as_ref();
                    scope.spawn(move || -> FedResult<()> {
                        let _trace = trace_ctx.map(dip_trace::adopt);
                        let _tx = tx_handle.as_ref().map(dip_relstore::tx::adopt);
                        let db = mart.db_name();
                        let base = Plan::scan(sales_temp.clone())
                            .filter(Expr::col(c::REGION).eq(Expr::lit(mart.region_name())));
                        // facts
                        let orders = ctx.local_query(&Plan::UnionDistinct {
                            inputs: vec![base.clone().project(vec![
                                col_as(c::ORDERKEY, "orderkey", SqlType::Int),
                                col_as(c::CUSTKEY, "custkey", SqlType::Int),
                                col_as(c::ORDERDATE, "orderdate", SqlType::Date),
                                col_as(c::TOTALPRICE, "totalprice", SqlType::Float),
                                col_as(c::PRIORITY, "priority", SqlType::Str),
                                col_as(c::STATE, "state", SqlType::Str),
                            ])],
                            key: Some(vec![0]),
                        })?;
                        ctx.remote_load(db, "orders", orders.rows, LoadMode::InsertIgnore)?;
                        let lines = ctx.local_query(&base.clone().project(vec![
                            col_as(c::ORDERKEY, "orderkey", SqlType::Int),
                            col_as(c::LINENO, "lineno", SqlType::Int),
                            col_as(c::PRODKEY, "prodkey", SqlType::Int),
                            col_as(c::QUANTITY, "quantity", SqlType::Int),
                            col_as(c::EXTENDEDPRICE, "extendedprice", SqlType::Float),
                            col_as(c::DISCOUNT, "discount", SqlType::Float),
                        ]))?;
                        ctx.remote_load(db, "orderline", lines.rows, LoadMode::InsertIgnore)?;
                        // customer dimension
                        if mart.denormalized_location() {
                            let cust = ctx.local_query(&Plan::UnionDistinct {
                                inputs: vec![base.clone().project(vec![
                                    col_as(c::CUSTKEY, "custkey", SqlType::Int),
                                    col_as(c::CNAME, "name", SqlType::Str),
                                    col_as(c::CADDRESS, "address", SqlType::Str),
                                    col_as(c::CITY, "city", SqlType::Str),
                                    col_as(c::NATION, "nation", SqlType::Str),
                                    col_as(c::REGION, "region", SqlType::Str),
                                    col_as(c::SEGMENT, "segment", SqlType::Str),
                                ])],
                                key: Some(vec![0]),
                            })?;
                            ctx.remote_load(db, "customer_d", cust.rows, LoadMode::InsertIgnore)?;
                        } else {
                            let cust = ctx.local_query(&Plan::UnionDistinct {
                                inputs: vec![base.clone().project(vec![
                                    col_as(c::CUSTKEY, "custkey", SqlType::Int),
                                    col_as(c::CNAME, "name", SqlType::Str),
                                    col_as(c::CADDRESS, "address", SqlType::Str),
                                    col_as(c::CITYKEY, "citykey", SqlType::Int),
                                    col_as(c::SEGMENT, "segment", SqlType::Str),
                                    col_as(c::PHONE, "phone", SqlType::Str),
                                    col_as(c::ACCTBAL, "acctbal", SqlType::Float),
                                ])],
                                key: Some(vec![0]),
                            })?;
                            ctx.remote_load(db, "customer", cust.rows, LoadMode::InsertIgnore)?;
                        }
                        // product dimension
                        if mart.denormalized_product() {
                            let prod = ctx.local_query(&Plan::UnionDistinct {
                                inputs: vec![base.clone().project(vec![
                                    col_as(c::PRODKEY, "prodkey", SqlType::Int),
                                    col_as(c::PNAME, "name", SqlType::Str),
                                    col_as(c::GROUP_NAME, "group_name", SqlType::Str),
                                    col_as(c::LINE_NAME, "line_name", SqlType::Str),
                                    col_as(c::PPRICE, "price", SqlType::Float),
                                ])],
                                key: Some(vec![0]),
                            })?;
                            ctx.remote_load(db, "product_d", prod.rows, LoadMode::InsertIgnore)?;
                        } else {
                            let prod = ctx.local_query(&Plan::UnionDistinct {
                                inputs: vec![base.project(vec![
                                    col_as(c::PRODKEY, "prodkey", SqlType::Int),
                                    col_as(c::PNAME, "name", SqlType::Str),
                                    col_as(c::GROUPKEY, "groupkey", SqlType::Int),
                                    col_as(c::PPRICE, "price", SqlType::Float),
                                ])],
                                key: Some(vec![0]),
                            })?;
                            ctx.remote_load(db, "product", prod.rows, LoadMode::InsertIgnore)?;
                        }
                        Ok(())
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(FedError::Other("mart loader panicked".into())))
                })
                .collect()
        });
        for r in results {
            r?;
        }
        Ok(())
    }
}

fn p15_body() -> E2Body {
    Arc::new(|ctx| {
        let tx_handle = dip_relstore::tx::handle();
        let trace_ctx = dip_trace::snapshot();
        let results: Vec<FedResult<()>> = std::thread::scope(|scope| {
            dm::Mart::ALL
                .iter()
                .map(|&mart| {
                    let ctx = ctx.clone();
                    let tx_handle = tx_handle.clone();
                    let trace_ctx = trace_ctx.as_ref();
                    scope.spawn(move || -> FedResult<()> {
                        let _trace = trace_ctx.map(dip_trace::adopt);
                        let _tx = tx_handle.as_ref().map(dip_relstore::tx::adopt);
                        ctx.remote_call(mart.db_name(), "sp_refreshDataMartViews")?;
                        Ok(())
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(FedError::Other("refresh panicked".into())))
                })
                .collect()
        });
        for r in results {
            r?;
        }
        Ok(())
    })
}
