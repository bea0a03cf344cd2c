//! Hand-written realizations of the 15 process types on the federated
//! DBMS, mirroring the paper's reference implementation: message-driven
//! types as queue-table triggers, time-driven types as stored procedures
//! over temp-table materialization points.
//!
//! Data semantics are identical to the MTM definitions in
//! `dipbench::processes` — what the time-driven types move is read from
//! the same `dipbench::processes::catalog`, and the cross-engine
//! equivalence test in the workspace `tests/` directory checks the rest;
//! only the *execution strategy* differs — relational work runs through
//! the planner, XML work through the unoptimized [`crate::xmlfn`] stack.

use crate::engine::{E1Body, E2Body, FedCtx, FedDbms, FedError, FedResult};
use crate::xmlfn;
use dip_mtm::cost::run_branches;
use dip_relstore::prelude::*;
use dip_services::registry::LoadMode;
use dipbench::processes::catalog::{self, AsiaEntity, DwhLoad, Extract};
use dipbench::processes::group_d::{s1_plan, sales_schema};
use dipbench::schema::{america, asia, cdb, dm, dwh, europe, messages};
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
        let (db, loc) = catalog::p02_route(key);
        let row = ctx.processing(|| {
            messages::europe_customer_row(&translated, loc).map_err(FedError::Other)
        })?;
        ctx.remote_load(db, "cust", vec![row], LoadMode::Upsert)?;
        Ok(())
    })
}

fn p03_body() -> E2Body {
    Arc::new(|ctx| {
        for (table, key) in catalog::CONSOLIDATION_ENTITIES {
            let mut temp_scans = Vec::new();
            for source in catalog::CONSOLIDATION_SOURCES {
                let rel = ctx.remote_query(source, &Plan::scan(table))?;
                let temp = ctx.materialize(&format!("{table}_{source}"), rel)?;
                temp_scans.push(Plan::scan(temp));
            }
            let merged = ctx.local_query(&Plan::UnionDistinct {
                inputs: temp_scans,
                key: Some(key.to_vec()),
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
        let enriched = ctx.processing(|| Ok(catalog::enrich_with_segment(&translated, &master)))?;
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

/// The federated form of a set of catalog extracts: per source table,
/// materialize what `fetch` obtains from the source in a temp table (a
/// *local materialization point*), project it onto the staging schema
/// there, and load the CDB staging table. The ivm engine passes a `fetch`
/// that drains the table's change log instead of scanning it.
pub fn stage_extracts(
    ctx: &FedCtx,
    stem: &str,
    extracts: Vec<Extract>,
    fetch: impl Fn(&Extract) -> FedResult<Relation>,
) -> FedResult<()> {
    for e in extracts {
        let rel = fetch(&e)?;
        let temp = ctx.materialize(&format!("{stem}_{}", e.var), rel)?;
        let mapped = ctx.local_query(&Plan::scan(temp).project(e.exprs))?;
        ctx.remote_load(cdb::CDB, e.staging, mapped.rows, LoadMode::InsertIgnore)?;
    }
    Ok(())
}

/// Shared stored procedure for P05/P06/P07.
fn europe_extract_body(db: &'static str, loc: Option<&'static str>) -> E2Body {
    Arc::new(move |ctx| {
        let fetch = |e: &Extract| ctx.remote_query(db, &e.plan);
        stage_extracts(ctx, "eu", catalog::europe_extracts(loc), fetch)
    })
}

fn p08_body() -> E1Body {
    Arc::new(|ctx, doc| {
        let translated =
            ctx.processing(|| Ok(xmlfn::transform(doc, &messages::stx_hongkong_to_cdb())?))?;
        load_cdb_order(ctx, &translated, "hongkong")
    })
}

/// Fetch one P09 entity from both Asia web services, canonicalize through
/// the proprietary XML stack, dedup across services, and fill the staging
/// bookkeeping columns. Shared by the full-refresh P09 realization and the
/// ivm engine's snapshot-differential variant; both must flow through the
/// identical WS + transform + decode path or float/date canonicalization
/// could diverge between engines.
pub fn p09_fetch(ctx: &FedCtx, entity: &AsiaEntity) -> FedResult<Relation> {
    let operation = entity.operation;
    let mut temp_scans = Vec::new();
    for (service, stx) in catalog::asia_services() {
        let doc = ctx.ws_query(service, operation)?;
        // translation + decode through the proprietary XML stack
        let rel = ctx.processing(|| {
            let canon = xmlfn::transform(&doc, &stx)?;
            Ok(dip_services::resultset::decode(&canon, &entity.schema)?)
        })?;
        let temp = ctx.materialize(&format!("{operation}_{service}"), rel)?;
        temp_scans.push(Plan::scan(temp));
    }
    let union = Plan::UnionDistinct {
        inputs: temp_scans,
        key: Some(entity.key.clone()),
    };
    // fill in bookkeeping columns in the same pass
    ctx.local_query(&union.project(entity.bookkeeping()))
}

fn p09_body() -> E2Body {
    Arc::new(|ctx| {
        for entity in catalog::asia_entities() {
            let finished = p09_fetch(ctx, &entity)?;
            ctx.remote_load(
                cdb::CDB,
                entity.staging,
                finished.rows,
                LoadMode::InsertIgnore,
            )?;
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
                Ok(catalog::failed_message_row(payload, issues[0].to_string()))
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

fn p11_body() -> E2Body {
    Arc::new(|ctx| {
        let fetch = |e: &Extract| ctx.remote_query(america::US_EASTCOAST, &e.plan);
        stage_extracts(ctx, "us", catalog::america_extracts(), fetch)
    })
}

// -----------------------------------------------------------------------
// Group C
// -----------------------------------------------------------------------

/// The quality-gated CDB → DWH load P12 and P13 share: obtain every
/// relation through `fetch`, run the catalog's completeness/consistency
/// checks over all of them, then load. The ivm engine passes a `fetch`
/// that drains the table's change log instead of scanning it.
fn load_dwh(
    ctx: &FedCtx,
    loads: &[DwhLoad],
    fetch: impl Fn(&DwhLoad) -> FedResult<Relation>,
) -> FedResult<()> {
    let rels = loads.iter().map(fetch).collect::<FedResult<Vec<_>>>()?;
    ctx.processing(|| {
        let mut checks = loads.iter().zip(&rels);
        checks.try_for_each(|(load, rel)| load.check(rel).map_err(FedError::Other))
    })?;
    for (load, rel) in loads.iter().zip(rels) {
        ctx.remote_load(dwh::DWH, load.table, rel.rows, LoadMode::InsertIgnore)?;
    }
    Ok(())
}

/// A full scan of the cleansed CDB table behind `load`.
fn scan_cdb(ctx: &FedCtx, load: &DwhLoad) -> FedResult<Relation> {
    ctx.remote_query(cdb::CDB, &Plan::scan(load.table))
}

fn p12_body() -> E2Body {
    Arc::new(|ctx| {
        ctx.remote_call(cdb::CDB, "sp_runMasterDataCleansing")?;
        load_dwh(ctx, &catalog::MASTER_LOADS, |l| scan_cdb(ctx, l))
    })
}

/// The tail of P13 after cleansing: the quality-gated DWH load, the
/// orders-MV refresh and the CDB cleanup. Shared by the full-scan
/// realization and the ivm engine's change-pull variant — only how
/// `fetch` obtains the movement relations differs between the two.
pub fn p13_apply(ctx: &FedCtx, fetch: impl Fn(&DwhLoad) -> FedResult<Relation>) -> FedResult<()> {
    load_dwh(ctx, &catalog::MOVEMENT_LOADS, fetch)?;
    ctx.remote_call(dwh::DWH, "sp_refreshOrdersMV")?;
    for load in &catalog::MOVEMENT_LOADS {
        ctx.remote_delete(cdb::CDB, load.table, &Expr::lit(true))?;
    }
    Ok(())
}

fn p13_body() -> E2Body {
    Arc::new(|ctx| {
        ctx.remote_call(cdb::CDB, "sp_runMovementDataCleansing")?;
        p13_apply(ctx, |l| scan_cdb(ctx, l))
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
/// materialized sales relation, each inside the instance's transaction,
/// trace identity and fault schedule ([`run_branches`]) — a failing
/// sibling rolls all mart writes back. Shared by the full-refresh
/// realization and the ivm engine, whose S1 stage computes the sales
/// relation from an orderline delta instead of the full DWH join.
pub fn p14_load_marts(ctx: &FedCtx, sales_temp: String) -> FedResult<()> {
    let panicked = || FedError::Other("mart loader panicked".into());
    run_branches(dm::Mart::ALL.len(), panicked, |branch| {
        let mart = dm::Mart::ALL[branch];
        let sales = Plan::scan(sales_temp.clone()).filter(catalog::mart_partition(mart));
        for load in catalog::mart_loads(mart) {
            let projected = sales.clone().project(load.exprs);
            let rel = ctx.local_query(&match load.distinct {
                Some(key) => Plan::UnionDistinct {
                    inputs: vec![projected],
                    key: Some(key),
                },
                None => projected,
            })?;
            ctx.remote_load(mart.db_name(), load.table, rel.rows, LoadMode::InsertIgnore)?;
        }
        Ok(())
    })?;
    Ok(())
}

fn p15_body() -> E2Body {
    Arc::new(|ctx| {
        let panicked = || FedError::Other("refresh panicked".into());
        run_branches(dm::Mart::ALL.len(), panicked, |branch| {
            ctx.remote_call(dm::Mart::ALL[branch].db_name(), "sp_refreshDataMartViews")
        })?;
        Ok(())
    })
}
