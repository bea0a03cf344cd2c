//! Group B — data consolidation into the CDB (P04–P11).

use super::catalog::{self, Extract};
use crate::schema::{america, cdb, europe, messages};
use dip_mtm::process::{LoadMode, ProcessDef, Step};
use dip_relstore::prelude::*;
use std::sync::Arc;

/// Decode a canonical order message and load it into the CDB staging area.
fn load_order(source: &str, input: &str) -> Step {
    Step::DbLoadXml {
        db: cdb::CDB.into(),
        tables: messages::ORDER_STAGING_TABLES.map(String::from).into(),
        decoder: messages::cdb_order_decoder(source),
        decoder_name: format!("cdb_order_decoder({source})"),
        input: input.into(),
        mode: LoadMode::InsertIgnore,
    }
}

/// P04 — receive messages from Vienna (E1).
///
/// The Vienna order message is translated to the canonical CDB shape,
/// *enriched with extracted master data* (a parameterized lookup of the
/// referenced customer in the Berlin/Paris master source, whose segment is
/// attached to the message), and loaded into the CDB staging area.
pub fn p04() -> ProcessDef {
    catalog::define(
        "P04",
        vec![
            Step::Receive { var: "msg1".into() },
            Step::Translate {
                stx: messages::stx_vienna_to_cdb(),
                input: "msg1".into(),
                output: "msg2".into(),
            },
            Step::DbQueryDyn {
                db: europe::BERLIN_PARIS.into(),
                reads: vec!["msg2".into()],
                plan_name: "lookup_customer_master".into(),
                plan: Arc::new(|inputs| {
                    let custkey = inputs[0].as_xml()?.root.child_text("custkey");
                    let key: i64 = custkey
                        .and_then(|t| t.trim().parse().ok())
                        .ok_or("message has no <custkey>")?;
                    Ok(Plan::scan("cust").filter(Expr::col(0).eq(Expr::lit(key))))
                }),
                output: "master".into(),
            },
            Step::Custom {
                name: "enrich_with_master_data".into(),
                reads: vec!["msg2".into(), "master".into()],
                binds: vec!["msg3".into()],
                // the step reads the translated message last: it is handed
                // the only binding, and the segment is appended in place
                f: Arc::new(|inputs| {
                    let mut inputs = inputs.into_iter();
                    let (Some(doc), Some(master)) = (inputs.next(), inputs.next()) else {
                        return Err("expected the message and its master rows".into());
                    };
                    let doc = Arc::unwrap_or_clone(doc.into_xml()?);
                    Ok(vec![
                        catalog::enrich_with_segment(doc, master.as_rel()?).into()
                    ])
                }),
            },
            load_order("vienna", "msg3"),
        ],
    )
}

/// The MTM form of a set of catalog extracts: per source table, query it,
/// project it onto the staging schema, load the staging table.
fn extract_steps(db: &str, extracts: Vec<Extract>) -> Vec<Step> {
    let mut steps: Vec<Step> = Vec::new();
    for e in extracts {
        let mapped = format!("{}_mapped", e.var);
        steps.push(Step::DbQuery {
            db: db.into(),
            plan: e.plan,
            output: e.var.into(),
        });
        steps.push(Step::Projection {
            input: e.var.into(),
            exprs: e.exprs,
            output: mapped.clone(),
        });
        steps.push(Step::DbInsert {
            db: cdb::CDB.into(),
            table: e.staging.into(),
            input: mapped,
            mode: LoadMode::InsertIgnore,
        });
    }
    steps
}

/// Shared body of P05/P06 (Berlin/Paris: selection on the location column,
/// then projections renaming the self-defined European attributes into the
/// CDB staging schema) and P07 (Trondheim: no location column).
fn europe_extract(id: &str, db: &'static str, loc: Option<&'static str>) -> ProcessDef {
    catalog::define(id, extract_steps(db, catalog::europe_extracts(loc)))
}

/// P05 — extract data from Berlin (E2).
pub fn p05() -> ProcessDef {
    europe_extract("P05", europe::BERLIN_PARIS, Some(europe::LOC_BERLIN))
}

/// P06 — extract data from Paris (E2).
pub fn p06() -> ProcessDef {
    europe_extract("P06", europe::BERLIN_PARIS, Some(europe::LOC_PARIS))
}

/// P07 — extract data from Trondheim (E2).
pub fn p07() -> ProcessDef {
    europe_extract("P07", europe::TRONDHEIM, None)
}

/// P08 — receive messages from Hongkong (E1): schema translation, then
/// load into the CDB.
pub fn p08() -> ProcessDef {
    catalog::define(
        "P08",
        vec![
            Step::Receive { var: "msg1".into() },
            Step::Translate {
                stx: messages::stx_hongkong_to_cdb(),
                input: "msg1".into(),
                output: "msg2".into(),
            },
            load_order("hongkong", "msg2"),
        ],
    )
}

/// P09 — extract wrapped data from Beijing and Seoul (E2).
///
/// Large XML result sets are pulled from both web services, translated to
/// the CDB schema with *two different* STX stylesheets, UNION-DISTINCTed
/// per entity key, and loaded into the CDB staging area. The heaviest
/// XML-bound process of the benchmark.
pub fn p09() -> ProcessDef {
    let mut steps: Vec<Step> = Vec::new();
    for entity in catalog::asia_entities() {
        let operation = entity.operation;
        let mut merged_inputs = Vec::new();
        for (service, stx) in catalog::asia_services() {
            let raw = format!("{operation}_{service}_raw");
            let canon = format!("{operation}_{service}_canon");
            let rel = format!("{operation}_{service}");
            steps.push(Step::WsQuery {
                service: service.into(),
                operation: operation.into(),
                output: raw.clone(),
            });
            steps.push(Step::Translate {
                stx,
                input: raw,
                output: canon.clone(),
            });
            steps.push(Step::XmlToRel {
                input: canon,
                schema: entity.schema.clone(),
                output: rel.clone(),
            });
            merged_inputs.push(rel);
        }
        let merged = format!("{operation}_merged");
        let finished = format!("{operation}_final");
        steps.push(Step::UnionDistinct {
            inputs: merged_inputs,
            key: Some(entity.key.clone()),
            output: merged.clone(),
        });
        steps.push(Step::Projection {
            input: merged,
            exprs: entity.bookkeeping(),
            output: finished.clone(),
        });
        steps.push(Step::DbInsert {
            db: cdb::CDB.into(),
            table: entity.staging.into(),
            input: finished,
            mode: LoadMode::InsertIgnore,
        });
    }
    catalog::define("P09", steps)
}

/// P10 — receive error-prone messages from San Diego (E1).
///
/// Messages are validated against XSD_SanDiego first. Failures are stored
/// in the CDB's failed-data destination; valid messages are translated and
/// loaded like any other order message.
pub fn p10() -> ProcessDef {
    let xsd = Arc::new(messages::san_diego_xsd());
    let schema = xsd.clone();
    catalog::define(
        "P10",
        vec![
            Step::Receive { var: "msg1".into() },
            Step::Validate {
                xsd,
                input: "msg1".into(),
                on_valid: vec![
                    Step::Translate {
                        stx: messages::stx_san_diego_to_cdb(),
                        input: "msg1".into(),
                        output: "msg2".into(),
                    },
                    load_order("san_diego", "msg2"),
                ],
                on_invalid: vec![
                    Step::Custom {
                        name: "build_failed_row".into(),
                        reads: vec!["msg1".into()],
                        binds: vec!["failed_row".into()],
                        // the reason is the first issue VALIDATE found
                        f: Arc::new(move |inputs| {
                            let doc = inputs[0].as_xml()?;
                            let payload = dip_xmlkit::write_compact(doc);
                            let reason = (schema.first_issue(doc))
                                .map_or_else(|| "unknown".into(), |i| i.to_string());
                            let row = catalog::failed_message_row(payload, reason);
                            let schema = cdb::failed_messages_schema();
                            Ok(vec![Relation::new(schema, vec![row]).into()])
                        }),
                    },
                    Step::DbInsert {
                        db: cdb::CDB.into(),
                        table: "failed_messages".into(),
                        input: "failed_row".into(),
                        mode: LoadMode::InsertIgnore,
                    },
                ],
            },
        ],
    )
}

/// P11 — extract data from CDB America (E2): pull everything consolidated
/// in US_Eastcoast, run the TPC-H → canonical schema mapping projections,
/// and load it into the global CDB `Sales_Cleaning`.
pub fn p11() -> ProcessDef {
    let steps = extract_steps(america::US_EASTCOAST, catalog::america_extracts());
    catalog::define("P11", steps)
}
