//! Group A — source system management (P01, P02, P03).

use super::catalog;
use crate::datagen::keys;
use crate::schema::{america, asia, europe, messages};
use dip_mtm::process::{EventType, LoadMode, ProcessDef, Step, SwitchCase};
use dip_relstore::prelude::*;
use std::sync::Arc;

/// P01 — master data exchange Asia (E1).
///
/// An XML message conforming to XSD_Beijing is received, translated to
/// XSD_Seoul with an STX stylesheet, and sent to the Seoul web service.
/// (The paper's prose says "finally sent to Beijing", an apparent typo for
/// the Seoul target of an XSD_Seoul document — see DESIGN.md §6.)
pub fn p01() -> ProcessDef {
    ProcessDef::new(
        "P01",
        "Master data exchange Asia",
        'A',
        EventType::Message,
        vec![
            Step::Receive { var: "msg1".into() },
            Step::Translate {
                stx: messages::stx_beijing_to_seoul(),
                input: "msg1".into(),
                output: "msg2".into(),
            },
            Step::WsUpdate {
                service: asia::SEOUL.into(),
                operation: "masterdata".into(),
                input: "msg2".into(),
            },
        ],
    )
}

/// Build the XML→row step for one P02 branch.
fn p02_branch(db: &str, loc: Option<&'static str>) -> Vec<Step> {
    let schema = europe::cust_schema(loc.is_some());
    let var = format!("row_{}", loc.unwrap_or("trondheim"));
    vec![
        Step::Custom {
            name: format!("decode_eu_customer_{}", loc.unwrap_or("trondheim")),
            binds: vec![var.clone()],
            f: {
                let schema = schema.clone();
                let var = var.clone();
                Arc::new(move |vars| {
                    let doc = vars
                        .get("msg2")
                        .ok_or("msg2 unbound")?
                        .as_xml()
                        .map_err(|e| e.to_string())?;
                    let row = messages::europe_customer_row(doc, loc)?;
                    vars.set(var.clone(), Relation::new(schema.clone(), vec![row]));
                    Ok(())
                })
            },
        },
        Step::DbInsert {
            db: db.into(),
            table: "cust".into(),
            input: var,
            mode: LoadMode::Upsert,
        },
    ]
}

/// P02 — master data subscription Europe (E1, paper Fig. 4).
///
/// Receives an MDM customer message, translates it to the Europe schema,
/// then a SWITCH on the customer key routes the update to Berlin, Paris or
/// Trondheim.
pub fn p02() -> ProcessDef {
    ProcessDef::new(
        "P02",
        "Master data subscription Europe",
        'A',
        EventType::Message,
        vec![
            Step::Receive { var: "msg1".into() },
            Step::Translate {
                stx: messages::stx_mdm_to_europe(),
                input: "msg1".into(),
                output: "msg2".into(),
            },
            Step::Switch {
                input: "msg2".into(),
                path: "euCustomer/custkey".into(),
                cases: vec![
                    SwitchCase {
                        when: Expr::col(0).lt(Expr::lit(keys::P02_BERLIN_BELOW)),
                        steps: p02_branch(europe::BERLIN_PARIS, Some(europe::LOC_BERLIN)),
                    },
                    SwitchCase {
                        when: Expr::col(0).lt(Expr::lit(keys::P02_PARIS_BELOW)),
                        steps: p02_branch(europe::BERLIN_PARIS, Some(europe::LOC_PARIS)),
                    },
                ],
                default: p02_branch(europe::TRONDHEIM, None),
            },
        ],
    )
}

/// P03 — local data consolidation America (E2, paper Fig. 5).
///
/// Extracts the datasets from Chicago, Baltimore and Madison, UNION
/// DISTINCTs them per entity (the sources hold overlapping subsets) and
/// loads the result into the local consolidated database US_Eastcoast.
pub fn p03() -> ProcessDef {
    let mut steps: Vec<Step> = Vec::new();
    for (table, key) in catalog::CONSOLIDATION_ENTITIES {
        let mut inputs = Vec::new();
        for source in catalog::CONSOLIDATION_SOURCES {
            let var = format!("{table}_{source}");
            steps.push(Step::DbQuery {
                db: source.into(),
                plan: Plan::scan(table),
                output: var.clone(),
            });
            inputs.push(var);
        }
        let merged = format!("{table}_merged");
        steps.push(Step::UnionDistinct {
            inputs,
            key: Some(key.to_vec()),
            output: merged.clone(),
        });
        steps.push(Step::DbInsert {
            db: america::US_EASTCOAST.into(),
            table: table.into(),
            input: merged,
            mode: LoadMode::InsertIgnore,
        });
    }
    ProcessDef::new(
        "P03",
        "Local data consolidation America",
        'A',
        EventType::Timed,
        steps,
    )
}
