//! Group A — source system management (P01, P02, P03).

use super::catalog;
use crate::schema::{america, asia, europe, messages};
use dip_mtm::process::{LoadMode, ProcessDef, Step, SwitchCase};
use dip_relstore::prelude::*;
use std::sync::Arc;

/// P01 — master data exchange Asia (E1).
///
/// An XML message conforming to XSD_Beijing is received, translated to
/// XSD_Seoul with an STX stylesheet, and sent to the Seoul web service.
/// (The paper's prose says "finally sent to Beijing", an apparent typo for
/// the Seoul target of an XSD_Seoul document — see DESIGN.md §6.)
pub fn p01() -> ProcessDef {
    catalog::define(
        "P01",
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
            reads: vec!["msg2".into()],
            binds: vec![var.clone()],
            f: Arc::new(move |inputs| {
                let row = messages::europe_customer_row(inputs[0].as_xml()?, loc)?;
                Ok(vec![Relation::new(schema.clone(), vec![row]).into()])
            }),
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
/// Trondheim ([`catalog::P02_ROUTES`]).
pub fn p02() -> ProcessDef {
    let (mut cases, mut default) = (Vec::new(), Vec::new());
    for (below, db, loc) in catalog::P02_ROUTES {
        let steps = p02_branch(db, loc);
        match below {
            Some(bound) => cases.push(SwitchCase {
                when: Expr::col(0).lt(Expr::lit(bound)),
                steps,
            }),
            None => default = steps,
        }
    }
    catalog::define(
        "P02",
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
                cases,
                default,
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
    catalog::define("P03", steps)
}
