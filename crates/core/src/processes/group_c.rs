//! Group C — the data warehouse delta update (P12, P13). Exclusively
//! data-intensive, serialized process types.

use super::catalog::{self, DwhLoad};
use crate::schema::{cdb, dwh};
use dip_mtm::process::{LoadMode, ProcessDef, Step};
use dip_relstore::prelude::*;
use std::sync::Arc;

/// The MTM form of a set of catalog CDB → DWH loads: extract every table,
/// VALIDATE every relation (the paper's P12/P13 validate extracted data
/// before loading it into the DWH), then load.
fn dwh_load_steps(loads: &'static [DwhLoad]) -> Vec<Step> {
    let query = |l: &DwhLoad| Step::DbQuery {
        db: cdb::CDB.into(),
        plan: Plan::scan(l.table),
        output: l.var.into(),
    };
    let validate = |l: &'static DwhLoad| Step::Custom {
        name: format!("validate_{}", l.var),
        reads: vec![l.var.into()],
        binds: vec![],
        f: Arc::new(move |inputs| l.check(inputs[0].as_rel()?).map(|()| vec![])),
    };
    let insert = |l: &DwhLoad| Step::DbInsert {
        db: dwh::DWH.into(),
        table: l.table.into(),
        input: l.var.into(),
        mode: LoadMode::InsertIgnore,
    };
    let steps = loads.iter().map(query);
    let steps = steps.chain(loads.iter().map(validate));
    steps.chain(loads.iter().map(insert)).collect()
}

/// P12 — bulk-loading data warehouse master data (E2).
///
/// Invokes `sp_runMasterDataCleansing` on the CDB (duplicate and error
/// elimination, dimension-key resolution, integrated-flagging), then
/// extracts the clean master data, validates it, and loads it into the
/// DWH.
pub fn p12() -> ProcessDef {
    let mut steps = vec![Step::DbCall {
        db: cdb::CDB.into(),
        proc: "sp_runMasterDataCleansing".into(),
        args: vec![],
        output: Some("cleansing_report".into()),
    }];
    steps.extend(dwh_load_steps(&catalog::MASTER_LOADS));
    catalog::define("P12", steps)
}

/// P13 — bulk-loading data warehouse movement data (E2).
///
/// Invokes `sp_runMovementDataCleansing`, extracts/validates/loads the
/// movement data, refreshes `OrdersMV` by stored-procedure call, and
/// removes the loaded movement data from the CDB for simple delta
/// determination in following runs.
pub fn p13() -> ProcessDef {
    let mut steps = vec![Step::DbCall {
        db: cdb::CDB.into(),
        proc: "sp_runMovementDataCleansing".into(),
        args: vec![],
        output: Some("cleansing_report".into()),
    }];
    steps.extend(dwh_load_steps(&catalog::MOVEMENT_LOADS));
    steps.push(Step::DbCall {
        db: dwh::DWH.into(),
        proc: "sp_refreshOrdersMV".into(),
        args: vec![],
        output: None,
    });
    steps.extend(catalog::MOVEMENT_LOADS.iter().map(|l| Step::DbDelete {
        db: cdb::CDB.into(),
        table: l.table.into(),
        predicate: Expr::lit(true),
    }));
    catalog::define("P13", steps)
}
