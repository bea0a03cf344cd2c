//! # dip-ivm — the incremental view-maintenance engine
//!
//! The third system under test. The NAVG+ hot spots of the benchmark —
//! the data-intensive refresh processes P09, P11, P13 and P14 — are
//! realized as *standing queries* maintained from change data instead of
//! full-table refreshes ("data-aware" integration in the sense of Ritter's
//! dataflow argument): the engine enables relstore change capture on the
//! base tables those processes read and, per activation, pulls only the
//! accumulated delta over the wire ([`ExternalWorld::remote_pull_changes`]),
//! feeding it through the *same* schema mappings, quality gates and loaders
//! as the federated reference implementation. P09's Asia web services
//! expose no change log, so it falls back to snapshot differencing against
//! an engine-local standing view. Everything else — all of E1, groups A/B,
//! P12, P15 — delegates to the federated realization unchanged.
//!
//! Equivalence contract: because every target is wiped at period start and
//! each refresh process runs once per period, the net-insert fold of a
//! period's change log equals the full current base-table content, so the
//! engine must produce byte-identical `digest_tables` to fed/mtm on
//! same-seed runs (the cross-engine test enforces this). The interesting
//! difference is *cost shape*: deltas are charged by changed rows, not
//! table size.
//!
//! The engine wraps [`FedDbms`] and reuses its queue tables, trigger
//! machinery, `TxScope` atomicity, dead-letter queue and cost recorder, so
//! the chaos/crash gates apply to it unchanged: a pulled-and-lost delta is
//! restored by transaction rollback (the drain is undo-journaled), and a
//! crash-recovery replay re-pulls exactly what the failed instance saw.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use dip_feddbms::engine::{E2Body, FedCtx};
use dip_feddbms::{procs, FedDbms, FedOptions};
use dip_mtm::cost::CostRecorder;
use dip_mtm::error::MtmResult;
use dip_mtm::process::ProcessDef;
use dip_relstore::prelude::*;
use dip_services::registry::{ExternalWorld, LoadMode};
use dipbench::processes::catalog;
use dipbench::processes::group_d::s1_delta_plan;
use dipbench::schema::{america, cdb, dwh};
use dipbench::system::{DeadLetterQueue, Delivery, Event, IntegrationSystem};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, PoisonError};

/// The base tables the engine maintains standing queries over:
/// `(database, table, consuming process)`. `dwh.orders` is absent: P13
/// recomputes `orders_mv` from the table once per period, so nothing would
/// read its change log.
pub const CAPTURE_SOURCES: [(&str, &str, &str); 7] = [
    (america::US_EASTCOAST, "customer", "P11"),
    (america::US_EASTCOAST, "part", "P11"),
    (america::US_EASTCOAST, "orders", "P11"),
    (america::US_EASTCOAST, "lineitem", "P11"),
    (cdb::CDB, "orders", "P13"),
    (cdb::CDB, "orderline", "P13"),
    (dwh::DWH, "orderline", "P14"),
];

/// The incremental view-maintenance engine as a system under test.
pub struct IvmSystem {
    fed: FedDbms,
    /// Engine-local standing views for sources without change capture
    /// (the P09 web services). Not registered with the external world, so
    /// it is invisible to `digest_tables` and crash checkpoints — which is
    /// correct: after a crash the fresh engine re-derives deltas from
    /// scratch, and period-start resets keep it consistent.
    state: Arc<Database>,
    last_period: Mutex<Option<u32>>,
}

impl IvmSystem {
    pub fn new(world: Arc<ExternalWorld>) -> IvmSystem {
        // construction over the constant table above, before any message
        // or row is seen: a world without these tables is a harness bug
        #[allow(clippy::expect_used)]
        for (db, table, _) in CAPTURE_SOURCES {
            world
                .database(db)
                .expect("known capture database")
                .table(table)
                .expect("known capture table")
                .enable_change_capture();
        }
        let state = Arc::new(Database::new("ivm_state"));
        for entity in catalog::asia_entities() {
            let schema = RelSchema::new(vec![Column::new("k".to_string(), SqlType::Str)]).shared();
            state.create_table(Table::new(seen_table(entity.staging), schema));
        }
        IvmSystem {
            fed: FedDbms::new(world, FedOptions::default()),
            state,
            last_period: Mutex::new(None),
        }
    }

    /// Reset the standing views at period boundaries: `uninitialize`
    /// truncates every target at period start, so anything "seen" belongs
    /// to a previous period's (wiped) staging content. Runs outside the
    /// instance transaction — the reset itself must survive an instance
    /// rollback.
    fn roll_period(&self, period: u32) {
        let mut last = (self.last_period.lock()).unwrap_or_else(PoisonError::into_inner);
        if *last != Some(period) {
            self.state.truncate_all();
            *last = Some(period);
        }
    }
}

impl IntegrationSystem for IvmSystem {
    fn name(&self) -> &str {
        "ivm-engine"
    }

    fn deploy(&self, defs: Vec<ProcessDef>) -> MtmResult<()> {
        self.fed.deploy(defs)?;
        // override the refresh hot spots with their standing-query forms
        self.fed
            .deploy_procedure("P09", ivm_p09(self.state.clone()));
        self.fed.deploy_procedure("P11", ivm_p11());
        self.fed.deploy_procedure("P13", ivm_p13());
        self.fed.deploy_procedure("P14", ivm_p14());
        Ok(())
    }

    fn deliver(&self, event: Event) -> Delivery {
        self.roll_period(event.period());
        self.fed.deliver(event)
    }

    fn recorder(&self) -> Arc<CostRecorder> {
        self.fed.recorder()
    }

    fn dead_letters(&self) -> Arc<DeadLetterQueue> {
        self.fed.dead_letters()
    }
}

fn seen_table(staging: &str) -> String {
    format!("seen_{staging}")
}

/// Fold a change log, in log order, into its net-insert row multiset: the
/// relation a consumer must apply to a freshly-wiped target to reach the
/// base table's current content. A `Delete` cancels one earlier equal row
/// and is a no-op when none is pending (the row predates this log).
fn delta_relation(schema: SchemaRef, changes: Vec<Change>) -> Relation {
    let mut rows: Vec<SharedRow> = Vec::new();
    for change in changes {
        match change {
            Change::Insert(row) => rows.push(row),
            Change::Delete(row) => {
                if let Some(i) = rows.iter().position(|r| *r == row) {
                    rows.remove(i);
                }
            }
        }
    }
    Relation::new(schema, rows)
}

/// Drain a remote base table's change log and fold it into the delta
/// relation — the change-pull replacement for a full `remote_query` scan.
/// The table's schema is deploy-time catalog metadata: no round trip is
/// charged for it, as with any federated catalog lookup.
fn pull_delta(ctx: &FedCtx, db: &str, table: &str) -> MtmResult<Relation> {
    let changes = ctx.remote_pull_changes(db, table)?;
    let schema = ctx.world.database(db)?.table(table)?.schema.clone();
    ctx.processing(|| Ok(delta_relation(schema, changes)))
}

/// P09, snapshot-differential form: the Asia web services expose no change
/// log, so the engine runs the identical WS + transform + decode fetch and
/// then diffs the result against its standing view, loading only rows
/// whose key it has not seen this period.
fn ivm_p09(state: Arc<Database>) -> E2Body {
    let services = catalog::asia_services();
    Arc::new(move |ctx| {
        for entity in catalog::asia_entities() {
            let finished = procs::p09_fetch(ctx, &entity, &services)?;
            let fresh = ctx.processing(|| {
                let seen = state.table(&seen_table(entity.staging))?;
                let known: HashSet<String> = seen
                    .scan()
                    .rows
                    .into_iter()
                    .map(|r| r[0].render())
                    .collect();
                let mut new_keys: Vec<SharedRow> = Vec::new();
                let mut out: Vec<SharedRow> = Vec::new();
                for row in finished.rows {
                    let fp = fingerprint(&row, &entity.key);
                    if !known.contains(&Value::str(fp.clone()).render()) {
                        new_keys.push([Value::str(fp)].into());
                        out.push(row);
                    }
                }
                seen.insert(new_keys)?;
                Ok(Relation::new(finished.schema, out))
            })?;
            ctx.remote_load(cdb::CDB, entity.staging, fresh.rows, LoadMode::InsertIgnore)?;
        }
        Ok(())
    })
}

fn fingerprint(row: &[Value], key: &[usize]) -> String {
    let parts: Vec<String> = key.iter().map(|&i| row[i].render()).collect();
    parts.join("\u{1}")
}

/// P11, change-pull form: drain the US-Eastcoast change logs instead of
/// scanning the full tables, then run the identical staging projections.
fn ivm_p11() -> E2Body {
    Arc::new(|ctx| {
        let fetch = |e: &catalog::Extract| pull_delta(ctx, america::US_EASTCOAST, e.table);
        procs::stage_extracts(ctx, "us", catalog::america_extracts(), fetch)
    })
}

/// P13, change-pull form: same cleansing call, but the cleansed movement
/// data reaches the engine as the CDB tables' change logs; the quality
/// gates, DWH load, MV refresh and CDB cleanup are shared with fed.
fn ivm_p13() -> E2Body {
    Arc::new(|ctx| {
        ctx.remote_call(cdb::CDB, "sp_runMovementDataCleansing")?;
        procs::p13_apply(ctx, |l| pull_delta(ctx, cdb::CDB, l.table))
    })
}

/// P14, delta-join form: pull the `dwh.orderline` delta and ship it back
/// as the leftmost input of the identical nine-way sales join (a standing
/// query evaluated per change batch), then run the shared mart loaders.
fn ivm_p14() -> E2Body {
    Arc::new(|ctx| {
        let delta = pull_delta(ctx, dwh::DWH, "orderline")?;
        let sales = ctx.remote_query(dwh::DWH, &s1_delta_plan(delta))?;
        let sales_temp = ctx.materialize("sales", sales)?;
        procs::p14_load_marts(ctx, sales_temp)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema2() -> SchemaRef {
        RelSchema::new(vec![
            Column::new("k".to_string(), SqlType::Int),
            Column::new("v".to_string(), SqlType::Str),
        ])
        .shared()
    }

    #[test]
    fn delta_folds_in_log_order() {
        let row = |k: i64, v: &str| SharedRow::from([Value::Int(k), Value::str(v)]);
        let changes = vec![
            Change::Insert(row(1, "a")),
            Change::Insert(row(2, "b")),
            Change::Delete(row(1, "a")),
            Change::Insert(row(1, "a2")),
            // a delete with no pending insert is a no-op (pre-log row)
            Change::Delete(row(9, "z")),
        ];
        let rel = delta_relation(schema2(), changes);
        assert_eq!(rel.rows, vec![row(2, "b"), row(1, "a2")]);
    }

    #[test]
    fn delta_of_empty_log_is_empty() {
        let rel = delta_relation(schema2(), Vec::new());
        assert!(rel.rows.is_empty());
        assert_eq!(rel.schema.len(), 2);
    }

    #[test]
    fn fingerprints_are_key_projections() {
        let row = vec![Value::Int(7), Value::str("x"), Value::Int(9)];
        assert_eq!(fingerprint(&row, &[0]), Value::Int(7).render());
        assert!(fingerprint(&row, &[0, 2]).contains('\u{1}'));
    }
}
