//! The database catalog: named tables, INSERT triggers, stored procedures
//! and materialized views.
//!
//! This is the "one DBMS installation with eleven database instances" of the
//! DIPBench environment — each external system gets its own [`Database`].
//! Triggers and stored procedures are the two mechanisms the paper's
//! federated-DBMS reference implementation is built from (paper Fig. 9):
//! message-driven processes become INSERT triggers on queue tables, and
//! time-driven processes become stored procedures.

use crate::error::{StoreError, StoreResult};
use crate::mview::MatView;
use crate::row::{Relation, Row};
use crate::table::Table;
use crate::value::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// An INSERT trigger body: receives the database and the just-inserted rows
/// (the `inserted` logical table of the paper's Fig. 9a).
pub type TriggerFn = dyn Fn(&Database, &[Row]) -> StoreResult<()> + Send + Sync;

/// A stored procedure body: receives the database and positional arguments,
/// optionally returning a result relation.
pub type ProcFn = dyn Fn(&Database, &[Value]) -> StoreResult<Option<Relation>> + Send + Sync;

#[derive(Clone)]
struct Trigger {
    name: String,
    body: Arc<TriggerFn>,
}

/// A named in-memory database.
pub struct Database {
    pub name: String,
    tables: RwLock<HashMap<String, Arc<Table>>>,
    triggers: RwLock<HashMap<String, Vec<Trigger>>>,
    procs: RwLock<HashMap<String, Arc<ProcFn>>>,
    views: RwLock<HashMap<String, Arc<MatView>>>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("name", &self.name)
            .field("tables", &self.table_names())
            .finish()
    }
}

impl Database {
    pub fn new(name: impl Into<String>) -> Database {
        Database {
            name: name.into(),
            tables: RwLock::new(HashMap::new()),
            triggers: RwLock::new(HashMap::new()),
            procs: RwLock::new(HashMap::new()),
            views: RwLock::new(HashMap::new()),
        }
    }

    /// Register a table; replaces any table with the same (case-insensitive)
    /// name.
    pub fn create_table(&self, table: Table) -> Arc<Table> {
        // `into_shared` arms the table's transaction machinery: catalog
        // tables always participate in undo-logged scopes.
        let t = table.into_shared();
        self.tables.write().insert(t.name.to_lowercase(), t.clone());
        t
    }

    pub fn table(&self, name: &str) -> StoreResult<Arc<Table>> {
        self.tables
            .read()
            .get(&name.to_lowercase())
            .cloned()
            .ok_or_else(|| StoreError::NoSuchTable(format!("{}.{}", self.name, name)))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&name.to_lowercase())
    }

    pub fn drop_table(&self, name: &str) -> bool {
        self.tables.write().remove(&name.to_lowercase()).is_some()
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Insert through the trigger machinery: rows are applied to the table
    /// first, then every trigger registered for it fires with the inserted
    /// rows. A trigger error is reported to the caller (the insert itself
    /// is not rolled back — matching common DBMS AFTER-trigger semantics
    /// loosely, and documented for the benchmark's failed-data handling).
    pub fn insert_into(&self, table: &str, rows: Vec<Row>) -> StoreResult<usize> {
        let t = self.table(table)?;
        let fired_rows = rows.clone();
        let n = t.insert(rows)?;
        let triggers: Vec<Trigger> = self
            .triggers
            .read()
            .get(&table.to_lowercase())
            .cloned()
            .unwrap_or_default();
        for tr in triggers {
            (tr.body)(self, &fired_rows).map_err(|e| match e {
                // transport faults stay typed across the trigger boundary so
                // callers can still classify the failure as transient
                StoreError::Transport(t) => StoreError::Transport(t),
                e => StoreError::Procedure(format!("trigger {} failed: {e}", tr.name)),
            })?;
        }
        Ok(n)
    }

    /// Register an AFTER-INSERT trigger on `table`.
    pub fn create_trigger(
        &self,
        name: impl Into<String>,
        table: &str,
        body: Arc<TriggerFn>,
    ) -> StoreResult<()> {
        if !self.has_table(table) {
            return Err(StoreError::NoSuchTable(table.to_string()));
        }
        self.triggers
            .write()
            .entry(table.to_lowercase())
            .or_default()
            .push(Trigger {
                name: name.into(),
                body,
            });
        Ok(())
    }

    /// Register a stored procedure.
    pub fn create_procedure(&self, name: impl Into<String>, body: Arc<ProcFn>) {
        self.procs.write().insert(name.into().to_lowercase(), body);
    }

    /// Execute a stored procedure by name.
    pub fn call_procedure(&self, name: &str, args: &[Value]) -> StoreResult<Option<Relation>> {
        let p = self
            .procs
            .read()
            .get(&name.to_lowercase())
            .cloned()
            .ok_or_else(|| StoreError::NoSuchProcedure(name.to_string()))?;
        p(self, args)
    }

    /// Register a materialized view (storage table must already exist).
    pub fn create_view(&self, view: MatView) -> Arc<MatView> {
        let v = Arc::new(view);
        self.views.write().insert(v.name.to_lowercase(), v.clone());
        v
    }

    pub fn view(&self, name: &str) -> StoreResult<Arc<MatView>> {
        self.views
            .read()
            .get(&name.to_lowercase())
            .cloned()
            .ok_or_else(|| StoreError::NoSuchView(name.to_string()))
    }

    /// Refresh a materialized view by name.
    pub fn refresh_view(&self, name: &str) -> StoreResult<usize> {
        let v = self.view(name)?;
        v.refresh(self)
    }

    /// Truncate every table (the benchmark's per-period uninitialization).
    pub fn truncate_all(&self) {
        for t in self.tables.read().values() {
            t.truncate();
        }
    }

    /// Total number of live rows over all tables — a cheap size probe used
    /// by verification and reports.
    pub fn total_rows(&self) -> usize {
        self.tables.read().values().map(|t| t.row_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;
    use crate::value::SqlType;

    fn db() -> Database {
        let db = Database::new("testdb");
        let schema = RelSchema::of(&[("id", SqlType::Int), ("v", SqlType::Str)]).shared();
        db.create_table(
            Table::new("src", schema.clone())
                .with_primary_key(&["id"])
                .unwrap(),
        );
        db.create_table(Table::new("dst", schema).with_primary_key(&["id"]).unwrap());
        db
    }

    #[test]
    fn trigger_copies_rows() {
        let db = db();
        db.create_trigger(
            "cp",
            "src",
            Arc::new(|db, rows| {
                db.table("dst")?.insert(rows.to_vec())?;
                Ok(())
            }),
        )
        .unwrap();
        db.insert_into("src", vec![vec![Value::Int(1), Value::str("a")]])
            .unwrap();
        assert_eq!(db.table("dst").unwrap().row_count(), 1);
    }

    #[test]
    fn trigger_error_is_reported() {
        let db = db();
        db.create_trigger(
            "boom",
            "src",
            Arc::new(|_, _| Err(StoreError::Procedure("nope".into()))),
        )
        .unwrap();
        let err = db
            .insert_into("src", vec![vec![Value::Int(1), Value::str("a")]])
            .unwrap_err();
        assert!(matches!(err, StoreError::Procedure(_)));
        // the base insert stuck (AFTER semantics)
        assert_eq!(db.table("src").unwrap().row_count(), 1);
    }

    #[test]
    fn procedures_roundtrip() {
        let db = db();
        db.create_procedure(
            "sp_count",
            Arc::new(|db, args| {
                let t = db.table(&args[0].render())?;
                let schema = RelSchema::of(&[("n", SqlType::Int)]).shared();
                Ok(Some(Relation::new(
                    schema,
                    vec![vec![Value::Int(t.row_count() as i64)]],
                )))
            }),
        );
        db.insert_into("src", vec![vec![Value::Int(1), Value::str("a")]])
            .unwrap();
        let rel = db
            .call_procedure("SP_COUNT", &[Value::str("src")])
            .unwrap()
            .unwrap();
        assert_eq!(rel.rows[0][0], Value::Int(1));
        assert!(db.call_procedure("nope", &[]).is_err());
    }

    #[test]
    fn truncate_all_and_total_rows() {
        let db = db();
        db.insert_into("src", vec![vec![Value::Int(1), Value::str("a")]])
            .unwrap();
        assert_eq!(db.total_rows(), 1);
        db.truncate_all();
        assert_eq!(db.total_rows(), 0);
    }

    #[test]
    fn table_lookup_case_insensitive() {
        let db = db();
        assert!(db.table("SRC").is_ok());
        assert!(db.table("missing").is_err());
        assert!(db.drop_table("src"));
        assert!(db.table("src").is_err());
    }
}
