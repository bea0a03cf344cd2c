//! Web services wrapping relational data sources.
//!
//! The region-Asia sources (Hongkong, Beijing, Seoul) are "data sources
//! hidden by Web services": a [`DbService`] exposes the tables of a
//! [`Database`] through `query` (returning a generic result set) and
//! `update` (accepting result-set XML) operations. Each service manages its
//! master data locally, which is why P01 replicates master data between
//! Beijing and Seoul.
//!
//! A query's response crosses the service boundary the way a remote
//! database query's does: as the scanned rows (a [`ResultSet`]), sized for
//! the wire by arithmetic. It is rendered as XML events only where a
//! caller reads it as XML — into a tree (`ResultSet::to_document`, what
//! the federated engine keeps) or straight through a stylesheet.

use crate::resultset::{self, ResultSet};
use dip_relstore::prelude::*;
use dip_xmlkit::node::Document;
use std::sync::Arc;

/// Errors surfaced by service operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    UnknownOperation(String),
    Store(StoreError),
    Malformed(String),
    /// A transport-level failure reaching the service endpoint. Transient
    /// unless it is an injected crash: delivery dead-letters on it.
    Transport(TransportFault),
}

impl ServiceError {
    /// Whether retrying the same call could plausibly succeed. Delegates
    /// to the wrapped store error so transport-ness survives layering.
    /// An injected crash travels as a transport fault but is not transient.
    pub fn is_transient(&self) -> bool {
        self.transport().is_some_and(|t| t.is_transient())
    }

    /// The transport fault carried by this error, if any.
    pub fn transport(&self) -> Option<&TransportFault> {
        match self {
            ServiceError::Transport(t) => Some(t),
            ServiceError::Store(e) => e.transport(),
            _ => None,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownOperation(o) => write!(f, "unknown operation: {o}"),
            ServiceError::Store(e) => write!(f, "store error: {e}"),
            ServiceError::Malformed(m) => write!(f, "malformed request: {m}"),
            ServiceError::Transport(t) => write!(f, "{t}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<TransportFault> for ServiceError {
    fn from(t: TransportFault) -> Self {
        ServiceError::Transport(t)
    }
}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        // keep transport faults at the top of the enum so `transport()`
        // callers see one shape regardless of which layer raised it
        match e {
            StoreError::Transport(t) => ServiceError::Transport(t),
            other => ServiceError::Store(other),
        }
    }
}

pub type ServiceResult<T> = Result<T, ServiceError>;

/// A web service endpoint.
pub trait WebService: Send + Sync {
    /// The service name (also its netsim endpoint suffix).
    fn name(&self) -> &str;

    /// `query(table)` — return the full table as a result set.
    fn query(&self, operation: &str) -> ServiceResult<ResultSet>;

    /// `update(table, doc)` — merge a result-set document into a table
    /// (insert-ignore-duplicates for rows whose key already exists).
    fn update(&self, operation: &str, doc: &Document) -> ServiceResult<usize>;
}

/// A web service backed by a relstore database: every table is an
/// operation.
pub struct DbService {
    name: String,
    pub db: Arc<Database>,
}

impl DbService {
    pub fn new(name: impl Into<String>, db: Arc<Database>) -> DbService {
        DbService {
            name: name.into(),
            db,
        }
    }
}

impl WebService for DbService {
    fn name(&self) -> &str {
        &self.name
    }

    fn query(&self, operation: &str) -> ServiceResult<ResultSet> {
        if !self.db.has_table(operation) {
            return Err(ServiceError::UnknownOperation(operation.to_string()));
        }
        let rel = self.db.table(operation)?.scan();
        Ok(ResultSet::new(&self.name, operation, rel))
    }

    fn update(&self, operation: &str, doc: &Document) -> ServiceResult<usize> {
        if !self.db.has_table(operation) {
            return Err(ServiceError::UnknownOperation(operation.to_string()));
        }
        let table = self.db.table(operation)?;
        let rel = resultset::decode(doc, &table.schema)
            .map_err(|e| ServiceError::Malformed(e.to_string()))?;
        Ok(table.insert_ignore_duplicates(rel.rows)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> DbService {
        let db = Arc::new(Database::new("beijing"));
        let schema = RelSchema::of(&[("k", SqlType::Int), ("v", SqlType::Str)]).shared();
        let t = Table::new("part", schema).with_primary_key(&["k"]).unwrap();
        t.insert(vec![vec![Value::Int(1), Value::str("bolt")]])
            .unwrap();
        db.create_table(t);
        DbService::new("beijing", db)
    }

    #[test]
    fn query_returns_resultset() {
        let s = service();
        let rs = s.query("part").unwrap();
        assert_eq!((rs.source(), rs.table()), ("beijing", "part"));
        let doc = rs.to_document();
        assert_eq!(doc.root.name, "resultSet");
        assert_eq!(doc.root.all("row").count(), 1);
        assert!(matches!(
            s.query("nope"),
            Err(ServiceError::UnknownOperation(_))
        ));
    }

    #[test]
    fn update_merges() {
        let s = service();
        let schema = s.db.table("part").unwrap().schema.clone();
        let rel = Relation::new(
            schema,
            vec![
                [Value::Int(1), Value::str("dup — skipped")].into(),
                [Value::Int(2), Value::str("nut")].into(),
            ],
        );
        let doc = resultset::encode("x", "part", &rel);
        let n = s.update("part", &doc).unwrap();
        assert_eq!(n, 1);
        assert_eq!(s.db.table("part").unwrap().row_count(), 2);
    }

    #[test]
    fn update_rejects_garbage() {
        let s = service();
        let doc = Document::new(dip_xmlkit::Element::new("garbage"));
        assert!(matches!(
            s.update("part", &doc),
            Err(ServiceError::Malformed(_))
        ));
    }
}
