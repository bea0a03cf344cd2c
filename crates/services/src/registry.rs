//! The service registry: named endpoints reached over the simulated
//! network, with communication-cost accounting.
//!
//! Integration engines never talk to a [`WebService`] or a remote
//! [`Database`] directly — they go through an [`ExternalWorld`], which
//! routes the call over [`dip_netsim::Network`] and reports the modeled
//! communication delay. That delay is what the benchmark monitor charges
//! to the `Cc` (communication) cost category.

use crate::resilience::{Attempt, Resilience};
use crate::webservice::{ServiceError, ServiceResult, WebService};
use dip_netsim::fault;
use dip_relstore::error::TransportFault;
use dip_relstore::prelude::*;
use dip_xmlkit::compact_len;
use dip_xmlkit::node::Document;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A call result paired with the modeled communication delay.
#[derive(Debug)]
pub struct Remote<T> {
    pub value: T,
    pub comm: Duration,
}

/// How rows are applied to a target table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Plain insert through the target's trigger machinery; duplicate keys
    /// are an error.
    Insert,
    /// Skip rows whose primary key already exists (replication merges).
    InsertIgnore,
    /// Insert-or-replace by primary key (master-data updates).
    Upsert,
}

/// Everything an integration system can reach: databases and web services,
/// each bound to a netsim endpoint.
pub struct ExternalWorld {
    pub network: Arc<dip_netsim::Network>,
    /// The caller's own endpoint (normally the integration system, `is`).
    pub self_endpoint: String,
    databases: HashMap<String, (String, Arc<Database>)>,
    services: HashMap<String, (String, Arc<dyn WebService>)>,
    /// Retry/breaker layer, armed only when the network carries a fault
    /// plan; `None` keeps every round trip on the historical fast path.
    resilience: Option<Arc<Resilience>>,
}

impl std::fmt::Debug for ExternalWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExternalWorld")
            .field("databases", &self.databases.keys().collect::<Vec<_>>())
            .field("services", &self.services.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ExternalWorld {
    pub fn new(network: Arc<dip_netsim::Network>, self_endpoint: impl Into<String>) -> Self {
        ExternalWorld {
            network,
            self_endpoint: self_endpoint.into(),
            databases: HashMap::new(),
            services: HashMap::new(),
            resilience: None,
        }
    }

    /// Engage the resilience layer for all subsequent remote/WS calls.
    pub fn arm_resilience(&mut self, resilience: Arc<Resilience>) {
        self.resilience = Some(resilience);
    }

    /// The armed resilience layer, if any.
    pub fn resilience(&self) -> Option<&Arc<Resilience>> {
        self.resilience.as_ref()
    }

    /// Register a database under a logical name at a network endpoint.
    pub fn add_database(&mut self, name: &str, endpoint: &str, db: Arc<Database>) {
        self.databases
            .insert(name.to_lowercase(), (endpoint.to_string(), db));
    }

    /// Register a web service at a network endpoint.
    pub fn add_service(&mut self, endpoint: &str, ws: Arc<dyn WebService>) {
        self.services
            .insert(ws.name().to_lowercase(), (endpoint.to_string(), ws));
    }

    /// Direct handle to a database (for initialization/verification, which
    /// happen outside the measured phase and bypass the network model).
    pub fn database(&self, name: &str) -> StoreResult<Arc<Database>> {
        self.databases
            .get(&name.to_lowercase())
            .map(|(_, db)| db.clone())
            .ok_or_else(|| StoreError::Invalid(format!("unknown external database {name}")))
    }

    pub fn service(&self, name: &str) -> ServiceResult<Arc<dyn WebService>> {
        self.services
            .get(&name.to_lowercase())
            .map(|(_, s)| s.clone())
            .ok_or_else(|| ServiceError::UnknownOperation(format!("unknown service {name}")))
    }

    pub fn database_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.databases.keys().cloned().collect();
        v.sort();
        v
    }

    pub fn service_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.services.keys().cloned().collect();
        v.sort();
        v
    }

    fn db_entry(&self, name: &str) -> StoreResult<(String, Arc<Database>)> {
        self.databases
            .get(&name.to_lowercase())
            .cloned()
            .ok_or_else(|| StoreError::Invalid(format!("unknown external database {name}")))
    }

    /// Estimate the wire size of a relation (rendered values + separators)
    /// without rendering anything.
    fn relation_bytes(rel: &Relation) -> usize {
        rel.rows
            .iter()
            .map(|r| r.iter().map(|v| v.rendered_len() + 1).sum::<usize>())
            .sum()
    }

    /// One request → remote effect → response round trip over the network.
    ///
    /// The resilience layer engages only when it is armed, the network
    /// carries an active fault plan, and the call runs inside an instance
    /// fault scope — otherwise this is exactly the historical unguarded
    /// path (no verdicts, no clock, no breaker). When engaged, both legs'
    /// fault verdicts are evaluated *before* `effect` runs, so a retried
    /// attempt never re-executes the remote side effect; timeout and
    /// backoff waits are folded into the returned communication delay.
    fn round_trip<T, E>(
        &self,
        endpoint: &str,
        req_bytes: usize,
        effect: impl FnOnce() -> Result<T, E>,
        resp_bytes: impl FnOnce(&T) -> usize,
    ) -> Result<Remote<T>, E>
    where
        E: From<TransportFault>,
    {
        // Deterministic crash/abort injection: every round trip is one
        // materialization step. The check runs *before* the effect, so a
        // planned step is all-or-nothing — the instance's partial state is
        // whatever earlier steps materialized, which the enclosing
        // transaction scope rolls back. A crash is non-transient (the
        // system is dead; recovery replays the instance); an abort is a
        // transient fault with retries exhausted (the message dead-letters
        // and is never replayed).
        match self.network.step_point() {
            fault::StepVerdict::Pass => {}
            fault::StepVerdict::Crash => {
                return Err(E::from(TransportFault {
                    endpoint: endpoint.to_string(),
                    kind: TransportKind::Crash,
                    attempts: 0,
                }));
            }
            fault::StepVerdict::Abort => {
                return Err(E::from(TransportFault {
                    endpoint: endpoint.to_string(),
                    kind: TransportKind::Drop,
                    attempts: 0,
                }));
            }
        }
        let guarded = self
            .resilience
            .as_ref()
            .filter(|_| self.network.has_faults())
            .and_then(|r| fault::begin_op().map(|op| (r, op)));
        let wasted = match guarded {
            None => Duration::ZERO,
            Some((r, op)) => match r.decide(&self.network, &self.self_endpoint, endpoint, &op) {
                Attempt::Proceed { wasted } => wasted,
                Attempt::Exhausted(f) => return Err(E::from(f)),
            },
        };
        let req = self
            .network
            .transfer(&self.self_endpoint, endpoint, req_bytes);
        let value = effect()?;
        let resp = (self.network).transfer(endpoint, &self.self_endpoint, resp_bytes(&value));
        Ok(Remote {
            value,
            comm: wasted + req + resp,
        })
    }

    /// Run a query plan on a remote database; the request costs a small
    /// fixed payload, the response is charged by result size.
    pub fn remote_query(&self, db_name: &str, plan: &Plan) -> StoreResult<Remote<Relation>> {
        let (endpoint, db) = self.db_entry(db_name)?;
        self.round_trip(&endpoint, 256, || execute(plan, &db), Self::relation_bytes)
    }

    /// Drain a remote table's change-capture log — the change-data-capture
    /// pull an incremental view-maintenance consumer issues instead of a
    /// full-table query. The request is a small cursor payload; the
    /// response is charged by delta size, which is the whole point: a pull
    /// on an unchanged table ships (almost) nothing. The drain is
    /// undo-journaled by the table, so an enclosing transaction scope that
    /// rolls back restores the log and the delta is re-deliverable.
    pub fn remote_pull_changes(
        &self,
        db_name: &str,
        table: &str,
    ) -> StoreResult<Remote<Vec<Change>>> {
        let (endpoint, db) = self.db_entry(db_name)?;
        self.round_trip(
            &endpoint,
            128,
            || Ok(db.table(table)?.drain_changes()),
            |changes: &Vec<Change>| {
                changes
                    .iter()
                    .map(|c| {
                        let row = match c {
                            Change::Insert(r) | Change::Delete(r) => r,
                        };
                        row.iter().map(|v| v.rendered_len() + 1).sum::<usize>() + 1
                    })
                    .sum()
            },
        )
    }

    /// Insert rows into a remote table (through the remote database's
    /// trigger machinery).
    pub fn remote_insert(
        &self,
        db_name: &str,
        table: &str,
        rows: Vec<Row>,
    ) -> StoreResult<Remote<usize>> {
        self.remote_load(db_name, table, rows, LoadMode::Insert)
    }

    /// Insert rows into a remote table with explicit duplicate handling.
    /// `LoadMode::Insert` goes through the remote trigger machinery; the
    /// merge/upsert modes write the table directly (no triggers fire, as
    /// with bulk-load paths in real DBMSs).
    pub fn remote_load(
        &self,
        db_name: &str,
        table: &str,
        rows: Vec<Row>,
        mode: LoadMode,
    ) -> StoreResult<Remote<usize>> {
        let (endpoint, db) = self.db_entry(db_name)?;
        let bytes: usize = rows
            .iter()
            .map(|r| r.iter().map(|v| v.rendered_len() + 1).sum::<usize>())
            .sum();
        self.round_trip(
            &endpoint,
            bytes + 128,
            || match mode {
                LoadMode::Insert => db.insert_into(table, rows),
                LoadMode::InsertIgnore => db.table(table)?.insert_ignore_duplicates(rows),
                LoadMode::Upsert => db.table(table)?.upsert(rows),
            },
            |_| 64,
        )
    }

    /// Delete matching rows from a remote table.
    pub fn remote_delete(
        &self,
        db_name: &str,
        table: &str,
        predicate: &Expr,
    ) -> StoreResult<Remote<usize>> {
        let (endpoint, db) = self.db_entry(db_name)?;
        self.round_trip(
            &endpoint,
            128,
            || db.table(table)?.delete_where(predicate),
            |_| 64,
        )
    }

    /// Call a stored procedure on a remote database.
    pub fn remote_call(
        &self,
        db_name: &str,
        proc: &str,
        args: &[Value],
    ) -> StoreResult<Remote<Option<Relation>>> {
        let (endpoint, db) = self.db_entry(db_name)?;
        self.round_trip(
            &endpoint,
            128,
            || db.call_procedure(proc, args),
            |out| out.as_ref().map(Self::relation_bytes).unwrap_or(16) + 64,
        )
    }

    /// Query a web service operation (returns result-set XML).
    pub fn ws_query(&self, service: &str, operation: &str) -> ServiceResult<Remote<Document>> {
        let (endpoint, ws) = self
            .services
            .get(&service.to_lowercase())
            .cloned()
            .ok_or_else(|| ServiceError::UnknownOperation(format!("unknown service {service}")))?;
        self.round_trip(&endpoint, 256, || ws.query(operation), compact_len)
    }

    /// Send an update document to a web service operation.
    pub fn ws_update(
        &self,
        service: &str,
        operation: &str,
        doc: &Document,
    ) -> ServiceResult<Remote<usize>> {
        let (endpoint, ws) = self
            .services
            .get(&service.to_lowercase())
            .cloned()
            .ok_or_else(|| ServiceError::UnknownOperation(format!("unknown service {service}")))?;
        let bytes = compact_len(doc);
        self.round_trip(&endpoint, bytes, || ws.update(operation, doc), |_| 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::webservice::DbService;
    use dip_netsim::{LatencyModel, LinkSpec, Network};

    fn world() -> ExternalWorld {
        let net = Arc::new(Network::new(
            LinkSpec::new(LatencyModel::Fixed { micros: 100 }, 1_000_000),
            9,
        ));
        let mut w = ExternalWorld::new(net, "is");
        let db = Arc::new(Database::new("berlin"));
        let schema = RelSchema::of(&[("id", SqlType::Int)]).shared();
        db.create_table(
            Table::new("t", schema.clone())
                .with_primary_key(&["id"])
                .unwrap(),
        );
        w.add_database("berlin", "es.berlin_paris", db.clone());
        let ws_db = Arc::new(Database::new("beijing_db"));
        ws_db.create_table(Table::new("t", schema).with_primary_key(&["id"]).unwrap());
        w.add_service("es.ws.beijing", Arc::new(DbService::new("beijing", ws_db)));
        w
    }

    #[test]
    fn remote_insert_and_query_charge_comm() {
        let w = world();
        let ins = w
            .remote_insert(
                "berlin",
                "t",
                vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            )
            .unwrap();
        assert_eq!(ins.value, 2);
        assert!(ins.comm >= Duration::from_micros(200)); // two fixed latencies
        let q = w.remote_query("berlin", &Plan::scan("t")).unwrap();
        assert_eq!(q.value.len(), 2);
        assert!(q.comm > Duration::ZERO);
    }

    #[test]
    fn ws_roundtrip() {
        let w = world();
        let schema = RelSchema::of(&[("id", SqlType::Int)]).shared();
        let rel = Relation::new(schema, vec![vec![Value::Int(7)]]);
        let doc = crate::resultset::encode("x", "t", &rel);
        let up = w.ws_update("beijing", "t", &doc).unwrap();
        assert_eq!(up.value, 1);
        let q = w.ws_query("beijing", "t").unwrap();
        assert_eq!(q.value.root.all("row").count(), 1);
    }

    #[test]
    fn unknown_names_error() {
        let w = world();
        assert!(w.remote_query("nope", &Plan::scan("t")).is_err());
        assert!(w.ws_query("nope", "t").is_err());
        assert!(w.database("nope").is_err());
    }
}
