//! The federated-DBMS engine: queue tables + INSERT triggers for E1,
//! stored procedures with temp-table materialization points for E2.

use dip_mtm::cost::{CostCategory, CostRecorder, InstanceCosts};
use dip_mtm::error::{MtmError, MtmResult};
use dip_mtm::process::ProcessDef;
use dip_relstore::prelude::*;
use dip_services::registry::{ExternalWorld, LoadMode, Remote};
use dip_services::ServiceError;
use dip_xmlkit::node::Document;
use dip_xmlkit::XmlError;
use parking_lot::RwLock;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Errors raised by the federated implementation.
#[derive(Debug, Clone)]
pub enum FedError {
    Store(StoreError),
    Xml(XmlError),
    Service(String),
    Other(String),
    /// A transport-level failure reaching an external system, after the
    /// resilience layer exhausted its retries. Transient.
    Transport(TransportFault),
}

impl FedError {
    /// Whether this failure is transient (a transport fault at any layer).
    /// An injected crash travels as a transport fault but is not transient.
    pub fn is_transient(&self) -> bool {
        self.transport().is_some_and(|t| t.is_transient())
    }

    /// The transport fault carried by this error, if any.
    pub fn transport(&self) -> Option<&TransportFault> {
        match self {
            FedError::Transport(t) => Some(t),
            FedError::Store(e) => e.transport(),
            _ => None,
        }
    }
}

impl std::fmt::Display for FedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FedError::Store(e) => write!(f, "{e}"),
            FedError::Xml(e) => write!(f, "{e}"),
            FedError::Service(m) => write!(f, "service error: {m}"),
            FedError::Other(m) => f.write_str(m),
            FedError::Transport(t) => write!(f, "{t}"),
        }
    }
}

impl std::error::Error for FedError {}

impl From<StoreError> for FedError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Transport(t) => FedError::Transport(t),
            other => FedError::Store(other),
        }
    }
}
impl From<XmlError> for FedError {
    fn from(e: XmlError) -> Self {
        FedError::Xml(e)
    }
}
impl From<ServiceError> for FedError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::Transport(t) => FedError::Transport(t),
            other => FedError::Service(other.to_string()),
        }
    }
}
impl From<String> for FedError {
    fn from(m: String) -> Self {
        FedError::Other(m)
    }
}

pub type FedResult<T> = Result<T, FedError>;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct FedOptions {
    /// Route fed-local relational plans through the optimizer (the paper's
    /// "well-optimized relational operators"); turning this off is the
    /// ablation measured by `bench_ablation`.
    pub optimize_relational: bool,
}

impl Default for FedOptions {
    fn default() -> Self {
        FedOptions {
            optimize_relational: true,
        }
    }
}

thread_local! {
    /// The instance-cost accumulator of the currently executing trigger /
    /// procedure on this thread (session context, the way a real DBMS
    /// carries it).
    static CURRENT_COSTS: RefCell<Vec<InstanceCosts>> = const { RefCell::new(Vec::new()) };
}

/// A trigger firing outside an instrumented execution (an insert into a
/// queue table that did not come through `execute_event`) is an error of
/// that insert.
fn current_costs() -> StoreResult<InstanceCosts> {
    CURRENT_COSTS
        .with(|c| c.borrow().last().cloned())
        .ok_or_else(|| {
            StoreError::Procedure("fed trigger fired outside an instrumented execution".into())
        })
}

/// The per-call execution context handed to process bodies.
#[derive(Clone)]
pub struct FedCtx {
    pub world: Arc<ExternalWorld>,
    /// The integration system's own database (queue + temp tables).
    pub local: Arc<Database>,
    pub costs: InstanceCosts,
    pub opts: FedOptions,
    /// Unique suffix for this instance's temp tables.
    pub temp_tag: u64,
}

impl FedCtx {
    /// Time a block of local processing work (Cp).
    pub fn processing<T>(&self, f: impl FnOnce() -> FedResult<T>) -> FedResult<T> {
        let t = Instant::now();
        let out = f();
        self.costs.add(CostCategory::Processing, t.elapsed());
        out
    }

    /// Time an external interaction (Cc): wall time plus modeled delay.
    pub fn communication<T>(
        &self,
        f: impl FnOnce() -> Result<Remote<T>, FedError>,
    ) -> FedResult<T> {
        let t = Instant::now();
        let remote = f()?;
        self.costs
            .add(CostCategory::Communication, t.elapsed() + remote.comm);
        Ok(remote.value)
    }

    pub fn remote_query(&self, db: &str, plan: &Plan) -> FedResult<Relation> {
        self.communication(|| self.world.remote_query(db, plan).map_err(FedError::from))
    }

    pub fn remote_load(
        &self,
        db: &str,
        table: &str,
        rows: Vec<Row>,
        mode: LoadMode,
    ) -> FedResult<usize> {
        self.communication(|| {
            self.world
                .remote_load(db, table, rows, mode)
                .map_err(FedError::from)
        })
    }

    /// Pull (drain) a remote table's change-capture log — the CDC
    /// alternative to `remote_query(scan)`, charged by delta size.
    pub fn remote_pull_changes(&self, db: &str, table: &str) -> FedResult<Vec<Change>> {
        self.communication(|| {
            self.world
                .remote_pull_changes(db, table)
                .map_err(FedError::from)
        })
    }

    pub fn remote_call(&self, db: &str, proc: &str) -> FedResult<Option<Relation>> {
        self.communication(|| {
            self.world
                .remote_call(db, proc, &[])
                .map_err(FedError::from)
        })
    }

    pub fn remote_delete(&self, db: &str, table: &str, pred: &Expr) -> FedResult<usize> {
        self.communication(|| {
            self.world
                .remote_delete(db, table, pred)
                .map_err(FedError::from)
        })
    }

    pub fn ws_query(&self, service: &str, operation: &str) -> FedResult<Document> {
        self.communication(|| {
            self.world
                .ws_query(service, operation)
                .map_err(FedError::from)
        })
    }

    pub fn ws_update(&self, service: &str, operation: &str, doc: &Document) -> FedResult<usize> {
        self.communication(|| {
            self.world
                .ws_update(service, operation, doc)
                .map_err(FedError::from)
        })
    }

    /// Materialize an intermediate result into a temp table (a *local
    /// materialization point*, Fig. 9b) and return its name.
    pub fn materialize(&self, stem: &str, rel: Relation) -> FedResult<String> {
        let name = format!("tmp_{}_{}", stem, self.temp_tag);
        self.processing(|| {
            // temp tables carry no constraints: make every column nullable
            let schema = RelSchema::new(
                rel.schema
                    .columns()
                    .iter()
                    .map(|c| Column::new(c.name.clone(), c.ty))
                    .collect(),
            )
            .shared();
            let table = Table::new(name.clone(), schema);
            table.insert(rel.rows)?;
            self.local.create_table(table);
            Ok(())
        })?;
        Ok(name)
    }

    /// Execute a plan over the local (temp) tables, charging Cp. The
    /// `optimize_relational: false` ablation runs the plan as written
    /// through the reference interpreter.
    pub fn local_query(&self, plan: &Plan) -> FedResult<Relation> {
        self.processing(|| {
            Ok(if self.opts.optimize_relational {
                execute(plan, &self.local)?
            } else {
                execute_oracle(plan, &self.local)?
            })
        })
    }

    /// Drop this instance's temp tables.
    pub fn cleanup_temps(&self) {
        let suffix = format!("_{}", self.temp_tag);
        for t in self.local.table_names() {
            if t.starts_with("tmp_") && t.ends_with(&suffix) {
                self.local.drop_table(&t);
            }
        }
    }
}

/// An E1 body (trigger logic) and an E2 body (stored procedure logic).
pub type E1Body = Arc<dyn Fn(&FedCtx, &Document) -> FedResult<()> + Send + Sync>;
pub type E2Body = Arc<dyn Fn(&FedCtx) -> FedResult<()> + Send + Sync>;

enum Realization {
    Queue { table: String },
    Procedure { body: E2Body },
}

/// The federated-DBMS integration system.
pub struct FedDbms {
    pub world: Arc<ExternalWorld>,
    pub local: Arc<Database>,
    opts: FedOptions,
    recorder: Arc<CostRecorder>,
    realizations: RwLock<HashMap<String, Realization>>,
    next_tid: AtomicU64,
    dlq: Arc<dipbench::system::DeadLetterQueue>,
}

impl std::fmt::Debug for FedDbms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FedDbms")
            .field("processes", &self.realizations.read().len())
            .finish()
    }
}

impl FedDbms {
    pub fn new(world: Arc<ExternalWorld>, opts: FedOptions) -> FedDbms {
        FedDbms {
            world,
            local: Arc::new(Database::new("fed_local")),
            opts,
            recorder: Arc::new(CostRecorder::new()),
            realizations: RwLock::new(HashMap::new()),
            next_tid: AtomicU64::new(1),
            dlq: Arc::new(dipbench::system::DeadLetterQueue::new()),
        }
    }

    pub fn recorder(&self) -> Arc<CostRecorder> {
        self.recorder.clone()
    }

    fn queue_schema() -> SchemaRef {
        RelSchema::new(vec![
            Column::not_null("tid", SqlType::Int),
            Column::not_null("msg", SqlType::Str),
        ])
        .shared()
    }

    /// Realize an E1 process: create its queue table and register the
    /// INSERT trigger that runs the body over the `inserted` rows.
    pub fn deploy_queue(&self, process: &str, body: E1Body) -> FedResult<()> {
        let table = format!("{}_queue", process.to_lowercase());
        self.local.create_table(
            Table::new(table.clone(), Self::queue_schema()).with_primary_key(&["tid"])?,
        );
        let world = self.world.clone();
        let local = self.local.clone();
        let opts = self.opts;
        let process_name = process.to_string();
        self.local.create_trigger(
            format!("{process}_trigger"),
            &table,
            Arc::new(move |_db, inserted| {
                let costs = current_costs()?;
                let ctx = FedCtx {
                    world: world.clone(),
                    local: local.clone(),
                    costs,
                    opts,
                    temp_tag: 0,
                };
                for row in inserted {
                    // parse the CLOB back into a DOM (processing work)
                    let doc = {
                        let t = Instant::now();
                        let parsed = crate::xmlfn::from_clob(&row[1].render());
                        ctx.costs.add(CostCategory::Processing, t.elapsed());
                        parsed.map_err(|e| {
                            StoreError::Procedure(format!("{process_name}: bad message: {e}"))
                        })?
                    };
                    // transport faults must cross the trigger boundary
                    // typed, not stringified, so the dispatcher can still
                    // classify the failure as transient and dead-letter it
                    body(&ctx, &doc).map_err(|e| match e.transport() {
                        Some(t) => StoreError::Transport(t.clone()),
                        None => StoreError::Procedure(format!("{process_name}: {e}")),
                    })?;
                }
                Ok(())
            }),
        )?;
        self.realizations
            .write()
            .insert(process.to_string(), Realization::Queue { table });
        Ok(())
    }

    /// Realize an E2 process as a stored procedure.
    pub fn deploy_procedure(&self, process: &str, body: E2Body) {
        self.realizations
            .write()
            .insert(process.to_string(), Realization::Procedure { body });
    }

    /// Execute one instance, recording its cost record.
    pub fn execute(&self, process: &str, period: u32, input: Option<Document>) -> FedResult<()> {
        self.execute_event(process, period, 0, input).map(|_| ())
    }

    /// [`FedDbms::execute`] with the event's schedule sequence number,
    /// which anchors the instance's deterministic fault-schedule identity.
    /// Returns the number of transport retries spent on the instance.
    pub fn execute_event(
        &self,
        process: &str,
        period: u32,
        seq: u32,
        input: Option<Document>,
    ) -> FedResult<u32> {
        let mgmt_start = Instant::now();
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        self.recorder.run_instance(
            mgmt_start,
            process,
            period,
            seq,
            self.world.network.plan().leak_rollbacks,
            FedError::transport,
            |costs| {
                let _span = dip_trace::span_cat(
                    dip_trace::Layer::Feddbms,
                    "instance",
                    dip_trace::Category::Management,
                );
                self.dispatch(process, input, costs, tid)
            },
        )
    }

    fn dispatch(
        &self,
        process: &str,
        input: Option<Document>,
        costs: &InstanceCosts,
        tid: u64,
    ) -> FedResult<()> {
        let realizations = self.realizations.read();
        let realization = realizations
            .get(process)
            .ok_or_else(|| FedError::Other(format!("process {process} not deployed")))?;
        match realization {
            Realization::Queue { table } => {
                let doc = input.ok_or_else(|| {
                    FedError::Other(format!("{process} is message-driven but got no message"))
                })?;
                // INSERT INTO P0x_queue VALUES (@msg) — the trigger does
                // the rest (Fig. 9a)
                let t = Instant::now();
                let clob = {
                    let _span = dip_trace::span_cat(
                        dip_trace::Layer::Feddbms,
                        "to_clob",
                        dip_trace::Category::Processing,
                    );
                    crate::xmlfn::to_clob(&doc)
                };
                costs.add(CostCategory::Processing, t.elapsed());
                CURRENT_COSTS.with(|c| c.borrow_mut().push(costs.clone()));
                let _span = dip_trace::span_cat(
                    dip_trace::Layer::Feddbms,
                    "queue_insert_trigger",
                    dip_trace::Category::Management,
                );
                let t = Instant::now();
                let result = self
                    .local
                    .insert_into(table, vec![vec![Value::Int(tid as i64), Value::str(clob)]]);
                // queue-table maintenance is management work
                costs.add(CostCategory::Management, t.elapsed());
                CURRENT_COSTS.with(|c| {
                    c.borrow_mut().pop();
                });
                result?;
                Ok(())
            }
            Realization::Procedure { body } => {
                let body = body.clone();
                drop(realizations);
                let ctx = FedCtx {
                    world: self.world.clone(),
                    local: self.local.clone(),
                    costs: costs.clone(),
                    opts: self.opts,
                    temp_tag: tid,
                };
                let out = {
                    let _span = dip_trace::span_cat(
                        dip_trace::Layer::Feddbms,
                        "procedure_body",
                        dip_trace::Category::Processing,
                    );
                    body(&ctx)
                };
                ctx.cleanup_temps();
                out
            }
        }
    }
}

/// Convert a federated error to the client-facing [`MtmError`], keeping
/// transport faults typed so transience classification survives.
fn to_mtm_error(e: FedError) -> MtmError {
    match e {
        FedError::Transport(t) => MtmError::Transport(t),
        other => MtmError::Custom(other.to_string()),
    }
}

impl dipbench::system::IntegrationSystem for FedDbms {
    fn name(&self) -> &str {
        "federated-dbms"
    }

    fn deploy(&self, _defs: Vec<ProcessDef>) -> MtmResult<()> {
        // The federated realization is hand-written per process type (the
        // paper's reference implementation is, too); definitions are
        // installed by id.
        crate::procs::deploy_all(self).map_err(to_mtm_error)
    }

    fn deliver(&self, event: dipbench::system::Event) -> dipbench::system::Delivery {
        use dipbench::system::Event;
        match event {
            Event::Message {
                process,
                period,
                seq,
                msg,
            } => {
                let payload = dip_mtm::engine::dead_letter_payload(&self.world, &msg);
                let result = self
                    .execute_event(&process, period, seq, Some(msg))
                    .map_err(to_mtm_error);
                dipbench::system::settle(&self.dlq, &process, period, seq, payload, result)
            }
            Event::Timed {
                process,
                period,
                seq,
            } => {
                let result = self
                    .execute_event(&process, period, seq, None)
                    .map_err(to_mtm_error);
                dipbench::system::settle(&self.dlq, &process, period, seq, None, result)
            }
        }
    }

    fn recorder(&self) -> Arc<CostRecorder> {
        self.recorder.clone()
    }

    fn dead_letters(&self) -> Arc<dipbench::system::DeadLetterQueue> {
        self.dlq.clone()
    }
}
