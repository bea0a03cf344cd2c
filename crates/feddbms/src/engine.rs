//! The federated-DBMS engine: queue tables + INSERT triggers for E1,
//! stored procedures with temp-table materialization points for E2.
//!
//! An instance is named by its event alone. A queue row's `tid` is the
//! queue table's row count + 1 — one type's messages arrive one after the
//! other on every dispatch path, so the count is a function of the
//! schedule — and every instance materializes into a [`Database`] of its
//! own, dropped with the instance (a DBMS scopes temp tables to the
//! session the same way), so a temp table is named `tmp_<stem>` whatever
//! ran beside it.
//!
//! Process bodies fail with [`MtmError`], the failure type every engine
//! shares, and the engine delivers through `dipbench::system::deliver`,
//! the path every engine shares: a failure reaches the client with the
//! class and text it had where it arose.

use dip_mtm::cost::{CostCategory, CostRecorder, InstanceCosts};
use dip_mtm::error::{MtmError, MtmResult};
use dip_mtm::process::ProcessDef;
use dip_relstore::prelude::*;
use dip_services::registry::{ExternalWorld, LoadMode, Remote};
use dip_xmlkit::node::Document;
use parking_lot::RwLock;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct FedOptions {
    /// Route fed-local relational plans through the optimizer (the paper's
    /// "well-optimized relational operators"). Off, this is the `fed-unopt`
    /// engine: the naive-interpreter reference that `tests/exec_modes.rs`
    /// compares fed against.
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
pub struct FedCtx {
    pub world: Arc<ExternalWorld>,
    /// This instance's temp tables, in a database of their own that is
    /// dropped with the context.
    pub temps: Database,
    pub costs: InstanceCosts,
    pub opts: FedOptions,
}

impl FedCtx {
    fn new(world: Arc<ExternalWorld>, costs: InstanceCosts, opts: FedOptions) -> FedCtx {
        FedCtx {
            world,
            temps: Database::new("temp"),
            costs,
            opts,
        }
    }

    /// Time a block of local processing work (Cp).
    pub fn processing<T>(&self, f: impl FnOnce() -> MtmResult<T>) -> MtmResult<T> {
        let t = Instant::now();
        let out = f();
        self.costs.add(CostCategory::Processing, t.elapsed());
        out
    }

    /// Time an external interaction (Cc): wall time plus modeled delay.
    pub fn communication<T, E>(&self, f: impl FnOnce() -> Result<Remote<T>, E>) -> MtmResult<T>
    where
        MtmError: From<E>,
    {
        let t = Instant::now();
        let remote = f()?;
        self.costs
            .add(CostCategory::Communication, t.elapsed() + remote.comm);
        Ok(remote.value)
    }

    pub fn remote_query(&self, db: &str, plan: &Plan) -> MtmResult<Relation> {
        self.communication(|| self.world.remote_query(db, plan))
    }

    pub fn remote_load(
        &self,
        db: &str,
        table: &str,
        rows: Vec<SharedRow>,
        mode: LoadMode,
    ) -> MtmResult<usize> {
        self.communication(|| self.world.remote_load(db, table, rows, mode))
    }

    /// Pull (drain) a remote table's change-capture log — the CDC
    /// alternative to `remote_query(scan)`, charged by delta size.
    pub fn remote_pull_changes(&self, db: &str, table: &str) -> MtmResult<Vec<Change>> {
        self.communication(|| self.world.remote_pull_changes(db, table))
    }

    pub fn remote_call(&self, db: &str, proc: &str) -> MtmResult<Option<Relation>> {
        self.communication(|| self.world.remote_call(db, proc, &[]))
    }

    pub fn remote_delete(&self, db: &str, table: &str, pred: &Expr) -> MtmResult<usize> {
        self.communication(|| self.world.remote_delete(db, table, pred))
    }

    pub fn ws_query(&self, service: &str, operation: &str) -> MtmResult<Document> {
        self.communication(|| self.world.ws_query(service, operation))
    }

    pub fn ws_update(&self, service: &str, operation: &str, doc: &Document) -> MtmResult<usize> {
        self.communication(|| self.world.ws_update(service, operation, doc))
    }

    /// Materialize an intermediate result into this instance's temp table
    /// `tmp_<stem>` (a *local materialization point*, Fig. 9b) and return
    /// its name.
    pub fn materialize(&self, stem: &str, rel: Relation) -> MtmResult<String> {
        let name = format!("tmp_{stem}");
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
            self.temps.create_table(table);
            Ok(())
        })?;
        Ok(name)
    }

    /// Execute a plan over this instance's temp tables, charging Cp. The
    /// `optimize_relational: false` ablation runs the plan as written
    /// through the reference interpreter.
    pub fn local_query(&self, plan: &Plan) -> MtmResult<Relation> {
        self.processing(|| {
            Ok(if self.opts.optimize_relational {
                execute(plan, &self.temps)?
            } else {
                execute_oracle(plan, &self.temps)?
            })
        })
    }
}

/// An E1 body (trigger logic) and an E2 body (stored procedure logic).
pub type E1Body = Arc<dyn Fn(&FedCtx, &Document) -> MtmResult<()> + Send + Sync>;
pub type E2Body = Arc<dyn Fn(&FedCtx) -> MtmResult<()> + Send + Sync>;

#[derive(Clone)]
enum Realization {
    Queue { table: Arc<Table> },
    Procedure { body: E2Body },
}

/// The federated-DBMS integration system.
pub struct FedDbms {
    pub world: Arc<ExternalWorld>,
    /// The integration system's own database: the queue tables.
    pub local: Arc<Database>,
    opts: FedOptions,
    recorder: Arc<CostRecorder>,
    realizations: RwLock<HashMap<String, Realization>>,
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
    /// INSERT trigger that runs the body over the `inserted` rows. Deploying
    /// a process again replaces its queue table and its trigger (`CREATE OR
    /// REPLACE`), so one inserted message still fires one body.
    pub fn deploy_queue(&self, process: &str, body: E1Body) -> MtmResult<()> {
        let name = format!("{}_queue", process.to_lowercase());
        let table = self.local.create_table(
            Table::new(name.clone(), Self::queue_schema()).with_primary_key(&["tid"])?,
        );
        let world = self.world.clone();
        let opts = self.opts;
        let process_name = process.to_string();
        self.local.create_trigger(
            format!("{process}_trigger"),
            &name,
            Arc::new(move |_db, inserted| {
                let ctx = FedCtx::new(world.clone(), current_costs()?, opts);
                for row in inserted {
                    // parse the CLOB back into a DOM (processing work)
                    let bad = |why: String| {
                        StoreError::Procedure(format!("{process_name}: bad message: {why}"))
                    };
                    let clob = (row[1].as_str()).ok_or_else(|| bad("msg is not a CLOB".into()))?;
                    let doc = {
                        let t = Instant::now();
                        let parsed = crate::xmlfn::from_clob(clob);
                        ctx.costs.add(CostCategory::Processing, t.elapsed());
                        parsed.map_err(|e| bad(e.to_string()))?
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
    pub fn execute(&self, process: &str, period: u32, input: Option<Document>) -> MtmResult<()> {
        self.execute_event(process, period, 0, input).map(|_| ())
    }

    /// [`FedDbms::execute`] with the event's schedule sequence number,
    /// which anchors the instance's deterministic fault-schedule identity.
    /// Returns the number of transport retries spent on the instance. An
    /// undeployed process fails before the instance starts, as on MTM.
    pub fn execute_event(
        &self,
        process: &str,
        period: u32,
        seq: u32,
        input: Option<Document>,
    ) -> MtmResult<u32> {
        let mgmt_start = Instant::now();
        let realization = self.realizations.read().get(process).cloned();
        let realization = realization
            .ok_or_else(|| MtmError::InvalidProcess(format!("process {process} not deployed")))?;
        self.recorder.run_instance(
            mgmt_start,
            process,
            period,
            seq,
            self.world.network.plan().leak_rollbacks,
            |costs| {
                let _span = dip_trace::span_cat(
                    dip_trace::Layer::Feddbms,
                    "instance",
                    dip_trace::Category::Management,
                );
                self.dispatch(process, realization, input, costs)
            },
        )
    }

    fn dispatch(
        &self,
        process: &str,
        realization: Realization,
        input: Option<Document>,
        costs: &InstanceCosts,
    ) -> MtmResult<()> {
        match realization {
            Realization::Queue { table } => {
                let doc = input.ok_or_else(|| {
                    MtmError::InvalidProcess(format!(
                        "{process} is message-driven but got no message"
                    ))
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
                // the next tid of a series that never runs two at once
                let tid = Value::Int(table.row_count() as i64 + 1);
                let result = self
                    .local
                    .insert_into(&table.name, vec![[tid, Value::str(clob)].into()]);
                // queue-table maintenance is management work
                costs.add(CostCategory::Management, t.elapsed());
                CURRENT_COSTS.with(|c| {
                    c.borrow_mut().pop();
                });
                result?;
                Ok(())
            }
            Realization::Procedure { body } => {
                let ctx = FedCtx::new(self.world.clone(), costs.clone(), self.opts);
                // `_span` closes before `ctx` drops the temp tables: freeing
                // them is not the body's work
                let _span = dip_trace::span_cat(
                    dip_trace::Layer::Feddbms,
                    "procedure_body",
                    dip_trace::Category::Processing,
                );
                body(&ctx)
            }
        }
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
        crate::procs::deploy_all(self)
    }

    fn deliver(&self, event: dipbench::system::Event) -> dipbench::system::Delivery {
        dipbench::system::deliver(
            &self.world,
            &self.dlq,
            event,
            |process, period, seq, msg| self.execute_event(process, period, seq, msg),
        )
    }

    fn recorder(&self) -> Arc<CostRecorder> {
        self.recorder.clone()
    }

    fn dead_letters(&self) -> Arc<dipbench::system::DeadLetterQueue> {
        self.dlq.clone()
    }
}
