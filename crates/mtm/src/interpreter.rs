//! The instrumented MTM interpreter.
//!
//! Executes a [`ProcessDef`] step by step, timing every operator and
//! charging its duration to the cost category [`Step::kind`] states for
//! its kind:
//!
//! * external interactions (web-service and database steps) are
//!   **communication** costs — the paper defines `Cc` as "time waiting for
//!   external systems (network delay and external processing costs)", so
//!   both the modeled network delay and the remote execution time count;
//! * data-flow and control-flow operators are **processing** costs, and so
//!   is the part of a step that builds a plan or decodes a message before
//!   it goes out;
//! * instance setup, FORK thread management and subprocess calls are
//!   **management** costs.

use crate::context::VarStore;
use crate::cost::{run_branches, CostCategory, InstanceCosts};
use crate::error::{MtmError, MtmResult};
use crate::message::MtmMessage;
use crate::process::{AssignValue, Nested, ProcessDef, Step, SwitchCase};
use dip_relstore::prelude::*;
use dip_services::registry::ExternalWorld;
use dip_services::resultset;
use dip_xmlkit::node::Document;
use std::collections::HashSet;
use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

/// What a step that waited for no external system adds to its own time.
const LOCAL: Duration = Duration::ZERO;

/// Shared execution services for one instance.
pub struct Interpreter<'a> {
    pub world: &'a ExternalWorld,
    pub costs: &'a InstanceCosts,
}

impl<'a> Interpreter<'a> {
    pub fn new(world: &'a ExternalWorld, costs: &'a InstanceCosts) -> Interpreter<'a> {
        Interpreter { world, costs }
    }

    /// Execute a whole process instance. `input` is the initiating message
    /// for E1 processes. Which steps read which variable last is derived
    /// here, per call; [`crate::MtmEngine`] derives it once per deployed
    /// definition.
    pub fn run(&self, def: &ProcessDef, input: Option<Document>) -> MtmResult<VarStore> {
        self.run_deployed(def, &LastReaders::of(def), input)
    }

    /// [`Interpreter::run`] with `def`'s [`LastReaders`].
    pub(crate) fn run_deployed(
        &self,
        def: &ProcessDef,
        last: &LastReaders,
        input: Option<Document>,
    ) -> MtmResult<VarStore> {
        let setup = Instant::now();
        let mut vars = VarStore::new();
        let mut pending_input = input;
        // Instance setup counts as management cost.
        self.costs.add(CostCategory::Management, setup.elapsed());
        self.run_steps(def, last, &def.steps, &mut vars, &mut pending_input)?;
        Ok(vars)
    }

    fn run_steps(
        &self,
        def: &ProcessDef,
        last: &LastReaders,
        steps: &[Step],
        vars: &mut VarStore,
        pending_input: &mut Option<Document>,
    ) -> MtmResult<()> {
        for step in steps {
            self.run_step(def, last, step, vars, pending_input)?;
        }
        Ok(())
    }

    fn get<'v>(vars: &'v VarStore, name: &str) -> MtmResult<&'v MtmMessage> {
        vars.get(name)
            .ok_or_else(|| MtmError::UnboundVariable(name.to_string()))
    }

    /// The messages bound to a step's declared reads, in that order.
    fn gather<'v>(vars: &'v VarStore, reads: &[String]) -> MtmResult<Vec<&'v MtmMessage>> {
        reads.iter().map(|name| Self::get(vars, name)).collect()
    }

    /// The relation bound to `name`, unbound from the store when `step`
    /// reads it last and no other binding shares it; `None` leaves the
    /// store as it was (a FORK branch never unbinds what it inherited: the
    /// parent's binding shares it).
    fn take_last(
        vars: &mut VarStore,
        last: &LastReaders,
        step: &Step,
        name: &str,
    ) -> Option<Arc<Relation>> {
        match vars.get(name)? {
            MtmMessage::Rel(rel) if Arc::strong_count(rel) == 1 && last.takes(step, name) => {}
            _ => return None,
        }
        match vars.take(name)? {
            MtmMessage::Rel(rel) => Some(rel),
            _ => None,
        }
    }

    /// The `Values` leaf over the relation a step reads as `name`: the one
    /// [`Self::take_last`] took, freed with the step's plan, or the
    /// binding's, shared.
    fn values(vars: &mut VarStore, last: &LastReaders, step: &Step, name: &str) -> MtmResult<Plan> {
        let rel = match Self::take_last(vars, last, step, name) {
            Some(rel) => rel,
            None => Self::get(vars, name)?.shared_rel()?.clone(),
        };
        Ok(Plan::Values(rel))
    }

    fn run_step(
        &self,
        def: &ProcessDef,
        last: &LastReaders,
        step: &Step,
        vars: &mut VarStore,
        pending_input: &mut Option<Document>,
    ) -> MtmResult<()> {
        // the span and the ledger name the step by the same table row
        let (op, category) = step.kind();
        let _span = dip_trace::span_cat(dip_trace::Layer::Mtm, op, category);
        let t = Instant::now();
        // the step's own time so far, plus the modeled delay of the
        // external system it waited for
        let charge = |comm: Duration| self.costs.add(category, t.elapsed() + comm);
        match step {
            Step::Receive { var } => {
                let doc = pending_input.take().ok_or_else(|| {
                    MtmError::InvalidProcess(format!(
                        "{}: RECEIVE without an initiating message",
                        def.id
                    ))
                })?;
                vars.set(var.clone(), doc);
                charge(LOCAL);
            }
            Step::Assign { var, value } => {
                let v = match value {
                    AssignValue::Const(m) => m.clone(),
                    AssignValue::CopyVar(src) => Self::get(vars, src)?.clone(),
                };
                vars.set(var.clone(), v);
                charge(LOCAL);
            }
            Step::Translate { stx, input, output } => {
                let out = stx.transform(Self::get(vars, input)?.as_xml()?)?;
                vars.set(output.clone(), out);
                charge(LOCAL);
            }
            Step::Validate {
                xsd,
                input,
                on_valid,
                on_invalid,
            } => {
                let valid = xsd.validate(Self::get(vars, input)?.as_xml()?).is_empty();
                charge(LOCAL);
                let branch = if valid { on_valid } else { on_invalid };
                self.run_steps(def, last, branch, vars, pending_input)?;
            }
            Step::Switch {
                input,
                path,
                cases,
                default,
            } => {
                let value = self.extract_switch_value(vars, input, path)?;
                let row = vec![value.clone()];
                let mut chosen: Option<&SwitchCase> = None;
                for c in cases {
                    if c.when.matches(&row)? {
                        chosen = Some(c);
                        break;
                    }
                }
                charge(LOCAL);
                match chosen {
                    Some(c) => self.run_steps(def, last, &c.steps, vars, pending_input)?,
                    None if !default.is_empty() => {
                        self.run_steps(def, last, default, vars, pending_input)?
                    }
                    None => {
                        return Err(MtmError::NoCaseMatched {
                            process: def.id.clone(),
                            value: value.render(),
                        })
                    }
                }
            }
            Step::WsQuery {
                service,
                operation,
                output,
            } => {
                let remote = self.world.ws_query(service, operation)?;
                vars.set(output.clone(), remote.value);
                charge(remote.comm);
            }
            Step::WsUpdate {
                service,
                operation,
                input,
            } => {
                let doc = Self::get(vars, input)?.as_xml()?;
                charge(self.world.ws_update(service, operation, doc)?.comm);
            }
            Step::DbQuery { db, plan, output } => {
                let remote = self.world.remote_query(db, plan)?;
                vars.set(output.clone(), remote.value);
                charge(remote.comm);
            }
            Step::DbQueryDyn {
                db,
                reads,
                plan,
                plan_name,
                output,
            } => {
                // building the plan from variables is processing work
                let built = plan(&Self::gather(vars, reads)?)
                    .map_err(|m| MtmError::Custom(format!("plan builder {plan_name}: {m}")))?;
                self.costs.add(CostCategory::Processing, t.elapsed());
                let t = Instant::now();
                let remote = self.world.remote_query(db, &built)?;
                vars.set(output.clone(), remote.value);
                self.costs.add(category, t.elapsed() + remote.comm);
            }
            Step::DbInsert {
                db,
                table,
                input,
                mode,
            } => {
                // the target table owns what it loads: the variable's rows
                // when this step reads it last and nothing else shares
                // them, a copy otherwise
                let rows = if last.takes(step, input) {
                    let unbound = || MtmError::UnboundVariable(input.clone());
                    vars.take(input).ok_or_else(unbound)?.into_rows()?
                } else {
                    Self::get(vars, input)?.as_rel()?.rows.clone()
                };
                charge(self.world.remote_load(db, table, rows, *mode)?.comm);
            }
            Step::DbLoadXml {
                db,
                tables,
                decoder,
                decoder_name,
                input,
                mode,
            } => {
                // decoding is processing; the inserts are communication
                let failed = |m: String| MtmError::Custom(format!("decoder {decoder_name}: {m}"));
                let batches = decoder(Self::get(vars, input)?.as_xml()?).map_err(failed)?;
                // the scheduler ordered this instance by the declared tables
                if let Some(b) = batches.iter().find(|b| !tables.contains(&b.table)) {
                    return Err(failed(format!("undeclared table {}", b.table)));
                }
                self.costs.add(CostCategory::Processing, t.elapsed());
                let t = Instant::now();
                let mut comm = Duration::ZERO;
                for b in batches {
                    comm += self.world.remote_load(db, &b.table, b.rows, *mode)?.comm;
                }
                self.costs.add(category, t.elapsed() + comm);
            }
            Step::DbCall {
                db,
                proc,
                args,
                output,
            } => {
                let remote = self.world.remote_call(db, proc, args)?;
                if let (Some(out), Some(rel)) = (output, remote.value) {
                    vars.set(out.clone(), rel);
                }
                charge(remote.comm);
            }
            Step::DbDelete {
                db,
                table,
                predicate,
            } => charge(self.world.remote_delete(db, table, predicate)?.comm),
            Step::Selection {
                input,
                predicate,
                output,
            } => {
                let plan = Self::values(vars, last, step, input)?.filter(predicate.clone());
                vars.set(output.clone(), run_values(plan)?);
                charge(LOCAL);
            }
            Step::Projection {
                input,
                exprs,
                output,
            } => {
                let plan = Self::values(vars, last, step, input)?.project(exprs.clone());
                vars.set(output.clone(), run_values(plan)?);
                charge(LOCAL);
            }
            Step::UnionDistinct {
                inputs,
                key,
                output,
            } => {
                let inputs = (inputs.iter())
                    .map(|name| Self::values(vars, last, step, name))
                    .collect::<MtmResult<_>>()?;
                let key = key.clone();
                vars.set(
                    output.clone(),
                    run_values(Plan::UnionDistinct { inputs, key })?,
                );
                charge(LOCAL);
            }
            Step::Join {
                left,
                right,
                left_keys,
                right_keys,
                output,
            } => {
                let plan = Self::values(vars, last, step, left)?.hash_join(
                    Self::values(vars, last, step, right)?,
                    left_keys.clone(),
                    right_keys.clone(),
                );
                vars.set(output.clone(), run_values(plan)?);
                charge(LOCAL);
            }
            Step::XmlToRel {
                input,
                schema,
                output,
            } => {
                let rel = resultset::decode(Self::get(vars, input)?.as_xml()?, schema)?;
                vars.set(output.clone(), rel);
                charge(LOCAL);
            }
            Step::RelToXml {
                input,
                source,
                table,
                output,
            } => {
                let doc = resultset::encode(source, table, Self::get(vars, input)?.as_rel()?);
                vars.set(output.clone(), doc);
                charge(LOCAL);
            }
            Step::Fork { branches } => {
                // Each branch runs on its own thread over a fork of the
                // variable store (payloads shared), inside the instance's
                // scopes (`run_branches`); what a branch bound is merged
                // back in branch order.
                let parent: &VarStore = vars;
                let forked = run_branches(
                    branches.len(),
                    || MtmError::Branch("branch panicked".into()),
                    |idx| {
                        let mut branch_vars = parent.fork();
                        self.run_steps(def, last, &branches[idx], &mut branch_vars, &mut None)
                            .map(|()| branch_vars)
                    },
                );
                charge(LOCAL);
                for branch_vars in forked? {
                    vars.merge(branch_vars);
                }
            }
            Step::Subprocess {
                process,
                input,
                output,
            } => {
                let mut sub_vars = VarStore::new();
                if let Some(in_var) = input {
                    let v = match Self::take_last(vars, last, step, in_var) {
                        Some(rel) => MtmMessage::Rel(rel),
                        None => Self::get(vars, in_var)?.clone(),
                    };
                    sub_vars.set("input", v);
                }
                charge(LOCAL);
                let mut no_input = None;
                self.run_steps(process, last, &process.steps, &mut sub_vars, &mut no_input)?;
                if let Some(out_var) = output {
                    let v = sub_vars.take("output").ok_or_else(|| {
                        MtmError::InvalidProcess(format!(
                            "subprocess {} did not bind 'output'",
                            process.id
                        ))
                    })?;
                    vars.set(out_var.clone(), v);
                }
            }
            Step::Custom {
                name,
                reads,
                binds,
                f,
            } => {
                let failed = |m: String| MtmError::Custom(format!("{name}: {m}"));
                let outputs = f(&Self::gather(vars, reads)?).map_err(failed)?;
                if outputs.len() != binds.len() {
                    let (got, want) = (outputs.len(), binds.len());
                    return Err(failed(format!("returned {got} outputs for {want} binds")));
                }
                for (var, value) in binds.iter().zip(outputs) {
                    vars.set(var.clone(), value);
                }
                charge(LOCAL);
            }
        }
        Ok(())
    }

    /// Extract the SWITCH routing value from a variable.
    fn extract_switch_value(&self, vars: &VarStore, input: &str, path: &str) -> MtmResult<Value> {
        let msg = Self::get(vars, input)?;
        match msg {
            MtmMessage::Scalar(v) => Ok(v.clone()),
            MtmMessage::Xml(doc) => {
                let text = dip_xmlkit::path::value(&doc.root, path)?
                    .ok_or_else(|| MtmError::Custom(format!("switch path {path} not found")))?;
                // prefer numeric interpretation, fall back to string
                Ok(match text.trim().parse::<i64>() {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::str(text),
                })
            }
            MtmMessage::Rel(_) => Err(MtmError::Custom(
                "SWITCH input must be XML or scalar".into(),
            )),
        }
    }
}

/// The reads of a definition that are their variable's last: `(step,
/// variable)` pairs such that no later step — in the step's own list, in a
/// list nested in a later step, or after the list ends — and none of the
/// step's own nested lists reads the variable, and the step names it once
/// (`UNION DISTINCT [a, a]` reads `a` twice and takes nothing). Such a
/// step may take the variable out of the store ([`Interpreter::take_last`];
/// a `DbInsert` takes it whether or not it is shared). Per step list, what
/// is read after it ends is what its enclosing list reads after the
/// enclosing step — for SWITCH / VALIDATE alternatives and FORK branches
/// alike — and `output` for a subprocess body. Steps are named by their
/// address inside the definition, which is never modified once deployed.
pub(crate) struct LastReaders(Vec<(usize, String)>);

impl LastReaders {
    pub(crate) fn of(def: &ProcessDef) -> LastReaders {
        let mut found = Vec::new();
        read_later(&def.steps, &HashSet::new(), &mut found);
        found.sort_unstable();
        // a subprocess called twice is walked twice
        found.dedup();
        LastReaders(found)
    }

    fn takes(&self, step: &Step, var: &str) -> bool {
        let at = address(step);
        (self.0)
            .binary_search_by(|(a, v)| (*a, v.as_str()).cmp(&(at, var)))
            .is_ok()
    }
}

fn address(step: &Step) -> usize {
    std::ptr::from_ref(step) as usize
}

/// Walk `steps` backwards from `after`, the variables read once the list
/// has ended, collecting into `found` the reads that are their variable's
/// last; returns `after` plus everything the list reads.
fn read_later<'a>(
    steps: &'a [Step],
    after: &HashSet<&'a str>,
    found: &mut Vec<(usize, String)>,
) -> HashSet<&'a str> {
    let mut read = after.clone();
    for step in steps.iter().rev() {
        let facts = step.facts();
        match facts.nested {
            Some(Nested::Alternatives(lists) | Nested::Parallel(lists)) => {
                let after_step = read.clone();
                for (_, list) in lists {
                    read.extend(read_later(list, &after_step, found));
                }
            }
            Some(Nested::Call(process)) => {
                read_later(&process.steps, &HashSet::from(["output"]), found);
            }
            None => {}
        }
        // a step reads before its nested lists run
        for &var in &facts.reads {
            let once = facts.reads.iter().filter(|&&v| v == var).count() == 1;
            if once && !read.contains(var) {
                found.push((address(step), var.to_string()));
            }
        }
        read.extend(facts.reads);
    }
    read
}

/// Run a relational step's plan — one operator over `Values` leaves, the
/// step's inputs — on the batch executor every engine's queries run on.
/// It reads no table, so every step runs it against one empty database; a
/// taken input is freed with the plan, inside the step.
fn run_values(plan: Plan) -> MtmResult<Relation> {
    static NO_TABLES: LazyLock<Database> = LazyLock::new(|| Database::new("values"));
    Ok(plan.run(&NO_TABLES)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{EventType, LoadMode, TableRows};
    use dip_netsim::{LatencyModel, LinkSpec, Network};
    use dip_services::webservice::DbService;
    use dip_trace::{Category, Layer};
    use dip_xmlkit::node::Element;
    use dip_xmlkit::stx::Stylesheet;
    use dip_xmlkit::xsd::{XsdElement, XsdSchema};
    use std::sync::Arc;

    fn kv_schema() -> SchemaRef {
        RelSchema::of(&[("k", SqlType::Int), ("v", SqlType::Str)]).shared()
    }

    /// A database `db` (tables `t`, `sink`, procedure `sp`) and a web
    /// service `ws` (operation `items`), 10 us away.
    fn world() -> ExternalWorld {
        let link = LinkSpec::new(LatencyModel::Fixed { micros: 10 }, 10_000_000);
        let net = Arc::new(Network::new(link, 1));
        let mut world = ExternalWorld::new(net, "is");
        let (db, ws_db) = (Arc::new(Database::new("db")), Arc::new(Database::new("ws")));
        for (db, table) in [(&db, "t"), (&db, "sink"), (&ws_db, "items")] {
            let table = Table::new(table, kv_schema()).with_primary_key(&["k"]);
            db.create_table(table.unwrap());
        }
        db.create_procedure("sp", Arc::new(|_, _| Ok(None)));
        world.add_database("db", "es.db", db);
        world.add_service("es.ws", Arc::new(DbService::new("ws", ws_db)));
        world
    }

    /// One step of every kind over the variables `xml` (a result set of
    /// `kv_schema`), `rel` and `n`; nested lists are empty, so the step's
    /// own charge is all there is.
    fn one_of_every_kind() -> Vec<Step> {
        let v = |name: &str| name.to_string();
        let empty = Arc::new(ProcessDef::new("E", "e", 'D', EventType::Timed, vec![]));
        let row = || vec![vec![Value::Int(7), Value::str("seven")]];
        vec![
            Step::Receive { var: v("m") },
            Step::Assign {
                var: v("o"),
                value: AssignValue::CopyVar(v("n")),
            },
            Step::Translate {
                stx: Arc::new(Stylesheet::identity("id")),
                input: v("xml"),
                output: v("o"),
            },
            Step::Validate {
                xsd: Arc::new(XsdSchema::new("s", XsdElement::sequence("m", vec![]))),
                input: v("xml"),
                on_valid: vec![],
                on_invalid: vec![],
            },
            Step::Switch {
                input: v("n"),
                path: String::new(),
                cases: vec![SwitchCase {
                    when: Expr::lit(true),
                    steps: vec![],
                }],
                default: vec![],
            },
            Step::WsQuery {
                service: v("ws"),
                operation: v("items"),
                output: v("o"),
            },
            Step::WsUpdate {
                service: v("ws"),
                operation: v("items"),
                input: v("xml"),
            },
            Step::DbQuery {
                db: v("db"),
                plan: Plan::scan("t"),
                output: v("o"),
            },
            Step::DbQueryDyn {
                db: v("db"),
                reads: vec![v("n")],
                plan: Arc::new(|_| Ok(Plan::scan("t"))),
                plan_name: v("scan"),
                output: v("o"),
            },
            Step::DbInsert {
                db: v("db"),
                table: v("sink"),
                input: v("rel"),
                mode: LoadMode::InsertIgnore,
            },
            Step::DbLoadXml {
                db: v("db"),
                tables: vec![v("sink")],
                decoder: Arc::new(move |_| {
                    let (table, rows) = ("sink".into(), row());
                    Ok(vec![TableRows { table, rows }])
                }),
                decoder_name: v("const"),
                input: v("xml"),
                mode: LoadMode::InsertIgnore,
            },
            Step::DbCall {
                db: v("db"),
                proc: v("sp"),
                args: vec![],
                output: None,
            },
            Step::DbDelete {
                db: v("db"),
                table: v("sink"),
                predicate: Expr::lit(true),
            },
            Step::Selection {
                input: v("rel"),
                predicate: Expr::lit(true),
                output: v("o"),
            },
            Step::Projection {
                input: v("rel"),
                exprs: vec![ProjExpr::new(Expr::col(0), "k", SqlType::Int)],
                output: v("o"),
            },
            Step::UnionDistinct {
                inputs: vec![v("rel"), v("rel")],
                key: Some(vec![0]),
                output: v("o"),
            },
            Step::Join {
                left: v("rel"),
                right: v("rel"),
                left_keys: vec![0],
                right_keys: vec![0],
                output: v("o"),
            },
            Step::XmlToRel {
                input: v("xml"),
                schema: kv_schema(),
                output: v("o"),
            },
            Step::RelToXml {
                input: v("rel"),
                source: v("db"),
                table: v("t"),
                output: v("o"),
            },
            Step::Fork {
                branches: vec![vec![], vec![]],
            },
            Step::Subprocess {
                process: empty,
                input: Some(v("rel")),
                output: None,
            },
            Step::Custom {
                name: v("noop"),
                reads: vec![v("rel")],
                binds: vec![v("o")],
                f: Arc::new(|inputs| Ok(vec![inputs[0].clone()])),
            },
        ]
    }

    /// The span of a step and the bucket of the instance's ledger its time
    /// goes to name the same category, the one `Step::kind` states. They
    /// used to be two hand-written lists, and until PR 19 `receive` and
    /// `assign` spans said `management` while their time went to `Cp`.
    #[test]
    fn every_step_kind_charges_the_category_its_span_names() {
        let world = world();
        let def = ProcessDef::new("KINDS", "k", 'B', EventType::Message, vec![]);
        let rel = Relation::new(kv_schema(), vec![vec![Value::Int(5), Value::str("five")]]);
        let steps = one_of_every_kind();
        let last = LastReaders::of(&def);
        let _tracing = crate::TRACE_TESTS.lock().unwrap();
        dip_trace::enable();
        let mut charged = Vec::new();
        for (n, step) in steps.iter().enumerate() {
            let costs = InstanceCosts::new();
            let mut vars = VarStore::new();
            vars.set("xml", resultset::encode("ws", "items", &rel));
            vars.set("rel", rel.clone());
            vars.set("n", Value::Int(1));
            let mut message = Some(Document::new(Element::new("m")));
            let _scope = dip_trace::instance_scope(&def.id, 0, n as u64);
            Interpreter::new(&world, &costs)
                .run_step(&def, &last, step, &mut vars, &mut message)
                .unwrap_or_else(|e| panic!("{step:?}: {e}"));
            charged.push(costs.snapshot());
        }
        dip_trace::disable();
        let spans = dip_trace::drain();
        let mut labels = std::collections::BTreeSet::new();
        for (n, (step, (comm, mgmt, proc))) in steps.iter().zip(charged).enumerate() {
            let (label, category) = step.kind();
            labels.insert(label);
            let mine = |s: &&dip_trace::SpanRecord| {
                (s.layer, s.process.as_deref(), s.instance)
                    == (Layer::Mtm, Some("KINDS"), Some(n as u64))
            };
            let mine: Vec<_> = spans.iter().filter(mine).collect();
            assert_eq!(mine.len(), 1, "{label}: {mine:?}");
            assert_eq!((mine[0].op, mine[0].category), (label, Some(category)));
            // the builder / decoder part of the two split steps is Cp
            let split = matches!(step, Step::DbQueryDyn { .. } | Step::DbLoadXml { .. });
            for (bucket, grew) in [
                (Category::Communication, comm),
                (Category::Management, mgmt),
                (Category::Processing, proc),
            ] {
                if bucket == category {
                    // two 10 us hops; a local step may round down to 0 us
                    let floor = if category == Category::Communication {
                        20
                    } else {
                        0
                    };
                    assert!(grew.as_micros() >= floor, "{label}: {grew:?}");
                } else if !(split && bucket == Category::Processing) {
                    assert!(grew.is_zero(), "{label} charged {bucket:?}");
                }
            }
        }
        assert_eq!(labels.len(), 22, "one row per step kind: {labels:?}");
    }
}
