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
//!
//! Deployment derives a `Deployment` table from a definition once: which
//! step reads which variable last (that step may move the variable out of
//! the store instead of copying it), and which steps are *fused* with the
//! step right after them. A fused step's output is read by that next step
//! only, once, as its last read, so the fused step binds nothing and hands
//! its work on instead (a `Handoff`):
//!
//! * a `WS_QUERY` hands its response as rows (a `ResultSet`), and the
//!   `TRANSLATE` after it runs its stylesheet from the rows: no source
//!   tree is built. The scan and the wire size stay the `WS_QUERY`'s `Cc`;
//!   rendering the values to text is the reader's `Cp`, where a real
//!   client would parse the response;
//! * a `TRANSLATE` hands its stylesheet and its input, and the
//!   `XML_TO_REL` or `DB_LOAD_XML` after it runs the translation straight
//!   into its row-building handler (`RowSink`, the load's decoder), so the
//!   translated tree is never built — behind a fused `WS_QUERY`, P09's
//!   chain runs rows → stylesheet → rows, and an order message (P08, P10)
//!   runs message → stylesheet → staging rows. The translation's time is
//!   the reader's `Cp` (the decode part of a `DB_LOAD_XML`);
//! * a relational step hands its plan, not yet run, and the relational
//!   step after it reads that plan where it would read a `Values` leaf, so
//!   the pair runs as one plan.
//!
//! Every step still opens its own span and charges its own time; a fused
//! step's is what building its handoff costs.
//!
//! A step that consumes what it reads moves the variables it reads last
//! out of the store: a `DB_INSERT` its relation's rows, a `CUSTOM` the
//! messages it is handed (the rest it is handed as shared clones), so a
//! custom edit of a document nothing else reads — P04's enrichment —
//! happens in place.
//!
//! Every relational step runs one way: a plan over `Values` leaves that
//! hold its inputs' relations, taken or shared. A `SELECTION` binds the
//! rows that pass as they are, the input's own shared rows, so one over
//! a relation another binding still reads (P14's three FORK branches all
//! select from `sales`) copies no value either.

use crate::context::VarStore;
use crate::cost::{run_branches, CostCategory, InstanceCosts};
use crate::error::{MtmError, MtmResult};
use crate::message::MtmMessage;
use crate::process::{AssignValue, Nested, ProcessDef, Step, SwitchCase};
use dip_relstore::prelude::*;
use dip_services::registry::ExternalWorld;
use dip_services::resultset::{self, ResultSet, RowSink};
use dip_xmlkit::node::Document;
use dip_xmlkit::sax::{self, EventSource, Sink};
use dip_xmlkit::stx::Stylesheet;
use dip_xmlkit::XmlResult;
use std::collections::HashSet;
use std::sync::LazyLock;
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
    /// for E1 processes. The definition's `Deployment` table is derived
    /// here, per call; [`crate::MtmEngine`] derives it once per deployed
    /// definition.
    pub fn run(&self, def: &ProcessDef, input: Option<Document>) -> MtmResult<VarStore> {
        self.run_deployed(def, &Deployment::of(def), input)
    }

    /// [`Interpreter::run`] with `def`'s [`Deployment`] table.
    pub(crate) fn run_deployed(
        &self,
        def: &ProcessDef,
        last: &Deployment,
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
        last: &Deployment,
        steps: &[Step],
        vars: &mut VarStore,
        pending_input: &mut Option<Document>,
    ) -> MtmResult<()> {
        let mut handoff = None;
        for step in steps {
            handoff = self.run_step(def, last, step, vars, pending_input, handoff)?;
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

    /// The message bound to `name`: moved out of the store when `step`
    /// reads it last, shared with its binding otherwise.
    fn owned(
        vars: &mut VarStore,
        last: &Deployment,
        step: &Step,
        name: &str,
    ) -> MtmResult<MtmMessage> {
        let owned = if last.takes(step, name) {
            vars.take(name)
        } else {
            vars.get(name).cloned()
        };
        owned.ok_or_else(|| MtmError::UnboundVariable(name.to_string()))
    }

    /// The message bound to `name`, unbound from the store when `step`
    /// reads it last and no other binding shares it; `None` leaves the
    /// store as it was (a FORK branch never unbinds what it inherited: the
    /// parent's binding shares it).
    fn take_last(
        vars: &mut VarStore,
        last: &Deployment,
        step: &Step,
        name: &str,
    ) -> Option<MtmMessage> {
        let unshared = vars.get(name).is_some_and(MtmMessage::unshared);
        (unshared && last.takes(step, name))
            .then(|| vars.take(name))
            .flatten()
    }

    /// The plan a relational step reads as `name`: the plan the step
    /// before it handed on as `name`, or a `Values` leaf over the rows
    /// bound to it — the ones [`Self::take_last`] took, freed with the
    /// step's plan, or the binding's, shared.
    fn values(
        vars: &mut VarStore,
        last: &Deployment,
        step: &Step,
        name: &str,
        handoff: &mut Option<Handoff>,
    ) -> MtmResult<Plan> {
        if let Some(Handoff {
            work: Work::Plan(plan),
            ..
        }) = handoff.take_if(|h| h.var == name)
        {
            return Ok(plan);
        }
        let rel = match Self::take_last(vars, last, step, name) {
            Some(taken) => taken,
            None => Self::get(vars, name)?.clone(),
        };
        Ok(Plan::Values(rel.into_rel()?))
    }

    /// Finish a relational step: hand its plan to the next step when the
    /// two are fused, otherwise run it and bind the result to `output`.
    fn bind_plan<'s>(
        vars: &mut VarStore,
        last: &Deployment,
        step: &Step,
        plan: Plan,
        output: &'s str,
    ) -> MtmResult<Option<Handoff<'s>>> {
        if last.fuses(step) {
            let work = Work::Plan(plan);
            return Ok(Some(Handoff { var: output, work }));
        }
        vars.set(output, run_values(plan)?);
        Ok(None)
    }

    /// Run one step; `handoff` is what the step before it handed on, and
    /// the result what this one hands to the step after it.
    fn run_step<'s>(
        &self,
        def: &ProcessDef,
        last: &Deployment,
        step: &'s Step,
        vars: &mut VarStore,
        pending_input: &mut Option<Document>,
        mut handoff: Option<Handoff<'s>>,
    ) -> MtmResult<Option<Handoff<'s>>> {
        // the span and the ledger name the step by the same table row
        let (op, category) = step.kind();
        let _span = dip_trace::span_cat(dip_trace::Layer::Mtm, op, category);
        let t = Instant::now();
        // the step's own time so far, plus the modeled delay of the
        // external system it waited for
        let charge = |comm: Duration| self.costs.add(category, t.elapsed() + comm);
        let mut next = None;
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
                let input = match handoff.take_if(|h| h.var == input) {
                    Some(Handoff {
                        work: Work::Rows(rows),
                        ..
                    }) => Xml::Rows(rows),
                    _ => {
                        Self::get(vars, input)?.as_xml()?;
                        Xml::Var(input)
                    }
                };
                if last.fuses(step) {
                    let work = Work::Translate { stx, input };
                    next = Some(Handoff { var: output, work });
                } else {
                    let doc = stx.transform(&input.source(vars)?)?;
                    vars.set(output.clone(), doc);
                }
                charge(LOCAL);
            }
            Step::Validate {
                xsd,
                input,
                on_valid,
                on_invalid,
            } => {
                let valid = xsd.is_valid(Self::get(vars, input)?.as_xml()?);
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
                let remote = self.world.ws_result_set(service, operation)?;
                if last.fuses(step) {
                    let work = Work::Rows(remote.value);
                    next = Some(Handoff { var: output, work });
                } else {
                    vars.set(output.clone(), remote.value.to_document());
                }
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
                let rows = Self::owned(vars, last, step, input)?.into_rows()?;
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
                let mut sink = decoder();
                match handoff.take_if(|h| h.var == input) {
                    // the fused TRANSLATE's stylesheet runs into the decoder
                    Some(Handoff {
                        work: Work::Translate { stx, input },
                        ..
                    }) => {
                        stx.transform_into(&input.source(vars)?, &mut *sink)?;
                    }
                    _ => {
                        sax::walk(Self::get(vars, input)?.as_xml()?, &mut *sink)?;
                    }
                }
                let batches = sink.finish()?.map_err(failed)?;
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
                let input = Self::values(vars, last, step, input, &mut handoff)?;
                let plan = input.filter(predicate.clone());
                next = Self::bind_plan(vars, last, step, plan, output)?;
                charge(LOCAL);
            }
            Step::Projection {
                input,
                exprs,
                output,
            } => {
                let input = Self::values(vars, last, step, input, &mut handoff)?;
                let plan = input.project(exprs.clone());
                next = Self::bind_plan(vars, last, step, plan, output)?;
                charge(LOCAL);
            }
            Step::UnionDistinct {
                inputs,
                key,
                output,
            } => {
                let inputs = (inputs.iter())
                    .map(|name| Self::values(vars, last, step, name, &mut handoff))
                    .collect::<MtmResult<_>>()?;
                let key = key.clone();
                let plan = Plan::UnionDistinct { inputs, key };
                next = Self::bind_plan(vars, last, step, plan, output)?;
                charge(LOCAL);
            }
            Step::Join {
                left,
                right,
                left_keys,
                right_keys,
                output,
            } => {
                let plan = Self::values(vars, last, step, left, &mut None)?.hash_join(
                    Self::values(vars, last, step, right, &mut None)?,
                    left_keys.clone(),
                    right_keys.clone(),
                );
                next = Self::bind_plan(vars, last, step, plan, output)?;
                charge(LOCAL);
            }
            Step::XmlToRel {
                input,
                schema,
                output,
            } => {
                let rel = match handoff.take_if(|h| h.var == input) {
                    // the fused TRANSLATE's stylesheet runs into the rows
                    Some(Handoff {
                        work: Work::Translate { stx, input },
                        ..
                    }) => {
                        let rows = RowSink::new(schema);
                        stx.transform_into(&input.source(vars)?, rows)?.finish()??
                    }
                    _ => resultset::decode(Self::get(vars, input)?.as_xml()?, schema)?,
                };
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
                let forked = run_branches(branches.len(), |idx| {
                    let mut branch_vars = parent.fork();
                    self.run_steps(def, last, &branches[idx], &mut branch_vars, &mut None)
                        .map(|()| branch_vars)
                });
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
                        Some(taken) => taken,
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
                let inputs = (reads.iter())
                    .map(|read| Self::owned(vars, last, step, read))
                    .collect::<MtmResult<_>>()?;
                let outputs = f(inputs).map_err(failed)?;
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
        Ok(next)
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

/// What a fused step hands to the step right after it in place of binding
/// its output variable `var`.
struct Handoff<'s> {
    var: &'s str,
    work: Work<'s>,
}

enum Work<'s> {
    /// A `WS_QUERY`'s response, not yet XML.
    Rows(ResultSet),
    /// A `TRANSLATE`: its stylesheet and the XML it reads.
    Translate { stx: &'s Stylesheet, input: Xml<'s> },
    /// A relational step's plan, not yet run.
    Plan(Plan),
}

/// The XML a `TRANSLATE` reads: the response the fused `WS_QUERY` before
/// it handed on, or the document bound to a variable (checked bound when
/// the `TRANSLATE` ran).
enum Xml<'s> {
    Rows(ResultSet),
    Var(&'s str),
}

impl Xml<'_> {
    /// This input's events, over what `vars` binds.
    fn source<'v>(&'v self, vars: &'v VarStore) -> MtmResult<XmlSource<'v>> {
        Ok(match self {
            Xml::Rows(rows) => XmlSource::Rows(rows),
            Xml::Var(name) => XmlSource::Tree(Interpreter::get(vars, name)?.as_xml()?),
        })
    }
}

/// An [`Xml`] input's events: the rows rendered as they are read, or the
/// bound tree walked.
enum XmlSource<'v> {
    Rows(&'v ResultSet),
    Tree(&'v Document),
}

impl EventSource for XmlSource<'_> {
    fn emit<'a, S: Sink<'a>>(&'a self, sink: &mut S) -> XmlResult<()> {
        match self {
            XmlSource::Rows(rows) => rows.emit(sink),
            XmlSource::Tree(doc) => doc.emit(sink),
        }
    }
}

/// What deployment derives from a definition, once.
///
/// **Last reads**: `(step, variable)` pairs such that no later step — in
/// the step's own list, in a list nested in a later step, or after the
/// list ends — and none of the step's own nested lists reads the
/// variable, and the step names it once (`UNION DISTINCT [a, a]` reads `a`
/// twice and takes nothing). Such a step may take the variable out of the
/// store ([`Interpreter::take_last`]; a `DbInsert` and a `Custom` take it
/// whether or not it is shared, [`Interpreter::owned`]). Per step list,
/// what is read after it ends is what its enclosing list reads after the
/// enclosing step — for SWITCH / VALIDATE alternatives and FORK branches
/// alike — and `output` for a subprocess body.
///
/// **Fused steps**: a step whose output the step right after it in the
/// same list reads last, once, where the pair is one that runs as one
/// ([`handed_on`]).
///
/// Steps are named by their address inside the definition, which is never
/// modified once deployed. The default table moves and fuses nothing:
/// every read copies, every step binds its output.
#[derive(Default)]
pub(crate) struct Deployment {
    last: Vec<(usize, String)>,
    fused: Vec<usize>,
}

impl Deployment {
    pub(crate) fn of(def: &ProcessDef) -> Deployment {
        let mut table = Deployment::default();
        read_later(&def.steps, &HashSet::new(), &mut table);
        // a subprocess called twice is walked twice
        table.last.sort_unstable();
        table.last.dedup();
        table.fused.sort_unstable();
        table.fused.dedup();
        table
    }

    /// This table with `step` fused into the step after it, whatever
    /// reads its output.
    #[cfg(test)]
    pub(crate) fn fusing(mut self, step: &Step) -> Deployment {
        self.fused.push(address(step));
        self.fused.sort_unstable();
        self
    }

    /// This table with `step` reading `var` last, whatever reads it after.
    #[cfg(test)]
    pub(crate) fn taking(mut self, step: &Step, var: &str) -> Deployment {
        self.last.push((address(step), var.to_string()));
        self.last.sort_unstable();
        self
    }

    pub(crate) fn takes(&self, step: &Step, var: &str) -> bool {
        let at = address(step);
        (self.last)
            .binary_search_by(|(a, v)| (*a, v.as_str()).cmp(&(at, var)))
            .is_ok()
    }

    pub(crate) fn fuses(&self, step: &Step) -> bool {
        self.fused.binary_search(&address(step)).is_ok()
    }
}

fn address(step: &Step) -> usize {
    std::ptr::from_ref(step) as usize
}

/// The variable `step` would hand to `next` if the two are a pair that runs
/// as one: a `WS_QUERY` and the `TRANSLATE` after it, a `TRANSLATE` and the
/// `XML_TO_REL` or `DB_LOAD_XML` after it, or a relational step and a
/// `SELECTION`, `PROJECTION` or `UNION DISTINCT` after it, which take a
/// plan where they would take a `Values` leaf. A `JOIN` after it takes
/// none: the join builds its hash table on the side whose estimated
/// size is smaller, and the plan's estimate is not its rows', so the output
/// order could change.
fn handed_on<'a>(step: &'a Step, next: &Step) -> Option<&'a str> {
    let wraps_a_plan = matches!(
        next,
        Step::Selection { .. } | Step::Projection { .. } | Step::UnionDistinct { .. }
    );
    match step {
        Step::WsQuery { output, .. } if matches!(next, Step::Translate { .. }) => Some(output),
        Step::Translate { output, .. }
            if matches!(next, Step::XmlToRel { .. } | Step::DbLoadXml { .. }) =>
        {
            Some(output)
        }
        Step::Selection { output, .. }
        | Step::Projection { output, .. }
        | Step::UnionDistinct { output, .. }
        | Step::Join { output, .. }
            if wraps_a_plan =>
        {
            Some(output)
        }
        _ => None,
    }
}

/// Walk `steps` backwards from `after`, the variables read once the list
/// has ended, collecting into `table` the reads that are their variable's
/// last and the steps fused with the step after them; returns `after` plus
/// everything the list reads.
fn read_later<'a>(
    steps: &'a [Step],
    after: &HashSet<&'a str>,
    table: &mut Deployment,
) -> HashSet<&'a str> {
    let mut read = after.clone();
    // the step after the current one, and the variables it reads last
    let mut next: Option<(&Step, Vec<&str>)> = None;
    for step in steps.iter().rev() {
        let facts = step.facts();
        match facts.nested {
            Some(Nested::Alternatives(lists) | Nested::Parallel(lists)) => {
                let after_step = read.clone();
                for (_, list) in lists {
                    read.extend(read_later(list, &after_step, table));
                }
            }
            Some(Nested::Call(process)) => {
                read_later(&process.steps, &HashSet::from(["output"]), table);
            }
            None => {}
        }
        // a step reads before its nested lists run
        let mut takes = Vec::new();
        for &var in &facts.reads {
            let once = facts.reads.iter().filter(|&&v| v == var).count() == 1;
            if once && !read.contains(var) {
                table.last.push((address(step), var.to_string()));
                takes.push(var);
            }
        }
        if let Some((next, next_takes)) = &next {
            if handed_on(step, next).is_some_and(|out| next_takes.contains(&out)) {
                table.fused.push(address(step));
            }
        }
        read.extend(facts.reads);
        next = Some((step, takes));
    }
    read
}

/// Run a relational step's plan — its operator over `Values` leaves, the
/// step's inputs, or over the plans fused steps handed on — on the batch
/// executor every engine's queries run on.
/// It reads no table, so every step runs it against one empty database; a
/// taken input is freed with the plan, inside the step.
fn run_values(plan: Plan) -> MtmResult<Relation> {
    Ok(plan.run(&NO_TABLES)?)
}

/// The one empty database every step's plan runs against.
static NO_TABLES: LazyLock<Database> = LazyLock::new(|| Database::new("values"));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{EventType, LoadMode};
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
                decoder: crate::graphs::result_set_loader("sink", kv_schema()),
                decoder_name: v("rows"),
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
        let rel = Relation::new(
            kv_schema(),
            vec![[Value::Int(5), Value::str("five")].into()],
        );
        let steps = one_of_every_kind();
        let last = Deployment::of(&def);
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
                .run_step(&def, &last, step, &mut vars, &mut message, None)
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

    /// The same for the chain a deployment fuses end to end, P09's shape:
    /// `WS_QUERY` hands its rows to `TRANSLATE`, which hands its stylesheet
    /// to `XML_TO_REL`. Each step still has its own span and charges its
    /// own category alone; the query's `Cc` holds both modeled hops, and
    /// the rows arrive.
    #[test]
    fn a_fused_ws_query_chain_charges_the_categories_its_spans_name() {
        let world = world();
        let rows: Vec<SharedRow> = vec![[Value::Int(3), Value::str("a<b")].into()];
        let update = resultset::encode("ws", "items", &Relation::new(kv_schema(), rows.clone()));
        world.ws_update("ws", "items", &update).unwrap();
        let v = |name: &str| name.to_string();
        let steps = vec![
            Step::WsQuery {
                service: v("ws"),
                operation: v("items"),
                output: v("raw"),
            },
            Step::Translate {
                stx: Arc::new(Stylesheet::identity("id")),
                input: v("raw"),
                output: v("xml"),
            },
            Step::XmlToRel {
                input: v("xml"),
                schema: kv_schema(),
                output: v("rel"),
            },
        ];
        let def = ProcessDef::new("CHAIN", "c", 'B', EventType::Timed, steps);
        let last = Deployment::of(&def);
        let [query, translate, decode] = [0, 1, 2].map(|i| &def.steps[i]);
        assert!(last.fuses(query) && last.fuses(translate) && !last.fuses(decode));
        dip_trace::enable();
        let (mut vars, mut handoff, mut charged) = (VarStore::new(), None, Vec::new());
        for (n, step) in def.steps.iter().enumerate() {
            let costs = InstanceCosts::new();
            let _scope = dip_trace::instance_scope(&def.id, 0, n as u64);
            handoff = Interpreter::new(&world, &costs)
                .run_step(&def, &last, step, &mut vars, &mut None, handoff)
                .unwrap_or_else(|e| panic!("{step:?}: {e}"));
            assert_eq!(handoff.is_some(), n < 2, "{step:?} hands on");
            charged.push(costs.snapshot());
        }
        dip_trace::disable();
        let spans = dip_trace::drain();
        for (n, (step, (comm, mgmt, proc))) in def.steps.iter().zip(charged).enumerate() {
            let (label, category) = step.kind();
            let mine = |s: &&dip_trace::SpanRecord| {
                (s.layer, s.process.as_deref(), s.instance)
                    == (Layer::Mtm, Some("CHAIN"), Some(n as u64))
            };
            let mine: Vec<_> = spans.iter().filter(mine).collect();
            assert_eq!(mine.len(), 1, "{label}: {mine:?}");
            assert_eq!((mine[0].op, mine[0].category), (label, Some(category)));
            let (own, others) = match category {
                Category::Communication => (comm, [mgmt, proc]),
                Category::Management => (mgmt, [comm, proc]),
                Category::Processing => (proc, [comm, mgmt]),
            };
            // two 10 us hops
            let floor = if category == Category::Communication {
                20
            } else {
                0
            };
            assert!(own.as_micros() >= floor, "{label}: {own:?}");
            assert!(others.iter().all(Duration::is_zero), "{label}: {others:?}");
        }
        assert_eq!(vars.names(), ["rel"], "nothing but the rows is bound");
        assert_eq!(vars.get("rel").unwrap().as_rel().unwrap().rows, rows);
    }

    /// The pair a deployment fuses for an order message, P08's shape: a
    /// `TRANSLATE` hands its stylesheet to the `DB_LOAD_XML` after it, and
    /// the stylesheet runs into the decoder inside the load's span
    /// (`xmlkit/stx_transform` nested in `mtm/db_load_xml`). The
    /// translation charges `Cp` alone; the load charges its decode part to
    /// `Cp` and its inserts to `Cc`, never `Cm`; only the message stays
    /// bound, and its rows reach the table.
    #[test]
    fn a_fused_translate_load_charges_the_categories_its_spans_name() {
        let world = world();
        let rows: Vec<SharedRow> = vec![[Value::Int(4), Value::str("four")].into()];
        let message = resultset::encode("ws", "items", &Relation::new(kv_schema(), rows.clone()));
        let v = |name: &str| name.to_string();
        let steps = vec![
            Step::Translate {
                stx: Arc::new(Stylesheet::identity("id")),
                input: v("msg"),
                output: v("canon"),
            },
            Step::DbLoadXml {
                db: v("db"),
                tables: vec![v("sink")],
                decoder: crate::graphs::result_set_loader("sink", kv_schema()),
                decoder_name: v("rows"),
                input: v("canon"),
                mode: LoadMode::InsertIgnore,
            },
        ];
        let def = ProcessDef::new("LOAD", "l", 'B', EventType::Message, steps);
        let last = Deployment::of(&def);
        assert!(last.fuses(&def.steps[0]) && !last.fuses(&def.steps[1]));
        dip_trace::enable();
        let mut vars = VarStore::new();
        vars.set("msg", message);
        let (mut handoff, mut charged) = (None, Vec::new());
        for (n, step) in def.steps.iter().enumerate() {
            let costs = InstanceCosts::new();
            let _scope = dip_trace::instance_scope(&def.id, 0, n as u64);
            handoff = Interpreter::new(&world, &costs)
                .run_step(&def, &last, step, &mut vars, &mut None, handoff)
                .unwrap_or_else(|e| panic!("{step:?}: {e}"));
            assert_eq!(handoff.is_some(), n == 0, "{step:?} hands on");
            charged.push(costs.snapshot());
        }
        dip_trace::disable();
        let spans = dip_trace::drain();
        let of = |n: u64, layer: Layer| {
            let mine = |s: &&dip_trace::SpanRecord| {
                (s.layer, s.process.as_deref(), s.instance) == (layer, Some("LOAD"), Some(n))
            };
            spans.iter().filter(mine).collect::<Vec<_>>()
        };
        for (n, step) in def.steps.iter().enumerate() {
            let mine = of(n as u64, Layer::Mtm);
            assert_eq!(mine.len(), 1, "{mine:?}");
            let (label, category) = step.kind();
            assert_eq!((mine[0].op, mine[0].category), (label, Some(category)));
        }
        let ((_, _, translated), (load_comm, load_mgmt, _)) = (charged[0], charged[1]);
        assert_eq!(charged[0], (Duration::ZERO, Duration::ZERO, translated));
        // two 10 us hops
        assert!(load_comm.as_micros() >= 20, "{load_comm:?}");
        assert!(load_mgmt.is_zero());
        let load = of(1, Layer::Mtm)[0];
        let stx = of(1, Layer::Xmlkit);
        assert_eq!(stx.len(), 1, "the stylesheet ran in the load: {stx:?}");
        assert!(
            of(0, Layer::Xmlkit).is_empty(),
            "and not in the translation"
        );
        let within = |s: &dip_trace::SpanRecord| {
            s.start_ns >= load.start_ns && s.start_ns + s.dur_ns <= load.start_ns + load.dur_ns
        };
        assert!(within(stx[0]), "{stx:?} outside {load:?}");
        assert_eq!(vars.names(), ["msg"], "nothing but the message is bound");
        let sink = world.database("db").unwrap().table("sink").unwrap().scan();
        assert_eq!(sink.rows, rows);
    }
}
