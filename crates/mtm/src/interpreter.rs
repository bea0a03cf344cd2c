//! The instrumented MTM interpreter.
//!
//! Executes a [`ProcessDef`] step by step, timing every operator and
//! charging its duration to the right cost category:
//!
//! * external interactions (`WsQuery`/`WsUpdate`/`DbQuery`/`DbInsert`/
//!   `DbLoadXml`/`DbCall`/`DbDelete`) are **communication** costs — the
//!   paper defines `Cc` as "time waiting for external systems (network
//!   delay and external processing costs)", so both the modeled network
//!   delay and the remote execution time count;
//! * data-flow and control-flow operators (translate, validate, switch,
//!   selection, projection, union, join, codecs, assigns) are
//!   **processing** costs;
//! * instance setup and FORK thread management are **management** costs.

use crate::context::VarStore;
use crate::cost::{run_branches, CostCategory, InstanceCosts};
use crate::error::{MtmError, MtmResult};
use crate::message::MtmMessage;
use crate::process::{AssignValue, ProcessDef, Step, SwitchCase};
use dip_relstore::prelude::*;
use dip_services::registry::ExternalWorld;
use dip_services::resultset;
use dip_xmlkit::node::Document;
use std::time::Instant;

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
    /// for E1 processes.
    pub fn run(&self, def: &ProcessDef, input: Option<Document>) -> MtmResult<VarStore> {
        let setup = Instant::now();
        let mut vars = VarStore::new();
        let mut pending_input = input;
        // Instance setup counts as management cost.
        self.costs.add(CostCategory::Management, setup.elapsed());
        self.run_steps(def, &def.steps, &mut vars, &mut pending_input)?;
        Ok(vars)
    }

    fn run_steps(
        &self,
        def: &ProcessDef,
        steps: &[Step],
        vars: &mut VarStore,
        pending_input: &mut Option<Document>,
    ) -> MtmResult<()> {
        for step in steps {
            self.run_step(def, step, vars, pending_input)?;
        }
        Ok(())
    }

    fn get<'v>(vars: &'v VarStore, name: &str) -> MtmResult<&'v MtmMessage> {
        vars.get(name)
            .ok_or_else(|| MtmError::UnboundVariable(name.to_string()))
    }

    /// Trace label and cost category of one step kind, mirroring the
    /// category each arm of `run_step` charges its time to.
    fn step_meta(step: &Step) -> (&'static str, dip_trace::Category) {
        use dip_trace::Category::{Communication, Management, Processing};
        match step {
            Step::Receive { .. } => ("receive", Processing),
            Step::Assign { .. } => ("assign", Processing),
            Step::Translate { .. } => ("translate", Processing),
            Step::Validate { .. } => ("validate", Processing),
            Step::Switch { .. } => ("switch", Processing),
            Step::WsQuery { .. } => ("ws_query", Communication),
            Step::WsUpdate { .. } => ("ws_update", Communication),
            Step::DbQuery { .. } => ("db_query", Communication),
            Step::DbQueryDyn { .. } => ("db_query_dyn", Communication),
            Step::DbInsert { .. } => ("db_insert", Communication),
            Step::DbLoadXml { .. } => ("db_load_xml", Communication),
            Step::DbCall { .. } => ("db_call", Communication),
            Step::DbDelete { .. } => ("db_delete", Communication),
            Step::Selection { .. } => ("selection", Processing),
            Step::Projection { .. } => ("projection", Processing),
            Step::UnionDistinct { .. } => ("union_distinct", Processing),
            Step::Join { .. } => ("join", Processing),
            Step::XmlToRel { .. } => ("xml_to_rel", Processing),
            Step::RelToXml { .. } => ("rel_to_xml", Processing),
            Step::Fork { .. } => ("fork", Management),
            Step::Subprocess { .. } => ("subprocess", Management),
            Step::Custom { .. } => ("custom", Processing),
        }
    }

    fn run_step(
        &self,
        def: &ProcessDef,
        step: &Step,
        vars: &mut VarStore,
        pending_input: &mut Option<Document>,
    ) -> MtmResult<()> {
        let (op, category) = Self::step_meta(step);
        let _span = dip_trace::span_cat(dip_trace::Layer::Mtm, op, category);
        match step {
            Step::Receive { var } => {
                let t = Instant::now();
                let doc = pending_input.take().ok_or_else(|| {
                    MtmError::InvalidProcess(format!(
                        "{}: RECEIVE without an initiating message",
                        def.id
                    ))
                })?;
                vars.set(var.clone(), doc);
                self.costs.add(CostCategory::Processing, t.elapsed());
            }
            Step::Assign { var, value } => {
                let t = Instant::now();
                let v = match value {
                    AssignValue::Const(m) => m.clone(),
                    AssignValue::CopyVar(src) => Self::get(vars, src)?.clone(),
                };
                vars.set(var.clone(), v);
                self.costs.add(CostCategory::Processing, t.elapsed());
            }
            Step::Translate { stx, input, output } => {
                let t = Instant::now();
                let doc = Self::get(vars, input)?.as_xml()?;
                let out = stx.transform(doc)?;
                vars.set(output.clone(), out);
                self.costs.add(CostCategory::Processing, t.elapsed());
            }
            Step::Validate {
                xsd,
                input,
                on_valid,
                on_invalid,
            } => {
                let t = Instant::now();
                let doc = Self::get(vars, input)?.as_xml()?;
                let issues = xsd.validate(doc);
                let valid = issues.is_empty();
                self.costs.add(CostCategory::Processing, t.elapsed());
                if valid {
                    self.run_steps(def, on_valid, vars, pending_input)?;
                } else {
                    self.run_steps(def, on_invalid, vars, pending_input)?;
                }
            }
            Step::Switch {
                input,
                path,
                cases,
                default,
            } => {
                let t = Instant::now();
                let value = self.extract_switch_value(vars, input, path)?;
                let row = vec![value.clone()];
                let mut chosen: Option<&SwitchCase> = None;
                for c in cases {
                    if c.when.matches(&row)? {
                        chosen = Some(c);
                        break;
                    }
                }
                self.costs.add(CostCategory::Processing, t.elapsed());
                match chosen {
                    Some(c) => self.run_steps(def, &c.steps, vars, pending_input)?,
                    None if !default.is_empty() => {
                        self.run_steps(def, default, vars, pending_input)?
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
                let t = Instant::now();
                let remote = self.world.ws_query(service, operation)?;
                vars.set(output.clone(), remote.value);
                self.costs
                    .add(CostCategory::Communication, t.elapsed() + remote.comm);
            }
            Step::WsUpdate {
                service,
                operation,
                input,
            } => {
                let t = Instant::now();
                let doc = Self::get(vars, input)?.as_xml()?;
                let remote = self.world.ws_update(service, operation, doc)?;
                self.costs
                    .add(CostCategory::Communication, t.elapsed() + remote.comm);
            }
            Step::DbQuery { db, plan, output } => {
                let t = Instant::now();
                let remote = self.world.remote_query(db, plan)?;
                vars.set(output.clone(), remote.value);
                self.costs
                    .add(CostCategory::Communication, t.elapsed() + remote.comm);
            }
            Step::DbQueryDyn {
                db,
                plan,
                plan_name,
                output,
            } => {
                // building the plan from variables is processing work
                let t = Instant::now();
                let built = plan(vars)
                    .map_err(|m| MtmError::Custom(format!("plan builder {plan_name}: {m}")))?;
                self.costs.add(CostCategory::Processing, t.elapsed());
                let t = Instant::now();
                let remote = self.world.remote_query(db, &built)?;
                vars.set(output.clone(), remote.value);
                self.costs
                    .add(CostCategory::Communication, t.elapsed() + remote.comm);
            }
            Step::DbInsert {
                db,
                table,
                input,
                mode,
            } => {
                let t = Instant::now();
                // the one copy the target table must own
                let rows = Self::get(vars, input)?.as_rel()?.rows.clone();
                let remote = self.world.remote_load(db, table, rows, *mode)?;
                self.costs
                    .add(CostCategory::Communication, t.elapsed() + remote.comm);
            }
            Step::DbLoadXml {
                db,
                decoder,
                decoder_name,
                input,
                mode,
            } => {
                // decoding is processing; the inserts are communication
                let t = Instant::now();
                let doc = Self::get(vars, input)?.as_xml()?;
                let batches = decoder(doc)
                    .map_err(|m| MtmError::Custom(format!("decoder {decoder_name}: {m}")))?;
                self.costs.add(CostCategory::Processing, t.elapsed());
                let t = Instant::now();
                let mut comm = std::time::Duration::ZERO;
                for b in batches {
                    let remote = self.world.remote_load(db, &b.table, b.rows, *mode)?;
                    comm += remote.comm;
                }
                self.costs
                    .add(CostCategory::Communication, t.elapsed() + comm);
            }
            Step::DbCall {
                db,
                proc,
                args,
                output,
            } => {
                let t = Instant::now();
                let remote = self.world.remote_call(db, proc, args)?;
                if let (Some(out), Some(rel)) = (output, remote.value) {
                    vars.set(out.clone(), rel);
                }
                self.costs
                    .add(CostCategory::Communication, t.elapsed() + remote.comm);
            }
            Step::DbDelete {
                db,
                table,
                predicate,
            } => {
                let t = Instant::now();
                let remote = self.world.remote_delete(db, table, predicate)?;
                self.costs
                    .add(CostCategory::Communication, t.elapsed() + remote.comm);
            }
            Step::Selection {
                input,
                predicate,
                output,
            } => {
                let t = Instant::now();
                let out = selection(Self::get(vars, input)?.as_rel()?, predicate)?;
                vars.set(output.clone(), out);
                self.costs.add(CostCategory::Processing, t.elapsed());
            }
            Step::Projection {
                input,
                exprs,
                output,
            } => {
                let t = Instant::now();
                let out = projection(Self::get(vars, input)?.as_rel()?, exprs)?;
                vars.set(output.clone(), out);
                self.costs.add(CostCategory::Processing, t.elapsed());
            }
            Step::UnionDistinct {
                inputs,
                key,
                output,
            } => {
                let t = Instant::now();
                let rels = inputs
                    .iter()
                    .map(|name| Ok(Self::get(vars, name)?.as_rel()?))
                    .collect::<MtmResult<Vec<&Relation>>>()?;
                let out = union_distinct(&rels, key.as_deref())?;
                vars.set(output.clone(), out);
                self.costs.add(CostCategory::Processing, t.elapsed());
            }
            Step::Join {
                left,
                right,
                left_keys,
                right_keys,
                kind,
                output,
            } => {
                let t = Instant::now();
                let l = Self::get(vars, left)?.as_rel()?.clone();
                let r = Self::get(vars, right)?.as_rel()?.clone();
                let plan = Plan::Values(l).hash_join(
                    Plan::Values(r),
                    left_keys.clone(),
                    right_keys.clone(),
                    *kind,
                );
                // Values-only plans never touch a database; any one works.
                let scratch = Database::new("scratch");
                let out = plan.run(&scratch)?;
                vars.set(output.clone(), out);
                self.costs.add(CostCategory::Processing, t.elapsed());
            }
            Step::XmlToRel {
                input,
                schema,
                output,
            } => {
                let t = Instant::now();
                let doc = Self::get(vars, input)?.as_xml()?;
                let rel = resultset::decode(doc, schema)?;
                vars.set(output.clone(), rel);
                self.costs.add(CostCategory::Processing, t.elapsed());
            }
            Step::RelToXml {
                input,
                source,
                table,
                output,
            } => {
                let t = Instant::now();
                let rel = Self::get(vars, input)?.as_rel()?;
                let doc = resultset::encode(source, table, rel);
                vars.set(output.clone(), doc);
                self.costs.add(CostCategory::Processing, t.elapsed());
            }
            Step::Fork { branches } => {
                let t = Instant::now();
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
                        self.run_steps(def, &branches[idx], &mut branch_vars, &mut None)
                            .map(|()| branch_vars)
                    },
                );
                self.costs.add(CostCategory::Management, t.elapsed());
                for branch_vars in forked? {
                    vars.merge(branch_vars);
                }
            }
            Step::Subprocess {
                process,
                input,
                output,
            } => {
                let t = Instant::now();
                let mut sub_vars = VarStore::new();
                if let Some(in_var) = input {
                    let v = Self::get(vars, in_var)?.clone();
                    sub_vars.set("input", v);
                }
                self.costs.add(CostCategory::Management, t.elapsed());
                let mut no_input = None;
                self.run_steps(process, &process.steps, &mut sub_vars, &mut no_input)?;
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
            Step::Custom { name, f, binds: _ } => {
                let t = Instant::now();
                f(vars).map_err(|m| MtmError::Custom(format!("{name}: {m}")))?;
                self.costs.add(CostCategory::Processing, t.elapsed());
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

// The relational operators over variables. Inputs are shared and never
// modified; each allocates once per output row (the row itself).

fn selection(rel: &Relation, predicate: &Expr) -> StoreResult<Relation> {
    let mut rows = Vec::with_capacity(rel.rows.len());
    for r in &rel.rows {
        if predicate.matches(r)? {
            rows.push(r.clone());
        }
    }
    Ok(Relation::new(rel.schema.clone(), rows))
}

fn projection(rel: &Relation, exprs: &[ProjExpr]) -> StoreResult<Relation> {
    let schema = RelSchema::new(exprs.iter().map(|p| p.column.clone()).collect()).shared();
    let mut rows = Vec::with_capacity(rel.rows.len());
    for r in &rel.rows {
        let mut row = Vec::with_capacity(exprs.len());
        for p in exprs {
            row.push(p.expr.eval(r)?);
        }
        rows.push(row);
    }
    Ok(Relation::new(schema, rows))
}

/// First-seen rows of `inputs` in order, distinct on the `key` columns (the
/// whole row without a key). Keys are compared by contents and borrowed
/// from the inputs.
fn union_distinct(inputs: &[&Relation], key: Option<&[usize]>) -> MtmResult<Relation> {
    let first = inputs
        .first()
        .ok_or_else(|| MtmError::InvalidProcess("UNION DISTINCT with no inputs".into()))?;
    let rows = match key {
        None => distinct_by(inputs, |r| r.as_slice()),
        Some(&[c]) => distinct_by(inputs, |r| &r[c]),
        Some(cols) => distinct_by(inputs, |r| cols.iter().map(|&c| &r[c]).collect::<Vec<_>>()),
    };
    Ok(Relation::new(first.schema.clone(), rows))
}

fn distinct_by<'a, K: std::hash::Hash + Eq>(
    inputs: &[&'a Relation],
    key: impl Fn(&'a Row) -> K,
) -> Vec<Row> {
    let mut seen = std::collections::HashSet::new();
    let mut rows = Vec::new();
    for rel in inputs {
        for r in &rel.rows {
            if seen.insert(key(r)) {
                rows.push(r.clone());
            }
        }
    }
    rows
}
