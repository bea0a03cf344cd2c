//! Process definitions: the platform-independent Message Transformation
//! Model (MTM).
//!
//! A [`ProcessDef`] is a structured tree of [`Step`]s — the conceptual,
//! process-driven description the paper uses for its 15 process types
//! (RECEIVE, ASSIGN, INVOKE, TRANSLATE, SWITCH, SELECTION, PROJECTION,
//! UNION DISTINCT, VALIDATE, FORK, subprocess invocation, …). Process
//! definitions are *descriptions*; execution semantics live in the
//! [`crate::interpreter`].

use crate::cost::CostCategory;
use crate::message::MtmMessage;
use dip_relstore::prelude::*;
use dip_xmlkit::node::Document;
use dip_xmlkit::stx::Stylesheet;
use dip_xmlkit::xsd::XsdSchema;
use std::sync::Arc;

/// How a process instance is initiated (the paper's two event types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventType {
    /// E1 — an incoming message starts an instance.
    Message,
    /// E2 — a time-based scheduling event starts an instance.
    Timed,
}

/// Rows destined for one table — the output of an XML load decoder.
#[derive(Debug, Clone)]
pub struct TableRows {
    pub table: String,
    pub rows: Vec<Row>,
}

/// Decodes an XML message into relational rows for loading.
pub type XmlDecoder = Arc<dyn Fn(&Document) -> Result<Vec<TableRows>, String> + Send + Sync>;

/// The messages bound to a step's declared `reads`, in that order.
pub type Inputs<'a> = &'a [&'a MtmMessage];

/// A computation that has no dedicated operator (enrichment, decoding):
/// from the step's declared inputs to one message per declared `binds`
/// entry, in that order.
pub type CustomFn = Arc<dyn Fn(Inputs) -> Result<Vec<MtmMessage>, String> + Send + Sync>;

/// One case of a SWITCH operator: `when` is evaluated over the single-value
/// row `[extracted]`, first match wins.
#[derive(Clone)]
pub struct SwitchCase {
    pub when: Expr,
    pub steps: Vec<Step>,
}

impl std::fmt::Debug for SwitchCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchCase")
            .field("when", &self.when)
            .field("steps", &self.steps.len())
            .finish()
    }
}

/// A value assigned by ASSIGN.
#[derive(Debug, Clone)]
pub enum AssignValue {
    Const(MtmMessage),
    CopyVar(String),
}

pub use dip_services::registry::LoadMode;

/// Builds a query plan from the step's declared inputs at execution time.
pub type PlanBuilder = Arc<dyn Fn(Inputs) -> Result<Plan, String> + Send + Sync>;

/// One MTM operator.
#[derive(Clone)]
pub enum Step {
    /// Bind the initiating message (E1 processes only, first step).
    Receive { var: String },
    /// Bind a constant or copy another variable.
    Assign { var: String, value: AssignValue },
    /// STX schema translation of an XML variable.
    Translate {
        stx: Arc<Stylesheet>,
        input: String,
        output: String,
    },
    /// XSD validation with success/failure branches (P10, P12, P13).
    Validate {
        xsd: Arc<XsdSchema>,
        input: String,
        on_valid: Vec<Step>,
        on_invalid: Vec<Step>,
    },
    /// Content-based routing: extract `path` from the XML variable (or use
    /// a scalar variable directly when `path` is empty) and run the first
    /// matching case.
    Switch {
        input: String,
        path: String,
        cases: Vec<SwitchCase>,
        default: Vec<Step>,
    },
    /// Query a web service operation; result-set XML lands in `output`.
    WsQuery {
        service: String,
        operation: String,
        output: String,
    },
    /// Send an XML variable to a web service update operation.
    WsUpdate {
        service: String,
        operation: String,
        input: String,
    },
    /// Run a query plan on an external database.
    DbQuery {
        db: String,
        plan: Plan,
        output: String,
    },
    /// Run a query plan built at runtime from the `reads` variables (for
    /// parameterized lookups, e.g. P04's master-data enrichment query).
    DbQueryDyn {
        db: String,
        reads: Vec<String>,
        plan: PlanBuilder,
        plan_name: String,
        output: String,
    },
    /// Insert a relational variable into an external table.
    DbInsert {
        db: String,
        table: String,
        input: String,
        mode: LoadMode,
    },
    /// Decode an XML variable into rows and insert them (multi-table);
    /// `tables` declares every table the decoder may emit rows for.
    DbLoadXml {
        db: String,
        tables: Vec<String>,
        decoder: XmlDecoder,
        decoder_name: String,
        input: String,
        mode: LoadMode,
    },
    /// Call a stored procedure on an external database.
    DbCall {
        db: String,
        proc: String,
        args: Vec<Value>,
        output: Option<String>,
    },
    /// Delete rows of an external table.
    DbDelete {
        db: String,
        table: String,
        predicate: Expr,
    },
    /// Relational selection on a variable.
    Selection {
        input: String,
        predicate: Expr,
        output: String,
    },
    /// Relational projection (schema mapping / attribute renaming).
    Projection {
        input: String,
        exprs: Vec<ProjExpr>,
        output: String,
    },
    /// UNION DISTINCT over several relational variables, optionally keyed.
    UnionDistinct {
        inputs: Vec<String>,
        key: Option<Vec<usize>>,
        output: String,
    },
    /// Hash join of two relational variables (used for enrichment).
    Join {
        left: String,
        right: String,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        output: String,
    },
    /// Decode a generic result-set XML variable into a relation.
    XmlToRel {
        input: String,
        schema: SchemaRef,
        output: String,
    },
    /// Encode a relational variable as a generic result-set document.
    RelToXml {
        input: String,
        source: String,
        table: String,
        output: String,
    },
    /// Execute branches in parallel; all must succeed.
    Fork { branches: Vec<Vec<Step>> },
    /// Invoke a subprocess (shares the parent's cost instance; fresh
    /// variable scope with explicit input/output passing).
    Subprocess {
        process: Arc<ProcessDef>,
        input: Option<String>,
        output: Option<String>,
    },
    /// Escape hatch: `f` is handed the `reads` variables and its results
    /// are bound to the `binds` variables.
    Custom {
        name: String,
        reads: Vec<String>,
        binds: Vec<String>,
        f: CustomFn,
    },
}

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Receive { var } => write!(f, "Receive -> {var}"),
            Step::Assign { var, .. } => write!(f, "Assign -> {var}"),
            Step::Translate { input, output, stx } => {
                write!(f, "Translate[{}] {input} -> {output}", stx.name)
            }
            Step::Validate { input, .. } => write!(f, "Validate {input}"),
            Step::Switch {
                input, path, cases, ..
            } => {
                write!(f, "Switch {input}:{path} ({} cases)", cases.len())
            }
            Step::WsQuery {
                service,
                operation,
                output,
            } => {
                write!(f, "WsQuery {service}.{operation} -> {output}")
            }
            Step::WsUpdate {
                service,
                operation,
                input,
            } => {
                write!(f, "WsUpdate {input} -> {service}.{operation}")
            }
            Step::DbQuery { db, output, .. } => write!(f, "DbQuery {db} -> {output}"),
            Step::DbQueryDyn {
                db,
                plan_name,
                output,
                ..
            } => {
                write!(f, "DbQueryDyn[{plan_name}] {db} -> {output}")
            }
            Step::DbInsert {
                db, table, input, ..
            } => {
                write!(f, "DbInsert {input} -> {db}.{table}")
            }
            Step::DbLoadXml {
                db,
                input,
                decoder_name,
                ..
            } => {
                write!(f, "DbLoadXml[{decoder_name}] {input} -> {db}")
            }
            Step::DbCall { db, proc, .. } => write!(f, "DbCall {db}.{proc}"),
            Step::DbDelete { db, table, .. } => write!(f, "DbDelete {db}.{table}"),
            Step::Selection { input, output, .. } => write!(f, "Selection {input} -> {output}"),
            Step::Projection { input, output, .. } => write!(f, "Projection {input} -> {output}"),
            Step::UnionDistinct { inputs, output, .. } => {
                write!(f, "UnionDistinct {inputs:?} -> {output}")
            }
            Step::Join {
                left,
                right,
                output,
                ..
            } => write!(f, "Join {left}⋈{right} -> {output}"),
            Step::XmlToRel { input, output, .. } => write!(f, "XmlToRel {input} -> {output}"),
            Step::RelToXml { input, output, .. } => write!(f, "RelToXml {input} -> {output}"),
            Step::Fork { branches } => write!(f, "Fork x{}", branches.len()),
            Step::Subprocess { process, .. } => write!(f, "Subprocess {}", process.id),
            Step::Custom { name, .. } => write!(f, "Custom[{name}]"),
        }
    }
}

/// How a step uses an external resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Read,
    Load(LoadMode),
    Write,
}

/// A shared resource of the external world.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resource {
    /// One table of an external database.
    Table { db: String, table: String },
    /// A whole database — stored procedures and runtime-built plans do not
    /// say which tables they use, so they claim the coarse grain.
    Db { db: String },
    /// A web service (its backing state included).
    Service { service: String },
}

impl Resource {
    /// Whether two resources can denote overlapping state.
    pub fn overlaps(&self, other: &Resource) -> bool {
        match (self, other) {
            (Resource::Table { db: a, table: t }, Resource::Table { db: b, table: u }) => {
                a == b && t == u
            }
            (Resource::Db { db: a }, Resource::Db { db: b }) => a == b,
            (Resource::Db { db: a }, Resource::Table { db: b, .. })
            | (Resource::Table { db: a, .. }, Resource::Db { db: b }) => a == b,
            (Resource::Service { service: a }, Resource::Service { service: b }) => a == b,
            _ => false,
        }
    }
}

/// The nested step lists of a structured step and how they combine. Every
/// list but a callee's carries the label `explain` prints above it.
pub enum Nested<'a> {
    /// Exactly one list runs (VALIDATE, SWITCH): only what every one of
    /// them binds is bound afterwards.
    Alternatives(Vec<(String, &'a [Step])>),
    /// All lists run concurrently over the bindings from before (FORK):
    /// their bindings union and must not overlap.
    Parallel(Vec<(String, &'a [Step])>),
    /// A call into a fresh variable scope (subprocess): what the step
    /// reads arrives as `input`, what it binds is the callee's `output`.
    Call(&'a ProcessDef),
}

impl<'a> Nested<'a> {
    /// Every nested step list, however they combine.
    pub fn lists(&self) -> Vec<&'a [Step]> {
        match self {
            Nested::Alternatives(lists) | Nested::Parallel(lists) => {
                lists.iter().map(|(_, steps)| *steps).collect()
            }
            Nested::Call(process) => vec![&process.steps],
        }
    }
}

/// What one step reads, binds, nests and touches — the row [`Step::facts`]
/// states per step kind. Validation, `explain`, `step_count` and the
/// scheduler's resource profiles are derived from it.
pub struct StepFacts<'a> {
    /// Variables that must be bound when the step starts.
    pub reads: Vec<&'a str>,
    /// Variables the step has bound when it ends (after its nested lists).
    pub binds: Vec<&'a str>,
    pub nested: Option<Nested<'a>>,
    pub touches: Vec<(Resource, Access)>,
}

impl<'a> StepFacts<'a> {
    fn nesting(mut self, nested: Nested<'a>) -> Self {
        self.nested = Some(nested);
        self
    }

    fn touching(mut self, resources: impl IntoIterator<Item = Resource>, access: Access) -> Self {
        self.touches = resources.into_iter().map(|r| (r, access)).collect();
        self
    }
}

/// A row without nested lists or external resources.
fn io<'a>(
    reads: impl IntoIterator<Item = &'a String>,
    binds: impl IntoIterator<Item = &'a String>,
) -> StepFacts<'a> {
    StepFacts {
        reads: reads.into_iter().map(String::as_str).collect(),
        binds: binds.into_iter().map(String::as_str).collect(),
        nested: None,
        touches: Vec::new(),
    }
}

/// The base tables a query plan reads, one entry per access.
fn scanned_tables<'a>(plan: &'a Plan, out: &mut Vec<&'a str>) {
    match plan {
        Plan::Scan { table, .. } => out.push(table),
        Plan::Values(_) => {}
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. } => scanned_tables(input, out),
        Plan::HashJoin { left, right, .. } => {
            scanned_tables(left, out);
            scanned_tables(right, out);
        }
        Plan::IndexJoin { probe, table, .. } => {
            scanned_tables(probe, out);
            out.push(table);
        }
        Plan::UnionDistinct { inputs, .. } => {
            inputs.iter().for_each(|p| scanned_tables(p, out));
        }
    }
}

fn labelled<'a>(label: &str, lists: &'a [Vec<Step>]) -> Vec<(String, &'a [Step])> {
    let numbered = lists.iter().enumerate();
    numbered
        .map(|(i, steps)| (format!("{label} {i}"), steps.as_slice()))
        .collect()
}

/// The one table of step kinds. Both matches are exhaustive on purpose: a
/// new kind does not compile until its label, category, data flow, nesting
/// and footprint are stated here.
impl Step {
    /// Trace label and cost category: the interpreter opens the step's
    /// span and charges its ledger from this pair (allocation-free).
    pub fn kind(&self) -> (&'static str, CostCategory) {
        use CostCategory::{Communication, Management, Processing};
        match self {
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

    /// What the step reads, binds, nests and touches (deploy-time use).
    pub fn facts(&self) -> StepFacts<'_> {
        use Access::{Load, Read, Write};
        let service_of = |service: &String| Resource::Service {
            service: service.clone(),
        };
        let db_of = |db: &String| Resource::Db { db: db.clone() };
        let table_of = |db: &String, table: &str| Resource::Table {
            db: db.clone(),
            table: table.into(),
        };
        match self {
            Step::Receive { var } => io(None, [var]),
            Step::Assign { var, value } => match value {
                AssignValue::Const(_) => io(None, [var]),
                AssignValue::CopyVar(src) => io([src], [var]),
            },
            Step::Translate { input, output, .. } => io([input], [output]),
            Step::Validate {
                input,
                on_valid,
                on_invalid,
                ..
            } => io([input], None).nesting(Nested::Alternatives(vec![
                ("valid".into(), on_valid),
                ("invalid".into(), on_invalid),
            ])),
            // no case matching is an error without a default, so an empty
            // default is not an alternative
            Step::Switch {
                input,
                cases,
                default,
                ..
            } => {
                let mut lists: Vec<(String, &[Step])> = Vec::new();
                for (i, c) in cases.iter().enumerate() {
                    lists.push((format!("case {i}: {:?}", c.when), &c.steps));
                }
                if !default.is_empty() {
                    lists.push(("default".into(), default));
                }
                io([input], None).nesting(Nested::Alternatives(lists))
            }
            Step::WsQuery {
                service, output, ..
            } => io(None, [output]).touching([service_of(service)], Read),
            Step::WsUpdate { service, input, .. } => {
                io([input], None).touching([service_of(service)], Write)
            }
            Step::DbQuery { db, plan, output } => {
                let mut tables = Vec::new();
                scanned_tables(plan, &mut tables);
                let tables = tables.into_iter().map(|t| table_of(db, t));
                io(None, [output]).touching(tables, Read)
            }
            Step::DbQueryDyn {
                db, reads, output, ..
            } => io(reads, [output]).touching([db_of(db)], Read),
            Step::DbInsert {
                db,
                table,
                input,
                mode,
            } => io([input], None).touching([table_of(db, table)], Load(*mode)),
            Step::DbLoadXml {
                db,
                tables,
                input,
                mode,
                ..
            } => {
                let tables = tables.iter().map(|t| table_of(db, t));
                io([input], None).touching(tables, Load(*mode))
            }
            // a stored procedure reads and mutates at will
            Step::DbCall { db, output, .. } => io(None, output).touching([db_of(db)], Write),
            Step::DbDelete { db, table, .. } => {
                io(None, None).touching([table_of(db, table)], Write)
            }
            Step::Selection { input, output, .. }
            | Step::Projection { input, output, .. }
            | Step::XmlToRel { input, output, .. }
            | Step::RelToXml { input, output, .. } => io([input], [output]),
            Step::UnionDistinct { inputs, output, .. } => io(inputs, [output]),
            Step::Join {
                left,
                right,
                output,
                ..
            } => io([left, right], [output]),
            Step::Fork { branches } => {
                io(None, None).nesting(Nested::Parallel(labelled("branch", branches)))
            }
            Step::Subprocess {
                process,
                input,
                output,
            } => io(input, output).nesting(Nested::Call(process)),
            Step::Custom { reads, binds, .. } => io(reads, binds),
        }
    }
}

/// A complete process-type definition.
#[derive(Debug, Clone)]
pub struct ProcessDef {
    /// Benchmark id, e.g. `"P04"`.
    pub id: String,
    /// Human-readable name (Table I wording).
    pub name: String,
    /// Stream group A–D.
    pub group: char,
    pub event: EventType,
    pub steps: Vec<Step>,
}

impl ProcessDef {
    pub fn new(
        id: impl Into<String>,
        name: impl Into<String>,
        group: char,
        event: EventType,
        steps: Vec<Step>,
    ) -> ProcessDef {
        ProcessDef {
            id: id.into(),
            name: name.into(),
            group,
            event,
            steps,
        }
    }

    /// Pretty-print the process graph (the EXPLAIN of a process type).
    pub fn explain(&self) -> String {
        fn walk(steps: &[Step], depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            for s in steps {
                out.push_str(&format!("{pad}{s:?}\n"));
                match s.facts().nested {
                    Some(Nested::Alternatives(lists) | Nested::Parallel(lists)) => {
                        for (label, steps) in lists {
                            out.push_str(&format!("{pad}  [{label}]\n"));
                            walk(steps, depth + 2, out);
                        }
                    }
                    Some(Nested::Call(process)) => walk(&process.steps, depth + 1, out),
                    None => {}
                }
            }
        }
        let mut out = format!(
            "{} — {} (group {}, {:?}-driven)\n",
            self.id, self.name, self.group, self.event
        );
        walk(&self.steps, 1, &mut out);
        out
    }

    /// Count all steps, recursing into structured operators — a complexity
    /// measure used in reports.
    pub fn step_count(&self) -> usize {
        fn count(steps: &[Step]) -> usize {
            let mut n = steps.len();
            for nested in steps.iter().filter_map(|s| s.facts().nested) {
                n += nested.lists().into_iter().map(count).sum::<usize>();
            }
            n
        }
        count(&self.steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_count_recurses() {
        let sub = Arc::new(ProcessDef::new(
            "SUB",
            "sub",
            'D',
            EventType::Timed,
            vec![Step::Assign {
                var: "x".into(),
                value: AssignValue::Const(MtmMessage::Scalar(Value::Int(1))),
            }],
        ));
        let p = ProcessDef::new(
            "P",
            "p",
            'D',
            EventType::Timed,
            vec![Step::Fork {
                branches: vec![
                    vec![Step::Subprocess {
                        process: sub.clone(),
                        input: None,
                        output: None,
                    }],
                    vec![Step::Subprocess {
                        process: sub,
                        input: None,
                        output: None,
                    }],
                ],
            }],
        );
        // fork(1) + 2 * (subprocess(1) + assign(1))
        assert_eq!(p.step_count(), 5);
    }

    #[test]
    fn debug_formatting_is_informative() {
        let s = Step::WsQuery {
            service: "beijing".into(),
            operation: "orders".into(),
            output: "msg1".into(),
        };
        assert_eq!(format!("{s:?}"), "WsQuery beijing.orders -> msg1");
    }
}
