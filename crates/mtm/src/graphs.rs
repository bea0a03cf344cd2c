//! Generated process graphs, run as deployed and as written.
//!
//! A graph is built from a vector of picks: relational steps over five
//! relation variables, `TRANSLATE` → `XML_TO_REL` pairs (adjacent, or apart
//! with a step between), `WS_QUERY` → `TRANSLATE` → `XML_TO_REL` chains
//! over a web service (adjacent, apart, or with the response translated a
//! second time, so that the query's output is read again later),
//! `TRANSLATE` → `DB_LOAD_XML` pairs (adjacent, apart, or with the
//! translated document decoded again later), `CUSTOM` edits of a
//! translated document (reading it last, so it is moved to them, or with
//! the document read again after them), `JOIN`s narrowed by a
//! `PROJECTION`, `CopyVar` aliases, a `DB_INSERT` sink, and SWITCH / FORK /
//! SUBPROCESS nesting three levels deep. It ends in an observer step that
//! reads the variables the picks name: those are the variables still read
//! after the run, and a subprocess's `output` reaches them through its
//! caller. Graphs that `validate` rejects are skipped.
//!
//! Each graph runs twice: with its [`Deployment`] table, which moves what
//! a step reads last and fuses the pairs that run as one, and with the
//! default table, which is empty: every read copies, every step binds its
//! output. The two runs must end alike: the same result, the same
//! bindings observed, the same rows in the sink table. A failing graph is
//! reported as its pick vector.

use crate::context::VarStore;
use crate::cost::InstanceCosts;
use crate::interpreter::{Deployment, Interpreter};
use crate::message::MtmMessage;
use crate::process::{
    AssignValue, EventType, LoadMode, LoadSink, ProcessDef, Step, SwitchCase, TableRows, XmlDecoder,
};
use crate::validate::validate;
use dip_netsim::{LatencyModel, LinkSpec, Network};
use dip_relstore::prelude::*;
use dip_services::registry::ExternalWorld;
use dip_services::resultset::{self, RowSink};
use dip_services::webservice::DbService;
use dip_xmlkit::node::{Element, XmlNode};
use dip_xmlkit::sax::Handler;
use dip_xmlkit::stx::{Rule, Stylesheet};
use dip_xmlkit::XmlResult;
use proptest::prelude::*;
use std::borrow::Cow;
use std::sync::{Arc, Mutex};

/// The relation variables; every one is bound before the first generated
/// step, so a generated read never fails validation.
const RELS: [&str; 5] = ["a", "b", "c", "d", "e"];
/// What a FORK branch may bind: disjoint halves, so no two branches bind
/// one name.
const BRANCH_BINDS: [&[&str]; 2] = [&["a", "b"], &["c", "d"]];
const MAX_DEPTH: usize = 3;

/// `(k INT, v INT, s STR)`: every relation variable has this schema.
fn schema() -> SchemaRef {
    RelSchema::of(&[
        ("k", SqlType::Int),
        ("v", SqlType::Int),
        ("s", SqlType::Str),
    ])
    .shared()
}

/// Eight rows with repeated keys and whole-row duplicates.
fn relation(seed: i64) -> Relation {
    let rows = (0..8i64).map(|i| {
        let s = if (i + seed) % 3 == 0 { "x" } else { "y" };
        vec![Value::Int((i * seed) % 5), Value::Int(i % 3), Value::str(s)]
    });
    Relation::new(schema(), rows.map(Into::into).collect())
}

/// The source-shaped relation behind the result set `x` holds and behind
/// the web service's table: `relation(3)` under other field names, with a
/// column the stylesheet drops.
fn source_relation() -> Relation {
    let named = RelSchema::of(&[
        ("key", SqlType::Int),
        ("v", SqlType::Int),
        ("s", SqlType::Str),
        ("note", SqlType::Str),
    ]);
    let rows = (relation(3).rows.into_iter())
        .map(|r| r.iter().cloned().chain([Value::str("dropped")]).collect());
    Relation::new(named.shared(), rows.collect())
}

/// The result set `x` holds: what the web service answers, as a tree.
fn source_xml() -> MtmMessage {
    resultset::encode("src", "t", &source_relation()).into()
}

/// The stylesheet that brings the source's result set to `schema()`'s
/// field names.
fn source_stx() -> Arc<Stylesheet> {
    Arc::new(Stylesheet::new(
        "src_to_rel",
        vec![
            Rule::for_name("key").rename("k").build(),
            Rule::for_name("note").drop().build(),
        ],
    ))
}

/// A load decoder over the result-set shape: the rows a [`RowSink`] of
/// `schema` decodes, all for `table`.
pub(crate) fn result_set_loader(table: &str, schema: SchemaRef) -> XmlDecoder {
    struct Loader {
        table: String,
        rows: RowSink,
    }
    impl Handler for Loader {
        fn start(
            &mut self,
            name: &str,
            attrs: Cow<'_, [(String, String)]>,
            children: usize,
        ) -> XmlResult<()> {
            self.rows.start(name, attrs, children)
        }
        fn text(&mut self, text: &str) -> XmlResult<()> {
            self.rows.text(text)
        }
        fn end(&mut self, name: &str) -> XmlResult<()> {
            self.rows.end(name)
        }
    }
    impl LoadSink for Loader {
        fn finish(self: Box<Self>) -> XmlResult<Result<Vec<TableRows>, String>> {
            let table = self.table;
            Ok((self.rows.finish()?)
                .map(|rel| {
                    vec![TableRows {
                        table,
                        rows: rel.rows,
                    }]
                })
                .map_err(|e| e.to_string()))
        }
    }
    let table = table.to_string();
    Arc::new(move || {
        let (table, rows) = (table.clone(), RowSink::new(&schema));
        Box::new(Loader { table, rows })
    })
}

/// The load of a translated result set into the sink table.
fn load(input: &str) -> Step {
    Step::DbLoadXml {
        db: v("db"),
        tables: vec![v("sink")],
        decoder: result_set_loader("sink", schema()),
        decoder_name: v("rows"),
        input: v(input),
        mode: LoadMode::Insert,
    }
}

/// The translation of `x` into `schema()`'s field names, bound to `output`.
fn translate_x(output: &str) -> Step {
    Step::Translate {
        stx: source_stx(),
        input: v("x"),
        output: v(output),
    }
}

/// A `CUSTOM` that appends one row to the result set it reads: in place
/// when it is handed the only binding, to a copy otherwise.
fn append_row(input: &str, output: &str) -> Step {
    Step::Custom {
        name: v("append_row"),
        reads: vec![v(input)],
        binds: vec![v(output)],
        f: Arc::new(|inputs| {
            let doc = inputs.into_iter().next().ok_or("no input")?;
            let mut doc = Arc::unwrap_or_clone(doc.into_xml()?);
            let row = (Element::new("row").child(Element::leaf("k", "9")))
                .child(Element::leaf("v", "1"))
                .child(Element::leaf("s", "z"));
            doc.root.children.push(XmlNode::Element(row));
            Ok(vec![doc.into()])
        }),
    }
}

fn v(name: &str) -> String {
    name.to_string()
}

fn assign(var: &str, value: impl Into<MtmMessage>) -> Step {
    Step::Assign {
        var: v(var),
        value: AssignValue::Const(value.into()),
    }
}

/// What every step list that starts a store binds: the relations, the
/// XML source `x` and the routing scalar `n`. A subprocess body's `a`
/// copies its `input`.
fn prologue(body: bool) -> Vec<Step> {
    let mut steps: Vec<Step> = (RELS.iter().zip(1i64..))
        .map(|(name, seed)| assign(name, relation(seed)))
        .collect();
    if body {
        steps[0] = Step::Assign {
            var: v("a"),
            value: AssignValue::CopyVar(v("input")),
        };
    }
    steps.push(assign("x", source_xml()));
    steps.push(assign("n", Value::Int(1)));
    steps
}

/// Bindings the observer step read, in its read order.
type Observed = Arc<Mutex<Vec<(String, MtmMessage)>>>;

/// Reads picks in order; an exhausted vector reads 0, which ends every
/// list, so any vector is a finite graph.
struct Picks<'p> {
    picks: &'p [usize],
    at: usize,
    /// The variable bound last: a read picks it three times in four, so
    /// steps chain.
    last: Option<String>,
}

impl Picks<'_> {
    fn next(&mut self, n: usize) -> usize {
        let pick = self.picks.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        pick % n
    }

    fn rel(&mut self) -> String {
        match (self.next(4), &self.last) {
            (1.., Some(last)) => last.clone(),
            _ => v(RELS[self.next(RELS.len())]),
        }
    }

    fn bind(&mut self, binds: &[&str]) -> String {
        let var = v(binds[self.next(binds.len())]);
        self.last = Some(var.clone());
        var
    }

    fn predicate(&mut self) -> Expr {
        let k = self.next(5) as i64;
        match self.next(3) {
            0 => Expr::col(0).gt(Expr::lit(k)),
            1 => Expr::col(1).eq(Expr::lit(k % 3)),
            // computed: s = 'x' OR k <= bound
            _ => Expr::Apply(
                Arc::new(move |a: &[Value]| {
                    let bound = a[1].to_int().is_some_and(|i| i <= k);
                    Ok(Value::Bool(a[0] == Value::str("x") || bound))
                }),
                vec![Expr::col(2), Expr::col(0)],
            ),
        }
    }

    /// Three output columns of `schema()`'s types, over an input whose
    /// column 0 and `ints` are INT and `s` is STR.
    fn projection(&mut self, ints: usize, s: usize) -> Vec<ProjExpr> {
        let int = |e: Expr, name: &str| ProjExpr::new(e, name, SqlType::Int);
        let (k, val) = match self.next(3) {
            0 => (Expr::col(0), Expr::col(ints)),
            1 => (Expr::col(ints), Expr::col(0)),
            _ => {
                let plus_one =
                    |a: &[Value]| Ok(a[0].to_int().map_or(Value::Null, |k| Value::Int(k + 1)));
                (
                    Expr::Apply(Arc::new(plus_one), vec![Expr::col(0)]),
                    Expr::lit(7),
                )
            }
        };
        vec![
            int(k, "k"),
            int(val, "v"),
            ProjExpr::new(Expr::col(s), "s", SqlType::Str),
        ]
    }

    /// A step list binding only `binds`; `sinks`: it may insert into the
    /// sink table (nothing under a FORK does, so the table's row order is
    /// the graph's).
    fn steps(&mut self, depth: usize, binds: &[&str], sinks: bool) -> Vec<Step> {
        let mut steps = Vec::new();
        if binds.is_empty() {
            return steps;
        }
        let longest = if depth == 0 { 10 } else { 5 };
        for _ in 0..self.next(longest) {
            self.push_step(&mut steps, depth, binds, sinks);
        }
        steps
    }

    fn push_step(&mut self, steps: &mut Vec<Step>, depth: usize, binds: &[&str], sinks: bool) {
        let nests = depth < MAX_DEPTH;
        // the three plan-wrapping steps twice as often as the rest
        match self.next(17) {
            0 | 11 => steps.push(Step::Selection {
                input: self.rel(),
                predicate: self.predicate(),
                output: self.bind(binds),
            }),
            1 | 12 => steps.push(Step::Projection {
                input: self.rel(),
                exprs: self.projection(1, 2),
                output: self.bind(binds),
            }),
            2 | 13 => {
                let inputs = (0..1 + self.next(3)).map(|_| self.rel()).collect();
                let key = [None, Some(vec![0]), Some(vec![1, 2])][self.next(3)].clone();
                let output = self.bind(binds);
                steps.push(Step::UnionDistinct {
                    inputs,
                    key,
                    output,
                });
            }
            3 => {
                // (k, v, s, k', v', s') narrowed to (k, v', s)
                let (left, right, key) = (self.rel(), self.rel(), self.next(2));
                let output = self.bind(binds);
                let wide = format!("{output}_wide");
                steps.push(Step::Join {
                    left,
                    right,
                    left_keys: vec![key],
                    right_keys: vec![key],
                    output: wide.clone(),
                });
                steps.push(Step::Projection {
                    input: wide,
                    exprs: self.projection(4, 2),
                    output,
                });
            }
            4 => {
                let output = self.bind(binds);
                let xml = format!("{output}_xml");
                steps.push(Step::Translate {
                    stx: source_stx(),
                    input: v("x"),
                    output: xml.clone(),
                });
                if self.next(3) == 0 {
                    // a step between: the pair does not fuse
                    self.push_step(steps, MAX_DEPTH, binds, sinks);
                }
                steps.push(Step::XmlToRel {
                    input: xml,
                    schema: schema(),
                    output,
                });
            }
            10 => {
                // WS_QUERY → TRANSLATE → XML_TO_REL: adjacent, apart, or
                // with the response translated twice
                let output = self.bind(binds);
                let (raw, xml) = (format!("{output}_raw"), format!("{output}_xml"));
                let way = self.next(3);
                steps.push(Step::WsQuery {
                    service: v("src"),
                    operation: v("t"),
                    output: raw.clone(),
                });
                if way == 1 {
                    // a step between: the query does not fuse
                    self.push_step(steps, MAX_DEPTH, binds, sinks);
                }
                let translate = |output: &String| Step::Translate {
                    stx: source_stx(),
                    input: raw.clone(),
                    output: output.clone(),
                };
                steps.push(translate(&xml));
                steps.push(Step::XmlToRel {
                    input: xml.clone(),
                    schema: schema(),
                    output: output.clone(),
                });
                if way == 2 {
                    // the response read again later: the query does not
                    // fuse, each translation does
                    steps.push(translate(&xml));
                    steps.push(Step::XmlToRel {
                        input: xml,
                        schema: schema(),
                        output,
                    });
                }
            }
            14 if sinks => {
                // TRANSLATE → DB_LOAD_XML: adjacent, apart, or with the
                // translated document decoded again later
                let xml = format!("load{}", self.at);
                let way = self.next(3);
                steps.push(translate_x(&xml));
                if way == 1 {
                    // a step between: the pair does not fuse
                    self.push_step(steps, MAX_DEPTH, binds, sinks);
                }
                steps.push(load(&xml));
                if way == 2 {
                    // read again: the translation does not fuse
                    steps.push(Step::XmlToRel {
                        input: xml,
                        schema: schema(),
                        output: self.bind(binds),
                    });
                }
            }
            15 => {
                // a CUSTOM edit of a translated document: its last reader,
                // or with the document decoded again after it
                let output = self.bind(binds);
                let (xml, edited) = (format!("{output}_in"), format!("{output}_edited"));
                steps.push(translate_x(&xml));
                steps.push(append_row(&xml, &edited));
                if self.next(2) == 1 {
                    steps.push(Step::XmlToRel {
                        input: xml,
                        schema: schema(),
                        output: output.clone(),
                    });
                }
                steps.push(Step::XmlToRel {
                    input: edited,
                    schema: schema(),
                    output,
                });
            }
            16 => self.push_shared_selection(steps, depth, binds, sinks),
            5 => steps.push(Step::Assign {
                value: AssignValue::CopyVar(self.rel()),
                var: self.bind(binds),
            }),
            6 if sinks => steps.push(Step::DbInsert {
                db: v("db"),
                table: v("sink"),
                input: self.rel(),
                mode: LoadMode::Insert,
            }),
            7 if nests => {
                let cases = (0..1 + self.next(2))
                    .map(|i| SwitchCase {
                        when: Expr::col(0).eq(Expr::lit(i as i64 + self.next(2) as i64)),
                        steps: self.steps(depth + 1, binds, sinks),
                    })
                    .collect();
                let default = self.steps(depth + 1, binds, sinks);
                steps.push(Step::Switch {
                    input: v("n"),
                    path: String::new(),
                    cases,
                    default,
                });
            }
            8 if nests => {
                // each branch binds its half of what this list may bind
                let branches = (BRANCH_BINDS.iter())
                    .map(|half| {
                        let mine: Vec<&str> =
                            half.iter().copied().filter(|b| binds.contains(b)).collect();
                        self.steps(depth + 1, &mine, false)
                    })
                    .collect();
                steps.push(Step::Fork { branches });
            }
            9 if nests => {
                let mut body = prologue(true);
                body.extend(self.steps(depth + 1, &RELS, sinks));
                body.push(Step::UnionDistinct {
                    inputs: vec![self.rel(), self.rel()],
                    key: None,
                    output: v("output"),
                });
                let process = ProcessDef::new("SUB", "generated", 'D', EventType::Timed, body);
                let (input, output) = (self.rel(), self.bind(binds));
                steps.push(Step::Subprocess {
                    process: Arc::new(process),
                    input: Some(input),
                    output: (self.next(4) > 0).then_some(output),
                });
            }
            _ => steps.push(Step::Selection {
                input: self.rel(),
                predicate: Expr::lit(true),
                output: self.bind(binds),
            }),
        }
    }
}

impl Picks<'_> {
    /// A SELECTION over a relation another step reads again, so that it
    /// shares its input's rows: its input then read by a PROJECTION, or
    /// (P14's shape) FORK branches each selecting from one relation and
    /// handing their selection to a loader SUBPROCESS, or one such
    /// selection and loader with the input read again after them.
    fn push_shared_selection(
        &mut self,
        steps: &mut Vec<Step>,
        depth: usize,
        binds: &[&str],
        sinks: bool,
    ) {
        let input = self.rel();
        let select = |picks: &mut Self, output: &str| Step::Selection {
            input: input.clone(),
            predicate: picks.predicate(),
            output: v(output),
        };
        match self.next(3) {
            1 if depth < MAX_DEPTH => {
                let branches = (BRANCH_BINDS.iter())
                    .map(|half| {
                        let mine: Vec<&str> =
                            half.iter().copied().filter(|b| binds.contains(b)).collect();
                        if mine.is_empty() {
                            return vec![];
                        }
                        let picked = format!("{}_picked", mine[0]);
                        vec![select(self, &picked), self.loader(&picked, &mine, false)]
                    })
                    .collect();
                steps.push(Step::Fork { branches });
            }
            2 => {
                let picked = format!("{}_picked", binds[0]);
                steps.push(select(self, &picked));
                steps.push(self.loader(&picked, binds, sinks));
                steps.push(Step::Assign {
                    var: self.bind(binds),
                    value: AssignValue::CopyVar(input.clone()),
                });
            }
            _ => {
                let output = self.bind(binds);
                steps.push(select(self, &output));
                steps.push(Step::Projection {
                    input: input.clone(),
                    exprs: self.projection(1, 2),
                    output: self.bind(binds),
                });
            }
        }
    }

    /// A SUBPROCESS handed `input`, which two PROJECTIONs read (and a
    /// `DB_INSERT`, when `sinks`), their union bound to one of `binds`.
    fn loader(&mut self, input: &str, binds: &[&str], sinks: bool) -> Step {
        let mut body = vec![
            Step::Projection {
                input: v("input"),
                exprs: self.projection(1, 2),
                output: v("p"),
            },
            Step::Projection {
                input: v("input"),
                exprs: self.projection(1, 2),
                output: v("q"),
            },
            Step::UnionDistinct {
                inputs: vec![v("p"), v("q")],
                key: None,
                output: v("output"),
            },
        ];
        if sinks {
            body.insert(
                1,
                Step::DbInsert {
                    db: v("db"),
                    table: v("sink"),
                    input: v("input"),
                    mode: LoadMode::Insert,
                },
            );
        }
        let process = ProcessDef::new("LOAD", "generated loader", 'D', EventType::Timed, body);
        Step::Subprocess {
            process: Arc::new(process),
            input: Some(v(input)),
            output: Some(self.bind(binds)),
        }
    }
}

/// The step that ends a graph: it reads `reads` and records what it read.
fn observer(reads: Vec<String>, observed: &Observed) -> Step {
    let (seen, names) = (observed.clone(), reads.clone());
    Step::Custom {
        name: v("observe"),
        reads,
        binds: vec![],
        f: Arc::new(move |inputs| {
            let read = names.iter().cloned().zip(inputs);
            seen.lock().unwrap().extend(read);
            Ok(vec![])
        }),
    }
}

/// The graph `picks` describe, its observer recording into `observed`.
fn graph(picks: &[usize], observed: &Observed) -> ProcessDef {
    let mut picks = Picks {
        picks,
        at: 0,
        last: None,
    };
    let mut steps = prologue(false);
    steps.extend(picks.steps(0, &RELS, true));
    let reads = (RELS.iter())
        .filter(|_| picks.next(3) == 0)
        .map(|name| v(name));
    steps.push(observer(reads.collect(), observed));
    ProcessDef::new("GEN", "generated", 'D', EventType::Timed, steps)
}

/// A database `db` with one keyless table `sink` of `schema()`, and a web
/// service `src` whose operation `t` answers `source_relation()`.
fn world() -> ExternalWorld {
    let link = LinkSpec::new(LatencyModel::Fixed { micros: 1 }, 1_000_000_000);
    let mut world = ExternalWorld::new(Arc::new(Network::new(link, 1)), "is");
    let db = Arc::new(Database::new("db"));
    db.create_table(Table::new("sink", schema()));
    world.add_database("db", "es.db", db);
    let source = source_relation();
    let ws = Arc::new(Database::new("src"));
    let t = Table::new("t", source.schema.clone());
    t.insert(source.rows).unwrap();
    ws.create_table(t);
    world.add_service("es.ws.src", Arc::new(DbService::new("src", ws)));
    world
}

/// How a run ended: its result (an error as its text), the bindings the
/// observer read, the sink's rows.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<(), String>,
    observed: Vec<(String, MtmMessage)>,
    sink: Vec<SharedRow>,
}

fn run(def: &ProcessDef, table: &Deployment, observed: &Observed) -> Outcome {
    let world = world();
    let costs = InstanceCosts::new();
    let result = Interpreter::new(&world, &costs).run_deployed(def, table, None);
    let sink = world.database("db").unwrap().table("sink").unwrap().scan();
    Outcome {
        result: result.map(|_: VarStore| ()).map_err(|e| e.to_string()),
        observed: std::mem::take(&mut *observed.lock().unwrap()),
        sink: sink.rows,
    }
}

/// `def` run with `table` and with the empty table; `Err` names the first
/// difference.
fn runs_agree(def: &ProcessDef, table: &Deployment, observed: &Observed) -> Result<(), String> {
    let deployed = run(def, table, observed);
    let written = run(def, &Deployment::default(), observed);
    if deployed == written {
        return Ok(());
    }
    Err(format!("deployed {deployed:?}\nas written {written:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_graphs_run_alike_deployed_and_as_written(
        picks in prop::collection::vec(0usize..1000, 0..120),
    ) {
        let observed = Observed::default();
        let def = graph(&picks, &observed);
        if validate(&def).is_ok() {
            if let Err(diff) = runs_agree(&def, &Deployment::of(&def), &observed) {
                panic!("picks {picks:?}\n{diff}");
            }
        }
    }
}

/// The comparison catches a fusion that loses a binding: a `PROJECTION`
/// planted as fused into the `UNION DISTINCT` after it while the observer
/// still reads its output.
#[test]
fn a_planted_fusion_whose_output_is_read_later_is_caught() {
    let observed = Observed::default();
    let mut steps = prologue(false);
    steps.extend([
        Step::Projection {
            input: v("a"),
            exprs: Picks {
                picks: &[],
                at: 0,
                last: None,
            }
            .projection(1, 2),
            output: v("p"),
        },
        Step::UnionDistinct {
            inputs: vec![v("p")],
            key: Some(vec![0]),
            output: v("u"),
        },
        observer(vec![v("p"), v("u")], &observed),
    ]);
    let def = ProcessDef::new("PLANTED", "planted", 'D', EventType::Timed, steps);
    validate(&def).unwrap();
    let projection = &def.steps[def.steps.len() - 3];
    assert!(
        !Deployment::of(&def).fuses(projection),
        "read later: never fused"
    );
    runs_agree(&def, &Deployment::of(&def), &observed).unwrap();
    let planted = Deployment::of(&def).fusing(projection);
    let caught = runs_agree(&def, &planted, &observed).unwrap_err();
    assert!(caught.contains("unbound process variable p"), "{caught}");
}

/// The same for a `WS_QUERY` planted as fused into the `TRANSLATE` after it
/// while a later step reads the response: the handed-on rows never bind it.
#[test]
fn a_planted_ws_query_fusion_whose_output_is_read_later_is_caught() {
    let observed = Observed::default();
    let mut steps = prologue(false);
    steps.extend([
        Step::WsQuery {
            service: v("src"),
            operation: v("t"),
            output: v("raw"),
        },
        Step::Translate {
            stx: source_stx(),
            input: v("raw"),
            output: v("xml"),
        },
        Step::XmlToRel {
            input: v("xml"),
            schema: schema(),
            output: v("r"),
        },
        observer(vec![v("raw"), v("r")], &observed),
    ]);
    let def = ProcessDef::new("PLANTED", "planted", 'D', EventType::Timed, steps);
    validate(&def).unwrap();
    let [query, translate] = [4, 3].map(|back| &def.steps[def.steps.len() - back]);
    let deployed = Deployment::of(&def);
    assert!(!deployed.fuses(query), "read later: never fused");
    assert!(deployed.fuses(translate));
    runs_agree(&def, &deployed, &observed).unwrap();
    let planted = Deployment::of(&def).fusing(query);
    let caught = runs_agree(&def, &planted, &observed).unwrap_err();
    assert!(caught.contains("unbound process variable raw"), "{caught}");
}

/// The same for a `TRANSLATE` planted as fused into the `DB_LOAD_XML` after
/// it while a later step decodes the translated document again.
#[test]
fn a_planted_translate_load_fusion_whose_output_is_read_later_is_caught() {
    let observed = Observed::default();
    let mut steps = prologue(false);
    steps.extend([
        translate_x("xml"),
        load("xml"),
        Step::XmlToRel {
            input: v("xml"),
            schema: schema(),
            output: v("r"),
        },
        observer(vec![v("r")], &observed),
    ]);
    let def = ProcessDef::new("PLANTED", "planted", 'D', EventType::Timed, steps);
    validate(&def).unwrap();
    let translate = &def.steps[def.steps.len() - 4];
    assert!(
        !Deployment::of(&def).fuses(translate),
        "read later: never fused"
    );
    runs_agree(&def, &Deployment::of(&def), &observed).unwrap();
    let planted = Deployment::of(&def).fusing(translate);
    let caught = runs_agree(&def, &planted, &observed).unwrap_err();
    assert!(caught.contains("unbound process variable xml"), "{caught}");
}

/// A `CUSTOM` planted as the last reader of a document a later step still
/// decodes: the move leaves that step nothing to read.
#[test]
fn a_planted_early_custom_move_is_caught() {
    let observed = Observed::default();
    let mut steps = prologue(false);
    steps.extend([
        translate_x("xml"),
        append_row("xml", "edited"),
        Step::XmlToRel {
            input: v("xml"),
            schema: schema(),
            output: v("r"),
        },
        observer(vec![v("edited"), v("r")], &observed),
    ]);
    let def = ProcessDef::new("PLANTED", "planted", 'D', EventType::Timed, steps);
    validate(&def).unwrap();
    let edit = &def.steps[def.steps.len() - 3];
    assert!(
        !Deployment::of(&def).takes(edit, "xml"),
        "read later: never moved"
    );
    runs_agree(&def, &Deployment::of(&def), &observed).unwrap();
    let planted = Deployment::of(&def).taking(edit, "xml");
    let caught = runs_agree(&def, &planted, &observed).unwrap_err();
    assert!(caught.contains("unbound process variable xml"), "{caught}");
}

/// Where a SELECTION over a shared input ran, and whether every row it
/// bound is one of its input's rows, the same allocation.
type Sharing = Arc<Mutex<Vec<(&'static str, bool)>>>;

/// `steps` (a list at `at`) with a check after every SELECTION that no
/// plan-wrapping step after it could fuse and that binds another name
/// than it reads: the check reads the input again, so the selection
/// runs over a shared input, and records into `sharing` whether the rows
/// it bound are its input's own.
fn sharing_checked(steps: &[Step], at: &'static str, sharing: &Sharing) -> Vec<Step> {
    let fusible = |n: &Step| {
        matches!(
            n,
            Step::Selection { .. } | Step::Projection { .. } | Step::UnionDistinct { .. }
        )
    };
    let mut out = Vec::new();
    for (k, step) in steps.iter().enumerate() {
        let mut step = step.clone();
        match &mut step {
            Step::Switch { cases, default, .. } => {
                for case in cases {
                    case.steps = sharing_checked(&case.steps, "nested", sharing);
                }
                *default = sharing_checked(default, "nested", sharing);
            }
            Step::Fork { branches } => {
                for branch in branches {
                    *branch = sharing_checked(branch, "fork branch", sharing);
                }
            }
            Step::Subprocess { process, .. } => {
                let steps = sharing_checked(&process.steps, "nested", sharing);
                let (id, name) = (&process.id, &process.name);
                let def = ProcessDef::new(id, name, process.group, process.event, steps);
                *process = Arc::new(def);
            }
            _ => {}
        }
        let next = steps.get(k + 1);
        let check = match &step {
            Step::Selection { input, output, .. }
                if input != output && !next.is_some_and(fusible) =>
            {
                let handed =
                    |n: &Step| matches!(n, Step::Subprocess { input: Some(i), .. } if i == output);
                let at = if next.is_some_and(handed) {
                    "subprocess input"
                } else {
                    at
                };
                let seen = sharing.clone();
                Some(Step::Custom {
                    name: v("check_sharing"),
                    reads: vec![input.clone(), output.clone()],
                    binds: vec![],
                    f: Arc::new(move |inputs| {
                        let (input, output) = (inputs[0].as_rel()?, inputs[1].as_rel()?);
                        let own = |r: &SharedRow| input.rows.iter().any(|i| Arc::ptr_eq(i, r));
                        if !output.is_empty() {
                            seen.lock().unwrap().push((at, output.rows.iter().all(own)));
                        }
                        Ok(vec![])
                    }),
                })
            }
            _ => None,
        };
        out.push(step);
        out.extend(check);
    }
    out
}

/// The generator reaches what it is for: in the first cases' graphs every
/// fused pair kind and every move occurs, and graphs validate. A SELECTION
/// over a shared input at the top level, in a FORK branch and for a
/// SUBPROCESS's input binds its input's own rows: no value copied.
#[test]
fn generated_graphs_fuse_every_pair_kind() {
    use crate::process::Nested;
    /// Fused pairs by kind, and whether a `CUSTOM` edit took its input.
    type Seen = (Vec<(&'static str, &'static str)>, Vec<bool>);
    fn walk(steps: &[Step], table: &Deployment, seen: &mut Seen) {
        for (step, next) in steps.iter().zip(steps.iter().skip(1)) {
            if table.fuses(step) {
                seen.0.push((step.kind().0, next.kind().0));
            }
        }
        for step in steps {
            if let Step::Custom { name, reads, .. } = step {
                if name == "append_row" {
                    seen.1.push(table.takes(step, &reads[0]));
                }
            }
            match step.facts().nested {
                Some(Nested::Alternatives(lists) | Nested::Parallel(lists)) => {
                    for (_, list) in lists {
                        walk(list, table, seen);
                    }
                }
                Some(Nested::Call(process)) => walk(&process.steps, table, seen),
                None => {}
            }
        }
    }
    let mut seen = Seen::default();
    let sharing = Sharing::default();
    let mut valid = 0;
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..256 {
        let picks: Vec<usize> = (0..120)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % 1000) as usize
            })
            .collect();
        let def = graph(&picks, &Observed::default());
        if validate(&def).is_ok() {
            valid += 1;
            walk(&def.steps, &Deployment::of(&def), &mut seen);
            let steps = sharing_checked(&def.steps, "top level", &sharing);
            let checked = ProcessDef::new("GEN", "checked", 'D', EventType::Timed, steps);
            validate(&checked).unwrap();
            run(&checked, &Deployment::of(&checked), &Observed::default());
        }
    }
    assert!(valid > 128, "{valid} of 256 graphs validate");
    let (fused, edits) = seen;
    let sharing = sharing.lock().unwrap();
    for at in ["top level", "fork branch", "subprocess input"] {
        let ran: Vec<bool> = (sharing.iter())
            .filter(|(place, _)| *place == at)
            .map(|(_, own)| *own)
            .collect();
        assert!(!ran.is_empty(), "no selection over a shared input at {at}");
        assert!(
            ran.iter().all(|own| *own),
            "a selection at {at} copied rows"
        );
    }
    assert!(edits.contains(&true), "no edit was moved its input");
    assert!(edits.contains(&false), "no edit shared its input");
    for pair in [
        ("ws_query", "translate"),
        ("translate", "xml_to_rel"),
        ("translate", "db_load_xml"),
        ("projection", "union_distinct"),
        ("union_distinct", "projection"),
        ("join", "projection"),
        ("selection", "selection"),
    ] {
        assert!(fused.contains(&pair), "{pair:?} never fused: {fused:?}");
    }
}

/// Why a `JOIN` takes no plan: a hash join builds on the side estimated
/// smaller, a plan's estimate is not its rows' count (a distinct union
/// estimates the sum of its inputs), and the two build sides emit the
/// same rows in another order.
#[test]
fn a_join_takes_no_plan_from_the_step_before_it() {
    let observed = Observed::default();
    let mut steps = prologue(false);
    steps.extend([
        Step::UnionDistinct {
            inputs: vec![v("a")],
            key: Some(vec![0]),
            output: v("u"),
        },
        Step::Join {
            left: v("u"),
            right: v("b"),
            left_keys: vec![0],
            right_keys: vec![0],
            output: v("w"),
        },
        observer(vec![v("w")], &observed),
    ]);
    let def = ProcessDef::new("JOIN", "join", 'D', EventType::Timed, steps);
    let union = &def.steps[def.steps.len() - 3];
    assert!(!Deployment::of(&def).fuses(union));
    runs_agree(&def, &Deployment::of(&def), &observed).unwrap();

    let no_tables = Database::new("values");
    let values = |seed| Plan::Values(relation(seed).into());
    let union = Plan::UnionDistinct {
        inputs: vec![values(1)],
        key: Some(vec![0]),
    };
    let join = |left: Plan| left.hash_join(values(2), vec![0], vec![0]).run(&no_tables);
    let as_plan = join(union.clone()).unwrap();
    let as_rows = join(Plan::Values(union.run(&no_tables).unwrap().into())).unwrap();
    assert_ne!(as_plan.rows, as_rows.rows, "the build side flipped");
    let sorted = |mut rows: Vec<SharedRow>| {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    };
    assert_eq!(sorted(as_plan.rows), sorted(as_rows.rows));
}
