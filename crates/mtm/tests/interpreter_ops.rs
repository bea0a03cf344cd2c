//! Operator-level tests of the MTM interpreter: every step kind exercised
//! against a small world, including the branches unit tests don't reach.

use dip_mtm::context::VarStore;
use dip_mtm::interpreter::Interpreter;
use dip_mtm::message::{MtmMessage, MtmTypeError};
use dip_mtm::process::{
    AssignValue, EventType, LoadMode, LoadSink, ProcessDef, Step, SwitchCase, TableRows,
};
use dip_mtm::{InstanceCosts, MtmEngine, MtmError};
use dip_netsim::{LatencyModel, LinkSpec, Network};
use dip_relstore::prelude::*;
use dip_services::registry::ExternalWorld;
use dip_services::webservice::DbService;
use dip_xmlkit::node::{Document, Element};
use dip_xmlkit::sax::Handler;
use dip_xmlkit::stx::{Rule, Stylesheet};
use dip_xmlkit::value_types::SimpleType;
use dip_xmlkit::xsd::{XsdElement, XsdSchema};
use dip_xmlkit::XmlResult;
use proptest::prelude::*;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex};

fn world() -> Arc<ExternalWorld> {
    let net = Arc::new(Network::new(
        LinkSpec::new(LatencyModel::Fixed { micros: 10 }, 10_000_000),
        1,
    ));
    let mut w = ExternalWorld::new(net, "is");
    let db = Arc::new(Database::new("db"));
    let schema = RelSchema::of(&[("k", SqlType::Int), ("v", SqlType::Str)]).shared();
    let t = Table::new("t", schema.clone())
        .with_primary_key(&["k"])
        .unwrap();
    t.insert(vec![
        vec![Value::Int(1), Value::str("one")],
        vec![Value::Int(2), Value::str("two")],
        vec![Value::Int(3), Value::str("three")],
    ])
    .unwrap();
    db.create_table(t);
    db.create_table(
        Table::new("sink", schema.clone())
            .with_primary_key(&["k"])
            .unwrap(),
    );
    db.create_procedure(
        "sp_echo",
        Arc::new(move |_db, args| {
            let schema = RelSchema::of(&[("echo", SqlType::Int)]).shared();
            Ok(Some(Relation::new(
                schema,
                vec![[Value::Int(
                    args.first().and_then(|v| v.to_int()).unwrap_or(-1),
                )]
                .into()],
            )))
        }),
    );
    w.add_database("db", "es.cdb", db);
    let ws_db = Arc::new(Database::new("ws_db"));
    let ws_schema = RelSchema::of(&[("k", SqlType::Int), ("v", SqlType::Str)]).shared();
    let wt = Table::new("items", ws_schema)
        .with_primary_key(&["k"])
        .unwrap();
    wt.insert(vec![vec![Value::Int(9), Value::str("ws-item")]])
        .unwrap();
    ws_db.create_table(wt);
    w.add_service("es.ws.test", Arc::new(DbService::new("testws", ws_db)));
    Arc::new(w)
}

fn engine() -> MtmEngine {
    MtmEngine::new(world())
}

fn run_timed(steps: Vec<Step>) -> Result<MtmEngine, MtmError> {
    let e = engine();
    e.deploy(ProcessDef::new("T", "test", 'B', EventType::Timed, steps))?;
    e.execute("T", 0, None)?;
    Ok(e)
}

#[test]
fn dyn_query_builds_plan_from_variables() {
    let e = run_timed(vec![
        Step::Assign {
            var: "needle".into(),
            value: AssignValue::Const(MtmMessage::Scalar(Value::Int(2))),
        },
        Step::DbQueryDyn {
            db: "db".into(),
            reads: vec!["needle".into()],
            plan_name: "lookup".into(),
            plan: Arc::new(|inputs| {
                let k = inputs[0].as_scalar()?.clone();
                Ok(Plan::scan("t").filter(Expr::col(0).eq(Expr::Lit(k))))
            }),
            output: "hit".into(),
        },
        Step::DbInsert {
            db: "db".into(),
            table: "sink".into(),
            input: "hit".into(),
            mode: LoadMode::Insert,
        },
    ])
    .unwrap();
    let sink = e.world.database("db").unwrap().table("sink").unwrap();
    assert_eq!(sink.row_count(), 1);
    assert_eq!(
        sink.get_by_pk(&[Value::Int(2)]).unwrap()[1],
        Value::str("two")
    );
}

#[test]
fn dyn_query_builder_error_is_reported() {
    let err = run_timed(vec![Step::DbQueryDyn {
        db: "db".into(),
        reads: vec![],
        plan_name: "broken".into(),
        plan: Arc::new(|_| Err("deliberately broken".into())),
        output: "x".into(),
    }])
    .unwrap_err();
    assert!(err.to_string().contains("deliberately broken"));
}

#[test]
fn rel_xml_codec_roundtrip_through_steps() {
    let e = run_timed(vec![
        Step::DbQuery {
            db: "db".into(),
            plan: Plan::scan("t"),
            output: "rel".into(),
        },
        Step::RelToXml {
            input: "rel".into(),
            source: "db".into(),
            table: "t".into(),
            output: "xml".into(),
        },
        Step::XmlToRel {
            input: "xml".into(),
            schema: RelSchema::of(&[("k", SqlType::Int), ("v", SqlType::Str)]).shared(),
            output: "back".into(),
        },
        Step::DbInsert {
            db: "db".into(),
            table: "sink".into(),
            input: "back".into(),
            mode: LoadMode::Insert,
        },
    ])
    .unwrap();
    assert_eq!(
        e.world
            .database("db")
            .unwrap()
            .table("sink")
            .unwrap()
            .row_count(),
        3
    );
}

#[test]
fn validate_takes_correct_branch() {
    let xsd = Arc::new(XsdSchema::new(
        "s",
        XsdElement::sequence("m", vec![XsdElement::simple("k", SimpleType::Int).once()]),
    ));
    let mark = |name: &str| Step::Assign {
        var: "branch".into(),
        value: AssignValue::Const(MtmMessage::Scalar(Value::str(name))),
    };
    let build = |xsd: Arc<XsdSchema>| {
        vec![
            Step::Receive { var: "msg".into() },
            Step::Validate {
                xsd,
                input: "msg".into(),
                on_valid: vec![mark("valid")],
                on_invalid: vec![mark("invalid")],
            },
            Step::Custom {
                name: "export".into(),
                reads: vec!["branch".into()],
                binds: vec![],
                // surfacing the branch via an error message keeps the
                // test independent of var inspection APIs
                f: Arc::new(|inputs| Err(format!("took:{}", inputs[0].as_scalar()?.render()))),
            },
        ]
    };
    let e = engine();
    e.deploy(ProcessDef::new(
        "V",
        "v",
        'B',
        EventType::Message,
        build(xsd),
    ))
    .unwrap();
    let good = Document::new(Element::new("m").child(Element::leaf("k", "1")));
    let err = e.execute("V", 0, Some(good)).unwrap_err();
    assert!(err.to_string().contains("took:valid"), "{err}");
    let bad = Document::new(Element::new("m").child(Element::leaf("k", "NaN")));
    let err = e.execute("V", 0, Some(bad)).unwrap_err();
    assert!(err.to_string().contains("took:invalid"), "{err}");
}

#[test]
fn switch_no_match_without_default_errors() {
    let e = engine();
    e.deploy(ProcessDef::new(
        "S",
        "s",
        'A',
        EventType::Message,
        vec![
            Step::Receive { var: "msg".into() },
            Step::Switch {
                input: "msg".into(),
                path: "m/k".into(),
                cases: vec![SwitchCase {
                    when: Expr::col(0).lt(Expr::lit(0)),
                    steps: vec![],
                }],
                default: vec![],
            },
        ],
    ))
    .unwrap();
    let msg = Document::new(Element::new("m").child(Element::leaf("k", "5")));
    let err = e.execute("S", 0, Some(msg)).unwrap_err();
    assert!(matches!(err, MtmError::NoCaseMatched { .. }), "{err}");
}

#[test]
fn translate_and_ws_steps() {
    let sheet = Arc::new(Stylesheet::new(
        "t",
        vec![Rule::for_name("resultSet")
            .rename_attr("source", "origin")
            .build()],
    ));
    let e = engine();
    e.deploy(ProcessDef::new(
        "W",
        "w",
        'A',
        EventType::Timed,
        vec![
            Step::WsQuery {
                service: "testws".into(),
                operation: "items".into(),
                output: "raw".into(),
            },
            Step::Translate {
                stx: sheet,
                input: "raw".into(),
                output: "tr".into(),
            },
            Step::XmlToRel {
                input: "tr".into(),
                schema: RelSchema::of(&[("k", SqlType::Int), ("v", SqlType::Str)]).shared(),
                output: "rel".into(),
            },
            Step::DbInsert {
                db: "db".into(),
                table: "sink".into(),
                input: "rel".into(),
                mode: LoadMode::Insert,
            },
        ],
    ))
    .unwrap();
    e.execute("W", 0, None).unwrap();
    let sink = e.world.database("db").unwrap().table("sink").unwrap();
    assert_eq!(
        sink.get_by_pk(&[Value::Int(9)]).unwrap()[1],
        Value::str("ws-item")
    );
}

#[test]
fn db_call_and_delete_steps() {
    let e = run_timed(vec![
        Step::DbCall {
            db: "db".into(),
            proc: "sp_echo".into(),
            args: vec![Value::Int(42)],
            output: Some("echo".into()),
        },
        Step::Custom {
            name: "check_echo".into(),
            reads: vec!["echo".into()],
            binds: vec![],
            f: Arc::new(|inputs| match &inputs[0].as_rel()?.rows[0][0] {
                Value::Int(42) => Ok(vec![]),
                other => Err(format!("echo was {other:?}")),
            }),
        },
        Step::DbDelete {
            db: "db".into(),
            table: "t".into(),
            predicate: Expr::col(0).le(Expr::lit(2)),
        },
    ])
    .unwrap();
    assert_eq!(
        e.world
            .database("db")
            .unwrap()
            .table("t")
            .unwrap()
            .row_count(),
        1
    );
}

#[test]
fn union_distinct_step_on_variables() {
    let e = run_timed(vec![
        Step::DbQuery {
            db: "db".into(),
            plan: Plan::scan("t"),
            output: "a".into(),
        },
        Step::DbQuery {
            db: "db".into(),
            plan: Plan::scan("t"),
            output: "b".into(),
        },
        Step::UnionDistinct {
            inputs: vec!["a".into(), "b".into()],
            key: Some(vec![0]),
            output: "u".into(),
        },
        Step::DbInsert {
            db: "db".into(),
            table: "sink".into(),
            input: "u".into(),
            mode: LoadMode::Insert,
        },
    ])
    .unwrap();
    // duplicates across the two scans were eliminated — the insert (plain
    // mode, duplicate keys would error) succeeded with exactly 3 rows
    assert_eq!(
        e.world
            .database("db")
            .unwrap()
            .table("sink")
            .unwrap()
            .row_count(),
        3
    );
}

#[test]
fn join_step_enriches() {
    let e = run_timed(vec![
        Step::DbQuery {
            db: "db".into(),
            plan: Plan::scan("t"),
            output: "l".into(),
        },
        Step::DbQuery {
            db: "db".into(),
            plan: Plan::scan("t"),
            output: "r".into(),
        },
        Step::Join {
            left: "l".into(),
            right: "r".into(),
            left_keys: vec![0],
            right_keys: vec![0],
            output: "j".into(),
        },
        Step::Projection {
            input: "j".into(),
            exprs: vec![
                ProjExpr::new(Expr::col(0), "k", SqlType::Int),
                ProjExpr::new(
                    joined(vec![Expr::col(1), Expr::lit("+"), Expr::col(3)]),
                    "v",
                    SqlType::Str,
                ),
            ],
            output: "p".into(),
        },
        Step::DbInsert {
            db: "db".into(),
            table: "sink".into(),
            input: "p".into(),
            mode: LoadMode::Insert,
        },
    ])
    .unwrap();
    let sink = e.world.database("db").unwrap().table("sink").unwrap();
    assert_eq!(
        sink.get_by_pk(&[Value::Int(1)]).unwrap()[1],
        Value::str("one+one")
    );
}

/// JOIN at size, with NULL and unmatched keys: the step answers as the
/// oracle does on the same plan, and it reads its inputs through their
/// `Arc`s — the plan shares the payloads, both variables stay bound to
/// them.
#[test]
fn join_step_at_size_matches_the_oracle_and_shares_its_inputs() {
    let wide = RelSchema::of(&[
        ("k", SqlType::Int),
        ("part", SqlType::Int),
        ("qty", SqlType::Int),
        ("price", SqlType::Float),
        ("tag", SqlType::Str),
        ("note", SqlType::Str),
    ])
    .shared();
    let facts = (0..20_000i64).map(|k| {
        let part = if k % 97 == 0 {
            Value::Null
        } else {
            Value::Int(k % 80) // 64..80 have no partner
        };
        let tag = Value::str(format!("t{}", k % 7));
        vec![
            Value::Int(k),
            part,
            Value::Int(1 + k % 40),
            Value::Float((k % 1000) as f64 / 8.0),
            tag,
            Value::Null,
        ]
    });
    let left = Arc::new(Relation::new(wide, facts.map(Into::into).collect()));
    let parts = (0..64i64).map(|p| vec![Value::Int(p), Value::str(format!("part-{p}"))]);
    let right = Arc::new(Relation::new(
        RelSchema::of(&[("part", SqlType::Int), ("name", SqlType::Str)]).shared(),
        parts.map(Into::into).collect(),
    ));
    let (l, r) = (
        MtmMessage::Rel(left.clone()),
        MtmMessage::Rel(right.clone()),
    );
    let vars = run_vars(vec![
        bind("l", l.clone()),
        bind("r", r.clone()),
        Step::Join {
            left: "l".into(),
            right: "r".into(),
            left_keys: vec![1],
            right_keys: vec![0],
            output: "j".into(),
        },
    ]);
    let plan = Plan::Values(left.clone()).hash_join(Plan::Values(right.clone()), vec![1], vec![0]);
    let joined = vars.get("j").unwrap().as_rel().unwrap();
    assert_eq!(joined, &oracle(plan));
    assert_eq!(joined.len(), 15_834);
    assert!(same_payload(vars.get("l").unwrap(), &l), "left");
    assert!(same_payload(vars.get("r").unwrap(), &r), "right");
}

/// A UNION DISTINCT key column the inputs do not have is the executor's
/// typed error for the plan the step runs (`Plan::UnionDistinct`), and one
/// failed instance — it used to index out of bounds and panic inside the
/// instance. The plan is checked before a row is read, so a union of no
/// rows fails too, as a JOIN's key does
/// (`join_key_out_of_range_fails_the_instance`).
#[test]
fn union_distinct_key_out_of_range_is_a_typed_error() {
    let union = |key| {
        vec![
            Step::DbQuery {
                db: "db".into(),
                plan: Plan::scan("t").filter(Expr::col(0).ge(Expr::lit(key))),
                output: "a".into(),
            },
            Step::UnionDistinct {
                inputs: vec!["a".into()],
                key: Some(vec![9]),
                output: "u".into(),
            },
        ]
    };
    // three rows, then none
    for from in [1, 100] {
        let e = engine();
        let def = ProcessDef::new("U", "union", 'B', EventType::Timed, union(from));
        e.deploy(def).unwrap();
        let err = e.execute("U", 0, None).unwrap_err();
        assert!(matches!(err, MtmError::Store(_)), "{err:?}");
        let text = "union key: column index 9 out of range for 2 columns";
        assert!(err.to_string().contains(text), "{err}");
        let records = e.recorder().drain();
        assert_eq!(records.len(), 1);
        assert!(!records[0].ok, "recorded as a failed instance");
    }
}

/// A JOIN key column an input does not have fails the instance with the
/// executor's typed error — validation checks only the keys' arity, and
/// the plan used to read the missing column as NULL and join nothing.
#[test]
fn join_key_out_of_range_fails_the_instance() {
    let e = engine();
    e.deploy(ProcessDef::new(
        "J",
        "join",
        'B',
        EventType::Timed,
        vec![
            Step::DbQuery {
                db: "db".into(),
                plan: Plan::scan("t"),
                output: "l".into(),
            },
            Step::Join {
                left: "l".into(),
                right: "l".into(),
                left_keys: vec![0],
                right_keys: vec![5],
                output: "j".into(),
            },
        ],
    ))
    .unwrap();
    let err = e.execute("J", 0, None).unwrap_err();
    assert!(matches!(err, MtmError::Store(_)), "{err:?}");
    assert!(
        err.to_string().contains("column index 5 out of range"),
        "{err}"
    );
    let records = e.recorder().drain();
    assert_eq!(records.len(), 1);
    assert!(!records[0].ok, "recorded as a failed instance");
}

/// A decoder that reads nothing of its message and emits a row for `sink`,
/// then one for `t`.
struct TwoTables;

impl Handler for TwoTables {
    fn start(&mut self, _: &str, _: Cow<'_, [(String, String)]>, _: usize) -> XmlResult<()> {
        Ok(())
    }
    fn text(&mut self, _: &str) -> XmlResult<()> {
        Ok(())
    }
    fn end(&mut self, _: &str) -> XmlResult<()> {
        Ok(())
    }
}

impl LoadSink for TwoTables {
    fn finish(self: Box<Self>) -> XmlResult<Result<Vec<TableRows>, String>> {
        let batch = |table: &str, k| TableRows {
            table: table.into(),
            rows: vec![[Value::Int(k), Value::str("loaded")].into()],
        };
        Ok(Ok(vec![batch("sink", 7), batch("t", 8)]))
    }
}

/// The scheduler orders a loader by the tables its step declares, so a
/// decoder emitting rows for another table fails before anything is loaded.
#[test]
fn decoder_emitting_an_undeclared_table_fails_before_loading() {
    let steps = vec![
        bind("doc", Document::new(Element::new("m"))),
        Step::DbLoadXml {
            db: "db".into(),
            tables: vec!["sink".into()],
            decoder: Arc::new(|| Box::new(TwoTables)),
            decoder_name: "two_tables".into(),
            input: "doc".into(),
            mode: LoadMode::Insert,
        },
    ];
    // a bare interpreter has no transaction around it: what it loaded stays
    let (world, costs) = (world(), InstanceCosts::new());
    let def = ProcessDef::new("L", "load", 'B', EventType::Timed, steps);
    let err = Interpreter::new(&world, &costs)
        .run(&def, None)
        .unwrap_err();
    assert!(matches!(err, MtmError::Custom(_)), "{err:?}");
    let msg = err.to_string();
    assert!(
        msg.contains("decoder two_tables: undeclared table t"),
        "{msg}"
    );
    let sink = world.database("db").unwrap().table("sink").unwrap();
    assert_eq!(sink.row_count(), 0, "the declared table's batch came first");
}

/// What `Custom` and `DbQueryDyn` read is declared, so an unbound read is
/// rejected at deploy, naming step and variable — their closures used to
/// take the whole variable store, such a definition deployed, and its
/// first instance failed.
#[test]
fn deploy_rejects_an_unbound_declared_read() {
    let custom = Step::Custom {
        name: "enrich".into(),
        reads: vec!["absent".into()],
        binds: vec![],
        f: Arc::new(|_| Ok(vec![])),
    };
    let dyn_query = Step::DbQueryDyn {
        db: "db".into(),
        reads: vec!["absent".into()],
        plan_name: "lookup".into(),
        plan: Arc::new(|_| Ok(Plan::scan("t"))),
        output: "hit".into(),
    };
    for (step, named) in [
        (custom, "Custom[enrich]"),
        (dyn_query, "DbQueryDyn[lookup]"),
    ] {
        let err = run_timed(vec![step]).map(|_| ()).unwrap_err();
        assert!(matches!(err, MtmError::InvalidProcess(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains(named) && msg.contains("reads absent"), "{msg}");
    }
}

/// A `Custom` returns one message per declared bind: any other number is
/// an error of the step, not an index panic or a silently unbound variable.
#[test]
fn custom_output_count_must_match_its_binds() {
    let returning = |outputs: Vec<MtmMessage>| Step::Custom {
        name: "miscount".into(),
        reads: vec![],
        binds: vec!["x".into()],
        f: Arc::new(move |_| Ok(outputs.clone())),
    };
    let one = MtmMessage::Scalar(Value::Int(1));
    for outputs in [vec![], vec![one.clone(), one.clone()]] {
        let err = run_timed(vec![returning(outputs)]).map(|_| ()).unwrap_err();
        assert!(matches!(err, MtmError::Custom(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("miscount: returned"), "{msg}");
    }
    let vars = run_vars(vec![returning(vec![one.clone()])]);
    assert_eq!(vars.get("x"), Some(&one));
}

/// A `Custom` is handed what it reads last moved out of the store — the
/// only binding, so `Arc::unwrap_or_clone` edits the document in place —
/// and what a later step reads as a shared clone: the edit copies, and the
/// binding keeps the original.
#[test]
fn custom_is_handed_what_it_reads_last() {
    let sharers = Arc::new(Mutex::new(Vec::new()));
    let fresh_doc = Step::Custom {
        name: "fresh doc".into(),
        reads: vec![],
        binds: vec!["doc".into()],
        f: Arc::new(|_| Ok(vec![Document::new(Element::new("m")).into()])),
    };
    let seen = sharers.clone();
    let edit = Step::Custom {
        name: "edit".into(),
        reads: vec!["doc".into()],
        binds: vec!["edited".into()],
        f: Arc::new(move |inputs| {
            let doc = inputs.into_iter().next().ok_or("no input")?.into_xml()?;
            seen.lock().unwrap().push(Arc::strong_count(&doc));
            let mut doc = Arc::unwrap_or_clone(doc);
            doc.root = doc.root.child(Element::leaf("added", "1"));
            Ok(vec![doc.into()])
        }),
    };
    let moved = run_vars(vec![fresh_doc.clone(), edit.clone()]);
    let shared = run_vars(vec![fresh_doc, edit, read("doc")]);
    assert_eq!(*sharers.lock().unwrap(), [1, 2]);
    assert!(!moved.contains("doc"), "moved to the edit");
    let xml = |vars: &VarStore, name: &str| vars.get(name).unwrap().as_xml().unwrap().clone();
    assert_eq!(xml(&shared, "doc"), Document::new(Element::new("m")));
    assert_eq!(xml(&moved, "edited"), xml(&shared, "edited"));
    assert!(xml(&moved, "edited").root.first("added").is_some());
}

// ---- data flow by reference: operators against their relstore twins,
// ---- and what FORK / SUBPROCESS share

/// Run `steps` in a bare interpreter and hand back the final variables.
fn run_vars(steps: Vec<Step>) -> VarStore {
    run_on(&world(), steps).unwrap()
}

/// [`run_vars`] against a given world, failures included.
fn run_on(world: &ExternalWorld, steps: Vec<Step>) -> Result<VarStore, MtmError> {
    let costs = InstanceCosts::new();
    let def = ProcessDef::new("T", "test", 'B', EventType::Timed, steps);
    Interpreter::new(world, &costs).run(&def, None)
}

fn bind(var: &str, value: impl Into<MtmMessage>) -> Step {
    Step::Assign {
        var: var.into(),
        value: AssignValue::Const(value.into()),
    }
}

/// The oracle's answer to a `Values`-only plan.
fn oracle(plan: Plan) -> Relation {
    execute_oracle(&plan, &Database::new("scratch")).unwrap()
}

fn nis_schema() -> SchemaRef {
    RelSchema::of(&[
        ("n", SqlType::Float),
        ("i", SqlType::Int),
        ("s", SqlType::Str),
    ])
    .shared()
}

/// Nullable (numeric, int, str) relations over a domain small enough that
/// duplicates are the rule; `n` mixes `Int(k)` and `Float(k.0)`, which are
/// equal as keys.
fn arb_relation() -> impl Strategy<Value = Relation> {
    let n = prop_oneof![
        Just(Value::Null),
        (0i64..4).prop_map(Value::Int),
        (0i64..4).prop_map(|k| Value::Float(k as f64)),
    ];
    let i = prop_oneof![1 => Just(Value::Null), 4 => (0i64..4).prop_map(Value::Int)];
    let s = prop_oneof![1 => Just(Value::Null), 4 => "[ab]{0,1}".prop_map(Value::str)];
    prop::collection::vec((n, i, s), 0..24).prop_map(|rows| {
        Relation::new(
            nis_schema(),
            rows.into_iter()
                .map(|(n, i, s)| vec![n, i, s])
                .map(Into::into)
                .collect(),
        )
    })
}

const CMP_OPS: [CmpOp; 5] = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
    Expr::Cmp(op, Box::new(a), Box::new(b))
}

/// A computed expression: `f` over the values of `args`.
fn apply(
    args: Vec<Expr>,
    f: impl Fn(&[Value]) -> StoreResult<Value> + Send + Sync + 'static,
) -> Expr {
    Expr::Apply(Arc::new(f), args)
}

/// `col + 1`, an int staying an int; NULL stays NULL.
fn plus_one(col: usize) -> Expr {
    apply(vec![Expr::col(col)], |a| {
        Ok(match &a[0] {
            Value::Int(k) => Value::Int(k + 1),
            v => v.to_float().map_or(Value::Null, |x| Value::Float(x + 1.0)),
        })
    })
}

/// The rendered values of `args` run together, a NULL rendering empty.
fn joined(args: Vec<Expr>) -> Expr {
    apply(args, |a| {
        let parts = a.iter().filter(|v| !v.is_null()).map(Value::render);
        Ok(Value::str(parts.collect::<String>()))
    })
}

/// A predicate over `nis_schema` rows: column/literal, column/column and
/// computed comparison operands, alone and under AND with another
/// comparison that is NULL wherever its column is.
fn predicate(shape: usize, op: CmpOp, k: i64) -> Expr {
    let col_lit = cmp(op, Expr::col(1), Expr::lit(k));
    let col_col = cmp(op, Expr::col(0), Expr::col(1));
    let computed = cmp(op, plus_one(1), Expr::col(0));
    match shape {
        0 => col_lit,
        1 => col_col,
        2 => computed,
        3 => col_lit.and(Expr::col(2).eq(Expr::lit("a"))),
        4 => col_col.and(Expr::col(2).ge(Expr::lit("a"))),
        _ => cmp(op, Expr::lit(k), Expr::col(0)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn selection_matches_plan_filter(
        rel in arb_relation(),
        shape in 0usize..6,
        op in 0..CMP_OPS.len(),
        k in 0i64..4,
    ) {
        let pred = predicate(shape, CMP_OPS[op], k);
        let vars = run_vars(vec![
            bind("in", rel.clone()),
            Step::Selection { input: "in".into(), predicate: pred.clone(), output: "out".into() },
        ]);
        let expected = oracle(Plan::Values(rel.into()).filter(pred));
        prop_assert_eq!(vars.get("out").unwrap().as_rel().unwrap(), &expected);
    }

    #[test]
    fn projection_matches_plan_project(rel in arb_relation(), op in 0..CMP_OPS.len()) {
        let exprs = vec![
            ProjExpr::new(Expr::col(2), "s", SqlType::Str),
            ProjExpr::new(plus_one(0), "n1", SqlType::Float),
            ProjExpr::new(
                joined(vec![Expr::col(2), Expr::lit("-"), Expr::col(1)]),
                "tag",
                SqlType::Str,
            ),
            ProjExpr::new(cmp(CMP_OPS[op], Expr::col(0), Expr::col(1)), "c", SqlType::Bool),
        ];
        let vars = run_vars(vec![
            bind("in", rel.clone()),
            Step::Projection { input: "in".into(), exprs: exprs.clone(), output: "out".into() },
        ]);
        let expected = oracle(Plan::Values(rel.into()).project(exprs));
        prop_assert_eq!(vars.get("out").unwrap().as_rel().unwrap(), &expected);
    }

    #[test]
    fn union_distinct_matches_plan_union_distinct(
        a in arb_relation(),
        b in arb_relation(),
        key in prop_oneof![Just(None), Just(Some(vec![0])), Just(Some(vec![0, 2]))],
    ) {
        let vars = run_vars(vec![
            bind("a", a.clone()),
            bind("b", b.clone()),
            Step::UnionDistinct {
                inputs: vec!["a".into(), "b".into(), "a".into()],
                key: key.clone(),
                output: "out".into(),
            },
        ]);
        let expected = oracle(Plan::UnionDistinct {
            inputs: vec![Plan::Values(a.clone().into()), Plan::Values(b.into()), Plan::Values(a.into())],
            key,
        });
        prop_assert_eq!(vars.get("out").unwrap().as_rel().unwrap(), &expected);
    }
}

/// What the relational steps read: no rows, every hard case at once (an
/// `Int(3)` next to `Float(3.0)` in the FLOAT column, NULL keys, a key and
/// a whole row repeated), and a generated relation over the same domain,
/// so keys repeat across inputs too.
fn inputs(generated: Relation) -> [Relation; 3] {
    let row = |n: Value, i: Value, s: Value| SharedRow::from([n, i, s]);
    let (a, b) = (Value::str("a"), Value::str("b"));
    let hard = vec![
        row(Value::Int(3), Value::Int(1), a.clone()),
        row(Value::Float(3.0), Value::Int(1), a.clone()),
        row(Value::Null, Value::Int(2), b.clone()),
        row(Value::Null, Value::Int(2), b),
        row(Value::Float(2.5), Value::Null, Value::Null),
        row(Value::Int(3), Value::Int(1), a),
    ];
    let schema = nis_schema();
    [
        Relation::new(schema.clone(), vec![]),
        Relation::new(schema, hard),
        generated,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// SELECTION, PROJECTION and UNION DISTINCT (one to three inputs,
    /// keyed and whole-row) each bind what `execute_oracle` answers for the
    /// same one-node plan over `Values`, whether the step takes its inputs
    /// (it reads them last and nothing shares them) or copies them.
    #[test]
    fn relational_steps_agree_with_the_oracle(
        generated in arb_relation(),
        picks in prop::collection::vec(0usize..3, 1..4),
        shape in 0usize..6,
        op in 0..CMP_OPS.len(),
        k in 0i64..4,
        key in prop_oneof![Just(None), Just(Some(vec![0])), Just(Some(vec![1, 0]))],
        taken in any::<bool>(),
    ) {
        let pool = inputs(generated);
        let names: Vec<String> = (0..picks.len()).map(|n| format!("in{n}")).collect();
        // binds the first `n` inputs, runs `step` over them and hands back
        // what it bound
        let run = |step: Step, n: usize| {
            let read_by = &names[..n];
            let mut steps: Vec<Step> = (read_by.iter().zip(&picks))
                .map(|(name, &p)| fresh(name, &pool[p]))
                .collect();
            steps.push(step);
            if !taken {
                steps.extend(read_by.iter().map(|name| read(name)));
            }
            let vars = run_vars(steps);
            for name in read_by {
                assert_eq!(vars.contains(name), !taken, "{name}");
            }
            vars.get("out").unwrap().as_rel().unwrap().clone()
        };
        let values = |p: usize| Plan::Values(pool[p].clone().into());

        let predicate = predicate(shape, CMP_OPS[op], k);
        let selected = run(Step::Selection {
            input: names[0].clone(),
            predicate: predicate.clone(),
            output: "out".into(),
        }, 1);
        prop_assert_eq!(selected, oracle(values(picks[0]).filter(predicate)));

        let exprs = vec![
            ProjExpr::new(Expr::col(2), "s", SqlType::Str),
            ProjExpr::new(Expr::col(0), "n", SqlType::Float),
            ProjExpr::new(plus_one(0), "n1", SqlType::Float),
            ProjExpr::new(cmp(CMP_OPS[op], Expr::col(0), Expr::col(1)), "c", SqlType::Bool),
            ProjExpr::new(Expr::col(0), "n_again", SqlType::Float),
        ];
        let projected = run(Step::Projection {
            input: names[0].clone(),
            exprs: exprs.clone(),
            output: "out".into(),
        }, 1);
        prop_assert_eq!(projected, oracle(values(picks[0]).project(exprs)));

        let united = run(Step::UnionDistinct {
            inputs: names.clone(),
            key: key.clone(),
            output: "out".into(),
        }, names.len());
        let plan = Plan::UnionDistinct {
            inputs: picks.iter().map(|&p| values(p)).collect(),
            key,
        };
        prop_assert_eq!(united, oracle(plan));
    }
}

#[test]
fn union_distinct_keys_compare_by_contents() {
    let rel = Relation::new(
        nis_schema(),
        vec![
            [Value::Int(3), Value::Int(1), Value::str("x")].into(),
            [Value::Float(3.0), Value::Int(2), Value::str("x")].into(),
            [Value::Null, Value::Int(3), Value::str("y")].into(),
            [Value::Null, Value::Int(4), Value::str("y")].into(),
            [Value::Int(3), Value::Int(1), Value::str("x")].into(),
        ],
    );
    let firsts = |key: Option<Vec<usize>>| -> Vec<Value> {
        let vars = run_vars(vec![
            bind("in", rel.clone()),
            Step::UnionDistinct {
                inputs: vec!["in".into()],
                key,
                output: "out".into(),
            },
        ]);
        let out = vars.get("out").unwrap().as_rel().unwrap();
        out.rows.iter().map(|r| r[1].clone()).collect()
    };
    // Int(3) and Float(3.0) are one key; so are two NULLs; first seen wins
    assert_eq!(firsts(Some(vec![0])), vec![Value::Int(1), Value::Int(3)]);
    assert_eq!(firsts(Some(vec![0, 2])), vec![Value::Int(1), Value::Int(3)]);
    // whole-row: only the exact repeat of row 0 goes
    assert_eq!(
        firsts(None),
        vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)]
    );
}

/// A `Custom` step that files the current binding of `var` under `label`
/// (sharing its payload, so `Arc` identity can be compared afterwards). It
/// names `var` twice, so it is never the variable's last reader and leaves
/// the store as it found it.
fn probe(seen: &Arc<Mutex<HashMap<String, MtmMessage>>>, label: &str, var: &str) -> Step {
    let (seen, label, var) = (seen.clone(), label.to_string(), var.to_string());
    Step::Custom {
        name: format!("probe {label}"),
        reads: vec![var.clone(), var],
        binds: vec![],
        f: Arc::new(move |inputs| {
            seen.lock()
                .unwrap()
                .insert(label.clone(), inputs[0].clone());
            Ok(vec![])
        }),
    }
}

fn wait(barrier: &Arc<Barrier>) -> Step {
    let barrier = barrier.clone();
    Step::Custom {
        name: "wait".into(),
        reads: vec![],
        binds: vec![],
        f: Arc::new(move |_| {
            barrier.wait();
            Ok(vec![])
        }),
    }
}

/// Both are relations and share one payload.
fn same_payload(a: &MtmMessage, b: &MtmMessage) -> bool {
    matches!((a, b), (MtmMessage::Rel(a), MtmMessage::Rel(b)) if Arc::ptr_eq(a, b))
}

fn ints(values: &[i64]) -> Relation {
    Relation::new(
        RelSchema::of(&[("k", SqlType::Int)]).shared(),
        values
            .iter()
            .map(|&k| vec![Value::Int(k)])
            .map(Into::into)
            .collect(),
    )
}

#[test]
fn fork_and_subprocess_share_the_parents_relation_and_keep_rebindings_apart() {
    let seen = Arc::new(Mutex::new(HashMap::new()));
    let rebound = Arc::new(Barrier::new(2));
    let keep_low = Step::Selection {
        input: "big".into(),
        predicate: Expr::col(0).lt(Expr::lit(2)),
        output: "big".into(),
    };
    let sub = Arc::new(ProcessDef::new(
        "SUB",
        "sub",
        'D',
        EventType::Timed,
        vec![
            probe(&seen, "sub.input", "input"),
            // rebinding the subprocess's own `input` ...
            Step::Selection {
                input: "input".into(),
                predicate: Expr::col(0).ge(Expr::lit(2)),
                output: "input".into(),
            },
            Step::Assign {
                var: "output".into(),
                value: AssignValue::CopyVar("input".into()),
            },
        ],
    ));
    let vars = run_vars(vec![
        bind("big", ints(&[0, 1, 2, 3])),
        bind("other", ints(&[7])),
        probe(&seen, "parent.big", "big"),
        probe(&seen, "parent.other", "other"),
        Step::Fork {
            branches: vec![
                // branch 0 rebinds the inherited `big` ...
                vec![keep_low, wait(&rebound)],
                // ... and branch 1, which looks only afterwards, still sees
                // the parent's
                vec![
                    wait(&rebound),
                    probe(&seen, "b1.big", "big"),
                    Step::Subprocess {
                        process: sub,
                        input: Some("big".into()),
                        output: Some("from_sub".into()),
                    },
                    // ... is invisible to the caller's variable
                    probe(&seen, "b1.big.after_sub", "big"),
                ],
            ],
        },
    ]);
    let seen = seen.lock().unwrap();
    let original = &seen["parent.big"];
    assert!(
        same_payload(&seen["b1.big"], original),
        "branch sees the parent's relation"
    );
    assert!(
        same_payload(&seen["sub.input"], original),
        "subprocess input is not a copy"
    );
    assert!(same_payload(&seen["b1.big.after_sub"], original));
    assert_eq!(
        original.as_rel().unwrap(),
        &ints(&[0, 1, 2, 3]),
        "never modified"
    );
    // the join takes over what each branch bound, and nothing it inherited:
    // branch 0's rebinding survives branch 1's stale `big`
    assert_eq!(vars.get("big").unwrap().as_rel().unwrap(), &ints(&[0, 1]));
    assert_eq!(
        vars.get("from_sub").unwrap().as_rel().unwrap(),
        &ints(&[2, 3])
    );
    assert!(same_payload(
        vars.get("other").unwrap(),
        &seen["parent.other"]
    ));
}

#[test]
fn fork_merge_keeps_a_branch_rebinding() {
    let scalar = |v: i64| MtmMessage::Scalar(Value::Int(v));
    let vars = run_vars(vec![
        bind("x", scalar(1)),
        Step::Fork {
            branches: vec![
                vec![bind("x", scalar(2))],
                // never touches x: its inherited x = 1 must not come back
                vec![bind("y", scalar(3))],
            ],
        },
    ]);
    assert_eq!(vars.get("x"), Some(&scalar(2)));
    assert_eq!(vars.get("y"), Some(&scalar(3)));
}

// ---- the DbInsert last-use move

/// Rows of `db.sink`'s shape, `(k, "v<k>")`.
fn kv(keys: &[i64]) -> Relation {
    let rows = keys
        .iter()
        .map(|&k| vec![Value::Int(k), Value::str(format!("v{k}"))]);
    Relation::new(
        RelSchema::of(&[("k", SqlType::Int), ("v", SqlType::Str)]).shared(),
        rows.map(Into::into).collect(),
    )
}

fn insert(var: &str) -> Step {
    Step::DbInsert {
        db: "db".into(),
        table: "sink".into(),
        input: var.into(),
        mode: LoadMode::InsertIgnore,
    }
}

fn sink_keys(world: &ExternalWorld) -> Vec<i64> {
    let sink = world.database("db").unwrap().table("sink").unwrap();
    let rows = sink.scan().rows;
    let mut keys: Vec<i64> = rows.iter().map(|r| r[0].to_int().unwrap()).collect();
    keys.sort_unstable();
    keys
}

/// The last reader of a relation takes it: the table gets the rows and
/// the variable is gone from the store the instance leaves behind.
#[test]
fn db_insert_reading_its_input_last_takes_it() {
    let world = world();
    let vars = run_on(&world, vec![bind("rows", kv(&[4, 5, 6])), insert("rows")]).unwrap();
    assert_eq!(sink_keys(&world), vec![4, 5, 6]);
    assert!(!vars.contains("rows"), "taken, not left bound");
}

/// A variable read after the insert — by the next step, after a SWITCH
/// whose chosen case inserts it, inside a later SWITCH case or FORK
/// branch, or as the `output` a subprocess body inserts before handing it
/// back — is loaded from and left as it was.
#[test]
fn db_insert_leaves_a_variable_read_later_unchanged() {
    let seen = Arc::new(Mutex::new(HashMap::new()));
    let original = MtmMessage::from(kv(&[1, 2]));
    let switch = |steps| Step::Switch {
        input: "route".into(),
        path: String::new(),
        cases: vec![SwitchCase {
            when: Expr::lit(true),
            steps,
        }],
        default: vec![],
    };
    let route = || bind("route", Value::Int(1));
    let sub = Arc::new(ProcessDef::new(
        "SUB",
        "load and return",
        'D',
        EventType::Timed,
        vec![
            Step::Selection {
                input: "input".into(),
                predicate: Expr::col(0).ge(Expr::lit(2)),
                output: "output".into(),
            },
            insert("output"),
        ],
    ));
    let call = Step::Subprocess {
        process: sub,
        input: Some("rows".into()),
        output: Some("loaded".into()),
    };
    let read = |case| probe(&seen, case, "rows");
    let fork = |branch| Step::Fork {
        branches: vec![branch, vec![bind("other", Value::Int(0))]],
    };
    let cases = [
        ("next step", vec![insert("rows"), read("next step")]),
        (
            "after switch",
            vec![route(), switch(vec![insert("rows")]), read("after switch")],
        ),
        (
            "in a later case",
            vec![
                insert("rows"),
                route(),
                switch(vec![read("in a later case")]),
            ],
        ),
        (
            "in a later branch",
            vec![insert("rows"), fork(vec![read("in a later branch")])],
        ),
        ("subprocess output", vec![call, read("subprocess output")]),
    ];
    for (case, steps) in cases {
        let world = world();
        let mut all = vec![bind("rows", original.clone())];
        all.extend(steps);
        let vars = run_on(&world, all).unwrap();
        let seen = seen.lock().unwrap();
        assert!(same_payload(&seen[case], &original), "{case}");
        assert_eq!(original.as_rel().unwrap(), &kv(&[1, 2]), "{case}");
        assert!(same_payload(vars.get("rows").unwrap(), &original), "{case}");
        if case == "subprocess output" {
            assert_eq!(sink_keys(&world), vec![2]);
            assert_eq!(vars.get("loaded").unwrap().as_rel().unwrap(), &kv(&[2]));
        } else {
            assert_eq!(sink_keys(&world), vec![1, 2], "{case}");
        }
    }
}

/// What a FORK branch binds and inserts is taken unless the parent reads
/// it after the FORK.
#[test]
fn db_insert_in_a_fork_branch_keeps_what_the_parent_reads_after() {
    let branch = vec![
        Step::Selection {
            input: "rows".into(),
            predicate: Expr::col(0).ge(Expr::lit(2)),
            output: "high".into(),
        },
        insert("high"),
    ];
    let read_high = Step::Custom {
        name: "read high".into(),
        // named twice: read, and left bound
        reads: vec!["high".into(), "high".into()],
        binds: vec![],
        f: Arc::new(|_| Ok(vec![])),
    };
    for read_after in [false, true] {
        let world = world();
        let mut steps = vec![
            bind("rows", kv(&[1, 2, 3])),
            Step::Fork {
                branches: vec![branch.clone(), vec![bind("other", Value::Int(0))]],
            },
        ];
        if read_after {
            steps.push(read_high.clone());
        }
        let vars = run_on(&world, steps).unwrap();
        assert_eq!(sink_keys(&world), vec![2, 3]);
        let high = vars.get("high").map(|m| m.as_rel().unwrap());
        assert_eq!(high, read_after.then(|| kv(&[2, 3])).as_ref());
    }
}

/// A relation shared with another binding — an ASSIGN copy, or the
/// parent's binding a FORK branch inherited — is copied by the insert that
/// reads it last: the other binding still holds the original rows.
#[test]
fn db_insert_copies_a_relation_another_binding_shares() {
    let original = MtmMessage::from(kv(&[7, 8]));
    let copy_var = Step::Assign {
        var: "b".into(),
        value: AssignValue::CopyVar("a".into()),
    };
    let fork = Step::Fork {
        branches: vec![vec![insert("a")], vec![bind("other", Value::Int(0))]],
    };
    for steps in [vec![copy_var, insert("b")], vec![fork]] {
        let world = world();
        let mut all = vec![bind("a", original.clone())];
        all.extend(steps);
        let vars = run_on(&world, all).unwrap();
        assert_eq!(sink_keys(&world), vec![7, 8]);
        assert!(!vars.contains("b"), "the ASSIGN copy was taken");
        assert!(same_payload(vars.get("a").unwrap(), &original));
        assert_eq!(original.as_rel().unwrap(), &kv(&[7, 8]));
    }
}

/// Inserting a variable that holds no relation fails the same way whether
/// or not the insert is its last reader.
#[test]
fn db_insert_of_a_non_relation_is_a_type_error() {
    let expected = MtmTypeError {
        expected: "relation",
        got: "scalar",
    };
    let read_after = Step::Custom {
        name: "read n".into(),
        reads: vec!["n".into()],
        binds: vec![],
        f: Arc::new(|_| Ok(vec![])),
    };
    let last = vec![bind("n", Value::Int(3)), insert("n")];
    let not_last = vec![bind("n", Value::Int(3)), insert("n"), read_after];
    for steps in [last, not_last] {
        let world = world();
        match run_on(&world, steps) {
            Err(MtmError::Type(e)) => assert_eq!(e, expected),
            other => panic!("{other:?}"),
        }
        assert_eq!(sink_keys(&world), Vec::<i64>::new());
    }
}

// ---- relational steps take what they read last

/// A step binding `var` to a copy of `rel` that nothing else shares — a
/// constant ASSIGN's payload is shared with the definition that holds it.
fn fresh(var: &str, rel: &Relation) -> Step {
    let rel = rel.clone();
    Step::Custom {
        name: format!("fresh {var}"),
        reads: vec![],
        binds: vec![var.into()],
        f: Arc::new(move |_| Ok(vec![rel.clone().into()])),
    }
}

/// A step that reads `var` and does nothing with it: it names `var`
/// twice, so it is never the variable's last reader and leaves it bound.
fn read(var: &str) -> Step {
    Step::Custom {
        name: format!("read {var}"),
        reads: vec![var.into(), var.into()],
        binds: vec![],
        f: Arc::new(|_| Ok(vec![])),
    }
}

type Addresses = Arc<Mutex<HashMap<String, Vec<usize>>>>;

/// Where each row of `rel` keeps its values: a row moved on or shared
/// keeps its buffer, a row built anew gets a new one.
fn buffers(rel: &Relation) -> Vec<usize> {
    rel.rows.iter().map(|r| r.as_ptr() as usize).collect()
}

/// A step that files, under `label`, the address of `var`'s relation and
/// then of each of its rows' buffers — without sharing the relation.
fn addresses(seen: &Addresses, label: &str, var: &str) -> Step {
    let (seen, label) = (seen.clone(), label.to_string());
    Step::Custom {
        name: format!("addresses {label}"),
        reads: vec![var.into()],
        binds: vec![],
        f: Arc::new(move |inputs| {
            let MtmMessage::Rel(rel) = &inputs[0] else {
                return Err("not a relation".into());
            };
            let mut at = vec![Arc::as_ptr(rel) as usize];
            at.extend(buffers(rel));
            seen.lock().unwrap().insert(label.clone(), at);
            Ok(vec![])
        }),
    }
}

/// The four steps that take a relation they read last.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reader {
    Selection,
    Projection,
    Union,
    Subprocess,
}

const READERS: [Reader; 4] = [
    Reader::Selection,
    Reader::Projection,
    Reader::Union,
    Reader::Subprocess,
];

/// A step of `kind` reading `kv`-shaped `var` into `out`. The subprocess
/// files how many bindings share the relation it receives under
/// "callee input".
fn reader(kind: Reader, var: &str, out: &str, seen: &Addresses) -> Step {
    let (input, output) = (var.to_string(), out.to_string());
    match kind {
        Reader::Selection => Step::Selection {
            input,
            predicate: Expr::col(0).ge(Expr::lit(2)),
            output,
        },
        // computed and bare columns mixed, `k` named twice
        Reader::Projection => Step::Projection {
            input,
            exprs: vec![
                ProjExpr::new(
                    joined(vec![Expr::col(1), Expr::lit("/"), Expr::col(0)]),
                    "tag",
                    SqlType::Str,
                ),
                ProjExpr::new(Expr::col(1), "v", SqlType::Str),
                ProjExpr::new(Expr::col(0), "k", SqlType::Int),
                ProjExpr::new(Expr::col(0), "k2", SqlType::Int),
            ],
            output,
        },
        Reader::Union => Step::UnionDistinct {
            inputs: vec![input],
            key: Some(vec![0]),
            output,
        },
        Reader::Subprocess => {
            let seen = seen.clone();
            let sharers = Step::Custom {
                name: "sharers".into(),
                reads: vec!["input".into()],
                binds: vec![],
                f: Arc::new(move |inputs| {
                    let MtmMessage::Rel(rel) = &inputs[0] else {
                        return Err("not a relation".into());
                    };
                    // the selection after this step reads `input` too, so
                    // this step is handed a clone: one sharer of its own
                    let n = Arc::strong_count(rel) - 1;
                    seen.lock().unwrap().insert("callee input".into(), vec![n]);
                    Ok(vec![])
                }),
            };
            let callee = ProcessDef::new(
                "LOAD",
                "select and return",
                'D',
                EventType::Timed,
                vec![
                    sharers,
                    Step::Selection {
                        input: "input".into(),
                        predicate: Expr::col(0).ge(Expr::lit(2)),
                        output: "output".into(),
                    },
                ],
            );
            Step::Subprocess {
                process: Arc::new(callee),
                input: Some(input),
                output: Some(output),
            }
        }
    }
}

/// `(k, "v<k>")` rows with a repeated key.
fn repeated() -> Relation {
    kv(&[1, 2, 2, 3, 0])
}

fn rel_of<'v>(vars: &'v VarStore, var: &str) -> &'v Relation {
    vars.get(var).unwrap().as_rel().unwrap()
}

/// The last reader of a relation nothing else shares unbinds it — the
/// input is freed when the step ends — and binds what it binds when a
/// later step reads the input too; the callee receives its input unshared.
#[test]
fn relational_steps_take_a_relation_they_read_last() {
    for kind in READERS {
        let seen: Addresses = Default::default();
        let copied = run_vars(vec![
            fresh("in", &repeated()),
            reader(kind, "in", "out", &seen),
            read("in"),
        ]);
        let copy_sharers = seen.lock().unwrap().remove("callee input");
        let moved = run_vars(vec![
            fresh("in", &repeated()),
            reader(kind, "in", "out", &seen),
        ]);
        assert_eq!(rel_of(&copied, "in"), &repeated(), "{kind:?}");
        assert!(!moved.contains("in"), "{kind:?}: unbound");
        assert_eq!(rel_of(&moved, "out"), rel_of(&copied, "out"), "{kind:?}");
        let seen = seen.lock().unwrap();
        if kind == Reader::Subprocess {
            assert_eq!(copy_sharers, Some(vec![2]));
            assert_eq!(seen["callee input"], vec![1]);
        }
    }
}

/// A relation another binding still reads — a later step, an ASSIGN
/// `CopyVar` alias, a FORK sibling — is copied by its last reader and
/// stays bound to the same rows.
#[test]
fn relational_steps_copy_a_relation_another_binding_reads() {
    let rebound = Arc::new(Barrier::new(2));
    for kind in READERS {
        let seen: Addresses = Default::default();
        let shared = Arc::new(Mutex::new(HashMap::new()));
        let expected = run_vars(vec![
            fresh("in", &repeated()),
            reader(kind, "in", "out", &seen),
        ]);
        let alias = Step::Assign {
            var: "alias".into(),
            value: AssignValue::CopyVar("in".into()),
        };
        let sibling = Step::Fork {
            branches: vec![
                vec![reader(kind, "in", "out", &seen), wait(&rebound)],
                vec![wait(&rebound), probe(&shared, "sibling", "in")],
            ],
        };
        for (case, steps) in [
            (
                "later reader",
                vec![reader(kind, "in", "out", &seen), read("in")],
            ),
            ("alias", vec![alias, reader(kind, "in", "out", &seen)]),
            ("sibling", vec![sibling]),
        ] {
            let mut all = vec![fresh("in", &repeated()), addresses(&seen, case, "in")];
            all.extend(steps);
            let vars = run_vars(all);
            let before = seen.lock().unwrap()[case][0];
            let original = vars.get("in").unwrap();
            let MtmMessage::Rel(rel) = original else {
                panic!("{kind:?} {case}: {original:?}");
            };
            assert_eq!(Arc::as_ptr(rel) as usize, before, "{kind:?} {case}");
            assert_eq!(&**rel, &repeated(), "{kind:?} {case}");
            assert_eq!(
                rel_of(&vars, "out"),
                rel_of(&expected, "out"),
                "{kind:?} {case}"
            );
            if case == "alias" {
                assert!(same_payload(vars.get("alias").unwrap(), original));
            }
            if case == "sibling" {
                assert!(same_payload(&shared.lock().unwrap()["sibling"], original));
            }
        }
    }
}

/// A FORK branch that reads an inherited relation last copies it: the
/// parent's binding is the one it had, and the join takes over what the
/// branch bound — the same as when the parent reads the relation again.
#[test]
fn a_fork_branch_reading_an_inherited_relation_last_leaves_the_parent_as_it_was() {
    for kind in READERS {
        let seen: Addresses = Default::default();
        let fork = Step::Fork {
            branches: vec![
                vec![reader(kind, "in", "out", &seen)],
                vec![bind("other", Value::Int(0))],
            ],
        };
        let run = |after: Vec<Step>| {
            let mut steps = vec![
                fresh("in", &repeated()),
                addresses(&seen, "parent", "in"),
                fork.clone(),
            ];
            steps.extend(after);
            run_vars(steps)
        };
        let merged = run(vec![]);
        let before = seen.lock().unwrap()["parent"][0];
        let read_again = run(vec![read("in")]);
        let MtmMessage::Rel(rel) = merged.get("in").unwrap() else {
            panic!("{kind:?}");
        };
        assert_eq!(Arc::as_ptr(rel) as usize, before, "{kind:?}");
        assert_eq!(&**rel, &repeated(), "{kind:?}");
        let mut names = merged.names();
        names.sort_unstable();
        assert_eq!(names, vec!["in", "other", "out"], "{kind:?}");
        assert_eq!(
            rel_of(&merged, "out"),
            rel_of(&read_again, "out"),
            "{kind:?}"
        );
        if kind == Reader::Subprocess {
            // the parent's binding, the branch's, the callee's (and the
            // sibling's, while it runs)
            let sharers = seen.lock().unwrap()["callee input"][0];
            assert!(sharers >= 3, "{sharers}");
        }
    }
}

/// A projection that takes its input — a column named twice, or by a
/// computed expression too — reads the same as one that copies it and as
/// the oracle's.
#[test]
fn projection_moving_its_input_answers_as_the_oracle() {
    let rel = repeated();
    let exprs = vec![
        ProjExpr::new(Expr::col(0), "k", SqlType::Int),
        ProjExpr::new(
            apply(vec![Expr::col(0)], |a| {
                Ok(Value::Int(a[0].to_int().unwrap() * 10))
            }),
            "k10",
            SqlType::Int,
        ),
        ProjExpr::new(Expr::col(1), "v", SqlType::Str),
        ProjExpr::new(Expr::col(0), "again", SqlType::Int),
        ProjExpr::new(
            joined(vec![Expr::col(1), Expr::lit("+")]),
            "v+",
            SqlType::Str,
        ),
    ];
    let project = Step::Projection {
        input: "in".into(),
        exprs: exprs.clone(),
        output: "out".into(),
    };
    let moved = run_vars(vec![fresh("in", &rel), project.clone()]);
    let copied = run_vars(vec![fresh("in", &rel), project, read("in")]);
    let expected = oracle(Plan::Values(rel.into()).project(exprs));
    assert!(!moved.contains("in"));
    assert_eq!(rel_of(&moved, "out"), &expected);
    assert_eq!(rel_of(&copied, "out"), &expected);
}

/// A projection failing on a later row — a computed expression's error,
/// or a bare column beyond the row (`column index c out of range`) — fails
/// the instance with a typed error, whether the step took its input or
/// copied it; nothing is bound.
#[test]
fn projection_failing_part_way_is_a_typed_error() {
    let failing = |exprs: Vec<ProjExpr>| Step::Projection {
        input: "in".into(),
        exprs,
        output: "out".into(),
    };
    let divide = vec![
        ProjExpr::new(Expr::col(1), "v", SqlType::Str),
        ProjExpr::new(
            // 10 / k
            apply(vec![Expr::col(0)], |a| match a[0].to_int() {
                Some(0) => Err(StoreError::Eval("division by zero".into())),
                k => Ok(k.map_or(Value::Null, |k| Value::Int(10 / k))),
            }),
            "q",
            SqlType::Int,
        ),
    ];
    let beyond = vec![
        ProjExpr::new(Expr::col(1), "v", SqlType::Str),
        ProjExpr::new(Expr::col(5), "x", SqlType::Int),
    ];
    for (exprs, text) in [
        (divide, "division by zero"),
        (beyond, "column index 5 out of range"),
    ] {
        for taken in [true, false] {
            let mut steps = vec![fresh("in", &repeated()), failing(exprs.clone())];
            if !taken {
                steps.push(read("in"));
            }
            let e = engine();
            e.deploy(ProcessDef::new("F", "f", 'B', EventType::Timed, steps))
                .unwrap();
            let err = e.execute("F", 0, None).unwrap_err();
            assert!(matches!(err, MtmError::Store(_)), "{err:?}");
            assert!(err.to_string().contains(text), "{err}");
            let records = e.recorder().drain();
            assert!(records.len() == 1 && !records[0].ok, "a failed instance");
        }
    }
}

/// `UNION DISTINCT [a, a]` reads `a` twice, so neither read is its last:
/// `a` stays bound to its rows, and the rows the union keeps are `a`'s
/// own, shared (a stored row is immutable), not copies.
#[test]
fn union_distinct_naming_a_variable_twice_shares_its_rows() {
    let seen: Addresses = Default::default();
    let vars = run_vars(vec![
        fresh("a", &repeated()),
        addresses(&seen, "a", "a"),
        Step::UnionDistinct {
            inputs: vec!["a".into(), "a".into()],
            key: None,
            output: "u".into(),
        },
    ]);
    assert_eq!(rel_of(&vars, "a"), &repeated());
    assert_eq!(rel_of(&vars, "u"), &kv(&[1, 2, 3, 0]));
    let rows = &seen.lock().unwrap()["a"][1..];
    assert!(buffers(rel_of(&vars, "u")).iter().all(|a| rows.contains(a)));
}

/// A UNION DISTINCT input narrower than the first is the executor's arity
/// error, and a row narrower than its relation's schema is the `Values`
/// leaf's — both used to index out of bounds and panic inside the
/// instance.
#[test]
fn union_distinct_of_a_narrower_input_is_a_typed_error() {
    let scan = Step::DbQuery {
        db: "db".into(),
        plan: Plan::scan("t"),
        output: "a".into(),
    };
    let narrow = Step::Projection {
        input: "a".into(),
        exprs: vec![ProjExpr::new(Expr::col(0), "k", SqlType::Int)],
        output: "b".into(),
    };
    let short_row = Relation::new(
        RelSchema::of(&[("k", SqlType::Int), ("v", SqlType::Str)]).shared(),
        vec![[Value::Int(4)].into()],
    );
    let union = Step::UnionDistinct {
        inputs: vec!["a".into(), "b".into()],
        key: Some(vec![1]),
        output: "u".into(),
    };
    for (bind_b, text) in [
        (narrow, "union arity mismatch: 1 vs 2"),
        (fresh("b", &short_row), "values row 0 is not 2 columns wide"),
    ] {
        let e = engine();
        let steps = vec![scan.clone(), bind_b, union.clone()];
        e.deploy(ProcessDef::new("U", "u", 'B', EventType::Timed, steps))
            .unwrap();
        let err = e.execute("U", 0, None).unwrap_err();
        assert!(matches!(err, MtmError::Store(_)), "{err:?}");
        assert!(err.to_string().contains(text), "{err}");
        let records = e.recorder().drain();
        assert!(records.len() == 1 && !records[0].ok, "a failed instance");
    }
}

#[test]
fn spans_on_fork_threads_carry_the_instance() {
    let e = engine();
    e.deploy(ProcessDef::new(
        "TRC",
        "traced fork",
        'D',
        EventType::Timed,
        vec![Step::Fork {
            branches: vec![
                vec![bind("a", MtmMessage::Scalar(Value::Int(1)))],
                vec![bind("b", MtmMessage::Scalar(Value::Int(2)))],
            ],
        }],
    ))
    .unwrap();
    dip_trace::enable();
    e.execute("TRC", 3, None).unwrap();
    dip_trace::disable();
    let spans = dip_trace::drain();
    let fork = spans.iter().find(|s| s.op == "fork").expect("fork span");
    let assigns: Vec<_> = spans.iter().filter(|s| s.op == "assign").collect();
    assert_eq!(assigns.len(), 2, "both branches recorded: {spans:?}");
    for a in assigns {
        assert_ne!(a.thread, fork.thread, "recorded on a branch thread");
        assert_eq!(a.process.as_deref(), Some("TRC"));
        assert_eq!((a.period, a.instance), (fork.period, fork.instance));
        assert_eq!(a.period, Some(3));
    }
}

/// `Expr::Cmp` reads column and literal operands in place and computes the
/// rest; whichever way an operand arrives, the result is the three-valued
/// comparison of the two values.
#[test]
fn cmp_is_the_same_over_borrowed_and_computed_operands() {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let values = [
        Value::Null,
        Value::Int(3),
        Value::Float(3.0),
        Value::Float(2.5),
        Value::Int(-1),
        Value::str("a"),
        Value::str("b"),
        Value::Bool(true),
    ];
    let expected = |op: CmpOp, a: &Value, b: &Value| {
        if a.is_null() || b.is_null() {
            return Value::Null;
        }
        let ord = a.total_cmp(b);
        Value::Bool(match op {
            CmpOp::Eq => ord == Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        })
    };
    // the same value as a column, as a literal, and computed
    let forms = |col: usize, v: &Value| {
        [
            Expr::col(col),
            Expr::Lit(v.clone()),
            apply(vec![Expr::col(col)], |a| Ok(a[0].clone())),
        ]
    };
    for a in &values {
        for b in &values {
            let row = vec![a.clone(), b.clone()];
            for op in CMP_OPS {
                let want = expected(op, a, b);
                for l in forms(0, a) {
                    for r in forms(1, b) {
                        let e = cmp(op, l.clone(), r);
                        assert_eq!(e.eval(&row).unwrap(), want, "{e:?} over {row:?}");
                    }
                }
            }
        }
    }
    // an operand out of range is an error on either side, the left one first
    let row = vec![Value::Int(1)];
    for op in CMP_OPS {
        for e in [
            cmp(op, Expr::col(9), Expr::lit(1)),
            cmp(op, Expr::lit(1), Expr::col(9)),
            cmp(op, Expr::col(9), Expr::col(8)),
        ] {
            let err = e.eval(&row).unwrap_err().to_string();
            assert!(err.contains("column index 9 out of range"), "{err}");
        }
    }
}
