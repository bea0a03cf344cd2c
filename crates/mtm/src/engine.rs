//! The native MTM integration engine.
//!
//! One of the two systems under test in this reproduction: it deploys MTM
//! [`ProcessDef`]s and executes them directly with the instrumented
//! [`Interpreter`]. (The other system is the federated-DBMS reference
//! implementation in `dip-feddbms`, which realizes the same processes as
//! queue-table triggers and stored procedures.)

use crate::cost::CostRecorder;
use crate::error::{MtmError, MtmResult};
use crate::interpreter::{Interpreter, LastReaders};
use crate::process::ProcessDef;
use crate::validate::validate;
use dip_services::registry::ExternalWorld;
use dip_xmlkit::node::Document;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Capture a message's payload for potential dead-lettering — only when
/// the resilience layer is armed or the run plans a deterministic instance
/// abort (otherwise the run cannot produce transport faults, so
/// serializing every message would be pure waste).
pub fn dead_letter_payload(world: &ExternalWorld, msg: &Document) -> Option<String> {
    (world.resilience().is_some() || world.network.plan().abort.is_some())
        .then(|| dip_xmlkit::write_compact(msg))
}

/// The MTM process engine.
pub struct MtmEngine {
    pub world: Arc<ExternalWorld>,
    processes: RwLock<HashMap<String, Arc<Deployed>>>,
    recorder: Arc<CostRecorder>,
}

/// A deployed definition and what deployment derived from it once.
struct Deployed {
    def: Arc<ProcessDef>,
    last: LastReaders,
}

impl std::fmt::Debug for MtmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MtmEngine")
            .field("processes", &self.processes.read().len())
            .finish()
    }
}

impl MtmEngine {
    pub fn new(world: Arc<ExternalWorld>) -> MtmEngine {
        MtmEngine {
            world,
            processes: RwLock::new(HashMap::new()),
            recorder: Arc::new(CostRecorder::new()),
        }
    }

    /// Deploy a process definition (statically validated first).
    pub fn deploy(&self, def: ProcessDef) -> MtmResult<()> {
        validate(&def)?;
        let def = Arc::new(def);
        let last = LastReaders::of(&def);
        let deployed = Arc::new(Deployed { def, last });
        self.processes
            .write()
            .insert(deployed.def.id.clone(), deployed);
        Ok(())
    }

    fn deployed(&self, id: &str) -> MtmResult<Arc<Deployed>> {
        self.processes
            .read()
            .get(id)
            .cloned()
            .ok_or_else(|| MtmError::InvalidProcess(format!("process {id} not deployed")))
    }

    pub fn process(&self, id: &str) -> MtmResult<Arc<ProcessDef>> {
        self.deployed(id).map(|d| d.def.clone())
    }

    pub fn deployed_ids(&self) -> Vec<String> {
        let mut v: Vec<String> = self.processes.read().keys().cloned().collect();
        v.sort();
        v
    }

    pub fn recorder(&self) -> Arc<CostRecorder> {
        self.recorder.clone()
    }

    /// Execute one instance of a deployed process; `input` is required for
    /// E1 processes. Records an [`crate::cost::InstanceRecord`] either way.
    pub fn execute(&self, id: &str, period: u32, input: Option<Document>) -> MtmResult<()> {
        self.execute_event(id, period, 0, input).map(|_| ())
    }

    /// [`MtmEngine::execute`] with the event's schedule sequence number,
    /// which anchors the instance's deterministic fault-schedule identity.
    /// Returns the number of transport retries the resilience layer spent
    /// on the instance's behalf.
    pub fn execute_event(
        &self,
        id: &str,
        period: u32,
        seq: u32,
        input: Option<Document>,
    ) -> MtmResult<u32> {
        let mgmt_start = Instant::now();
        let deployed = self.deployed(id)?;
        let Deployed { def, last } = &*deployed;
        self.recorder.run_instance(
            mgmt_start,
            &def.id,
            period,
            seq,
            self.world.network.plan().leak_rollbacks,
            MtmError::transport,
            |costs| {
                let _span = dip_trace::span_cat(
                    dip_trace::Layer::Mtm,
                    "instance",
                    dip_trace::Category::Management,
                );
                Interpreter::new(&self.world, costs).run_deployed(def, last, input)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MtmMessage;
    use crate::process::{AssignValue, EventType, Step, SwitchCase};
    use dip_netsim::{LatencyModel, LinkSpec, Network};
    use dip_relstore::prelude::*;
    use dip_xmlkit::Element;

    fn world() -> Arc<ExternalWorld> {
        let net = Arc::new(Network::new(
            LinkSpec::new(LatencyModel::Fixed { micros: 50 }, 1_000_000),
            11,
        ));
        let mut w = ExternalWorld::new(net, "is");
        let db = Arc::new(Database::new("cdb"));
        let schema = RelSchema::of(&[("id", SqlType::Int), ("v", SqlType::Str)]).shared();
        db.create_table(Table::new("t", schema).with_primary_key(&["id"]).unwrap());
        w.add_database("cdb", "es.cdb", db);
        Arc::new(w)
    }

    #[test]
    fn timed_process_runs_and_records() {
        let engine = MtmEngine::new(world());
        let schema = RelSchema::of(&[("id", SqlType::Int), ("v", SqlType::Str)]).shared();
        let rel = Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(2), Value::str("b")],
            ],
        );
        engine
            .deploy(ProcessDef::new(
                "T1",
                "load two rows",
                'C',
                EventType::Timed,
                vec![
                    Step::Assign {
                        var: "data".into(),
                        value: AssignValue::Const(rel.into()),
                    },
                    Step::Selection {
                        input: "data".into(),
                        predicate: Expr::col(0).gt(Expr::lit(0)),
                        output: "sel".into(),
                    },
                    Step::DbInsert {
                        db: "cdb".into(),
                        table: "t".into(),
                        input: "sel".into(),
                        mode: crate::process::LoadMode::Insert,
                    },
                ],
            ))
            .unwrap();
        engine.execute("T1", 0, None).unwrap();
        let db = engine.world.database("cdb").unwrap();
        assert_eq!(db.table("t").unwrap().row_count(), 2);
        let recs = engine.recorder().drain();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].ok);
        assert!(recs[0].comm >= std::time::Duration::from_micros(100)); // two link hops
        assert!(recs[0].end >= recs[0].start);
    }

    #[test]
    fn message_process_with_switch() {
        let engine = MtmEngine::new(world());
        let route = |v: &str| Step::Assign {
            var: "route".into(),
            value: AssignValue::Const(MtmMessage::Scalar(Value::str(v))),
        };
        engine
            .deploy(ProcessDef::new(
                "M1",
                "route by custkey",
                'A',
                EventType::Message,
                vec![
                    Step::Receive { var: "msg".into() },
                    Step::Switch {
                        input: "msg".into(),
                        path: "m/custkey".into(),
                        cases: vec![
                            SwitchCase {
                                when: Expr::col(0).lt(Expr::lit(100)),
                                steps: vec![route("small")],
                            },
                            SwitchCase {
                                when: Expr::col(0).ge(Expr::lit(100)),
                                steps: vec![route("big")],
                            },
                        ],
                        default: vec![],
                    },
                ],
            ))
            .unwrap();
        let msg = Document::new(Element::new("m").child(Element::leaf("custkey", "250")));
        engine.execute("M1", 3, Some(msg)).unwrap();
        let recs = engine.recorder().drain();
        assert_eq!(recs[0].period, 3);
        assert!(recs[0].ok);
    }

    #[test]
    fn failed_instance_recorded_not_ok() {
        let engine = MtmEngine::new(world());
        engine
            .deploy(ProcessDef::new(
                "F1",
                "fails",
                'B',
                EventType::Timed,
                vec![Step::DbQuery {
                    db: "cdb".into(),
                    plan: Plan::scan("no_such_table"),
                    output: "x".into(),
                }],
            ))
            .unwrap();
        assert!(engine.execute("F1", 0, None).is_err());
        let recs = engine.recorder().drain();
        assert_eq!(recs.len(), 1);
        assert!(!recs[0].ok);
    }

    #[test]
    fn undeployed_process_errors() {
        let engine = MtmEngine::new(world());
        assert!(engine.execute("NOPE", 0, None).is_err());
    }

    #[test]
    fn invalid_process_rejected_at_deploy() {
        let engine = MtmEngine::new(world());
        let bad = ProcessDef::new(
            "B1",
            "bad",
            'A',
            EventType::Timed,
            vec![Step::Selection {
                input: "ghost".into(),
                predicate: Expr::lit(true),
                output: "o".into(),
            }],
        );
        assert!(engine.deploy(bad).is_err());
    }

    #[test]
    fn fork_runs_all_branches() {
        let engine = MtmEngine::new(world());
        let schema = RelSchema::of(&[("id", SqlType::Int), ("v", SqlType::Str)]).shared();
        let row =
            |i: i64| Relation::new(schema.clone(), vec![vec![Value::Int(i), Value::str("x")]]);
        engine
            .deploy(ProcessDef::new(
                "FK",
                "parallel loads",
                'D',
                EventType::Timed,
                vec![Step::Fork {
                    branches: vec![
                        vec![
                            Step::Assign {
                                var: "a".into(),
                                value: AssignValue::Const(row(1).into()),
                            },
                            Step::DbInsert {
                                db: "cdb".into(),
                                table: "t".into(),
                                input: "a".into(),
                                mode: crate::process::LoadMode::Insert,
                            },
                        ],
                        vec![
                            Step::Assign {
                                var: "b".into(),
                                value: AssignValue::Const(row(2).into()),
                            },
                            Step::DbInsert {
                                db: "cdb".into(),
                                table: "t".into(),
                                input: "b".into(),
                                mode: crate::process::LoadMode::Insert,
                            },
                        ],
                        vec![
                            Step::Assign {
                                var: "c".into(),
                                value: AssignValue::Const(row(3).into()),
                            },
                            Step::DbInsert {
                                db: "cdb".into(),
                                table: "t".into(),
                                input: "c".into(),
                                mode: crate::process::LoadMode::Insert,
                            },
                        ],
                    ],
                }],
            ))
            .unwrap();
        engine.execute("FK", 0, None).unwrap();
        let db = engine.world.database("cdb").unwrap();
        assert_eq!(db.table("t").unwrap().row_count(), 3);
    }

    #[test]
    fn subprocess_passes_input_output() {
        let engine = MtmEngine::new(world());
        let sub = Arc::new(ProcessDef::new(
            "S1",
            "double",
            'D',
            EventType::Timed,
            vec![Step::Custom {
                name: "double".into(),
                reads: vec!["input".into()],
                binds: vec!["output".into()],
                f: Arc::new(|inputs| {
                    let v = inputs[0].as_scalar()?.to_int().ok_or("no input")?;
                    Ok(vec![Value::Int(v * 2).into()])
                }),
            }],
        ));
        engine
            .deploy(ProcessDef::new(
                "PARENT",
                "calls sub",
                'D',
                EventType::Timed,
                vec![
                    Step::Assign {
                        var: "n".into(),
                        value: AssignValue::Const(MtmMessage::Scalar(Value::Int(21))),
                    },
                    Step::Subprocess {
                        process: sub,
                        input: Some("n".into()),
                        output: Some("result".into()),
                    },
                    Step::Custom {
                        name: "check".into(),
                        reads: vec!["result".into()],
                        binds: vec![],
                        f: Arc::new(|inputs| match inputs[0].as_scalar()?.to_int() {
                            Some(42) => Ok(vec![]),
                            other => Err(format!("got {other:?}")),
                        }),
                    },
                ],
            ))
            .unwrap();
        engine.execute("PARENT", 0, None).unwrap();
    }
}
