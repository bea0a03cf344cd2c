//! Mechanics of the federated-DBMS engine: queue tables + trigger firing
//! (Fig. 9a), temp-table materialization points (Fig. 9b), cost recording
//! and error reporting.

use dip_feddbms::engine::FedCtx;
use dip_feddbms::{FedDbms, FedOptions};
use dip_mtm::error::{MtmError, MtmResult};
use dip_netsim::{topology, FaultModel, LatencyModel, LinkSpec, Network, TransferMode};
use dip_relstore::prelude::*;
use dip_services::registry::{ExternalWorld, LoadMode};
use dip_xmlkit::node::{Document, Element};
use dipbench::prelude::{BenchConfig, BenchEnvironment, Distribution, ScaleFactors};
use dipbench::schema::{dm, dwh};
use std::sync::{Arc, Mutex};

fn world() -> Arc<ExternalWorld> {
    let net = Arc::new(Network::new(
        LinkSpec::new(LatencyModel::Fixed { micros: 100 }, 1_000_000),
        3,
    ));
    let mut w = ExternalWorld::new(net, "is");
    let db = Arc::new(Database::new("target"));
    let schema = RelSchema::of(&[("k", SqlType::Int), ("v", SqlType::Str)]).shared();
    db.create_table(Table::new("t", schema).with_primary_key(&["k"]).unwrap());
    w.add_database("target", "es.cdb", db);
    Arc::new(w)
}

#[test]
fn queue_trigger_executes_body_and_charges_costs() {
    let fed = FedDbms::new(world(), FedOptions::default());
    fed.deploy_queue(
        "PX",
        Arc::new(|ctx: &FedCtx, doc: &Document| {
            let key: i64 = doc.root.child_text("k").unwrap().parse().unwrap();
            ctx.remote_load(
                "target",
                "t",
                vec![[Value::Int(key), Value::str("from-trigger")].into()],
                LoadMode::Insert,
            )?;
            Ok(())
        }),
    )
    .unwrap();
    let msg = Document::new(Element::new("m").child(Element::leaf("k", "7")));
    fed.execute("PX", 2, Some(msg)).unwrap();
    // the trigger body ran against the remote table
    let target = fed.world.database("target").unwrap();
    assert_eq!(target.table("t").unwrap().row_count(), 1);
    // the queue table holds the CLOB
    let queue = fed.local.table("px_queue").unwrap();
    assert_eq!(queue.row_count(), 1);
    assert!(queue.scan().rows[0][1].render().contains("<k>7</k>"));
    // costs recorded with both communication and processing parts
    let recs = fed.recorder().drain();
    assert_eq!(recs.len(), 1);
    assert!(recs[0].ok);
    assert_eq!(recs[0].period, 2);
    assert!(recs[0].comm >= std::time::Duration::from_micros(200));
    assert!(recs[0].proc > std::time::Duration::ZERO);
}

/// The queue triggers hold no reference to the database they are
/// registered in, so dropping the engine frees its queue tables and every
/// message in them.
#[test]
fn dropping_the_engine_frees_its_database() {
    let fed = FedDbms::new(world(), FedOptions::default());
    fed.deploy_queue("PX", Arc::new(|_: &FedCtx, _: &Document| Ok(())))
        .unwrap();
    let msg = Document::new(Element::new("m"));
    fed.execute("PX", 0, Some(msg)).unwrap();
    let local = Arc::downgrade(&fed.local);
    drop(fed);
    assert!(
        local.upgrade().is_none(),
        "the fed database outlived its engine"
    );
}

#[test]
fn trigger_error_marks_instance_failed() {
    let fed = FedDbms::new(world(), FedOptions::default());
    fed.deploy_queue(
        "PY",
        Arc::new(|_ctx: &FedCtx, _doc: &Document| Err(MtmError::Custom("boom".into()))),
    )
    .unwrap();
    let msg = Document::new(Element::new("m"));
    let err = fed.execute("PY", 0, Some(msg)).unwrap_err();
    assert!(err.to_string().contains("boom"));
    let recs = fed.recorder().drain();
    assert_eq!(recs.len(), 1);
    assert!(!recs[0].ok);
}

/// An insert into a queue table that did not come through `execute` has no
/// instance to charge: the trigger reports a typed error to the inserter
/// instead of panicking under `Database::insert_into`.
#[test]
fn trigger_outside_an_instance_is_a_typed_error() {
    let fed = FedDbms::new(world(), FedOptions::default());
    fed.deploy_queue("PZ", Arc::new(|_ctx: &FedCtx, _doc: &Document| Ok(())))
        .unwrap();
    let row = vec![Value::Int(1), Value::str("<m/>")];
    let err = fed
        .local
        .insert_into("pz_queue", vec![row.into()])
        .unwrap_err();
    assert!(
        matches!(&err, StoreError::Procedure(why) if why.contains("outside an instrumented")),
        "got {err:?}"
    );
}

#[test]
fn message_process_without_message_fails_cleanly() {
    let fed = FedDbms::new(world(), FedOptions::default());
    fed.deploy_queue("PZ", Arc::new(|_: &FedCtx, _: &Document| Ok(())))
        .unwrap();
    assert!(fed.execute("PZ", 0, None).is_err());
    assert!(fed.execute("UNDEPLOYED", 0, None).is_err());
}

#[test]
fn procedure_temp_tables_are_cleaned_up() {
    let fed = FedDbms::new(world(), FedOptions::default());
    fed.deploy_procedure(
        "PPROC",
        Arc::new(|ctx: &FedCtx| {
            let schema = RelSchema::of(&[("x", SqlType::Int)]).shared();
            let rel = Relation::new(schema, vec![[Value::Int(1)].into(), [Value::Int(2)].into()]);
            let temp = ctx.materialize("scratch", rel)?;
            let out = ctx.local_query(&Plan::scan(temp).filter(Expr::col(0).gt(Expr::lit(1))))?;
            assert_eq!(out.len(), 1);
            Ok(())
        }),
    );
    fed.execute("PPROC", 0, None).unwrap();
    // no tmp_ table survives the call: not in the fed database, and not
    // for the next instance
    assert!(
        fed.local
            .table_names()
            .iter()
            .all(|t| !t.starts_with("tmp_")),
        "{:?}",
        fed.local.table_names()
    );
    fed.deploy_procedure(
        "PPEEK",
        Arc::new(|ctx: &FedCtx| {
            ctx.local_query(&Plan::scan("tmp_scratch"))?;
            Ok(())
        }),
    );
    let err = fed.execute("PPEEK", 0, None).unwrap_err().to_string();
    assert!(err.contains("tmp_scratch"), "{err}");
}

/// A fed system, every process deployed, over a benchmark environment
/// whose period-0 sources are loaded.
fn bench_fed() -> (BenchEnvironment, FedDbms) {
    let scale = ScaleFactors::new(0.02, 1.0, Distribution::Uniform);
    let env = BenchEnvironment::new(BenchConfig::new(scale)).unwrap();
    env.initialize_sources(0).unwrap();
    let fed = FedDbms::new(env.world.clone(), FedOptions::default());
    dip_feddbms::procs::deploy_all(&fed).unwrap();
    (env, fed)
}

/// A queue row's `tid` counts its own series only: the first P04 message
/// leaves the same row whether three P01 messages came before it or not.
#[test]
fn a_queue_row_is_numbered_within_its_series() {
    let p04_rows = |p01_before: u32| {
        let (env, fed) = bench_fed();
        for seq in 0..p01_before {
            let msg = env.generator.beijing_master_message(0, seq);
            fed.execute_event("P01", 0, seq, Some(msg)).unwrap();
        }
        let msg = env.generator.vienna_message(0, 0);
        fed.execute_event("P04", 0, 0, Some(msg)).unwrap();
        fed.local.table("p04_queue").unwrap().scan().rows
    };
    let first = p04_rows(0);
    assert_eq!(first.len(), 1);
    assert_eq!(first[0][0], Value::Int(1));
    assert_eq!(p04_rows(3), first, "P04 after three P01s");
}

/// Temp tables belong to the procedure instance: its local plans name
/// the same temp tables whatever ran on the system before it.
#[test]
fn a_procedures_temp_tables_are_named_by_the_procedure() {
    let plans = |messages_before: u32| {
        let fed = FedDbms::new(world(), FedOptions::default());
        fed.deploy_queue("PQ", Arc::new(|_: &FedCtx, _: &Document| Ok(())))
            .unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        fed.deploy_procedure(
            "PTMP",
            Arc::new(move |ctx: &FedCtx| {
                let schema = RelSchema::of(&[("x", SqlType::Int)]).shared();
                let scans = ["part_a", "part_b"]
                    .into_iter()
                    .map(|stem| {
                        let rel = Relation::new(schema.clone(), vec![[Value::Int(1)].into()]);
                        Ok(Plan::scan(ctx.materialize(stem, rel)?))
                    })
                    .collect::<MtmResult<Vec<_>>>()?;
                let union = Plan::UnionDistinct {
                    inputs: scans,
                    key: None,
                };
                log.lock().unwrap().push(format!("{union:?}"));
                assert_eq!(ctx.local_query(&union)?.len(), 1);
                Ok(())
            }),
        );
        for seq in 0..messages_before {
            let msg = Document::new(Element::new("m"));
            fed.execute_event("PQ", 0, seq, Some(msg)).unwrap();
        }
        fed.execute_event("PTMP", 0, 0, None).unwrap();
        let seen = seen.lock().unwrap().clone();
        seen
    };
    let first = plans(0);
    assert!(first[0].contains("tmp_part_a"), "{first:?}");
    assert_eq!(plans(3), first, "the procedure after three messages");
}

#[test]
fn temp_tables_accept_null_columns() {
    // temp tables are constraint-free even when the source schema has
    // NOT NULL columns (the P09 regression)
    let fed = FedDbms::new(world(), FedOptions::default());
    fed.deploy_procedure(
        "PNULL",
        Arc::new(|ctx: &FedCtx| {
            let schema = RelSchema::new(vec![
                Column::not_null("k", SqlType::Int),
                Column::not_null("v", SqlType::Str),
            ])
            .shared();
            let rel = Relation::new(schema, vec![[Value::Int(1), Value::Null].into()]);
            ctx.materialize("nullable", rel)?;
            Ok(())
        }),
    );
    fed.execute("PNULL", 0, None).unwrap();
}

#[test]
fn concurrent_executions_do_not_mix_costs() {
    // two threads execute different processes simultaneously; the
    // thread-local session context must keep their cost accounting apart
    let fed = Arc::new(FedDbms::new(world(), FedOptions::default()));
    fed.deploy_queue(
        "PA",
        Arc::new(|ctx: &FedCtx, _doc| {
            ctx.processing(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                Ok(())
            })
        }),
    )
    .unwrap();
    fed.deploy_queue("PB", Arc::new(|_: &FedCtx, _| Ok(())))
        .unwrap();
    std::thread::scope(|s| {
        let f1 = fed.clone();
        let f2 = fed.clone();
        s.spawn(move || {
            for i in 0..5 {
                let msg = Document::new(Element::new("m").attr("i", i.to_string()));
                f1.execute("PA", 0, Some(msg)).unwrap();
            }
        });
        s.spawn(move || {
            for i in 0..5 {
                let msg = Document::new(Element::new("m").attr("i", i.to_string()));
                f2.execute("PB", 0, Some(msg)).unwrap();
            }
        });
    });
    let recs = fed.recorder().drain();
    assert_eq!(recs.len(), 10);
    let pa_proc: Vec<_> = recs
        .iter()
        .filter(|r| r.process == "PA")
        .map(|r| r.proc)
        .collect();
    let pb_proc: Vec<_> = recs
        .iter()
        .filter(|r| r.process == "PB")
        .map(|r| r.proc)
        .collect();
    // PA instances carry their 5ms sleep; PB instances must not
    assert!(pa_proc
        .iter()
        .all(|d| *d >= std::time::Duration::from_millis(5)));
    assert!(pb_proc
        .iter()
        .all(|d| *d < std::time::Duration::from_millis(5)));
}

/// The DWH and the three marts on the benchmark network, resilience armed,
/// with every transfer between the integration system and a mart dropped.
fn world_with_unreachable_marts() -> Arc<ExternalWorld> {
    let mut net = topology::dipbench_network(TransferMode::Accounted, 7);
    let endpoint = |mart: dm::Mart| format!("es.{}", mart.db_name());
    for mart in dm::Mart::ALL {
        net.set_fault_model(topology::IS, &endpoint(mart), FaultModel::drops(1.0));
        net.set_fault_model(&endpoint(mart), topology::IS, FaultModel::drops(1.0));
    }
    let mut w = ExternalWorld::new(Arc::new(net), topology::IS);
    w.arm_resilience(dip_services::resilience::DEFAULT_ATTEMPTS);
    let dwh = dwh::create_dwh().unwrap();
    w.add_database(dwh::DWH, "es.dwh", dwh);
    for mart in dm::Mart::ALL {
        let db = dm::create_mart(mart).unwrap();
        w.add_database(mart.db_name(), &endpoint(mart), db);
    }
    Arc::new(w)
}

/// The per-mart threads of P14 and P15 run inside the instance's fault
/// scope: with the marts unreachable every one of their round trips is
/// retried and exhausted. (Outside the scope, as before PR 19, the threads
/// were never faulted and both instances returned `Ok` with zero retries.)
#[test]
fn mart_threads_of_p14_and_p15_are_inside_the_fault_schedule() {
    let fed = FedDbms::new(world_with_unreachable_marts(), FedOptions::default());
    dip_feddbms::procs::deploy_all(&fed).unwrap();
    for process in ["P15", "P14"] {
        let failed = fed.execute_event(process, 0, 0, None);
        let err = failed.expect_err("no transfer reaches a mart");
        assert!(err.is_transient(), "{process}: {err}");
        assert!(err.transport().is_some_and(|t| t.attempts > 1), "{err}");
    }
}
