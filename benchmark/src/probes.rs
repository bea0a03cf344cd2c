//! Isolated probes: one public entry point of one layer, called in a loop
//! from outside, median time per operation. They run after the measured
//! iterations, against the database state the last period left behind and
//! the documents this workload's generator produces; probes that write do
//! so into tables the benchmark owns. Every probe is bracketed by
//! calibration kernel runs like a measured iteration.

use crate::cal;
use crate::measure::{measure, metric, Budget, Metric};
use crate::stats::median;
use crate::workload::{e1_events, e1_message, Rig, Runner, Shape, Spec};
use dip_feddbms::xmlfn;
use dip_netsim::{topology, TransferMode};
use dip_relstore::prelude::*;
use dip_services::ExternalWorld;
use dip_xmlkit::{compact_len, parse, write_compact, Document};
use dipbench::prelude::*;
use dipbench::processes::group_d::s1_delta_plan;
use dipbench::schema::{asia, cdb, dwh, messages};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows of the tables the write probes fill.
const SCRATCH_ROWS: usize = 20_000;
/// Spans per timed batch of the enabled-tracing probe (drained between
/// batches so the collector stays small).
const SPAN_BATCH: usize = 10_000;

/// A finished probe, not yet normalized.
struct RawProbe {
    name: String,
    unit: &'static str,
    /// Nanoseconds per work unit, one per repetition.
    samples: Vec<f64>,
}

/// Times probes; a kernel run separates each from the next.
struct Prober {
    /// Seconds each probe may take.
    per_probe: f64,
    /// Kernel runs: `raw[i]` ran between `cal_ms[i]` and `cal_ms[i + 1]`.
    cal_ms: Vec<f64>,
    raw: Vec<RawProbe>,
    /// Metrics that are not timings (ratios, counts).
    plain: Vec<Metric>,
}

impl Prober {
    fn finish(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        self.cal_ms.push(cal::run_ms());
        self.raw.push(RawProbe {
            name: name.to_string(),
            unit,
            samples,
        });
    }

    /// Median per work unit of every probe, normalized and in its unit.
    fn into_metrics(self) -> Vec<Metric> {
        let mut out: Vec<Metric> = self
            .raw
            .iter()
            .zip(cal::factors(&self.cal_ms))
            .map(|(p, factor)| {
                let div = match p.unit {
                    "nms" => 1e6,
                    "nus" => 1e3,
                    _ => 1.0,
                };
                metric(
                    &p.name,
                    median(&p.samples) / div / factor,
                    p.unit,
                    p.samples.len(),
                )
            })
            .collect();
        out.extend(self.plain);
        out
    }

    /// `section` runs one operation and returns how long its measured part
    /// took; `per` is the work units (KB, krows, messages) in that part.
    fn timed(
        &mut self,
        name: &str,
        unit: &'static str,
        per: f64,
        mut section: impl FnMut() -> Duration,
    ) {
        let mut samples = Vec::new();
        let started = Instant::now();
        while samples.len() < 3 || started.elapsed().as_secs_f64() < self.per_probe {
            samples.push(section().as_nanos() as f64 / per);
        }
        self.finish(name, unit, samples);
    }

    /// Time `op` as a whole.
    fn whole<R>(&mut self, name: &str, unit: &'static str, per: f64, mut op: impl FnMut() -> R) {
        self.timed(name, unit, per, || {
            let t = Instant::now();
            black_box(op());
            t.elapsed()
        });
    }

    /// Time a fast `op` in batches sized to last about 200 µs.
    fn batched<R>(&mut self, name: &str, unit: &'static str, mut op: impl FnMut() -> R) {
        let t = Instant::now();
        for _ in 0..16 {
            black_box(op());
        }
        let once_ns = (t.elapsed().as_nanos() as f64 / 16.0).max(1.0);
        let batch = ((200_000.0 / once_ns) as usize).clamp(1, 1_000_000);
        self.timed(name, unit, batch as f64, || {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(op());
            }
            t.elapsed()
        });
    }
}

/// The table the write probes use: integer key, an integer, a string and a
/// float, like the benchmark's movement tables.
fn scratch_db() -> Arc<Database> {
    let schema = RelSchema::of(&[
        ("id", SqlType::Int),
        ("ref", SqlType::Int),
        ("name", SqlType::Str),
        ("price", SqlType::Float),
    ])
    .shared();
    let db = Database::new("bench_scratch");
    for name in ["t", "u"] {
        db.create_table(
            Table::new(name, schema.clone())
                .with_primary_key(&["id"])
                .expect("scratch primary key"),
        );
    }
    Arc::new(db)
}

fn scratch_rows(from: usize, n: usize) -> Vec<Row> {
    (from..from + n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int((i * 7919 % 1009) as i64),
                Value::str(format!("item-{i}")),
                Value::Float(i as f64 * 0.25),
            ]
        })
        .collect()
}

/// All probes of one workload. `budget_secs` is shared equally.
pub fn run_probes(spec: &Spec, runner: &Runner<'_>, seed: u64, budget_secs: f64) -> Vec<Metric> {
    const PROBES: f64 = 28.0;
    let env = &runner.rig.env;
    let mut p = Prober {
        per_probe: budget_secs / PROBES,
        cal_ms: vec![cal::run_ms()],
        raw: Vec::new(),
        plain: Vec::new(),
    };

    // ---- core: generator ------------------------------------------------
    p.whole("core.datagen_snapshot_nms", "nms", 1.0, || {
        env.generator.source_snapshot(0)
    });
    let events = e1_events(0, spec.datasize);
    let generate = || -> Vec<Document> {
        events
            .iter()
            .map(|e| e1_message(env, e.process, 0, e.seq).expect("E1 event"))
            .collect()
    };
    p.whole("core.msggen_nus", "nus", events.len() as f64, generate);

    // ---- xmlkit: this workload's messages plus one P09 result set -------
    let messages_p0 = generate();
    let vienna: Vec<Document> = events
        .iter()
        .filter(|e| e.process == "P04")
        .map(|e| env.generator.vienna_message(0, e.seq))
        .collect();
    let mut docs = messages_p0;
    docs.push(
        env.world
            .ws_query(asia::BEIJING, "orders")
            .expect("beijing orders")
            .value,
    );
    let texts: Vec<String> = docs.iter().map(write_compact).collect();
    let kb = texts.iter().map(String::len).sum::<usize>() as f64 / 1024.0;
    p.whole("xmlkit.parse_nus_per_kb", "nus", kb, || {
        for t in &texts {
            black_box(parse(t).expect("own output parses"));
        }
    });
    p.whole("xmlkit.write_nus_per_kb", "nus", kb, || {
        docs.iter().map(|d| write_compact(d).len()).sum::<usize>()
    });
    p.whole("xmlkit.compact_len_nus_per_kb", "nus", kb, || {
        docs.iter().map(compact_len).sum::<usize>()
    });
    let stx = messages::stx_vienna_to_cdb();
    p.whole("xmlkit.stx_nus_per_msg", "nus", vienna.len() as f64, || {
        for d in &vienna {
            black_box(stx.transform(d).expect("vienna transforms"));
        }
    });
    let xsd = messages::vienna_xsd();
    p.whole("xmlkit.xsd_nus_per_msg", "nus", vienna.len() as f64, || {
        vienna.iter().map(|d| xsd.validate(d).len()).sum::<usize>()
    });
    // control: the paper-mandated slow path, must not move
    p.whole(
        "feddbms.clob_roundtrip_nus",
        "nus",
        vienna.len() as f64,
        || {
            for d in &vienna {
                black_box(xmlfn::from_clob(&xmlfn::to_clob(d)).expect("clob round trip"));
            }
        },
    );

    // ---- relstore: read plans over the post-period warehouse -------------
    // `e1_storm` never runs the warehouse processes: one untimed iteration of
    // full periods fills the warehouse, so these plans have rows to read on
    // every workload (the digests were taken before the probes)
    let full = Spec {
        shape: Shape::FullPeriods,
        ..*spec
    };
    let full_runner = Runner {
        spec: &full,
        ..*runner
    };
    if spec.shape != full.shape {
        full_runner.iteration(0);
    }
    let dwh_db = env.db(dwh::DWH);
    let delta = dwh_db.table("orderline").expect("dwh.orderline").scan();
    let join9 = s1_delta_plan(delta);
    p.whole("relstore.join9_nms", "nms", 1.0, || {
        join9.run(&dwh_db).expect("join9").len()
    });
    {
        // rows every operator of the plan emits per result row, from the
        // crate's own counters
        dip_trace::drain_counters();
        dip_trace::enable();
        let results = join9.run(&dwh_db).expect("join9").len();
        dip_trace::disable();
        dip_trace::drain();
        let examined: u64 = dip_trace::drain_counters()
            .iter()
            .filter(|(k, _)| k.starts_with("relstore.rows_out."))
            .map(|(_, v)| *v)
            .sum();
        p.plain.push(metric(
            "relstore.join9_rows_examined_per_result",
            examined as f64 / results.max(1) as f64,
            "ratio",
            1,
        ));
    }
    let mv = dwh::orders_mv_definition();
    p.whole("relstore.mv_refresh_nms", "nms", 1.0, || {
        mv.run(&dwh_db).expect("orders_mv").len()
    });

    // ---- relstore: writes into the benchmark's own tables -----------------
    let scratch = scratch_db();
    let t = scratch.table("t").expect("scratch t");
    let u = scratch.table("u").expect("scratch u");
    t.insert(scratch_rows(0, SCRATCH_ROWS)).expect("fill t");
    u.insert(scratch_rows(SCRATCH_ROWS / 2, SCRATCH_ROWS))
        .expect("fill u");
    let union = Plan::UnionDistinct {
        inputs: vec![Plan::scan("t"), Plan::scan("u")],
        key: Some(vec![0]),
    };
    p.whole("relstore.union_distinct_nms", "nms", 1.0, || {
        union.run(&scratch).expect("union distinct").len()
    });
    p.timed("relstore.wipe_nms", "nms", 1.0, || {
        let start = Instant::now();
        scratch.truncate_all();
        let wiped = start.elapsed();
        t.insert(scratch_rows(0, SCRATCH_ROWS)).expect("refill t");
        u.insert(scratch_rows(0, SCRATCH_ROWS)).expect("refill u");
        wiped
    });
    scratch.truncate_all();
    let mut next = 0usize;
    p.timed("relstore.bulk_insert_nus_per_krow", "nus", 1.0, || {
        if next >= 10 * SCRATCH_ROWS {
            t.truncate();
            next = 0;
        }
        let rows = scratch_rows(next, 1000);
        next += 1000;
        let start = Instant::now();
        t.insert(rows).expect("bulk insert");
        start.elapsed()
    });
    t.truncate();
    p.timed("relstore.rollback_nus_per_krow", "nus", 1.0, || {
        let scope = tx::begin();
        t.insert(scratch_rows(0, 1000)).expect("insert under tx");
        let start = Instant::now();
        scope.rollback();
        start.elapsed()
    });
    let mut id = 0usize;
    p.batched("relstore.point_insert_tx_nus", "nus", || {
        id += 1;
        let scope = tx::begin();
        t.insert(scratch_rows(id, 1)).expect("point insert");
        scope.commit();
    });
    t.truncate();

    // ---- services + netsim ----------------------------------------------
    p.whole("services.ws_query_nms", "nms", 1.0, || {
        compact_len(
            &env.world
                .ws_query(asia::BEIJING, "orderlines")
                .expect("beijing orderlines")
                .value,
        )
    });
    let region = Plan::scan("region");
    p.batched("services.remote_query_nus", "nus", || {
        env.world
            .remote_query(cdb::CDB, &region)
            .expect("remote query")
            .value
            .len()
    });
    {
        // a world of the benchmark's own, so inserts fire no trigger of the
        // system under test
        let network = Arc::new(topology::dipbench_network(TransferMode::Accounted, seed));
        let mut world = ExternalWorld::new(network, topology::IS);
        world.add_database("bench_scratch", "es.cdb", scratch.clone());
        let mut id = 0usize;
        p.batched("services.remote_insert_nus", "nus", || {
            id += 1;
            world
                .remote_insert("bench_scratch", "t", scratch_rows(id, 1))
                .expect("remote insert")
                .value
        });
        t.truncate();
    }
    let network = env.world.network.clone();
    p.batched("netsim.transfer_ns", "ns", || {
        network.transfer(topology::IS, "es.cdb", 512)
    });

    // ---- trace: cost of a span site ---------------------------------------
    p.batched("trace.span_disabled_ns", "ns", || {
        dip_trace::span(dip_trace::Layer::Core, "bench|bench/probe")
    });
    p.timed("trace.span_enabled_ns", "ns", SPAN_BATCH as f64, || {
        dip_trace::enable();
        let start = Instant::now();
        for _ in 0..SPAN_BATCH {
            drop(black_box(dip_trace::span(
                dip_trace::Layer::Core,
                "bench|bench/probe",
            )));
        }
        let took = start.elapsed();
        dip_trace::disable();
        dip_trace::drain();
        took
    });

    // ---- core: worker pool and the asynchronous broker --------------------
    second_rig_probes(&full, &full_runner, seed, &mut p);
    p.into_metrics()
}

/// Probes that need a second environment: this workload's full periods
/// dispatched by two workers (the storm dispatches nothing through the
/// worker pool), and its period-0 E1 messages through the EAI broker.
fn second_rig_probes(spec: &Spec, runner: &Runner<'_>, seed: u64, p: &mut Prober) {
    let rig2 = Rig::build(
        spec.engine,
        spec.config(seed).with_workers(2),
        Instant::now(),
    );
    {
        let client2 = rig2.client();
        let runner2 = Runner {
            spec,
            rig: &rig2,
            client: &client2,
            recorder: None,
        };
        measure(&runner2, Budget::Iterations(1), 0); // warm-up
        let (mut w1, mut w2) = (Vec::new(), Vec::new());
        let started = Instant::now();
        // interleaved pairs, so both sides see the same machine
        while w1.len() < 3 || (w1.len() < 10 && started.elapsed().as_secs_f64() < 4.0 * p.per_probe)
        {
            w1.extend(measure(runner, Budget::Iterations(1), 0).0.period_nms);
            w2.extend(measure(&runner2, Budget::Iterations(1), 0).0.period_nms);
        }
        p.plain.push(metric(
            "core.sched_w2_ratio",
            median(&w2) / median(&w1),
            "ratio",
            w1.len(),
        ));
        // the kernel runs of those iterations were their own; re-open the
        // probe series
        *p.cal_ms.last_mut().expect("series is never empty") = cal::run_ms();
    }

    let env = &rig2.env;
    let eai = Arc::new(EaiSystem::new(env.world.clone(), 1));
    let _deploy = Client::new(env, eai.clone()).expect("deployment");
    let events = e1_events(0, spec.datasize);
    p.timed("core.eai_msg_nus", "nus", events.len() as f64, || {
        env.uninitialize().expect("uninitialize");
        env.initialize_sources(0).expect("initialize sources");
        let messages: Vec<Event> = events
            .iter()
            .map(|e| {
                let msg = e1_message(env, e.process, 0, e.seq).expect("E1 event");
                Event::message(e.process, 0, e.seq, msg)
            })
            .collect();
        let start = Instant::now();
        for m in messages {
            black_box(eai.deliver(m));
        }
        eai.drain();
        start.elapsed()
    });
    p.plain.push(metric(
        "core.eai_max_depth",
        eai.max_queue_depth() as f64,
        "count",
        1,
    ));
}
