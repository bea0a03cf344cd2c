//! The traced run: a few more iterations with `dip_trace` collecting and
//! the benchmark's own recorder on, turned into per-layer self times,
//! exact counts and the trace file.

use crate::measure::{measure, metric, Budget, Measured, Metric};
use crate::spans::{self_times, BenchSpan, Node, Recorder, MIRROR_PREFIX};
use crate::stats::{mean, median};
use crate::workload::Runner;
use dip_trace::{Json, SpanRecord};
use std::collections::BTreeMap;

/// Traced iterations per run: fixed, so that counts repeat exactly.
pub const TRACED_ITERATIONS: u32 = 3;

/// Operators listed in a run's record, by self time.
const TOP_OPS: usize = 16;

/// Layer label of the modeled (never elapsed) netsim transfer spans.
const MODELED_LAYER: &str = "netsim";

pub struct Traced {
    pub metrics: Vec<Metric>,
    /// Share of the busy thread-time by layer (sums to 1 with
    /// `unattributed`), for the layer-separation report.
    pub shares: BTreeMap<String, f64>,
    /// The same by `layer/op`, largest first (the top of the list).
    pub op_shares: Vec<(String, f64)>,
    pub trace: Json,
}

/// Put a drained span on the merged layer/op naming: the benchmark's
/// mirrored spans carry `layer/op` in their operator name, a mirrored
/// `deliver` also the process from its instance scope.
fn node_of(r: &SpanRecord) -> Node {
    let (layer, op) = match r.op.strip_prefix(MIRROR_PREFIX) {
        Some(name) => {
            let (layer, op) = name.split_once('/').unwrap_or(("bench", name));
            match (&r.process, op) {
                (Some(p), "deliver") => (layer.to_string(), format!("deliver:{p}")),
                _ => (layer.to_string(), op.to_string()),
            }
        }
        None => (r.layer.label().to_string(), r.op.to_string()),
    };
    Node {
        layer,
        op,
        thread: r.thread,
        start_ns: r.start_ns,
        end_ns: r.start_ns + r.dur_ns,
    }
}

fn counter(counters: &[(String, u64)], pred: impl Fn(&str) -> bool) -> u64 {
    counters
        .iter()
        .filter(|(k, _)| pred(k))
        .map(|(_, v)| *v)
        .sum()
}

/// Run the traced iterations and derive the (T) and (C) metrics.
/// `untraced` is the measured loop the overhead ratio is taken against.
pub fn traced_run(runner: &Runner<'_>, untraced: &Measured, first_iteration: u32) -> Traced {
    let recorder = Recorder::new();
    let traced_runner = Runner {
        recorder: Some(&recorder),
        ..*runner
    };
    dip_trace::drain();
    dip_trace::drain_counters();
    dip_trace::enable();
    let (m, _) = measure(
        &traced_runner,
        Budget::Iterations(TRACED_ITERATIONS),
        first_iteration,
    );
    dip_trace::disable();
    let records = dip_trace::drain();
    let counters = dip_trace::drain_counters();
    let bench_spans = recorder.take();

    let periods = (TRACED_ITERATIONS * runner.spec.periods_per_iteration()) as f64;
    // mean calibration factor of the traced iterations
    let factor = mean(&m.period_wall_ms) / mean(&m.period_nms);
    let per_period_nms = |ns: u64| ns as f64 / 1e6 / factor / periods;

    let (modeled, real): (Vec<&SpanRecord>, Vec<&SpanRecord>) = records
        .iter()
        .partition(|r| r.layer.label() == MODELED_LAYER);
    let nodes: Vec<Node> = real.iter().map(|r| node_of(r)).collect();
    let main_thread = nodes
        .iter()
        .find(|n| n.layer == "bench" && n.op == "iteration")
        .map_or(0, |n| n.thread);
    let st = self_times(&nodes, main_thread);

    let busy_ns = st.total_ns();
    let wall_ns: u64 = nodes
        .iter()
        .filter(|n| n.layer == "bench" && n.op == "iteration")
        .map(|n| n.end_ns - n.start_ns)
        .sum();
    let layer_ns = |l: &str| st.by_layer.get(l).copied().unwrap_or(0);
    let op_ns = |o: &str| st.by_op.get(o).copied().unwrap_or(0);
    // time inside the benchmark's own spans that no span of a crate covers:
    // the engine behind `deliver` and the benchmark's loop
    let unattributed_ns = layer_ns("engine") + layer_ns("bench");
    let n = TRACED_ITERATIONS as usize;

    let mut metrics = vec![
        metric(
            "trace.overhead_ratio",
            median(&m.period_nms) / median(&untraced.period_nms),
            "ratio",
            n,
        ),
        metric(
            "trace.spans_per_period",
            records.len() as f64 / periods,
            "count",
            n,
        ),
        metric(
            "trace.unattributed_frac",
            unattributed_ns as f64 / busy_ns.max(1) as f64,
            "ratio",
            n,
        ),
    ];
    for layer in ["core", "feddbms", "mtm", "relstore", "xmlkit"] {
        metrics.push(metric(
            &format!("{layer}.self_ms"),
            per_period_nms(layer_ns(layer)),
            "nms",
            n,
        ));
    }
    metrics.extend([
        metric(
            "relstore.index_join_ms",
            per_period_nms(op_ns("relstore/index_join")),
            "nms",
            n,
        ),
        metric(
            "relstore.scan_ms",
            per_period_nms(op_ns("relstore/scan")),
            "nms",
            n,
        ),
    ]);
    let per_period = |v: u64| v as f64 / periods;
    metrics.extend([
        metric(
            "relstore.rows_scanned",
            per_period(counter(&counters, |k| k == "relstore.rows_out.scan")),
            "count",
            n,
        ),
        metric(
            "relstore.rows_joined",
            per_period(counter(&counters, |k| {
                k == "relstore.rows_out.hash_join" || k == "relstore.rows_out.index_join"
            })),
            "count",
            n,
        ),
        metric(
            "relstore.batch_chunks",
            per_period(counter(&counters, |k| {
                k.starts_with("relstore.batch.chunks.")
            })),
            "count",
            n,
        ),
        metric(
            "relstore.tx_begin",
            per_period(counter(&counters, |k| k == "tx.begin")),
            "count",
            n,
        ),
        metric(
            "xmlkit.parse_bytes",
            per_period(counter(&counters, |k| k == "xmlkit.parse_bytes")),
            "count",
            n,
        ),
    ]);

    let mut shares: BTreeMap<String, f64> = st
        .by_layer
        .iter()
        .filter(|(l, _)| !matches!(l.as_str(), "engine" | "bench"))
        .map(|(l, ns)| (l.clone(), *ns as f64 / busy_ns.max(1) as f64))
        .collect();
    shares.insert(
        "unattributed".to_string(),
        unattributed_ns as f64 / busy_ns.max(1) as f64,
    );

    let mut op_shares: Vec<(String, f64)> = st
        .by_op
        .iter()
        .map(|(op, ns)| (op.clone(), *ns as f64 / busy_ns.max(1) as f64))
        .collect();
    op_shares.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("shares are never NaN"));
    op_shares.truncate(TOP_OPS);

    let modeled_ms = modeled.iter().map(|r| r.dur_ns).sum::<u64>() as f64 / 1e6;
    let trace = trace_json(
        runner.spec.name,
        &bench_spans,
        &records,
        &counters,
        &[
            ("wall_ms", wall_ns as f64 / 1e6),
            ("busy_ms", busy_ns as f64 / 1e6),
            ("main_thread_wait_ms", st.wait_ns as f64 / 1e6),
            ("modeled_ms", modeled_ms),
            ("calibration_factor", factor),
        ],
    );
    Traced {
        metrics,
        shares,
        op_shares,
        trace,
    }
}

/// Both span sets as one JSON document. Spans are rows of a table (one
/// array per span under a `columns` header) to keep the file small.
fn trace_json(
    workload: &str,
    bench_spans: &[BenchSpan],
    records: &[SpanRecord],
    counters: &[(String, u64)],
    summary: &[(&str, f64)],
) -> Json {
    let opt_num = |v: Option<u64>| v.map_or(Json::Null, |n| Json::num(n as f64));
    let bench_rows: Vec<Json> = bench_spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::str(s.name.as_str()),
                Json::num(s.thread as f64),
                Json::num(s.start_ns as f64),
                Json::num(s.end_ns as f64),
                opt_num(s.parent.map(|p| p as u64)),
                Json::num(s.iteration),
            ])
        })
        .collect();
    let trace_rows: Vec<Json> = records
        .iter()
        .map(|r| {
            Json::Arr(vec![
                Json::str(r.layer.label()),
                Json::str(r.op),
                r.category.map_or(Json::Null, |c| Json::str(c.label())),
                r.process.as_deref().map_or(Json::Null, Json::str),
                opt_num(r.period.map(u64::from)),
                opt_num(r.instance),
                Json::num(r.thread as f64),
                Json::num(r.start_ns as f64),
                Json::num(r.dur_ns as f64),
            ])
        })
        .collect();
    let cols = |names: &[&str]| Json::Arr(names.iter().map(|n| Json::str(*n)).collect());
    Json::obj(vec![
        ("workload", Json::str(workload)),
        (
            "summary",
            Json::obj(summary.iter().map(|(k, v)| (*k, Json::num(*v))).collect()),
        ),
        (
            "counters",
            Json::Obj(
                counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "bench_spans",
            Json::obj(vec![
                (
                    "columns",
                    cols(&[
                        "name",
                        "thread",
                        "start_ns",
                        "end_ns",
                        "parent",
                        "iteration",
                    ]),
                ),
                ("rows", Json::Arr(bench_rows)),
            ]),
        ),
        (
            "dip_trace_spans",
            Json::obj(vec![
                (
                    "columns",
                    cols(&[
                        "layer", "op", "category", "process", "period", "instance", "thread",
                        "start_ns", "dur_ns",
                    ]),
                ),
                ("rows", Json::Arr(trace_rows)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(op: &'static str, process: Option<&str>) -> SpanRecord {
        SpanRecord {
            layer: dip_trace::Layer::Core,
            op,
            category: None,
            process: process.map(str::to_string),
            period: Some(0),
            instance: Some(0),
            thread: 7,
            start_ns: 100,
            dur_ns: 50,
        }
    }

    #[test]
    fn mirrored_spans_take_layer_and_op_from_their_name() {
        let n = node_of(&record("bench|engine/deliver", Some("P04")));
        assert_eq!((n.layer.as_str(), n.op.as_str()), ("engine", "deliver:P04"));
        let n = node_of(&record("bench|core/uninitialize", None));
        assert_eq!((n.layer.as_str(), n.op.as_str()), ("core", "uninitialize"));
        let n = node_of(&record("period", Some("P04")));
        assert_eq!((n.layer.as_str(), n.op.as_str()), ("core", "period"));
        assert_eq!((n.thread, n.start_ns, n.end_ns), (7, 100, 150));
    }
}
