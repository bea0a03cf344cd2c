//! `dip-benchmark` — the repo's calibrated benchmark. See README.md.
//!
//! With `--trace 0|1` one process measures one workload and prints, as the
//! last line of its standard output, one JSON object `{correct, attempted,
//! failed, metrics}`: the end-to-end metrics (tracing off) for `--trace 0`,
//! the per-layer metrics for `--trace 1`. Without `--trace` it runs the
//! selected workloads both ways in child processes (so each one's peak RSS
//! is its own), prints every metric and the layer-separation report, and
//! writes `out/results.json`.

mod ab;
mod cal;
mod layers;
mod measure;
mod names;
mod probes;
mod procstat;
mod report;
mod spans;
mod stats;
mod timed;
mod workload;

use dip_trace::Json;
use measure::{measure, metric, Budget, Measured, Metric};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{fold_digest, reference_digest, Rig, Runner, Spec};

/// Default seed, shared with `BenchConfig::new`.
const DEFAULT_SEED: u64 = 0xD1B;
/// Default measuring time per run; equals `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;
/// Warm-up iterations: allocator growth and snapshot-cache fill. Reported
/// apart (`core.cold_period_nms`), never pooled.
const WARMUP_ITERATIONS: u32 = 2;
/// Cold set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Test hook: when set, the digest comparison is corrupted so the failure
/// path can be exercised end to end.
const CORRUPT_ENV: &str = "DIP_BENCHMARK_CORRUPT_DIGEST";

pub const METHOD: &str = "closed loop, Eager pacing, TransferMode::Accounted, default ExecMode \
    (Auto), faults off, workers = 1; one process, at most 2 runnable threads (the client's \
    A||B stream pair); times normalized by the bracketing calibration kernel (n-prefixed units)";

pub struct Args {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    /// `Some` selects the single-run mode.
    pub trace: Option<bool>,
    pub out: PathBuf,
    pub selfcheck: bool,
    pub ab_report: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: PathBuf::from("benchmark/out"),
        selfcheck: false,
        ab_report: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if workload::find(&w).is_none() {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workloads.push(w);
            }
            "--seed" => {
                let v = value()?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| format!("--seed {v:?} is not a number"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("--seconds {v:?} is not a positive number"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                })
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--selfcheck" => args.selfcheck = true,
            "--ab-report" => args.ab_report = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
    }
    if args.trace.is_some() && args.workloads.len() != 1 {
        return Err("--trace measures one workload: give exactly one --workload".into());
    }
    Ok(args)
}

/// Result of one workload run in this process.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub digest: u64,
    /// Traced run only: busy-time share by layer, and by `layer/op` for
    /// the largest operators.
    pub shares: BTreeMap<String, f64>,
    pub op_shares: Vec<(String, f64)>,
    /// Raw per-iteration series of the measured loop (period wall and
    /// kernel runs, ms), kept in the record so a moved number can be told
    /// from a moved machine.
    pub series: Vec<(&'static str, Vec<f64>)>,
    pub notes: Vec<String>,
}

/// One cold set-up, timed: fresh environment + system + deployment + cold
/// generation and load of every period of the workload. Returns the rig,
/// the seconds of the whole and the milliseconds of the deployment (raw:
/// the caller brackets set-ups with kernel runs).
fn cold_setup(spec: &Spec, seed: u64, epoch: Instant) -> (Rig, f64, f64) {
    let start = Instant::now();
    let rig = Rig::build(spec.engine, spec.config(seed), epoch);
    let deploy_start = Instant::now();
    drop(rig.client());
    let deploy = deploy_start.elapsed().as_secs_f64();
    rig.load_all_periods(spec);
    (rig, start.elapsed().as_secs_f64(), deploy * 1e3)
}

/// The digest of the state the last iteration left, with the test hook
/// applied.
fn digest_now(runner: &Runner<'_>) -> BTreeMap<String, u64> {
    let mut digest = runner.digest();
    if std::env::var_os(CORRUPT_ENV).is_some() {
        if let Some(v) = digest.values_mut().next() {
            *v ^= 1;
        }
    }
    digest
}

/// Warm-up shared by both kinds of run: the first iteration is verified and
/// digested (correctness is checked on the first and the last iteration,
/// outside every timed region), the rest only run. Returns the first
/// iteration's measurements and the digest after it.
fn warm_up(runner: &Runner<'_>, notes: &mut Vec<String>) -> (Measured, BTreeMap<String, u64>) {
    let (cold, first) = measure(runner, Budget::Iterations(1), 0);
    notes.extend(runner.verify(&first).err());
    let digest = runner.digest();
    measure(runner, Budget::Iterations(WARMUP_ITERATIONS - 1), 1);
    (cold, digest)
}

/// Assemble a run's result; `notes` are its correctness failures.
fn finish(
    m: &Measured,
    metrics: Vec<Metric>,
    digests: [&BTreeMap<String, u64>; 2],
    traced: Option<layers::Traced>,
    mut notes: Vec<String>,
) -> RunResult {
    let [digest_first, digest_last] = digests;
    if digest_first != digest_last {
        notes.push("digests differ between the first and the last iteration".into());
    }
    // an incorrect run counts every operation as failed
    let failed = if notes.is_empty() {
        m.failed
    } else {
        m.attempted
    };
    let (shares, op_shares) = traced.map_or_else(Default::default, |t| (t.shares, t.op_shares));
    RunResult {
        correct: failed == 0,
        attempted: m.attempted,
        failed,
        metrics,
        digest: fold_digest(digest_last),
        shares,
        op_shares,
        series: vec![
            ("period_wall_ms", m.period_wall_ms.clone()),
            ("cal_ms", m.cal_ms.clone()),
        ],
        notes,
    }
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn run_end_to_end(spec: &Spec, args: &Args) -> RunResult {
    let epoch = Instant::now();
    let mut setups = Vec::new();
    let mut cal_ms = vec![cal::run_ms()];
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take()); // one environment alive at a time
        let (r, secs, _) = cold_setup(spec, args.seed, epoch);
        cal_ms.push(cal::run_ms());
        setups.push(secs);
        rig = Some(r);
    }
    let rig = rig.expect("SETUPS > 0");
    let setups: Vec<f64> = setups
        .iter()
        .zip(cal::factors(&cal_ms))
        .map(|(secs, f)| secs / f)
        .collect();
    // the set-up deployed through a throw-away client; engines replace a
    // redeployed definition, so the measuring client deploys again
    let client = rig.client();
    let runner = Runner {
        spec,
        rig: &rig,
        client: &client,
        recorder: None,
    };
    let mut notes = Vec::new();
    let (_, digest_first) = warm_up(&runner, &mut notes);

    let (m, last) = measure(&runner, Budget::Seconds(args.seconds), WARMUP_ITERATIONS);

    notes.extend(runner.verify(&last).err());
    let digest_last = digest_now(&runner);
    if reference_digest(spec, args.seed) != digest_last {
        notes.push(format!(
            "digests differ from the {} reference pass",
            spec.reference_engine
        ));
    }

    let mut metrics = vec![metric("setup_s", stats::median(&setups), "s", setups.len())];
    metrics.extend(m.end_to_end());
    finish(&m, metrics, [&digest_first, &digest_last], None, notes)
}

/// `--trace 1`: the per-layer metrics. The measuring time is split between
/// an untraced loop (decorator and timer metrics), the traced iterations
/// and the isolated probes.
fn run_layers(spec: &Spec, args: &Args) -> RunResult {
    let before = cal::run_ms();
    let (rig, _, deploy_ms) = cold_setup(spec, args.seed, Instant::now());
    let deploy_nms = deploy_ms / cal::factors(&[before, cal::run_ms()])[0];
    let client = rig.client();
    let runner = Runner {
        spec,
        rig: &rig,
        client: &client,
        recorder: None,
    };
    let mut notes = Vec::new();
    let (cold, digest_first) = warm_up(&runner, &mut notes);

    let (m, last) = measure(
        &runner,
        Budget::Seconds(args.seconds * 0.4),
        WARMUP_ITERATIONS,
    );
    let mut metrics = m.layer_metrics(&cold);
    metrics.push(metric("engine.deploy_nms", deploy_nms, "nms", 1));

    // verification and digest, timed once each between kernel runs
    let before = cal::run_ms();
    let start = Instant::now();
    notes.extend(runner.verify(&last).err());
    let verify_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let digest_last = digest_now(&runner);
    let digest_ms = start.elapsed().as_secs_f64() * 1e3;
    let factor = cal::factors(&[before, cal::run_ms()])[0];
    metrics.push(metric("core.verify_nms", verify_ms / factor, "nms", 1));
    metrics.push(metric("core.digest_nms", digest_ms / factor, "nms", 1));

    let next = WARMUP_ITERATIONS + m.iterations() as u32;
    let mut traced = layers::traced_run(&runner, &m, next);
    metrics.append(&mut traced.metrics);
    let trace_file = args.out.join(format!("{}.trace.json", spec.name));
    report::write_file(&trace_file, &traced.trace.render());

    metrics.extend(probes::run_probes(
        spec,
        &runner,
        args.seed,
        args.seconds * 0.5,
    ));
    finish(
        &m,
        metrics,
        [&digest_first, &digest_last],
        Some(traced),
        notes,
    )
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics those of `expected` (name, unit), in that
/// order, and nothing else.
fn result_json(r: &RunResult, expected: &[(&str, &str)]) -> Json {
    let metrics: Vec<(&str, Json)> = expected
        .iter()
        .map(|(name, unit)| {
            let m = r
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert_eq!(m.unit, *unit, "unit of {name} differs from names.rs");
            (
                *name,
                Json::obj(vec![
                    ("value", Json::num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    assert_eq!(
        metrics.len(),
        r.metrics.len(),
        "a measured metric is missing from names.rs"
    );
    Json::obj(vec![
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::num(r.attempted as f64)),
        ("failed", Json::num(r.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Everything about a run that the contract's object has no room for; the
/// report mode reads it back from `out/<workload>.<kind>.json`.
fn detail_json(spec: &Spec, args: &Args, r: &RunResult, wall_s: f64) -> Json {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                Json::obj(vec![
                    ("value", Json::num(m.value)),
                    ("unit", Json::str(m.unit)),
                    ("n", Json::num(m.n as f64)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(spec.name)),
        ("why", Json::str(spec.why)),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        ("wall_s", Json::num(wall_s)),
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::num(r.attempted as f64)),
        ("failed", Json::num(r.failed as f64)),
        ("digest", Json::str(format!("{:#018x}", r.digest))),
        (
            "notes",
            Json::Arr(r.notes.iter().map(|n| Json::str(n.as_str())).collect()),
        ),
        ("metrics", Json::obj(metrics)),
        (
            "shares",
            Json::Obj(
                r.shares
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::num(*v)))
                    .collect(),
            ),
        ),
        (
            "op_shares",
            Json::Obj(
                r.op_shares
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::num(*v)))
                    .collect(),
            ),
        ),
        (
            "series",
            Json::obj(
                r.series
                    .iter()
                    .map(|(k, v)| (*k, Json::Arr(v.iter().map(|x| Json::num(*x)).collect())))
                    .collect(),
            ),
        ),
    ])
}

pub fn detail_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    let kind = if traced { "layers" } else { "e2e" };
    out.join(format!("{workload}.{kind}.json"))
}

/// Single-run mode: measure, print every metric, write the detail file,
/// end with the contract's JSON line.
fn run_single(args: &Args, traced: bool) -> i32 {
    let spec = workload::find(&args.workloads[0]).expect("validated by parse_args");
    let start = Instant::now();
    let (r, expected): (RunResult, Vec<(&str, &str)>) = if traced {
        (
            run_layers(spec, args),
            names::PER_LAYER.iter().map(|m| (m.0, m.1)).collect(),
        )
    } else {
        (
            run_end_to_end(spec, args),
            names::END_TO_END.iter().map(|m| (m.0, m.1)).collect(),
        )
    };
    let wall_s = start.elapsed().as_secs_f64();
    println!(
        "workload {} seed {:#x} digest {:#018x} wall {wall_s:.1} s",
        spec.name, args.seed, r.digest
    );
    println!("method: {METHOD}");
    for m in &r.metrics {
        println!("  {:<42} {:>16.4} {:<6} n={}", m.name, m.value, m.unit, m.n);
    }
    for note in &r.notes {
        println!("  FAIL {note}");
    }
    report::write_file(
        &detail_path(&args.out, spec.name, traced),
        &detail_json(spec, args, &r, wall_s).render_pretty(),
    );
    println!("{}", result_json(&r, &expected).render());
    if r.correct {
        0
    } else {
        1
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dip-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let code = if let Some((a, b)) = &args.ab_report {
        report::ab_report(a, b)
    } else if let Some(traced) = args.trace {
        run_single(&args, traced)
    } else if args.selfcheck {
        report::selfcheck(&args)
    } else {
        report::run_all(&args)
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_json_writer() {
        let r = RunResult {
            correct: true,
            attempted: 17_238,
            failed: 0,
            metrics: vec![
                metric("period_nms", 72.688_294_736_570_97, "nms", 34),
                metric("setup_s", 0.009_301_502_562_874_632, "s", 7),
            ],
            digest: 1,
            shares: BTreeMap::new(),
            op_shares: Vec::new(),
            series: Vec::new(),
            notes: Vec::new(),
        };
        let line = result_json(&r, &[("setup_s", "s"), ("period_nms", "nms")]).render();
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).expect("own output parses");
        let keys: Vec<&str> = match &back {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("attempted").and_then(Json::as_u64), Some(17_238));
        assert!(
            line.contains("\"attempted\":17238,"),
            "whole numbers print as such"
        );
        let setup = back.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        // every digit survives
        assert_eq!(
            setup.get("value").and_then(Json::as_f64),
            Some(0.009_301_502_562_874_632)
        );
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
