//! The report mode (every workload, both ways, in child processes), the
//! self-check built on it, and the A/B report.

use crate::{ab, detail_path, names, Args, METHOD};
use dip_trace::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Reduced measuring time of a `--selfcheck` run, seconds.
const SELFCHECK_SECONDS: f64 = 4.0;
/// Layer-separation limits on relstore's query-operator share of busy time:
/// the control may not exceed the first, the workloads on which executor
/// changes must show may not fall below theirs. Measured when set: 0.6 % on
/// `e1_storm`, 7.5 % on `mtm_d20_zipf`, 21 % on `fed_d05` (README,
/// "Workloads", on why the issue's 40 % floor does not fit the MTM engine).
const RELSTORE_SHARE_MAX: [(&str, f64); 1] = [("e1_storm", 0.05)];
const RELSTORE_SHARE_MIN: [(&str, f64); 2] = [("mtm_d20_zipf", 0.05), ("fed_d05", 0.10)];

pub fn write_file(path: &Path, content: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    }
    std::fs::write(path, content)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Both detail records of one workload.
struct WorkloadReport {
    name: String,
    e2e: Json,
    layers: Json,
}

impl WorkloadReport {
    fn correct(&self) -> bool {
        [&self.e2e, &self.layers]
            .iter()
            .all(|d| d.get("correct") == Some(&Json::Bool(true)))
    }

    fn value(detail: &Json, metric: &str) -> Option<f64> {
        detail.get("metrics")?.get(metric)?.get("value")?.as_f64()
    }
}

/// Run one workload one way in a child process and read its detail file.
fn run_child(
    args: &Args,
    out: &Path,
    name: &str,
    seconds: f64,
    traced: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let detail = detail_path(out, name, traced);
    let _ = std::fs::remove_file(&detail);
    let status = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start child: {e}"))?;
    // an incorrect run exits 1 but still leaves its record
    read_json(&detail).map_err(|e| format!("child for {name} ended with {status}: {e}"))
}

fn collect(args: &Args, out: &Path, seconds: f64) -> Result<Vec<WorkloadReport>, String> {
    args.workloads
        .iter()
        .map(|name| {
            eprintln!("dip-benchmark: {name} …");
            Ok(WorkloadReport {
                name: name.clone(),
                e2e: run_child(args, out, name, seconds, false)?,
                layers: run_child(args, out, name, seconds, true)?,
            })
        })
        .collect()
}

fn print_metrics(detail: &Json) {
    let Some(Json::Obj(metrics)) = detail.get("metrics") else {
        return;
    };
    for (name, m) in metrics {
        println!(
            "  {:<42} {:>16.4} {:<6} n={}",
            name,
            m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            m.get("unit").and_then(Json::as_str).unwrap_or("?"),
            m.get("n").and_then(Json::as_u64).unwrap_or(0),
        );
    }
}

/// The workloads × layers table of busy-time shares, with a warning when a
/// workload no longer stresses what it exists to stress.
fn layer_separation(reports: &[WorkloadReport]) {
    let share = |r: &WorkloadReport, layer: &str| {
        r.layers
            .get("shares")
            .and_then(|s| s.get(layer))
            .and_then(Json::as_f64)
    };
    let layers: BTreeSet<String> = reports
        .iter()
        .filter_map(|r| match r.layers.get("shares") {
            Some(Json::Obj(fields)) => Some(fields.iter().map(|(k, _)| k.clone())),
            _ => None,
        })
        .flatten()
        .collect();
    println!("\nlayer separation: share of traced busy time (self time, summed over threads)");
    print!("  {:<14}", "workload");
    for l in &layers {
        print!(" {l:>12}");
    }
    println!();
    for r in reports {
        print!("  {:<14}", r.name);
        for l in &layers {
            print!(" {:>11.1}%", share(r, l).unwrap_or(0.0) * 100.0);
        }
        println!();
    }
    for r in reports {
        let relstore = share(r, "relstore").unwrap_or(0.0);
        for (name, max) in RELSTORE_SHARE_MAX {
            if r.name == name && relstore > max {
                println!(
                    "  WARNING {name} spends {:.1}% in relstore query operators (limit {:.0}%): \
                     it no longer is the control for executor changes",
                    relstore * 100.0,
                    max * 100.0
                );
            }
        }
        for (name, min) in RELSTORE_SHARE_MIN {
            if r.name == name && relstore < min {
                println!(
                    "  WARNING {name} spends {:.1}% in relstore query operators (floor {:.0}%): \
                     an executor change would no longer show on it",
                    relstore * 100.0,
                    min * 100.0
                );
            }
        }
    }
}

/// Report mode: every selected workload, both ways; prints every metric by
/// name with unit and sample count and writes `results.json`.
pub fn run_all(args: &Args) -> i32 {
    let start = Instant::now();
    let reports = match collect(args, &args.out, args.seconds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dip-benchmark: {e}");
            return 1;
        }
    };
    println!("method: {METHOD}");
    println!(
        "seed {:#x}, {} s per run, available parallelism {}",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for r in &reports {
        println!(
            "\n== {} == {} attempted {} failed {} digest {}",
            r.name,
            if r.correct() { "correct" } else { "INCORRECT" },
            r.e2e.get("attempted").and_then(Json::as_u64).unwrap_or(0),
            r.e2e.get("failed").and_then(Json::as_u64).unwrap_or(0),
            r.e2e.get("digest").and_then(Json::as_str).unwrap_or("?"),
        );
        println!(
            "   {}",
            r.e2e.get("why").and_then(Json::as_str).unwrap_or("")
        );
        for d in [&r.e2e, &r.layers] {
            if let Some(Json::Arr(notes)) = d.get("notes") {
                for n in notes {
                    println!("  FAIL {}", n.as_str().unwrap_or("?"));
                }
            }
        }
        println!(" end to end (tracing off; lower is better):");
        print_metrics(&r.e2e);
        println!(" per layer:");
        print_metrics(&r.layers);
    }
    layer_separation(&reports);
    let total = start.elapsed().as_secs_f64();
    println!("\ntotal wall {total:.1} s");

    let results = Json::obj(vec![
        ("method", Json::str(METHOD)),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        ("total_wall_s", Json::num(total)),
        (
            "workloads",
            Json::Obj(
                reports
                    .iter()
                    .map(|r| {
                        (
                            r.name.clone(),
                            Json::obj(vec![
                                ("end_to_end", r.e2e.clone()),
                                ("per_layer", r.layers.clone()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = args.out.join("results.json");
    write_file(&path, &results.render_pretty());
    println!("wrote {}", path.display());
    if reports.iter().all(WorkloadReport::correct) {
        0
    } else {
        1
    }
}

/// Differences between two report sets of the same code and seed: digests
/// and exact counts must be identical, every end-to-end metric within its
/// bound.
fn compare_sets(a: &[WorkloadReport], b: &[WorkloadReport]) -> Vec<String> {
    let mut problems = Vec::new();
    for (ra, rb) in a.iter().zip(b) {
        let w = &ra.name;
        if !ra.correct() || !rb.correct() {
            problems.push(format!("{w}: a run was incorrect"));
        }
        for (da, db) in [(&ra.e2e, &rb.e2e), (&ra.layers, &rb.layers)] {
            if da.get("digest") != db.get("digest") {
                problems.push(format!("{w}: digests differ between the two runs"));
            }
        }
        for name in names::EXACT_COUNTS {
            let (va, vb) = (
                WorkloadReport::value(&ra.layers, name),
                WorkloadReport::value(&rb.layers, name),
            );
            if va.is_none() || va != vb {
                problems.push(format!("{w}: count {name} differs: {va:?} vs {vb:?}"));
            }
        }
        for (name, _, bound) in names::END_TO_END {
            match (
                WorkloadReport::value(&ra.e2e, name),
                WorkloadReport::value(&rb.e2e, name),
            ) {
                (Some(va), Some(vb)) if va > 0.0 => {
                    let change = (vb - va).abs() / va;
                    let verdict = if change <= bound {
                        "ok"
                    } else {
                        "OUT OF BOUND"
                    };
                    println!(
                        "  {w:<14} {name:<14} {va:>12.4} {vb:>12.4}  {:>5.1}% (bound {:.0}%) {verdict}",
                        change * 100.0,
                        bound * 100.0
                    );
                    if change > bound {
                        problems.push(format!(
                            "{w}: {name} moved {:.1}% between two runs of the same code (bound {:.0}%)",
                            change * 100.0,
                            bound * 100.0
                        ));
                    }
                }
                _ => problems.push(format!("{w}: {name} missing or zero")),
            }
        }
    }
    problems
}

/// `--selfcheck`: two short sets of runs of the same code with the same
/// seed must agree within the benchmark's own bounds.
pub fn selfcheck(args: &Args) -> i32 {
    let seconds = args.seconds.min(SELFCHECK_SECONDS);
    let sets: Result<Vec<_>, String> = ["selfcheck-a", "selfcheck-b"]
        .iter()
        .map(|dir| collect(args, &args.out.join(dir), seconds))
        .collect();
    let sets = match sets {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dip-benchmark: {e}");
            return 1;
        }
    };
    println!(
        "selfcheck: two sets, seed {:#x}, {seconds} s per run",
        args.seed
    );
    let problems = compare_sets(&sets[0], &sets[1]);
    for p in &problems {
        println!("  FAIL {p}");
    }
    if problems.is_empty() {
        println!("selfcheck passed: digests and exact counts identical, end-to-end within bounds");
        0
    } else {
        1
    }
}

/// End-to-end values per metric from a file of result lines (one JSON
/// object per run, as the single-run mode prints last).
fn read_runs(path: &Path) -> Result<Vec<Json>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// `--ab-report A B`: per-side median and quartiles, win fraction and the
/// guide's verdict for every end-to-end metric of paired runs.
pub fn ab_report(a: &Path, b: &Path) -> i32 {
    let (runs_a, runs_b) = match (read_runs(a), read_runs(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dip-benchmark: {e}");
            return 2;
        }
    };
    let values = |runs: &[Json], name: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect()
    };
    let incorrect = runs_a
        .iter()
        .chain(&runs_b)
        .filter(|r| r.get("correct") != Some(&Json::Bool(true)))
        .count();
    println!(
        "A = {} ({} runs), B = {} ({} runs), incorrect runs: {incorrect}",
        a.display(),
        runs_a.len(),
        b.display(),
        runs_b.len()
    );
    println!(
        "  {:<14} {:>10} {:>21} {:>10} {:>21} {:>9}  verdict (B against A)",
        "metric", "median A", "quartiles A", "median B", "quartiles B", "B wins"
    );
    for (name, _, _) in names::END_TO_END {
        let (va, vb) = (values(&runs_a, name), values(&runs_b, name));
        if va.is_empty() || vb.is_empty() {
            continue;
        }
        let v = ab::judge(&va, &vb);
        println!(
            "  {:<14} {:>10.4} [{:>9.4},{:>9.4}] {:>10.4} [{:>9.4},{:>9.4}] {:>5}/{:<3}  {}",
            name,
            v.median_a,
            v.quartiles_a.0,
            v.quartiles_a.1,
            v.median_b,
            v.quartiles_b.0,
            v.quartiles_b.1,
            v.b_wins,
            v.pairs,
            v.verdict
        );
    }
    if incorrect == 0 {
        0
    } else {
        println!("  {incorrect} incorrect run(s): no verdict above counts as a gain");
        1
    }
}
