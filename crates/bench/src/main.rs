//! The `dipbench` CLI harness — regenerates every table and figure of the
//! paper (see EXPERIMENTS.md for the index), compares the registered engines
//! side by side, and walks the robustness gates.
//!
//! The commands, their flags, defaults and ranges are declared once, in
//! [`dip_bench::cli::COMMANDS`]; parsing, rejection of unknown flags and
//! out-of-range values (exit 2) and every help text derive from that
//! table. `dipbench help` prints it; `dipbench help <command>` explains
//! one command's flags. Engine tags resolve through
//! [`dip_bench::ENGINES`], gate names through [`dip_bench::gate::GATES`].
//! Every run is one [`dipbench::client::run`].

use dip_bench::cli::{self, Parsed, *};
use dip_bench::gate::{self, CellRun, Check};
use dip_bench::{pass_fail, registry, selftime, shape_findings, EngineKind, ENGINES};
use dip_trace::Json;
use dipbench::prelude::*;
use dipbench::{client, report, schedule};
use std::path::{Path, PathBuf};
use Distribution::{Normal, Uniform, Zipf10, Zipf5};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let p = &cli::parse(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    match p.command.name {
        "table1" => print!("{}", report::table1()),
        "table2" => print!("{}", report::table2(p.get(D))),
        "fig8" => {
            let series = report::fig8_dat(&[0.05, 0.1, 0.5, 1.0], &[0.5, 1.0, 2.0], 100, 20);
            print!("{series}");
        }
        "fig10" => figure(p, ScaleFactors::paper_fig10()),
        "fig11" => figure(p, ScaleFactors::paper_fig11()),
        "run" => figure(p, p.scale()),
        "compare" => compare(p),
        "sweep" => sweep(p),
        "quality" => quality(p),
        "faults" => faults(p),
        "crash" => crash(p),
        "overload" => overload(p),
        "gate" => gate_cmd(p),
        "explain" => explain(p),
        "selftime" => selftime(p),
        "help" => match p.positionals.first().map(|name| (name, cli::command(name))) {
            None => print!("{}", cli::usage()),
            Some((_, Some(cmd))) => print!("{}", cli::help(cmd)),
            Some((name, None)) => {
                fail_usage(&format!("unknown command {name:?}\n\n{}", cli::usage()))
            }
        },
        declared => unreachable!("`{declared}` is in COMMANDS but has no body"),
    }
}

/// `dipbench selftime`: one trace file's self times, or two files' and
/// the change per op; an unreadable file exits 1.
fn selftime(p: &Parsed) {
    let read = |path: &String| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let json = Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        selftime::self_times(&json).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
    };
    let times: Vec<_> = p.positionals.iter().map(read).collect();
    print!("{}", selftime::render(&times[0], times.get(1)));
}

/// Report misuse the flag table cannot express and exit 2.
fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Report a failed run or an I/O failure and exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Run `config` on `kind`; a run that errors ends the command (exit 1).
fn run(kind: EngineKind, config: BenchConfig) -> Run {
    client::run(config, &kind.spec().build).unwrap_or_else(|e| fail(&e.to_string()))
}

fn write_file(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(&format!("cannot write {}: {e}", path.display()));
    }
}

fn figure(p: &Parsed, scale: ScaleFactors) {
    let (periods, workers): (u32, usize) = (p.get(PERIODS), p.get(WORKERS));
    let kind = p.engine();
    let config = BenchConfig::new(scale)
        .with_periods(periods)
        .with_workers(workers);
    eprintln!(
        "running DIPBench on {} (d={}, t={}, f={}, {periods} periods, {workers} worker(s))…",
        kind.label(),
        scale.datasize,
        scale.time,
        scale.distribution.label(),
    );
    let trace_out: Option<PathBuf> = p.opt(TRACE);
    if trace_out.is_some() {
        dip_trace::enable();
    }
    let result = run(kind, config);
    if let Some(path) = &trace_out {
        let spans = dip_trace::drain();
        dip_trace::disable();
        write_file(path, &dip_trace::to_chrome_trace(&spans));
        eprintln!("wrote {} spans to {}", spans.len(), path.display());
    }
    print!("{}", report::metrics_table(&result.outcome));
    println!();
    print!("{}", report::ascii_chart(&result.outcome.metrics, 60));
    println!();
    println!("# gnuplot data");
    print!("{}", report::gnuplot_dat(&result.outcome.metrics));
    println!();
    println!("verification: {}", pass_fail(result.verification.passed()));
    for check in &result.verification.checks {
        println!(
            "  [{}] {:<40} {}",
            if check.passed { "ok" } else { "!!" },
            check.name,
            check.detail
        );
    }
    println!("\nshape findings (paper §VI expectations):");
    for f in shape_findings(&result.outcome) {
        match f {
            Ok(m) => println!("  [ok] {m}"),
            Err(m) => println!("  [??] {m}"),
        }
    }
    if let Some(dir) = p.opt::<PathBuf>(OUT_DIR) {
        match report::save_experiment(&dir, &result.outcome, &result.verification) {
            Ok(written) => written
                .iter()
                .for_each(|f| eprintln!("wrote {}", f.display())),
            Err(e) => fail(&format!(
                "cannot write report files to {}: {e}",
                dir.display()
            )),
        }
    }
    if !result.verification.passed() {
        std::process::exit(1);
    }
}

/// End a command that printed a table of runs: exit 1 if any run failed
/// verification (after the whole table is out), or with a message if a
/// run errored or stdout could not be written.
fn finish(verified: Result<bool, Box<dyn std::error::Error>>) {
    match verified {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) if e.is::<std::io::Error>() => fail(&format!("cannot write to stdout: {e}")),
        Err(e) => fail(&e.to_string()),
    }
}

fn compare(p: &Parsed) {
    let config = BenchConfig::new(ScaleFactors::paper_fig10()).with_periods(p.get(PERIODS));
    finish(dip_bench::compare(&ENGINES, config, &mut std::io::stdout()));
}

fn sweep(p: &Parsed) {
    let periods: u32 = p.get(PERIODS);
    let spec = p.engine().spec();
    let param = p.positionals.first().map_or("d", String::as_str);
    let uniform = |d, t| ScaleFactors::new(d, t, Uniform);
    let cells: Vec<(String, ScaleFactors)> = match param {
        "d" => [0.02, 0.05, 0.1, 0.2]
            .map(|d| (format!("d={d}"), uniform(d, 1.0)))
            .to_vec(),
        "t" => [0.5, 1.0, 2.0, 4.0]
            .map(|t| (format!("t={t}"), uniform(0.05, t)))
            .to_vec(),
        "f" => [Uniform, Zipf5, Zipf10, Normal]
            .map(|f| (format!("f={}", f.label()), ScaleFactors::new(0.05, 1.0, f)))
            .to_vec(),
        other => fail_usage(&format!(
            "unknown sweep parameter {other:?} (use d, t or f)"
        )),
    };
    println!(
        "# sweep over {param} on {} ({periods} period(s) each)",
        spec.label
    );
    finish(dip_bench::sweep(
        spec,
        &cells,
        periods,
        &mut std::io::stdout(),
    ));
}

/// The data-quality extension (paper §VII future work): run a benchmark
/// and profile completeness/consistency/retention per pipeline layer.
fn quality(p: &Parsed) {
    let scale = ScaleFactors::new(p.get(D), 1.0, Uniform);
    let config = BenchConfig::new(scale).with_periods(p.get(PERIODS));
    let run = run(p.engine(), config);
    let q = dipbench::quality::measure(&run.env).unwrap_or_else(|e| fail(&e.to_string()));
    print!("{q}");
    println!(
        "quality increases along the pipeline: {}",
        if q.quality_increases() { "yes" } else { "NO" }
    );
}

fn explain(p: &Parsed) {
    let target = p.positionals.first().map_or("", String::as_str);
    let mut shown = false;
    for def in dipbench::processes::all_processes() {
        if target.is_empty() || def.id.eq_ignore_ascii_case(target) {
            println!("{}", def.explain());
            shown = true;
        }
    }
    if !shown {
        fail_usage(&format!(
            "unknown process {target:?} (use P01..P15 or no argument for all)"
        ));
    }
}

/// The same cell twice, judged `same-seed-twice`; divergences go to stderr.
/// A cell that errors ends the exploratory command.
fn twice(kind: EngineKind, config: BenchConfig) -> (CellRun, gate::Verdict) {
    let cell = || gate::run_cell(kind, config).unwrap_or_else(|e| fail(&e.to_string()));
    let (one, two) = (cell(), cell());
    let verdict = gate::judge(
        Check::SameSeedTwice,
        &[one.fingerprint.clone(), two.fingerprint],
    );
    for note in &verdict.notes {
        eprintln!("  [!!] same-seed runs diverged on {}: {note}", kind.tag());
    }
    for check in one.run.verification.failed_checks() {
        eprintln!("  [!!] {:<40} {}", check.name, check.detail);
    }
    (one, verdict)
}

fn counter(cell: &CellRun, name: &str) -> u64 {
    let found = cell.fingerprint.counters.iter().find(|(k, _)| k == name);
    found.map_or(0, |(_, n)| *n)
}

/// Delivered (ok) E1 message instances across the whole run.
fn delivered_messages(outcome: &RunOutcome) -> usize {
    outcome
        .records
        .iter()
        .filter(|r| r.ok && dipbench::schedule::is_message_process(&r.process))
        .count()
}

/// Mean NAVG+ over all process types.
fn mean_navg_plus(outcome: &RunOutcome) -> f64 {
    let n = outcome.metrics.len().max(1) as f64;
    outcome.metrics.iter().map(|m| m.navg_plus_tu).sum::<f64>() / n
}

/// Exploratory chaos runs: a clean reference run, then one fault-injected
/// cell (or the drop × attempts sweep), each executed twice and compared
/// through the gate fingerprint, reporting delivery outcomes and NAVG+
/// inflation. Exits 1 if same-seed runs diverge or the single cell fails
/// verification; the blocking CI cells are the `chaos-*` rows of `GATES`.
fn faults(p: &Parsed) {
    let kind = p.engine();
    let (d, seed, periods): (f64, u64, u32) = (p.get(D), p.get(SEED), p.get(PERIODS));
    let workers: usize = p.get(WORKERS);
    let sweep = p.has(SWEEP);
    let base = BenchConfig::new(ScaleFactors::new(d, 1.0, Uniform))
        .with_periods(periods)
        .with_seed(seed)
        .with_workers(workers);
    eprintln!(
        "clean reference run on {} (d={d}, seed={seed}, {periods} period(s), {workers} worker(s))…",
        kind.label()
    );
    let clean = run(kind, base);
    let clean_navg = mean_navg_plus(&clean.outcome);
    let mut all_ok = clean.verification.passed();
    if !all_ok {
        eprintln!("clean run FAILED verification:\n{}", clean.verification);
    }
    let cells: Vec<(f64, u32)> = if sweep {
        [0.01, 0.02, 0.05, 0.1]
            .iter()
            .flat_map(|&r| [1u32, 2, 4, 8].iter().map(move |&a| (r, a)))
            .collect()
    } else {
        vec![(p.get(DROP), p.get(ATTEMPTS))]
    };
    println!(
        "# chaos runs on {} (clean NAVG+ mean {clean_navg:.2} tu, {} messages delivered)",
        kind.label(),
        delivered_messages(&clean.outcome)
    );
    println!(
        "drop    attempts  delivered   dead  retries  navg+[tu]  inflation  verify deterministic"
    );
    for (rate, attempts) in cells {
        let config = base
            .with_faults(FaultPlan::drops(rate))
            .with_attempts(attempts);
        let (cell, verdict) = twice(kind, config);
        let verified = verdict.verified == verdict.cells;
        let outcome = &cell.run.outcome;
        let navg = mean_navg_plus(outcome);
        println!(
            "{:<7} {:>8} {:>10} {:>6} {:>8} {:>10.2} {:>9.2}x {:>7} {:>13}",
            rate,
            attempts,
            delivered_messages(outcome),
            outcome.dead_letters.len(),
            counter(&cell, "resilience.retries"),
            navg,
            navg / clean_navg.max(1e-9),
            pass_fail(verified),
            if verdict.diverged == 0 { "yes" } else { "NO" }
        );
        if !verified {
            for f in outcome.failures.iter().take(3) {
                eprintln!(
                    "  [!!] {} period {} seq {}: {}",
                    f.process, f.period, f.seq, f.error
                );
            }
        }
        // The sweep is exploratory: weak policies (attempts=1) are *meant*
        // to lose messages and fail verification. Only the single cell
        // fails on a verification miss; a non-deterministic fault schedule
        // is fatal everywhere.
        all_ok &= verdict.diverged == 0 && (sweep || verified);
    }
    if !all_ok {
        std::process::exit(1);
    }
}

/// Exploratory crash-restart recovery: plan a deterministic crash at one
/// materialization step of a target instance (or sweep every step of
/// every target), recover from the checkpoint + stream journal, and
/// compare each recovered run with an uncrashed same-seed reference
/// through the gate fingerprint. A target instance the schedule never
/// runs is misuse (exit 2), refused before any run. The blocking CI
/// sweeps — and the rollback-off teeth check — are the `crash-*` rows of
/// `GATES`.
///
/// At `--workers > 1` the `replayed` and `ckpt[r]` columns depend on how
/// far the other pool threads got before the crash, so they can differ
/// between same-seed runs; `verify` and the comparison with the reference
/// are still functions of the seed.
fn crash(p: &Parsed) {
    let kind = p.engine();
    if !kind.spec().crash_capable {
        fail_usage(&format!(
            "engine {:?} acks before effect and cannot give the byte-identity \
             guarantee the crash gate checks (use {})",
            kind.tag(),
            registry::usage_tags(|s| s.crash_capable)
        ));
    }
    let at: Option<u32> = p.opt(AT);
    if at.is_none() && !p.has(SWEEP) {
        fail_usage(&format!(
            "crash requires {} STEP or {}",
            AT.name, SWEEP.name
        ));
    }
    let process = p.opt::<String>(PROCESS).map(|s| s.to_uppercase());
    let targets = process
        .as_deref()
        .map_or(gate::CRASH_TARGETS.to_vec(), |one| vec![one]);
    let (d, seed, drop): (f64, u64, f64) = (p.get(D), p.get(SEED), p.get(DROP));
    let (periods, period, seq): (u32, u32, u32) = (p.get(PERIODS), p.get(PERIOD), p.get(SEQ));
    for target in &targets {
        let scheduled = period < periods
            && (schedule::period_streams(period, d).iter())
                .flat_map(|(_, events)| events)
                .any(|e| e.process == *target && e.seq == seq);
        if !scheduled {
            fail_usage(&format!(
                "the instance {target} period {period} seq {seq} is never scheduled \
                 at d={d} over {periods} period(s): there is nothing to crash"
            ));
        }
    }
    let mut config = BenchConfig::new(ScaleFactors::new(d, 1.0, Uniform))
        .with_periods(periods)
        .with_seed(seed)
        .with_workers(p.get(WORKERS));
    if drop > 0.0 {
        // extra chaos cell: transport drops on top of the crash, under the
        // default attempt budget
        config = config.with_faults(FaultPlan::drops(drop));
    }
    println!(
        "# crash-restart recovery on {} (d={d}, seed={seed}, drop={drop})",
        kind.label()
    );
    println!("process  step  tripped   replayed  ckpt[r]  verify  vs uncrashed reference");
    let instance = (period, seq);
    let mut row =
        |target: &CrashTarget, reference: &gate::Fingerprint, cell: &Result<CellRun, _>| {
            print!("{:<8} {:>4} ", target.process, target.step);
            match cell {
                Err(e) => println!("{:>8}   recovery error: {e}", "yes"),
                Ok(cell) if !cell.run.tripped => {
                    println!("{:>8}   (the instance has no such step)", "no")
                }
                Ok(cell) => {
                    let differs = cell.fingerprint.diff(reference, false);
                    let versus = match differs.is_empty() {
                        true => "same".to_string(),
                        false => format!("DIFF: {}", differs.join(", ")),
                    };
                    let verify = pass_fail(cell.fingerprint.verified);
                    let replayed = counter(cell, "recovery.replayed_events");
                    let rows = counter(cell, "recovery.checkpoint.rows");
                    println!(
                        "{:>8} {replayed:>10} {rows:>8} {verify:>7}  {versus}",
                        "yes"
                    );
                }
            }
        };
    let fps = gate::crash_sweep(kind, config, &targets, instance, at, true, &mut row)
        .unwrap_or_else(|e| fail(&e));
    if !gate::judge(Check::EqualsReference, &fps).pass {
        fail("crash recovery FAILED: a recovered run diverged from the uncrashed reference");
    }
    println!("all crash points recovered byte-identically; conservation held");
}

/// Exploratory open-loop overload: skewed arrivals fired on schedule at a
/// rate multiplier against a bounded virtual broker queue. Every cell runs
/// twice; exit 1 unless queues stay bounded, shed-extended E1 conservation
/// passes and the double runs are byte-identical. `--sweep` walks rate ×
/// skew cells and requires shed counts to degrade monotonically with
/// rate. The blocking CI cells are the `overload-*` rows of `GATES`.
fn overload(p: &Parsed) {
    let kind = p.engine();
    let (d, seed, periods): (f64, u64, u32) = (p.get(D), p.get(SEED), p.get(PERIODS));
    let capacity: usize = p.get(CAPACITY);
    let base = BenchConfig::new(ScaleFactors::new(d, 1.0, Uniform))
        .with_periods(periods)
        .with_seed(seed);
    println!(
        "# overload on {} (d={d}, seed={seed}, {periods} period(s), capacity {capacity})",
        kind.label()
    );
    println!(" rate         f  sched  admit  shed depth  wait[tu]  navg+[tu]  +wait[tu]  verify deterministic");
    // One cell, twice: prints its row, returns (first run, JSON cell, ok).
    let run = |f: Distribution, rate: f64| {
        let (cell, verdict) = twice(kind, gate::overload_cell(base, f, rate, capacity));
        let s = cell.run.stats;
        let verified = verdict.verified == verdict.cells;
        let deterministic = verdict.diverged == 0;
        let navg = mean_navg_plus(&cell.run.outcome);
        println!(
            "{:>5} {:>9} {:>6} {:>6} {:>5} {:>5} {:>9.2} {:>10.2} {:>10.2} {:>7} {:>13}",
            rate,
            f.label(),
            s.scheduled_messages,
            s.admitted,
            s.shed,
            s.max_depth,
            s.mean_wait_tu,
            navg,
            navg + s.mean_wait_tu,
            pass_fail(verified),
            if deterministic { "yes" } else { "NO" }
        );
        let bounded = s.max_depth <= capacity as u64;
        if !bounded {
            eprintln!(
                "  [!!] queue bound violated: depth {} > capacity {capacity}",
                s.max_depth
            );
        }
        let json = Json::obj(vec![
            ("rate", Json::num(rate)),
            ("f", Json::str(f.label())),
            ("scheduled", Json::num(s.scheduled_messages as f64)),
            ("admitted", Json::num(s.admitted as f64)),
            ("shed", Json::num(s.shed as f64)),
            ("max_depth", Json::num(s.max_depth as f64)),
            ("delayed", Json::num(s.delayed as f64)),
            ("mean_wait_tu", Json::num(s.mean_wait_tu)),
            ("max_wait_tu", Json::num(s.max_wait_tu)),
            ("navg_plus_tu", Json::num(navg)),
            ("navg_plus_open_loop_tu", Json::num(navg + s.mean_wait_tu)),
            ("verify", Json::Bool(verified)),
            ("deterministic", Json::Bool(deterministic)),
        ]);
        (cell.fingerprint, json, verified && deterministic && bounded)
    };
    let mut all_ok = true;
    if p.has(SWEEP) {
        let mut json_cells = Vec::new();
        for f in [Uniform, Zipf5, Zipf10] {
            let mut by_rate = Vec::new();
            for rate in [1.0, 1.5, 2.0, 3.0, 4.0] {
                let (fingerprint, json, ok) = run(f, rate);
                by_rate.push(fingerprint);
                json_cells.push(json);
                all_ok &= ok;
            }
            // Graceful degradation: pushing the same arrival pattern
            // harder must never *reduce* loss.
            for note in gate::judge(Check::MonotoneShed, &by_rate).notes {
                eprintln!("  [!!] {}: {note}", f.label());
                all_ok = false;
            }
        }
        if let Some(path) = p.opt::<PathBuf>(OUT) {
            let artifact = Json::obj(vec![
                ("schema", Json::str("dipbench-overload-sweep/1")),
                ("engine", Json::str(kind.tag())),
                ("d", Json::num(d)),
                ("periods", Json::num(periods)),
                ("seed", Json::num(seed as f64)),
                ("capacity", Json::num(capacity as f64)),
                ("cells", Json::Arr(json_cells)),
            ]);
            write_file(&path, &(artifact.render() + "\n"));
            eprintln!("sweep artifact written to {}", path.display());
        }
    } else {
        all_ok = run(p.distribution(), p.get(RATE)).2;
    }
    if !all_ok {
        std::process::exit(1);
    }
}

/// `dipbench gate [NAME…]`: walk the declared gate matrix (or the named
/// rows) two rows at a time and print one line per row in declared order;
/// exit 1 if any row fails.
fn gate_cmd(p: &Parsed) {
    let names: Vec<&str> = gate::GATES.iter().map(|g| g.name).collect();
    if let Some(unknown) = p.positionals.iter().find(|n| !names.contains(&n.as_str())) {
        fail_usage(&format!(
            "unknown gate {unknown:?} (declared: {})",
            names.join(" ")
        ));
    }
    let rows: Vec<&gate::Gate> = (gate::GATES.iter())
        .filter(|row| p.positionals.is_empty() || p.positionals.iter().any(|n| n == row.name))
        .collect();
    println!("gate               engine  workers     d  seed  check             cells verified identical diverged  result");
    let mut failed = 0;
    gate::run_gates(&rows, |row, verdict| {
        let verdict = verdict.unwrap_or_else(|error| gate::Verdict {
            notes: vec![error],
            ..gate::Verdict::default()
        });
        println!(
            "{:<18} {:<7} {:>7} {:>5} {:>5}  {:<17} {:>5} {:>8} {:>9} {:>8}  {}",
            row.name,
            row.engine.tag(),
            row.workers,
            row.d,
            row.seed,
            row.check.label(),
            verdict.cells,
            verdict.verified,
            verdict.identical,
            verdict.diverged,
            pass_fail(verdict.pass)
        );
        if !verdict.pass {
            failed += 1;
            verdict.notes.iter().for_each(|n| eprintln!("  [!!] {n}"));
        }
    });
    if failed > 0 {
        fail(&format!("{failed} gate row(s) failed"));
    }
}
