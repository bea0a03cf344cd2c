//! The `dipbench` CLI harness — regenerates every table and figure of the
//! paper (see EXPERIMENTS.md for the index), compares the registered engines
//! side by side, and walks the robustness gates.
//!
//! The commands, their flags, defaults and ranges are declared once, in
//! [`dip_bench::cli::COMMANDS`]; parsing, rejection of unknown flags and
//! out-of-range values (exit 2) and every help text derive from that
//! table. `dipbench help` prints it; `dipbench help <command>` explains
//! one command's flags. Engine tags resolve through the
//! [`EngineRegistry`], gate names through [`dip_bench::gate::GATES`].

use dip_bench::cli::{self, Parsed, *};
use dip_bench::gate::{self, CellRun, Check, Detail, Load};
use dip_bench::{pass_fail, run_experiment, shape_findings, EngineKind, EngineRegistry};
use dip_trace::Json;
use dipbench::prelude::*;
use dipbench::report;
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
    let result = run_experiment(kind, config);
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
/// verification (after the whole table is out).
fn finish(verified: std::io::Result<bool>) {
    match verified {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => fail(&format!("cannot write to stdout: {e}")),
    }
}

fn compare(p: &Parsed) {
    let config = BenchConfig::new(ScaleFactors::paper_fig10()).with_periods(p.get(PERIODS));
    let registry = EngineRegistry::builtin();
    finish(dip_bench::compare(registry, config, &mut std::io::stdout()));
}

fn sweep(p: &Parsed) {
    let periods: u32 = p.get(PERIODS);
    let spec = EngineRegistry::builtin().spec_of(p.engine());
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
    let env = BenchEnvironment::new(config).expect("environment");
    let system = dip_bench::build_system(p.engine(), &env);
    let client = Client::new(&env, system).expect("deploy");
    client.run().expect("work phase");
    let q = dipbench::quality::measure(&env).expect("quality measurement");
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
fn twice(kind: EngineKind, config: BenchConfig, load: &Load) -> (CellRun, gate::Verdict) {
    let cell = || gate::run_cell(kind, config, load).unwrap_or_else(|e| fail(&e.to_string()));
    let (one, two) = (cell(), cell());
    let verdict = gate::judge(
        Check::SameSeedTwice,
        &[one.fingerprint.clone(), two.fingerprint],
    );
    for note in &verdict.notes {
        eprintln!("  [!!] same-seed runs diverged on {}: {note}", kind.tag());
    }
    for check in one.verification.failed_checks() {
        eprintln!("  [!!] {:<40} {}", check.name, check.detail);
    }
    (one, verdict)
}

fn counter(run: &CellRun, name: &str) -> u64 {
    let found = run.fingerprint.counters.iter().find(|(k, _)| k == name);
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
    let clean = run_experiment(kind, base);
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
    println!("drop    attempts  delivered   dead  retries  breaker  navg+[tu]  inflation  verify deterministic");
    for (rate, attempts) in cells {
        let model = FaultModel {
            drop_rate: rate,
            timeout_rate: p.get(TIMEOUT),
        };
        let config = base
            .with_faults(FaultPlan {
                model,
                ..FaultPlan::NONE
            })
            .with_resilience(ResiliencePolicy::DEFAULT.with_attempts(attempts));
        let (run, verdict) = twice(kind, config, &Load::Closed);
        let verified = verdict.verified == verdict.cells;
        let navg = mean_navg_plus(&run.outcome);
        println!(
            "{:<7} {:>8} {:>10} {:>6} {:>8} {:>8} {:>10.2} {:>9.2}x {:>7} {:>13}",
            rate,
            attempts,
            delivered_messages(&run.outcome),
            run.outcome.dead_letters.len(),
            counter(&run, "resilience.retries"),
            counter(&run, "resilience.breaker_open"),
            navg,
            navg / clean_navg.max(1e-9),
            pass_fail(verified),
            if verdict.diverged == 0 { "yes" } else { "NO" }
        );
        if !verified {
            for f in run.outcome.failures.iter().take(3) {
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
/// through the gate fingerprint. The blocking CI sweeps — and the
/// rollback-off teeth check — are the `crash-*` rows of `GATES`.
fn crash(p: &Parsed) {
    let kind = p.engine();
    let registry = EngineRegistry::builtin();
    if !registry.spec_of(kind).crash_capable {
        fail_usage(&format!(
            "engine {:?} acks before effect and cannot give the byte-identity \
             guarantee the crash gate checks (use {})",
            kind.tag(),
            registry.crash_usage_tags()
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
    let mut config = BenchConfig::new(ScaleFactors::new(d, 1.0, Uniform))
        .with_periods(p.get(PERIODS))
        .with_seed(seed)
        .with_workers(p.get(WORKERS));
    if drop > 0.0 {
        // extra chaos cell: transport drops on top of the crash. The
        // breaker stays disabled — its consecutive-failure count would
        // not survive the restart, and the gate demands bit-exact replay.
        config = config
            .with_faults(FaultPlan::drops(drop))
            .with_resilience(ResiliencePolicy {
                breaker_threshold: 0,
                ..ResiliencePolicy::DEFAULT
            });
    }
    println!(
        "# crash-restart recovery on {} (d={d}, seed={seed}, drop={drop})",
        kind.label()
    );
    println!("process  step  tripped   replayed  ckpt[r]  verify  vs uncrashed reference");
    let instance = (p.get(PERIOD), p.get(SEQ));
    let mut row = |target: &CrashTarget, reference: &gate::Fingerprint, cell: &_| {
        print!("{:<8} {:>4} ", target.process, target.step);
        match cell {
            Err(e) => println!("{:>8}   recovery error: {e}", "yes"),
            Ok(CellRun {
                detail: Detail::Crash { tripped, .. },
                ..
            }) if !tripped => println!("{:>8}   (the instance has no such step)", "no"),
            Ok(run) => {
                let differs = run.fingerprint.diff(reference, false);
                let versus = match differs.is_empty() {
                    true => "same".to_string(),
                    false => format!("DIFF: {}", differs.join(", ")),
                };
                let verify = pass_fail(run.fingerprint.verified);
                let replayed = counter(run, "recovery.replayed_events");
                let rows = counter(run, "recovery.checkpoint.rows");
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
    let word: String = p.get(POLICY);
    use AdmissionPolicy::{Block, Degrade, Shed};
    let policy = [Block, Shed, Degrade]
        .into_iter()
        .find(|policy| policy.label() == word);
    let admission = AdmissionControl::bounded(capacity, policy.expect("a declared choice"));
    let base = BenchConfig::new(ScaleFactors::new(d, 1.0, Uniform))
        .with_periods(periods)
        .with_seed(seed);
    println!(
        "# overload on {} (d={d}, seed={seed}, {periods} period(s), capacity {capacity}, policy {word})",
        kind.label()
    );
    println!(" rate         f  sched  admit  shed depth  wait[tu]  navg+[tu]  +wait[tu]  verify deterministic");
    // One cell, twice: prints its row, returns (first run, JSON cell, ok).
    let run = |f: Distribution, rate: f64| {
        let (config, load) = gate::overload_cell(base, f, rate, admission);
        let (run, verdict) = twice(kind, config, &load);
        let Detail::Open(s) = run.detail else {
            unreachable!("an open load reports queueing stats")
        };
        let verified = verdict.verified == verdict.cells;
        let deterministic = verdict.diverged == 0;
        let navg = mean_navg_plus(&run.outcome);
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
            ("degraded_evictions", Json::num(s.degraded_evictions as f64)),
            ("max_depth", Json::num(s.max_depth as f64)),
            ("delayed", Json::num(s.delayed as f64)),
            ("mean_wait_tu", Json::num(s.mean_wait_tu)),
            ("max_wait_tu", Json::num(s.max_wait_tu)),
            ("blocked_tu", Json::num(s.blocked_tu)),
            ("navg_plus_tu", Json::num(navg)),
            ("navg_plus_open_loop_tu", Json::num(navg + s.mean_wait_tu)),
            ("verify", Json::Bool(verified)),
            ("deterministic", Json::Bool(deterministic)),
        ]);
        (run.fingerprint, json, verified && deterministic && bounded)
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
                ("policy", Json::str(word)),
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
/// rows) and print one line per row; exit 1 if any row fails.
fn gate_cmd(p: &Parsed) {
    let names: Vec<&str> = gate::GATES.iter().map(|g| g.name).collect();
    if let Some(unknown) = p.positionals.iter().find(|n| !names.contains(&n.as_str())) {
        fail_usage(&format!(
            "unknown gate {unknown:?} (declared: {})",
            names.join(" ")
        ));
    }
    println!("gate               engine  workers     d  seed  check             cells verified identical diverged  result");
    let mut failed = 0;
    for row in gate::GATES {
        if !p.positionals.is_empty() && !p.positionals.iter().any(|n| n == row.name) {
            continue;
        }
        let verdict = gate::run_gate(row).unwrap_or_else(|error| gate::Verdict {
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
    }
    if failed > 0 {
        fail(&format!("{failed} gate row(s) failed"));
    }
}
