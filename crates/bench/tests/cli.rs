//! The command line is the `COMMANDS` table and nothing else: every
//! declared flag parses, every undeclared one is a usage error (exit 2)
//! naming the flags the command does accept, out-of-range values are
//! rejected before any work starts, and the help text — and the README
//! block generated from it — lists each flag under exactly the commands
//! that take it. `compare` walks the engine registry, and a table command
//! (`compare`, `sweep`) reports a failed verification to its caller.

use dip_bench::cli::{self, Command, Flag, Ty, COMMANDS};
use dip_bench::{EngineKind, EngineRegistry, EngineSpec};
use dipbench::prelude::*;
use std::collections::BTreeSet;
use std::process::Command as Process;
use std::sync::Arc;

/// A value the flag's type accepts.
fn sample(flag: &Flag) -> Option<&'static str> {
    Some(match flag.ty {
        Ty::Switch => return None,
        Ty::Positive | Ty::Rate => "0.5",
        Ty::Count | Ty::Index | Ty::Seed => "2",
        Ty::Choice(words) => words[0],
        Ty::Engine => "mtm",
        Ty::Text(_) => "x",
    })
}

fn parse(cmd: &Command, flags: &[&str]) -> Result<cli::Parsed, String> {
    let mut args = vec![cmd.name.to_string()];
    args.extend(vec!["x".to_string(); cmd.arity.0]);
    args.extend(flags.iter().map(|s| s.to_string()));
    cli::parse(&args)
}

/// Exit code and stderr of one invocation.
fn dipbench(args: &[&str]) -> (Option<i32>, String) {
    let out = Process::new(env!("CARGO_BIN_EXE_dipbench"))
        .args(args)
        .output()
        .expect("spawn dipbench");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn every_declared_flag_parses_and_every_other_flag_is_rejected() {
    let every: BTreeSet<&str> = COMMANDS
        .iter()
        .flat_map(|c| c.flags.iter().map(|f| f.name))
        .collect();
    for cmd in COMMANDS {
        let mut declared = BTreeSet::new();
        for flag in cmd.flags {
            assert!(
                declared.insert(flag.name),
                "{}: {} declared twice",
                cmd.name,
                flag.name
            );
            let given: Vec<&str> = [Some(flag.name), sample(flag)]
                .into_iter()
                .flatten()
                .collect();
            let parsed = parse(cmd, &given)
                .unwrap_or_else(|e| panic!("{} {given:?} must parse: {e}", cmd.name));
            match flag.ty {
                Ty::Switch => assert!(parsed.has(*flag)),
                _ => assert_eq!(parsed.opt::<String>(*flag).as_deref(), sample(flag)),
            }
            // a default is held to the flag's own type
            if let Some(default) = flag.default {
                parse(cmd, &[flag.name, default])
                    .unwrap_or_else(|e| panic!("{} default of {}: {e}", cmd.name, flag.name));
            }
        }
        for other in every.difference(&declared) {
            let err = parse(cmd, &[other, "1"]).expect_err("undeclared flag must be rejected");
            assert!(err.contains(&format!("unknown flag {other}")), "{err}");
            for flag in cmd.flags {
                assert!(err.contains(flag.name), "{}: {err}", cmd.name);
            }
        }
    }
}

#[test]
fn help_lists_each_flag_under_exactly_the_commands_that_accept_it() {
    let usage = cli::usage();
    for cmd in COMMANDS {
        let prefix = format!("dipbench {}", cmd.name);
        let line = usage
            .lines()
            .find(|l| *l == prefix || l.starts_with(&format!("{prefix} ")))
            .unwrap_or_else(|| panic!("help has no synopsis for {}", cmd.name));
        let listed: Vec<&str> = line
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|word| word.starts_with("--"))
            .collect();
        let declared: Vec<&str> = cmd.flags.iter().map(|f| f.name).collect();
        assert_eq!(listed, declared, "{}", cmd.name);
        let detail = cli::help(cmd);
        for flag in cmd.flags {
            assert!(
                detail.contains(flag.help),
                "help {}: {}",
                cmd.name,
                flag.name
            );
        }
    }
    // the README block is the help output, verbatim
    let readme = include_str!("../../../README.md");
    assert!(
        readme.contains(&usage),
        "README.md usage block drifted: regenerate it from `dipbench help`"
    );
}

/// Step kinds, order and variable names of the 15 MTM graphs are what
/// `sched::derive_profile` and `explain` read. The fixture is the output
/// at PR 18, the last commit that wrote every definition out by hand
/// instead of building it from `processes::catalog`.
#[test]
fn explain_narrates_the_15_definitions_as_written_by_hand_at_pr18() {
    let out = Process::new(env!("CARGO_BIN_EXE_dipbench"))
        .arg("explain")
        .output()
        .expect("spawn dipbench");
    assert!(out.status.success());
    let narrated = String::from_utf8_lossy(&out.stdout);
    let fixture = include_str!("../../../tests/fixtures/explain_pr18.txt");
    for (n, (got, want)) in narrated.lines().zip(fixture.lines()).enumerate() {
        assert_eq!(got, want, "explain, line {}", n + 1);
    }
    assert_eq!(narrated.len(), fixture.len());
}

#[test]
fn misuse_exits_2_before_any_work_starts() {
    let cases: [(&[&str], &str); 17] = [
        (
            &["run", "--exec-mode", "vectorized"],
            "unknown flag --exec-mode",
        ),
        (&["run", "--bogus"], "unknown flag --bogus"),
        (&["run", "--d", "-1"], "--d expects a number > 0"),
        (&["run", "--t", "0"], "--t expects a number > 0"),
        (&["table2", "--d", "0"], "--d expects a number > 0"),
        (
            &["run", "--periods", "0"],
            "--periods expects an integer >= 1",
        ),
        (
            &["faults", "--attempts", "0"],
            "--attempts expects an integer >= 1",
        ),
        (
            &["fig10", "--workers", "0"],
            "--workers expects an integer >= 1",
        ),
        (
            &["overload", "--capacity", "0"],
            "--capacity expects an integer >= 1",
        ),
        (
            &["faults", "--drop", "1.0"],
            "--drop expects a rate in [0, 1)",
        ),
        (
            &["sweep", "--periods", "1", "x"],
            "unknown sweep parameter \"x\"",
        ),
        (&["gate", "no-such-gate"], "unknown gate \"no-such-gate\""),
        (
            &["gate", "--seed", "7"],
            "unknown flag --seed for `dipbench gate` (valid: none)",
        ),
        (&["bench"], "usage: dipbench <command>"),
        // retired with the run records: benchmark/ is the one instrument
        (&["record"], "usage: dipbench <command>"),
        (&["diff", "a.json", "b.json"], "usage: dipbench <command>"),
        (&["report", "--check"], "usage: dipbench <command>"),
    ];
    for (args, expect) in cases {
        let (code, stderr) = dipbench(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(expect), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // a switch consumes no value, so the word after it is a positional
    let args = ["crash", "--sweep", "stray"].map(String::from);
    assert!(cli::parse(&args)
        .unwrap_err()
        .contains("usage: dipbench crash"));
}

#[test]
fn io_failures_exit_1_with_a_message_not_a_backtrace() {
    let out = "/nonexistent-dir/trace.json";
    let (code, stderr) = dipbench(&["run", "--d", "0.01", "--periods", "1", "--trace", out]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("error: cannot write"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn compare_prints_one_column_per_registered_engine_and_exits_0() {
    let out = Process::new(env!("CARGO_BIN_EXE_dipbench"))
        .args(["compare", "--periods", "1"])
        .output()
        .expect("spawn dipbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let tags: Vec<&str> = (EngineRegistry::builtin().specs().iter())
        .map(|s| s.tag)
        .collect();
    let header: Vec<&str> = stdout.lines().next().unwrap().split_whitespace().collect();
    let columns: Vec<&str> = tags.iter().flat_map(|tag| [*tag, "NAVG+[tu]"]).collect();
    assert_eq!(header[0], "proc");
    assert_eq!(header[1..], columns[..], "{stdout}");
    let rows = stdout.lines().filter(|l| l.starts_with('P'));
    assert_eq!(rows.count(), 15, "{stdout}");
    let verdicts: Vec<String> = tags.iter().map(|tag| format!("{tag}=PASS")).collect();
    let last = stdout.lines().last().unwrap();
    assert_eq!(last, format!("verification: {}", verdicts.join(" ")));
}

/// An engine that loses one message: everything runs, verification fails.
struct Lossy(MtmSystem);

impl IntegrationSystem for Lossy {
    fn name(&self) -> &str {
        "lossy"
    }
    fn deploy(&self, defs: Vec<dip_mtm::process::ProcessDef>) -> dip_mtm::error::MtmResult<()> {
        self.0.deploy(defs)
    }
    fn deliver(&self, event: Event) -> Delivery {
        match (event.process(), event.seq()) {
            ("P04", 0) => Delivery::Completed,
            _ => self.0.deliver(event),
        }
    }
    fn recorder(&self) -> Arc<dip_mtm::cost::CostRecorder> {
        self.0.recorder()
    }
}

fn lossy() -> EngineSpec {
    EngineSpec {
        kind: EngineKind::Mtm,
        tag: "lossy",
        aliases: &[],
        label: "lossy-engine",
        description: "test double: drops the first P04 message of each period",
        crash_capable: false,
        build: |env| Arc::new(Lossy(MtmSystem::new(env.world.clone()))),
    }
}

/// `compare` and `sweep` print the whole table and then report a failed
/// verification: `Ok(false)`, which `main` turns into exit 1.
#[test]
fn table_commands_report_a_failed_verification_after_the_full_table() {
    let scale = ScaleFactors::new(0.02, 1.0, Distribution::Uniform);
    let config = BenchConfig::new(scale).with_periods(1);
    let mut table = Vec::new();
    let broken = EngineRegistry::new(vec![lossy()]);
    assert!(!dip_bench::compare(&broken, config, &mut table).unwrap());
    let table = String::from_utf8(table).unwrap();
    assert!(table.ends_with("verification: lossy=FAIL\n"), "{table}");

    let mut table = Vec::new();
    let cells = [0.02, 0.03].map(|d| {
        let scale = ScaleFactors::new(d, 1.0, Distribution::Uniform);
        (format!("d={d}"), scale)
    });
    assert!(!dip_bench::sweep(&lossy(), &cells, 1, &mut table).unwrap());
    let table = String::from_utf8(table).unwrap();
    let failed = table.lines().filter(|l| l.ends_with("FAIL"));
    assert_eq!(failed.count(), 2, "every cell is printed:\n{table}");
    // the same cells on a sound engine
    let mtm = EngineRegistry::builtin().spec_of(EngineKind::Mtm);
    assert!(dip_bench::sweep(mtm, &cells, 1, &mut Vec::new()).unwrap());
}
