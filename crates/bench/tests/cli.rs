//! The command line is the `COMMANDS` table and nothing else: every
//! declared flag parses, every undeclared one is a usage error (exit 2)
//! naming the flags the command does accept, out-of-range values are
//! rejected before any work starts, and the help text — and the README
//! block generated from it — lists each flag under exactly the commands
//! that take it.

use dip_bench::cli::{self, Command, Flag, Ty, COMMANDS};
use std::collections::BTreeSet;
use std::process::Command as Process;

/// A value the flag's type accepts.
fn sample(flag: &Flag) -> Option<&'static str> {
    Some(match flag.ty {
        Ty::Switch => return None,
        Ty::Positive | Ty::NonNegative | Ty::Rate => "0.5",
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

#[test]
fn misuse_exits_2_before_any_work_starts() {
    let cases: [(&[&str], &str); 14] = [
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
    let records = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/records");
    let out = "/nonexistent-dir/barometer.md";
    let (code, stderr) = dipbench(&["report", "--records", records, "--out", out]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("error: cannot write"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
