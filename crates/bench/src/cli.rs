//! The `dipbench` command line as data: one [`COMMANDS`] table from which
//! parsing, unknown-flag rejection, range validation and every help text
//! are derived. A command body never spells a flag name — it reads typed
//! values off the [`Parsed`] result through the flag constants below, so
//! each `(command, flag)` pair is declared exactly once.

use crate::{EngineKind, EngineRegistry};
use dipbench::prelude::{Distribution, ScaleFactors};
use std::fmt::Write as _;
use std::str::FromStr;

/// What a flag's value must look like. [`parse`] checks every given value
/// and every default against it, so command bodies only see valid input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ty {
    /// Present or absent; consumes no value.
    Switch,
    /// A finite number > 0.
    Positive,
    /// A rate in [0, 1).
    Rate,
    /// An integer ≥ 1 (`u32`).
    Count,
    /// An integer ≥ 0 (`u32`).
    Index,
    /// Any `u64`.
    Seed,
    /// One of a fixed set of words.
    Choice(&'static [&'static str]),
    /// An engine tag or alias of the [`EngineRegistry`].
    Engine,
    /// Free text (a path or a process id), shown as this metavariable.
    Text(&'static str),
}

impl Ty {
    /// The value placeholder of the synopsis (e.g. `X`, `block|shed|degrade`)
    /// and the constraint in words, for help text and error messages.
    fn describe(self) -> (String, String) {
        let (metavar, expects) = match self {
            Ty::Switch => ("", "no value"),
            Ty::Positive => ("X", "a number > 0"),
            Ty::Rate => ("X", "a rate in [0, 1)"),
            Ty::Count => ("N", "an integer >= 1"),
            Ty::Index | Ty::Seed => ("N", "a non-negative integer"),
            Ty::Engine => {
                let tags = EngineRegistry::builtin().usage_tags();
                return ("TAG".into(), format!("one of {tags}"));
            }
            Ty::Choice(words) => return (words.join("|"), format!("one of {}", words.join("|"))),
            Ty::Text(metavar) => (metavar, metavar),
        };
        (metavar.into(), expects.into())
    }

    fn accepts(self, v: &str) -> bool {
        let number = |ok: fn(f64) -> bool| v.parse().is_ok_and(|x: f64| x.is_finite() && ok(x));
        match self {
            Ty::Switch => false,
            Ty::Positive => number(|x| x > 0.0),
            Ty::Rate => number(|x| (0.0..1.0).contains(&x)),
            Ty::Count => v.parse().is_ok_and(|n: u32| n >= 1),
            Ty::Index => v.parse::<u32>().is_ok(),
            Ty::Seed => v.parse::<u64>().is_ok(),
            Ty::Choice(words) => words.contains(&v),
            Ty::Engine => EngineKind::parse(v).is_some(),
            Ty::Text(_) => !v.is_empty(),
        }
    }
}

/// One declared flag. The constants below define each flag's name, type
/// and help once; a command that wants a different default takes it with
/// `Flag::or`.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    pub name: &'static str,
    pub ty: Ty,
    /// The value an absent flag takes (`None`: the flag is optional).
    pub default: Option<&'static str>,
    pub help: &'static str,
}

impl Flag {
    const fn new(name: &'static str, ty: Ty, help: &'static str) -> Flag {
        Flag {
            name,
            ty,
            default: None,
            help,
        }
    }

    const fn or(mut self, default: &'static str) -> Flag {
        self.default = Some(default);
        self
    }
}

/// The `--f` words and, position by position, the distribution each selects.
const F_WORDS: [&str; 4] = ["uniform", "zipf5", "zipf10", "normal"];
const F_VALUES: [Distribution; 4] = [
    Distribution::Uniform,
    Distribution::Zipf5,
    Distribution::Zipf10,
    Distribution::Normal,
];

#[rustfmt::skip]
mod flags {
    use super::{Flag, Ty, F_WORDS};

    pub const D: Flag = Flag::new("--d", Ty::Positive, "datasize scale factor d").or("0.05");
    pub const T: Flag = Flag::new("--t", Ty::Positive, "time scale factor t (1 tu = 1/t ms)").or("1.0");
    pub const F: Flag = Flag::new("--f", Ty::Choice(&F_WORDS), "distribution scale factor f").or("uniform");
    pub const PERIODS: Flag = Flag::new("--periods", Ty::Count, "benchmark periods to run").or("1");
    pub const ENGINE: Flag = Flag::new("--engine", Ty::Engine, "system under test").or("fed");
    pub const WORKERS: Flag = Flag::new("--workers", Ty::Count, "schedule-execution worker threads").or("1");
    pub const TRACE: Flag = Flag::new("--trace", Ty::Text("FILE"), "write the run's Chrome trace here");
    pub const OUT: Flag = Flag::new("--out", Ty::Text("FILE"), "write the command's artifact here");
    pub const OUT_DIR: Flag = Flag::new("--out", Ty::Text("DIR"), "write the report files into this directory");
    pub const SEED: Flag = Flag::new("--seed", Ty::Seed, "seed of the data generator and the fault schedule").or("3355");
    pub const DROP: Flag = Flag::new("--drop", Ty::Rate, "transport drop rate").or("0.05");
    pub const TIMEOUT: Flag = Flag::new("--timeout", Ty::Rate, "transport timeout rate").or("0");
    pub const ATTEMPTS: Flag = Flag::new("--attempts", Ty::Count, "delivery attempts per operation").or("4");
    pub const SWEEP: Flag = Flag::new("--sweep", Ty::Switch, "walk the command's cell grid instead of one cell");
    pub const PERIOD: Flag = Flag::new("--period", Ty::Index, "period of the crashed instance").or("0");
    pub const SEQ: Flag = Flag::new("--seq", Ty::Index, "sequence number of the crashed instance").or("0");
    pub const AT: Flag = Flag::new("--at", Ty::Index, "materialization step at which the system dies");
    pub const PROCESS: Flag = Flag::new("--process", Ty::Text("Pxx"), "crash only this process type (default: P02, P05, P09, P13)");
    pub const RATE: Flag = Flag::new("--rate", Ty::Positive, "arrival-rate multiplier").or("1.0");
    pub const POLICY: Flag = Flag::new("--policy", Ty::Choice(&["block", "shed", "degrade"]), "full-queue policy").or("shed");
    pub const CAPACITY: Flag = Flag::new("--capacity", Ty::Count, "queue bound per process type").or("8");
}
pub use flags::*;

/// One declared command.
#[derive(Debug)]
pub struct Command {
    pub name: &'static str,
    /// Positional synopsis (`""`: the command takes none).
    pub args: &'static str,
    /// Fewest and most positional arguments accepted.
    pub arity: (usize, usize),
    pub summary: &'static str,
    pub flags: &'static [Flag],
}

const FIGURE: &[Flag] = &[PERIODS.or("3"), ENGINE, TRACE, OUT_DIR, WORKERS];

/// Every command of the binary, in help order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "table1", args: "", arity: (0, 0), flags: &[], summary: "paper Table I" },
    Command { name: "table2", args: "", arity: (0, 0), flags: &[D], summary: "paper Table II" },
    Command { name: "fig8", args: "", arity: (0, 0), flags: &[], summary: "paper Fig. 8 data series" },
    Command { name: "fig10", args: "", arity: (0, 0), flags: FIGURE, summary: "paper Fig. 10 (d = 0.05, t = 1, uniform)" },
    Command { name: "fig11", args: "", arity: (0, 0), flags: FIGURE, summary: "paper Fig. 11 (d = 0.1, t = 1, uniform)" },
    Command { name: "run", args: "", arity: (0, 0), summary: "one experiment at explicit scale factors",
              flags: &[D, T, F, PERIODS.or("3"), ENGINE, TRACE, OUT_DIR, WORKERS] },
    Command { name: "compare", args: "", arity: (0, 0), summary: "every registered engine side by side at the Fig. 10 configuration (exit 1 on a failed verification)",
              flags: &[PERIODS.or("2")] },
    Command { name: "sweep", args: "[d|t|f]", arity: (0, 1), flags: &[PERIODS, ENGINE], summary: "scale-factor sweep (default d; exit 1 on a failed verification)" },
    Command { name: "quality", args: "", arity: (0, 0), flags: &[PERIODS, ENGINE, D], summary: "data-quality profile per pipeline layer" },
    Command { name: "faults", args: "", arity: (0, 0), summary: "seeded chaos cells, each run twice (exit 1 on divergence or a failed single cell)",
              flags: &[ENGINE, PERIODS, D, SEED, DROP, TIMEOUT, ATTEMPTS, SWEEP, WORKERS] },
    Command { name: "crash", args: "", arity: (0, 0), summary: "crash-restart recovery at one step (--at) or every step (--sweep) (exit 1 on divergence)",
              flags: &[ENGINE.or("mtm"), D.or("0.02"), PERIODS, SEED, PERIOD, SEQ, AT, PROCESS, SWEEP, DROP.or("0"), WORKERS] },
    Command { name: "overload", args: "", arity: (0, 0), summary: "open-loop overload cell or rate x skew sweep, each cell run twice (exit 1 on violation)",
              flags: &[ENGINE, D.or("0.02"), PERIODS, SEED, RATE, F.or("zipf10"), POLICY, CAPACITY, SWEEP, OUT] },
    Command { name: "gate", args: "[NAME...]", arity: (0, usize::MAX), flags: &[], summary: "walk the declared robustness gates (all, or the named rows)" },
    Command { name: "explain", args: "[P01..P15]", arity: (0, 1), flags: &[], summary: "narrate process definitions" },
    Command { name: "help", args: "[COMMAND]", arity: (0, 1), flags: &[], summary: "this overview, or one command's flags in detail" },
];

pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// A successfully parsed command line.
#[derive(Debug)]
pub struct Parsed {
    pub command: &'static Command,
    pub positionals: Vec<String>,
    given: Vec<(&'static str, String)>,
}

impl Parsed {
    fn raw(&self, flag: Flag) -> Option<&str> {
        let declared = self.command.flags.iter().find(|f| f.name == flag.name);
        let declared = declared
            .unwrap_or_else(|| panic!("`{}` does not declare {}", self.command.name, flag.name));
        let given = self.given.iter().rev().find(|(name, _)| *name == flag.name);
        given.map(|(_, v)| v.as_str()).or(declared.default)
    }

    /// Whether a switch was given.
    pub fn has(&self, flag: Flag) -> bool {
        self.raw(flag).is_some()
    }

    /// The flag's value, given or default; `None` for an absent optional flag.
    pub fn opt<V: FromStr>(&self, flag: Flag) -> Option<V> {
        self.raw(flag).map(|v| match v.parse() {
            Ok(v) => v,
            Err(_) => panic!("{} is read at a type its Ty does not validate", flag.name),
        })
    }

    /// The value of a flag that has a default.
    pub fn get<V: FromStr>(&self, flag: Flag) -> V {
        self.opt(flag)
            .unwrap_or_else(|| panic!("{} has no default", flag.name))
    }

    pub fn engine(&self) -> EngineKind {
        EngineKind::parse(&self.get::<String>(ENGINE)).expect("validated by Ty::Engine")
    }

    pub fn distribution(&self) -> Distribution {
        let word: String = self.get(F);
        let at = F_WORDS.iter().position(|w| *w == word);
        F_VALUES[at.expect("validated by Ty::Choice")]
    }

    /// `(--d, --t, --f)` as scale factors.
    pub fn scale(&self) -> ScaleFactors {
        ScaleFactors::new(self.get(D), self.get(T), self.distribution())
    }
}

/// Parse `argv[1..]`. `Err` is the complete message for stderr; the caller
/// exits 2.
pub fn parse(args: &[String]) -> Result<Parsed, String> {
    let Some(cmd) = args.first().and_then(|name| command(name)) else {
        return Err(usage());
    };
    let mut parsed = Parsed {
        command: cmd,
        positionals: Vec::new(),
        given: Vec::new(),
    };
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            parsed.positionals.push(arg.clone());
            continue;
        }
        let Some(flag) = cmd.flags.iter().find(|f| f.name == arg) else {
            let valid: Vec<&str> = cmd.flags.iter().map(|f| f.name).collect();
            let valid = if valid.is_empty() {
                "none".into()
            } else {
                valid.join(" ")
            };
            let name = cmd.name;
            return Err(format!(
                "error: unknown flag {arg} for `dipbench {name}` (valid: {valid})"
            ));
        };
        let value = match flag.ty {
            Ty::Switch => String::new(),
            ty => match rest.next().filter(|v| !v.starts_with("--")) {
                Some(v) if ty.accepts(v) => v.clone(),
                Some(v) => {
                    return Err(format!(
                        "error: flag {arg} expects {}, got {v:?}",
                        ty.describe().1
                    ))
                }
                None => return Err(format!("error: flag {arg} requires a value")),
            },
        };
        parsed.given.push((flag.name, value));
    }
    let (min, max) = cmd.arity;
    if !(min..=max).contains(&parsed.positionals.len()) {
        return Err(format!("error: usage: {}", synopsis(cmd)));
    }
    Ok(parsed)
}

/// `dipbench NAME ARGS [--flag VALUE]…` on one line.
pub fn synopsis(cmd: &Command) -> String {
    let mut line = format!("dipbench {}", cmd.name);
    if !cmd.args.is_empty() {
        let _ = write!(line, " {}", cmd.args);
    }
    for flag in cmd.flags {
        let _ = match flag.ty {
            Ty::Switch => write!(line, " [{}]", flag.name),
            ty => write!(line, " [{} {}]", flag.name, ty.describe().0),
        };
    }
    line
}

/// The overview: every command's synopsis and summary, then the engines.
pub fn usage() -> String {
    let mut out = String::from("usage: dipbench <command> [args] [flags]\n\n");
    for cmd in COMMANDS {
        let _ = writeln!(out, "{}\n    {}", synopsis(cmd), cmd.summary);
    }
    let registry = EngineRegistry::builtin();
    let _ = writeln!(out, "\nengines (--engine {}):", registry.usage_tags());
    for spec in registry.specs() {
        let _ = writeln!(out, "    {:<10} {}", spec.tag, spec.description);
    }
    out
}

/// One command in detail: every flag with its constraint and default.
pub fn help(cmd: &Command) -> String {
    let mut out = format!("{}\n    {}\n", synopsis(cmd), cmd.summary);
    for flag in cmd.flags {
        let head = format!("{} {}", flag.name, flag.ty.describe().0);
        let _ = write!(out, "\n    {head:<24} {}", flag.help);
        match (flag.ty, flag.default) {
            (Ty::Switch, _) | (Ty::Text(_), None) => {}
            (ty, None) => drop(write!(out, " ({})", ty.describe().1)),
            (ty, Some(default)) => drop(write!(out, " ({}; default {default})", ty.describe().1)),
        }
    }
    out.push('\n');
    out
}
