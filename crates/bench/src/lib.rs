//! Harness helpers shared by the `dipbench` CLI, the criterion benches and
//! the integration tests: the engine registry ([`registry`]), experiment
//! execution, the declared command table ([`cli`]) and gate table ([`gate`]).

use dipbench::prelude::*;
use dipbench::verify::{self, VerificationReport};
use std::io::{self, Write};
use std::sync::Arc;

pub mod cli;
pub mod gate;
pub mod registry;

pub use registry::{EngineRegistry, EngineSpec};

/// Which integration system to benchmark. The registry
/// ([`EngineRegistry`]) is the source of truth for tags,
/// labels, constructors and capabilities; this enum is the cheap copyable
/// handle the harness passes around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The federated-DBMS reference implementation (the paper's System A
    /// analog) — the default, matching the paper's experiments.
    Federated,
    /// The native MTM engine.
    Mtm,
    /// The federated engine with its relational optimizer disabled
    /// (ablation).
    FederatedUnoptimized,
    /// The EAI-server-style asynchronous broker (paper §VII future work).
    Eai,
    /// The incremental view-maintenance engine: P09/P11/P13/P14 as
    /// standing queries over change-capture logs.
    Ivm,
}

impl EngineKind {
    /// Resolve an `--engine` value (registry tag or alias).
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineRegistry::builtin().resolve(s).map(|spec| spec.kind)
    }

    /// Human-readable label, e.g. `federated-dbms`.
    pub fn label(&self) -> &'static str {
        EngineRegistry::builtin().spec_of(*self).label
    }

    /// Canonical short tag, e.g. `fed` — the `--engine` value.
    pub fn tag(&self) -> &'static str {
        EngineRegistry::builtin().spec_of(*self).tag
    }
}

/// Build the system under test over an environment's world.
pub fn build_system(kind: EngineKind, env: &BenchEnvironment) -> Arc<dyn IntegrationSystem> {
    (EngineRegistry::builtin().spec_of(kind).build)(env)
}

/// One full experiment: environment + work phase + verification.
pub struct ExperimentResult {
    pub outcome: RunOutcome,
    pub verification: VerificationReport,
}

/// Run a complete experiment.
pub fn run_experiment(kind: EngineKind, config: BenchConfig) -> ExperimentResult {
    run_spec(EngineRegistry::builtin().spec_of(kind), config)
}

/// [`run_experiment`] on a registry entry (the built-in one of a kind, or
/// a test double).
pub fn run_spec(spec: &EngineSpec, config: BenchConfig) -> ExperimentResult {
    let env = BenchEnvironment::new(config).expect("environment construction");
    let system = (spec.build)(&env);
    let client = Client::new(&env, system).expect("deployment");
    let outcome = client.run().expect("work phase");
    let verification = verify::verify_outcome(&env, &outcome).expect("verification phase");
    ExperimentResult {
        outcome,
        verification,
    }
}

/// The word a table prints for a verification or gate result.
pub fn pass_fail(passed: bool) -> &'static str {
    if passed {
        "PASS"
    } else {
        "FAIL"
    }
}

/// `dipbench compare`: the same cell on every engine of `registry`, one
/// after the other in this process — one NAVG+ column per engine, then
/// each engine's verification. Returns whether every engine verified.
pub fn compare(
    registry: &EngineRegistry,
    config: BenchConfig,
    out: &mut dyn Write,
) -> io::Result<bool> {
    let runs: Vec<(&EngineSpec, ExperimentResult)> = (registry.specs().iter())
        .map(|spec| (spec, run_spec(spec, config)))
        .collect();
    write!(out, "{:<5}", "proc")?;
    for (spec, _) in &runs {
        write!(out, " {:>19}", format!("{} NAVG+[tu]", spec.tag))?;
    }
    writeln!(out)?;
    let processes = runs.first().map_or(&[][..], |(_, r)| &r.outcome.metrics);
    for metric in processes {
        write!(out, "{:<5}", metric.process)?;
        for (_, run) in &runs {
            match run.outcome.metric_for(&metric.process) {
                Some(m) => write!(out, " {:>19.2}", m.navg_plus_tu)?,
                None => write!(out, " {:>19}", "-")?,
            }
        }
        writeln!(out)?;
    }
    write!(out, "\nverification:")?;
    for (spec, run) in &runs {
        write!(
            out,
            " {}={}",
            spec.tag,
            pass_fail(run.verification.passed())
        )?;
    }
    writeln!(out)?;
    Ok(runs.iter().all(|(_, run)| run.verification.passed()))
}

/// `dipbench sweep`: one engine over labelled scale-factor cells, one row
/// per cell as it finishes. Returns whether every cell verified.
pub fn sweep(
    spec: &EngineSpec,
    cells: &[(String, ScaleFactors)],
    periods: u32,
    out: &mut dyn Write,
) -> io::Result<bool> {
    writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>12} {:>8}",
        "config", "E1 NAVG+", "E2 NAVG+", "total[ms]", "verify"
    )?;
    let mut verified = true;
    for (label, scale) in cells {
        let result = run_spec(spec, BenchConfig::new(*scale).with_periods(periods));
        let avg = |pick: &dyn Fn(&str) -> bool| {
            let vals: Vec<f64> = (result.outcome.metrics.iter())
                .filter(|m| pick(&m.process))
                .map(|m| m.navg_plus_tu)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        writeln!(
            out,
            "{:<14} {:>12.2} {:>12.2} {:>12} {:>8}",
            label,
            avg(&dipbench::schedule::is_message_process),
            avg(&|p| ["P03", "P09", "P11", "P12", "P13", "P14", "P15"].contains(&p)),
            result.outcome.wall_time.as_millis(),
            pass_fail(result.verification.passed())
        )?;
        verified &= result.verification.passed();
    }
    Ok(verified)
}

/// Qualitative shape checks on a Fig. 10/11-style outcome — the
/// paper-versus-measured assertions EXPERIMENTS.md records:
///
/// 1. the serialized data-intensive types (P09, P13, P14) dominate the
///    lightweight message-driven types (P01, P02, P08) in `NAVG+`;
/// 2. data-intensive types have a larger *absolute* standard deviation.
///
/// Returns human-readable findings, with `Err` strings for violated
/// expectations.
pub fn shape_findings(outcome: &RunOutcome) -> Vec<Result<String, String>> {
    let get = |p: &str| outcome.metric_for(p).cloned();
    let mut findings = Vec::new();
    let heavy = ["P09", "P13", "P14"];
    let light = ["P01", "P02", "P08"];
    let avg = |ids: &[&str], f: &dyn Fn(&ProcessMetric) -> f64| {
        let vals: Vec<f64> = ids.iter().filter_map(|p| get(p)).map(|m| f(&m)).collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let heavy_navg = avg(&heavy, &|m| m.navg_plus_tu);
    let light_navg = avg(&light, &|m| m.navg_plus_tu);
    if heavy_navg > 2.0 * light_navg {
        findings.push(Ok(format!(
            "data-intensive NAVG+ dominates: {heavy_navg:.1} tu vs {light_navg:.1} tu ({:.1}x)",
            heavy_navg / light_navg.max(1e-9)
        )));
    } else {
        findings.push(Err(format!(
            "expected data-intensive dominance, got {heavy_navg:.1} vs {light_navg:.1} tu"
        )));
    }
    let heavy_sd = avg(&heavy, &|m| m.stddev_tu);
    let light_sd = avg(&light, &|m| m.stddev_tu);
    if heavy_sd > light_sd {
        findings.push(Ok(format!(
            "data-intensive stddev is larger: {heavy_sd:.1} tu vs {light_sd:.1} tu"
        )));
    } else {
        findings.push(Err(format!(
            "expected larger data-intensive stddev, got {heavy_sd:.1} vs {light_sd:.1} tu"
        )));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_parsing() {
        assert_eq!(EngineKind::parse("fed"), Some(EngineKind::Federated));
        assert_eq!(EngineKind::parse("federated"), Some(EngineKind::Federated));
        assert_eq!(EngineKind::parse("mtm"), Some(EngineKind::Mtm));
        assert_eq!(
            EngineKind::parse("fed-unopt"),
            Some(EngineKind::FederatedUnoptimized)
        );
        assert_eq!(EngineKind::parse("eai"), Some(EngineKind::Eai));
        assert_eq!(EngineKind::parse("ivm"), Some(EngineKind::Ivm));
        assert_eq!(EngineKind::parse("nope"), None);
        assert_eq!(EngineKind::Ivm.tag(), "ivm");
        assert_eq!(EngineKind::Ivm.label(), "ivm-engine");
    }

    #[test]
    fn small_experiment_runs_and_verifies() {
        let config =
            BenchConfig::new(ScaleFactors::new(0.01, 1.0, Distribution::Uniform)).with_periods(1);
        let result = run_experiment(EngineKind::Federated, config);
        assert!(result.verification.passed(), "{}", result.verification);
        assert_eq!(result.outcome.metrics.len(), 15);
    }
}
