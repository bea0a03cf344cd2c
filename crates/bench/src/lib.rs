//! Harness helpers shared by the `dipbench` CLI, the examples and the
//! integration tests: the engine table ([`registry`]), the table commands
//! ([`compare`], [`sweep`]), the declared command table ([`cli`]) and gate
//! table ([`gate`]). Every run goes through [`dipbench::client::run`].

use dipbench::client;
use dipbench::prelude::*;
use std::error::Error;
use std::io::Write;
use std::sync::Arc;

pub mod cli;
pub mod gate;
pub mod registry;
pub mod selftime;

pub use registry::{EngineSpec, ENGINES};

/// Which integration system to benchmark. The engine table ([`ENGINES`])
/// is the source of truth for tags, labels, constructors and
/// capabilities; this enum is the cheap copyable handle the harness passes
/// around, and its discriminant is its index in the table.
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
    /// Resolve an `--engine` value (tag or alias).
    pub fn parse(s: &str) -> Option<EngineKind> {
        registry::resolve(s).map(|spec| spec.kind)
    }

    /// This kind's entry of [`ENGINES`].
    pub fn spec(self) -> &'static EngineSpec {
        &ENGINES[self as usize]
    }

    /// Human-readable label, e.g. `federated-dbms`.
    pub fn label(&self) -> &'static str {
        self.spec().label
    }

    /// Canonical short tag, e.g. `fed` — the `--engine` value.
    pub fn tag(&self) -> &'static str {
        self.spec().tag
    }
}

/// Build the system under test over an environment's world.
pub fn build_system(kind: EngineKind, env: &BenchEnvironment) -> Arc<dyn IntegrationSystem> {
    (kind.spec().build)(env)
}

/// The word a table prints for a verification or gate result.
pub fn pass_fail(passed: bool) -> &'static str {
    if passed {
        "PASS"
    } else {
        "FAIL"
    }
}

/// `dipbench compare`: the same cell on every engine of `engines`, one
/// after the other in this process — one NAVG+ column per engine, then
/// each engine's verification. Returns whether every engine verified; an
/// error is a run that failed or output that could not be written.
pub fn compare(
    engines: &[EngineSpec],
    config: BenchConfig,
    out: &mut dyn Write,
) -> Result<bool, Box<dyn Error>> {
    let runs = (engines.iter())
        .map(|spec| client::run(config, &spec.build).map(|run| (spec, run)))
        .collect::<Result<Vec<_>, _>>()?;
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
) -> Result<bool, Box<dyn Error>> {
    writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>12} {:>8}",
        "config", "E1 NAVG+", "E2 NAVG+", "total[ms]", "verify"
    )?;
    let mut verified = true;
    for (label, scale) in cells {
        let run = client::run(BenchConfig::new(*scale).with_periods(periods), &spec.build)?;
        let (e1, e2) = navg_plus_by_event(&run.outcome.metrics);
        writeln!(
            out,
            "{:<14} {:>12.2} {:>12.2} {:>12} {:>8}",
            label,
            e1,
            e2,
            run.outcome.wall_time.as_millis(),
            pass_fail(run.verification.passed())
        )?;
        verified &= run.verification.passed();
    }
    Ok(verified)
}

/// Mean `NAVG+` of the E1 and of the E2 process types, in tu: E1 are the
/// message-driven types ([`dipbench::schedule::is_message_process`]), E2
/// every other type (Table I's timed events). A side with no metric reads 0.
pub fn navg_plus_by_event(metrics: &[ProcessMetric]) -> (f64, f64) {
    let (e1, e2): (Vec<&ProcessMetric>, Vec<&ProcessMetric>) = metrics
        .iter()
        .partition(|m| dipbench::schedule::is_message_process(&m.process));
    let mean = |side: &[&ProcessMetric]| {
        side.iter().map(|m| m.navg_plus_tu).sum::<f64>() / side.len().max(1) as f64
    };
    (mean(&e1), mean(&e2))
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
    fn e2_is_every_type_that_is_not_e1() {
        let metric = |process: &str, navg_plus_tu: f64| ProcessMetric {
            process: process.to_string(),
            instances: 1,
            failures: 0,
            navg_tu: navg_plus_tu,
            stddev_tu: 0.0,
            navg_plus_tu,
            comm_tu: 0.0,
            mgmt_tu: 0.0,
            proc_tu: 0.0,
        };
        // P05–P07 are timed events (Table I), so E2 averages them too
        let metrics = [
            metric("P01", 2.0),
            metric("P04", 4.0),
            metric("P05", 10.0),
            metric("P06", 20.0),
            metric("P07", 30.0),
            metric("P13", 40.0),
        ];
        assert_eq!(navg_plus_by_event(&metrics), (3.0, 25.0));
        assert_eq!(navg_plus_by_event(&metrics[..2]), (3.0, 0.0));
        assert_eq!(navg_plus_by_event(&[]), (0.0, 0.0));
    }

    #[test]
    fn small_experiment_runs_and_verifies() {
        let config =
            BenchConfig::new(ScaleFactors::new(0.01, 1.0, Distribution::Uniform)).with_periods(1);
        let run = client::run(config, &EngineKind::Federated.spec().build).unwrap();
        assert!(run.verification.passed(), "{}", run.verification);
        assert_eq!(run.outcome.metrics.len(), 15);
    }
}
