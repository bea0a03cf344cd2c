//! Harness helpers shared by the `dipbench` CLI, the criterion benches and
//! the integration tests: engine construction, experiment execution, run
//! records, the declared command table ([`cli`]) and gate table ([`gate`]).

use dipbench::prelude::*;
use dipbench::verify::{self, VerificationReport};
use std::sync::Arc;

pub mod barometer;
pub mod cli;
pub mod gate;

use barometer::EngineRegistry;

/// Which integration system to benchmark. The registry
/// ([`barometer::EngineRegistry`]) is the source of truth for tags,
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

    /// Canonical short tag, e.g. `fed` — used in record files and CLI.
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
    let env = BenchEnvironment::new(config).expect("environment construction");
    let system = build_system(kind, &env);
    let client = Client::new(&env, system).expect("deployment");
    let outcome = client.run().expect("work phase");
    let verification = verify::verify_outcome(&env, &outcome).expect("verification phase");
    ExperimentResult {
        outcome,
        verification,
    }
}

/// The versioned run record of an outcome: identity, per-process stats and
/// the wall clock. Timestamp, commit, span rollups, counters and cells are
/// the caller's to fill (`dipbench record` does).
pub fn run_record(kind: EngineKind, out: &RunOutcome) -> dip_trace::RunRecord {
    let scale = out.config.scale;
    dip_trace::RunRecord {
        schema_version: dip_trace::SCHEMA_VERSION,
        created_unix: 0,
        commit: String::new(),
        engine: kind.tag().to_string(),
        // One executor, so the label is fixed per engine: it keeps the
        // committed `*+vectorized` barometer cells going, and `fed-unopt`
        // runs its local queries through the reference interpreter.
        exec_mode: match kind {
            EngineKind::FederatedUnoptimized => "oracle",
            _ => "vectorized",
        }
        .to_string(),
        datasize: scale.datasize,
        time: scale.time,
        distribution: scale.distribution.label().to_string(),
        periods: out.config.periods as u64,
        wall_ms: out.wall_time.as_secs_f64() * 1000.0,
        processes: (out.metrics.iter())
            .map(|m| dip_trace::ProcessStats {
                process: m.process.clone(),
                instances: m.instances as u64,
                failures: m.failures as u64,
                navg_tu: m.navg_tu,
                stddev_tu: m.stddev_tu,
                navg_plus_tu: m.navg_plus_tu,
                comm_tu: m.comm_tu,
                mgmt_tu: m.mgmt_tu,
                proc_tu: m.proc_tu,
            })
            .collect(),
        rollups: Vec::new(),
        counters: Vec::new(),
        cells: Vec::new(),
    }
}

/// [`run_record`] with every wall-clock field pinned to zero — those are
/// real durations, compared by `dipbench diff` with a tolerance, never
/// bytewise. What remains is the schedule-determined payload: which
/// process types ran, how many instances each dispatched, how many failed.
pub fn pinned_record(kind: EngineKind, out: &RunOutcome) -> dip_trace::RunRecord {
    let mut rec = run_record(kind, out);
    rec.wall_ms = 0.0;
    for p in &mut rec.processes {
        (p.navg_tu, p.stddev_tu, p.navg_plus_tu) = (0.0, 0.0, 0.0);
        (p.comm_tu, p.mgmt_tu, p.proc_tu) = (0.0, 0.0, 0.0);
    }
    rec
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
