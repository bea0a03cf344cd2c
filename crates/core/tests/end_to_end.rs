//! End-to-end benchmark runs on the native MTM engine: the full work phase
//! (all four streams, all 15 process types) followed by the verification
//! phase.

use dipbench::prelude::*;
use dipbench::{client, report, schedule};
use std::sync::Arc;

fn run(config: BenchConfig) -> Run {
    client::run(config, &|env| Arc::new(MtmSystem::new(env.world.clone()))).unwrap()
}

#[test]
fn one_period_runs_and_verifies() {
    let config =
        BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(1);
    let run = run(config);
    let outcome = &run.outcome;

    // every process type executed
    assert_eq!(outcome.metrics.len(), 15, "{:#?}", outcome.metrics);
    // instance counts match the schedule
    let d = config.scale.datasize;
    let expect = |p: &str| {
        outcome
            .metric_for(p)
            .map(|m| m.instances + m.failures)
            .unwrap_or(0)
    };
    assert_eq!(expect("P01") as u32, schedule::p01_count(0, d));
    assert_eq!(expect("P02") as u32, schedule::p02_count(0, d));
    assert_eq!(expect("P04") as u32, schedule::p04_count(d));
    assert_eq!(expect("P08") as u32, schedule::p08_count(d));
    assert_eq!(expect("P10") as u32, schedule::p10_count(d));
    for p in [
        "P03", "P05", "P06", "P07", "P09", "P11", "P12", "P13", "P14", "P15",
    ] {
        assert_eq!(expect(p), 1, "{p} should run once per period");
    }
    // no dispatch failures: P10's invalid messages are *handled*, not
    // failed, and everything else is clean
    assert!(outcome.failures.is_empty(), "{:#?}", outcome.failures);

    // the verification phase passes
    let report = &run.verification;
    assert!(report.passed(), "verification failed:\n{report}");
}

#[test]
fn multi_period_last_state_verifies() {
    let config =
        BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(3);
    let run = run(config);
    let outcome = &run.outcome;
    assert!(outcome.failures.is_empty(), "{:#?}", outcome.failures);
    // three periods × schedule
    let m = outcome.metric_for("P04").unwrap();
    assert_eq!(
        m.instances as u32,
        3 * schedule::p04_count(config.scale.datasize)
    );
    let report = &run.verification;
    assert!(report.passed(), "verification failed:\n{report}");
}

#[test]
fn skewed_distribution_also_verifies() {
    let config =
        BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Zipf10)).with_periods(1);
    let run = run(config);
    let failures = &run.outcome.failures;
    assert!(failures.is_empty(), "{failures:#?}");
    assert!(run.verification.passed(), "{}", run.verification);
}

#[test]
fn reports_render_from_real_run() {
    let config =
        BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(1);
    let outcome = run(config).outcome;
    let table = report::metrics_table(&outcome);
    assert!(table.contains("P13"));
    let chart = report::ascii_chart(&outcome.metrics, 50);
    assert_eq!(chart.lines().count(), 16); // 15 bars + legend
    let dat = report::gnuplot_dat(&outcome.metrics);
    assert_eq!(dat.lines().count(), 16); // header + 15 rows
}

#[test]
fn deterministic_data_flow_across_identical_runs() {
    let config =
        BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(1);
    let (env1, env2) = (run(config).env, run(config).env);
    // the final DWH state must be identical (costs differ, data must not)
    let mut a = env1.db("dwh").table("orders").unwrap().scan();
    let mut b = env2.db("dwh").table("orders").unwrap().scan();
    a.sort_by_columns(&[0]);
    b.sort_by_columns(&[0]);
    assert_eq!(a.rows, b.rows);
    assert_eq!(
        env1.db("sales_cleaning")
            .table("failed_messages")
            .unwrap()
            .row_count(),
        env2.db("sales_cleaning")
            .table("failed_messages")
            .unwrap()
            .row_count()
    );
}

/// The full specification protocol: 100 periods at the paper's d = 0.05.
/// Takes minutes — run explicitly with `cargo test --release -- --ignored`.
#[test]
#[ignore = "full 100-period protocol; run with --ignored"]
fn full_protocol_hundred_periods() {
    let config = BenchConfig::new(ScaleFactors::paper_fig10()).with_periods(100);
    let run = run(config);
    let outcome = &run.outcome;
    assert!(outcome.failures.is_empty());
    // P01's decreasing series: period 99 has the minimum instance count
    let p01_in_period = |k: u32| {
        outcome
            .records
            .iter()
            .filter(|r| r.process == "P01" && r.period == k)
            .count() as u32
    };
    assert_eq!(p01_in_period(0), schedule::p01_count(0, 0.05));
    assert_eq!(p01_in_period(99), schedule::p01_count(99, 0.05));
    assert!(run.verification.passed());
}

#[test]
fn save_experiment_writes_all_files() {
    let config =
        BenchConfig::new(ScaleFactors::new(0.01, 1.0, Distribution::Uniform)).with_periods(1);
    let run = run(config);
    let dir = std::env::temp_dir().join(format!("dipbench-report-{}", std::process::id()));
    let written = report::save_experiment(&dir, &run.outcome, &run.verification).unwrap();
    assert_eq!(written.len(), 4);
    for p in &written {
        let content = std::fs::read_to_string(p).unwrap();
        assert!(!content.is_empty(), "{} is empty", p.display());
    }
    assert!(std::fs::read_to_string(dir.join("data.dat"))
        .unwrap()
        .contains("P13"));
    std::fs::remove_dir_all(&dir).ok();
}
