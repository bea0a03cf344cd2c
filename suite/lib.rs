//! Shared helpers for the workspace-level examples and integration tests:
//! one-call construction of a fully-run benchmark environment on any
//! registered engine.

use dip_bench::build_system;
pub use dip_bench::EngineKind;
use dipbench::prelude::*;

/// A small, fast configuration for integration tests.
pub fn test_config() -> BenchConfig {
    BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(1)
}

/// Build an environment, run the work phase on the chosen engine, and
/// return both the environment (for state inspection) and the outcome.
pub fn run_benchmark(kind: EngineKind, config: BenchConfig) -> (BenchEnvironment, RunOutcome) {
    let env = BenchEnvironment::new(config).expect("environment");
    let client = Client::new(&env, build_system(kind, &env)).expect("deployment");
    let outcome = client.run().expect("work phase");
    (env, outcome)
}

/// Every row of a table, sorted on all columns — the order-free form the
/// cross-engine and chaos tests compare.
pub fn sorted_rows(
    env: &BenchEnvironment,
    db: &str,
    table: &str,
) -> Vec<Vec<dip_relstore::value::Value>> {
    let mut rel = env.db(db).table(table).expect("table exists").scan();
    let keys: Vec<usize> = (0..rel.schema.len()).collect();
    rel.sort_by_columns(&keys);
    rel.rows
}
