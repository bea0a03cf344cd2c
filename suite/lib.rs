//! Shared helpers for the workspace-level examples and integration tests:
//! the small configuration they run and the order-free form of a table
//! they compare. A run is `dipbench::client::run`; its `Run::env` is the
//! world the tests inspect.

pub use dip_bench::EngineKind;
use dip_relstore::row::SharedRow;
use dipbench::prelude::*;

/// A small, fast configuration for integration tests.
pub fn test_config() -> BenchConfig {
    BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(1)
}

/// Every row of a table, sorted on all columns — the order-free form the
/// cross-engine and chaos tests compare.
pub fn sorted_rows(env: &BenchEnvironment, db: &str, table: &str) -> Vec<SharedRow> {
    let mut rel = env.db(db).table(table).expect("table exists").scan();
    let keys: Vec<usize> = (0..rel.schema.len()).collect();
    rel.sort_by_columns(&keys);
    rel.rows
}
