//! # The multi-engine barometer
//!
//! DIPBench is only a *benchmark* once more than one system under test can
//! be measured in comparable units. This module is the comparison
//! machinery:
//!
//! * [`registry`] — the declarative [`EngineRegistry`](registry::EngineRegistry):
//!   every engine registers its constructor, CLI tag/aliases, display
//!   label and crash capability once, and the whole CLI
//!   (`run`/`record`/`faults`/`crash`/`gate`/help text) resolves engines
//!   through it instead of scattering `match` arms.
//! * [`report`] — the benchmark *cell* model (one addressable
//!   `(process-group, engine, d, t, f)` measurement) and the
//!   `dipbench report` renderer: cross-engine NAVG+ tables and
//!   cross-commit regression flags built from committed run records.

pub mod registry;
pub mod report;

pub use registry::{EngineRegistry, EngineSpec};
pub use report::{Regression, Report, ReportFormat};
