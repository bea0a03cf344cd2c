//! # dipbench — DIPBench, the Data-Intensive Integration Process Benchmark
//!
//! A from-scratch Rust implementation of the benchmark proposed in
//! *"DIPBench: An Independent Benchmark for Data-Intensive Integration
//! Processes"* (Böhm, Habich, Lehner, Wloka — ICDE Workshops 2008),
//! including the complete toolsuite:
//!
//! * **Initializer** — [`env::BenchEnvironment`] builds all external
//!   systems (eleven database instances, three web services, the
//!   message-emitting applications) and [`datagen::Generator`] fills them
//!   with deterministic, scale-controlled synthetic data;
//! * **Client** — [`client::Client`] executes the benchmark periods with
//!   the four event streams of the specification ([`schedule`]);
//! * **Monitor** — [`monitor`] collects and normalizes per-instance costs,
//!   [`metric`] computes the `NAVG+` metric, and [`report`] renders the
//!   paper's plots and tables.
//!
//! The 15 integration process types live in [`processes`] as
//! platform-independent MTM graphs; any [`system::IntegrationSystem`] can
//! execute them — this crate ships the native MTM engine adapter, and the
//! `dip-feddbms` crate adds the paper's federated-DBMS reference
//! implementation.
//!
//! ```no_run
//! use dipbench::prelude::*;
//! use std::sync::Arc;
//!
//! let config = BenchConfig::new(ScaleFactors::paper_fig10()).with_periods(1);
//! let env = BenchEnvironment::new(config).unwrap();
//! let system = Arc::new(MtmSystem::new(env.world.clone()));
//! let client = Client::new(&env, system).unwrap();
//! let outcome = client.run().unwrap();
//! println!("{}", dipbench::report::metrics_table(&outcome));
//! assert!(dipbench::verify::verify(&env).unwrap().passed());
//! ```

pub mod client;
pub mod config;
pub mod datagen;
pub mod eai;
pub mod env;
pub mod metric;
pub mod monitor;
pub mod overload;
pub mod processes;
pub mod quality;
pub mod recovery;
pub mod report;
pub mod scale;
pub mod sched;
pub mod schedule;
pub mod schema;
pub mod system;
pub mod verify;

/// The most commonly used items.
pub mod prelude {
    pub use crate::client::{Client, ReplaySkip, RunOutcome};
    pub use crate::config::{AdmissionControl, AdmissionPolicy, BenchConfig, PacingMode};
    pub use crate::eai::EaiSystem;
    pub use crate::env::BenchEnvironment;
    pub use crate::metric::ProcessMetric;
    pub use crate::recovery::{digest_tables, run_with_crash, CrashTarget, RecoveryRun};
    pub use crate::scale::{Distribution, ScaleFactors};
    pub use crate::system::{
        DeadLetter, DeadLetterQueue, Delivery, Event, IntegrationSystem, MtmSystem,
    };
    pub use dip_netsim::fault::CrashPlan;
    pub use dip_netsim::{FaultModel, FaultPlan};
    pub use dip_services::ResiliencePolicy;
}
