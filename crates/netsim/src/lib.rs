//! # dip-netsim — simulated network and clocks
//!
//! The paper runs DIPBench on three physical machines connected by a
//! wireless network; communication cost `Cc(p)` is one of the three cost
//! categories of the benchmark metric. This crate replaces the physical
//! network with a deterministic model: per-link latency distributions plus
//! bandwidth-proportional payload cost, accounted per message, and seeded
//! per-operation fault verdicts. See `DESIGN.md` §2 for why this
//! substitution preserves the benchmark's behaviour.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod fault;
pub mod latency;
pub mod network;
pub mod topology;

pub use fault::{FaultModel, FaultPlan, Verdict};
pub use latency::LatencyModel;
pub use network::{LinkSpec, NetStats, Network, TransferMode};
