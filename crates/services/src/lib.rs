//! # dip-services — external systems layer
//!
//! The DIPBench environment's source and target systems beyond the plain
//! databases: Web services wrapping data sources ([`webservice`]), the
//! generic result-set codec those services speak ([`resultset`]), the
//! proprietary message-emitting applications Vienna / San Diego / MDM
//! Europe / Hongkong ([`apps`]), and the [`registry::ExternalWorld`] that
//! routes every call over the simulated network and reports communication
//! costs.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod apps;
pub mod registry;
pub mod resilience;
pub mod resultset;
pub mod webservice;

pub use registry::{ExternalWorld, Remote};
pub use resilience::{BreakerState, CircuitBreaker, Resilience, ResiliencePolicy};
pub use webservice::{DbService, ServiceError, ServiceResult, WebService};
