//! # dip-mtm — the Message Transformation Model engine
//!
//! The paper describes its 15 integration process types in a
//! platform-independent, process-driven way using the authors' Message
//! Transformation Model (MTM). This crate implements that model:
//!
//! * [`process`] — process definitions built from MTM operators (RECEIVE,
//!   ASSIGN, INVOKE, TRANSLATE, SWITCH, SELECTION, PROJECTION, UNION
//!   DISTINCT, VALIDATE, FORK, subprocess invocation);
//! * [`validate`] — static checks run at deployment time;
//! * [`interpreter`] — an instrumented executor charging every operator to
//!   the paper's cost categories (communication / management / processing);
//! * [`engine::MtmEngine`] — a native integration system executing deployed
//!   processes (one of the two systems under test);
//! * [`cost`] — the cost model shared by every integration system in the
//!   workspace.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod context;
pub mod cost;
pub mod engine;
pub mod error;
pub mod interpreter;
pub mod message;
pub mod process;
pub mod validate;

pub use cost::{CostCategory, CostRecorder, InstanceCosts, InstanceRecord};
pub use engine::MtmEngine;
pub use error::{MtmError, MtmResult};
pub use message::MtmMessage;
pub use process::{
    AssignValue, CustomFn, EventType, LoadMode, PlanBuilder, ProcessDef, Step, SwitchCase,
    TableRows, XmlDecoder,
};

/// The trace collector is process-wide: a test that switches it on holds
/// this for as long as it records.
#[cfg(test)]
pub(crate) static TRACE_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());
