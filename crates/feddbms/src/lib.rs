//! # dip-feddbms — the federated-DBMS reference implementation
//!
//! The paper's first reference implementation realizes the 15 DIPBench
//! process types on a commercial federated DBMS ("System A"):
//!
//! * **event type E1 (message stream, Fig. 9a)** — a queue table
//!   (`TID BIGINT PRIMARY KEY, MSG CLOB`) per message-driven process type,
//!   with an INSERT trigger that evaluates the logical `inserted` table
//!   and invokes the external systems;
//! * **event type E2 (time events, Fig. 9b)** — a stored procedure per
//!   time-driven process type, using temporary tables as *local
//!   materialization points* between extraction, transformation and load;
//!   the temp tables belong to the procedure instance;
//! * relational work goes through the relstore planner ("the
//!   data-intensive processes are realized with relational operators and
//!   thus could be well-optimized");
//! * XML work goes through [`xmlfn`], a deliberately CLOB-bound,
//!   DOM-materializing XML function stack ("proprietary XML
//!   functionalities, which are apparently not included in the
//!   optimizer").

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod engine;
pub mod procs;
pub mod xmlfn;

pub use engine::{FedDbms, FedOptions};
