//! # dip-trace — cross-layer span tracing
//!
//! The observability subsystem of the DIPBench reproduction (see
//! `docs/OBSERVABILITY.md`):
//!
//! * [`mod@span`] — a low-overhead, dependency-free structured span/event
//!   collector, one per traced run. Instrumentation sites across every
//!   workspace layer (relstore's executor, xmlkit's STX transformer and
//!   parser, netsim's link transfers, the MTM interpreter's operator
//!   dispatch, feddbms trigger/procedure execution, the core client loop)
//!   open enter/exit guards keyed by `(layer, operator, process, period,
//!   instance)` and tagged with the paper's Cc/Cm/Cp cost categories. When
//!   tracing is disabled (the default) every site is a single relaxed
//!   atomic load — figure runs are unaffected.
//! * [`chrome`] — Chrome trace-event JSON export for single-run flame
//!   views in Perfetto / `chrome://tracing`.
//! * [`json`] — the dependency-free JSON value the exporters and the
//!   harness artifacts are built from.

pub mod chrome;
pub mod json;
pub mod span;

pub use chrome::to_chrome_trace;
pub use json::{Json, JsonError};
pub use span::{
    adopt, count, disable, drain, drain_counters, enable, instance_scope, is_enabled,
    record_modeled, snapshot, span, span_cat, Category, CtxGuard, CtxSnapshot, Layer, Span,
    SpanRecord,
};
