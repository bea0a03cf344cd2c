//! Error type shared by all store operations — and the workspace-wide
//! transport-fault vocabulary.
//!
//! `TransportFault` lives here rather than in `dip-netsim` because this is
//! the one crate every error enum (`StoreError`, `ServiceError`,
//! `MtmError`, `FedError`) already depends on: placing it at the base of
//! the dependency graph lets each layer carry the fault *typed* instead of
//! stringified, so retry policy can ask `is_transient()` anywhere.

use std::fmt;

/// The kind of transport-level failure a remote operation hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// The message was silently lost; the caller timed out waiting.
    Drop,
    /// The link stalled past the caller's timeout.
    Timeout,
    /// The caller's circuit breaker is open; no attempt was made.
    CircuitOpen,
    /// The integration system itself was killed mid-operation (deterministic
    /// crash injection). NOT transient: the instance must not be retried or
    /// dead-lettered by the dying process — recovery replays it after
    /// restart.
    Crash,
}

impl TransportKind {
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::Drop => "drop",
            TransportKind::Timeout => "timeout",
            TransportKind::CircuitOpen => "circuit-open",
            TransportKind::Crash => "crash",
        }
    }
}

/// A typed transport failure: which endpoint, what kind, how many attempts
/// the resilience layer made before giving up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportFault {
    pub endpoint: String,
    pub kind: TransportKind,
    /// Attempts made before surfacing the fault (≥ 1 unless the breaker
    /// rejected the operation outright).
    pub attempts: u32,
}

impl TransportFault {
    /// Whether a retry of the faulted operation could plausibly succeed.
    /// Everything except an injected system crash is transient.
    pub fn is_transient(&self) -> bool {
        self.kind != TransportKind::Crash
    }
}

impl fmt::Display for TransportFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transport {} to {} after {} attempt(s)",
            self.kind.label(),
            self.endpoint,
            self.attempts
        )
    }
}

/// Errors raised by the relational store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A named table does not exist in the catalog.
    NoSuchTable(String),
    /// A named column does not exist in a schema.
    NoSuchColumn(String),
    /// A named stored procedure does not exist.
    NoSuchProcedure(String),
    /// A named materialized view does not exist.
    NoSuchView(String),
    /// Primary-key or unique-index violation.
    DuplicateKey { table: String, key: String },
    /// A row does not match the table schema (arity or type).
    SchemaMismatch(String),
    /// Expression evaluation failed (bad types, division by zero, …).
    Eval(String),
    /// A constraint check failed (NOT NULL, foreign key, …).
    Constraint(String),
    /// A trigger or stored procedure reported a failure.
    Procedure(String),
    /// Catch-all for invalid plans or misuse of the API.
    Invalid(String),
    /// A transport-level failure reaching a remote store (injected by the
    /// fault schedule, or a breaker rejection). Transient: retryable.
    Transport(TransportFault),
}

impl StoreError {
    /// Whether retrying the same operation could plausibly succeed.
    /// Transport faults are the only transient class — every other variant
    /// is a deterministic property of the data or the request. An injected
    /// crash travels as a transport fault but is *not* transient.
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Transport(t) if t.is_transient())
    }

    /// The transport fault carried by this error, if any.
    pub fn transport(&self) -> Option<&TransportFault> {
        match self {
            StoreError::Transport(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            StoreError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            StoreError::NoSuchProcedure(p) => write!(f, "no such procedure: {p}"),
            StoreError::NoSuchView(v) => write!(f, "no such materialized view: {v}"),
            StoreError::DuplicateKey { table, key } => {
                write!(f, "duplicate key {key} in table {table}")
            }
            StoreError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            StoreError::Eval(m) => write!(f, "evaluation error: {m}"),
            StoreError::Constraint(m) => write!(f, "constraint violation: {m}"),
            StoreError::Procedure(m) => write!(f, "procedure error: {m}"),
            StoreError::Invalid(m) => write!(f, "invalid operation: {m}"),
            StoreError::Transport(t) => write!(f, "{t}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<TransportFault> for StoreError {
    fn from(t: TransportFault) -> Self {
        StoreError::Transport(t)
    }
}

/// Convenient result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;
