//! # dip-relstore — in-memory relational store
//!
//! The relational substrate of the DIPBench reproduction. The benchmark's
//! environment machine (ES) hosts "one DBMS installation with eleven
//! database instances"; each instance is a [`catalog::Database`] from this
//! crate.
//!
//! Features, all built from scratch:
//!
//! * typed [`value::Value`]s with SQL three-valued comparison semantics;
//! * slotted heap [`table::Table`]s with primary keys, hash-first
//!   secondary indexes ([`index`]) and statement-atomic batch
//!   inserts;
//! * a programmatic [`query::Plan`] language
//!   (filter/project/hash-join/union-distinct/aggregate — the operators
//!   the benchmark's processes build) with a rule-based optimizer
//!   (predicate + projection pushdown, index-join selection), one
//!   columnar batch executor and a naive reference interpreter;
//! * AFTER-INSERT triggers and stored procedures — the two building blocks
//!   of the paper's federated-DBMS reference implementation (Fig. 9);
//! * materialized views (`OrdersMV`, data-mart MVs);
//! * change capture for incremental maintenance by an engine above.
//!
//! ```
//! use dip_relstore::prelude::*;
//!
//! let db = Database::new("demo");
//! let schema = RelSchema::of(&[("id", SqlType::Int), ("city", SqlType::Str)]).shared();
//! db.create_table(Table::new("t", schema).with_primary_key(&["id"]).unwrap());
//! db.insert_into("t", vec![vec![Value::Int(1), Value::str("Berlin")]]).unwrap();
//! let rel = Plan::scan("t").filter(Expr::col(1).eq(Expr::lit("Berlin"))).run(&db).unwrap();
//! assert_eq!(rel.len(), 1);
//! ```

pub mod catalog;
pub mod error;
pub mod expr;
mod hashkey;
pub mod index;
pub mod mview;
pub mod query;
pub mod row;
pub mod schema;
pub mod table;
pub mod tx;
pub mod value;

/// The items almost every user of the crate needs.
pub mod prelude {
    pub use crate::catalog::{Database, ProcFn, TriggerFn};
    pub use crate::error::{StoreError, StoreResult, TransportFault, TransportKind};
    pub use crate::expr::{CmpOp, Expr, ScalarFunc};
    pub use crate::mview::MatView;
    pub use crate::query::{execute, execute_oracle, AggExpr, AggOp, Plan, ProjExpr};
    pub use crate::row::{Relation, Row};
    pub use crate::schema::{Column, RelSchema, SchemaRef};
    pub use crate::table::{Change, Table};
    pub use crate::tx;
    pub use crate::tx::TxScope;
    pub use crate::value::{days_from_civil, parse_date, render_date, SqlType, Value};
}
