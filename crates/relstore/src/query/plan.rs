//! Logical query plans.
//!
//! Plans are small trees built programmatically (there is no SQL parser —
//! the benchmark's processes are defined as plans directly, which matches
//! the paper's platform-independent process descriptions). A plan computes
//! its output schema against a database, is optionally rewritten by the
//! [`crate::query::planner`], and is executed by [`crate::query::exec`].

use crate::catalog::Database;
use crate::error::{StoreError, StoreResult};
use crate::expr::Expr;
use crate::row::Relation;
use crate::schema::{Column, RelSchema, SchemaRef};
use crate::value::SqlType;
use std::sync::Arc;

/// What an aggregate output computes.
#[derive(Debug, Clone)]
pub enum AggOp {
    /// `COUNT(*)`: the number of input rows.
    CountStar,
    /// `SUM(expr)` over the numeric inputs; NULL when there is none.
    Sum(Expr),
}

/// One aggregate output: `COUNT(*)` or `SUM(expr)`, named `name`.
#[derive(Debug, Clone)]
pub struct AggExpr {
    pub op: AggOp,
    pub name: String,
}

impl AggExpr {
    pub fn count_star(name: impl Into<String>) -> AggExpr {
        AggExpr {
            op: AggOp::CountStar,
            name: name.into(),
        }
    }

    pub fn sum(input: Expr, name: impl Into<String>) -> AggExpr {
        AggExpr {
            op: AggOp::Sum(input),
            name: name.into(),
        }
    }

    fn out_type(&self, input: &RelSchema) -> SqlType {
        // SUM over a bare INT column stays INT; anything computed falls
        // back to Float (we cannot type-infer arbitrary expressions, and
        // Float holds both).
        match &self.op {
            AggOp::CountStar => SqlType::Int,
            AggOp::Sum(Expr::Col(i))
                if input
                    .columns()
                    .get(*i)
                    .is_some_and(|c| c.ty == SqlType::Int) =>
            {
                SqlType::Int
            }
            AggOp::Sum(_) => SqlType::Float,
        }
    }
}

/// A projection output column: expression plus declared output column.
#[derive(Debug, Clone)]
pub struct ProjExpr {
    pub expr: Expr,
    pub column: Column,
}

impl ProjExpr {
    pub fn new(expr: Expr, name: impl Into<String>, ty: SqlType) -> ProjExpr {
        ProjExpr {
            expr,
            column: Column::new(name, ty),
        }
    }

    /// Pass a column of `schema` through unchanged (possibly renamed).
    pub fn passthrough(
        schema: &RelSchema,
        col: &str,
        rename: Option<&str>,
    ) -> StoreResult<ProjExpr> {
        let idx = schema.index_of(col)?;
        let mut column = schema.column(idx).clone();
        if let Some(r) = rename {
            column.name = r.to_string();
        }
        Ok(ProjExpr {
            expr: Expr::Col(idx),
            column,
        })
    }
}

/// A logical plan node.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Base-table access. `predicate`/`projection` are filled in by the
    /// optimizer (pushdown); hand-written plans normally leave them empty.
    Scan {
        table: String,
        predicate: Option<Expr>,
        projection: Option<Vec<usize>>,
    },
    /// Literal input relation, shared: cloning the plan (as `execute` does
    /// to optimize it) does not copy the rows.
    Values(Arc<Relation>),
    Filter {
        input: Box<Plan>,
        predicate: Expr,
    },
    Project {
        input: Box<Plan>,
        exprs: Vec<ProjExpr>,
    },
    HashJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
    },
    /// Index-nested-loop join produced by the planner when the inner side
    /// is a base-table scan with an index exactly covering its join keys.
    /// The probe side streams; the inner side is never materialized.
    IndexJoin {
        probe: Box<Plan>,
        /// Inner base table (looked up per probe row through its index).
        table: String,
        /// Join key columns of the probe side (positions in probe output).
        probe_keys: Vec<usize>,
        /// Matching key columns in the *base* table (scan projection
        /// already applied by the planner).
        inner_keys: Vec<usize>,
        /// Residual predicate over base-table rows (from the folded scan).
        predicate: Option<Expr>,
        /// Output projection of the inner side (from the folded scan).
        projection: Option<Vec<usize>>,
        /// Whether the probe side was the left side of the original join
        /// (controls output column order).
        probe_is_left: bool,
    },
    /// Set union; `key = None` deduplicates whole rows, `Some(cols)`
    /// deduplicates on the given key columns keeping the first row seen —
    /// the paper's `UNION_DISTINCT, Ordkey` etc. (P03, P09).
    UnionDistinct {
        inputs: Vec<Plan>,
        key: Option<Vec<usize>>,
    },
    Aggregate {
        input: Box<Plan>,
        group_by: Vec<usize>,
        aggs: Vec<AggExpr>,
    },
}

impl Plan {
    pub fn scan(table: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
            predicate: None,
            projection: None,
        }
    }

    pub fn filter(self, predicate: Expr) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    pub fn project(self, exprs: Vec<ProjExpr>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            exprs,
        }
    }

    pub fn hash_join(self, right: Plan, left_keys: Vec<usize>, right_keys: Vec<usize>) -> Plan {
        Plan::HashJoin {
            left: Box::new(self),
            right: Box::new(right),
            left_keys,
            right_keys,
        }
    }

    pub fn aggregate(self, group_by: Vec<usize>, aggs: Vec<AggExpr>) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
        }
    }

    /// Execute this plan against `db` — the method form of
    /// [`execute`](crate::query::execute).
    pub fn run(&self, db: &Database) -> StoreResult<crate::row::Relation> {
        crate::query::execute(self, db)
    }

    /// Execute this plan as written through the reference interpreter —
    /// the method form of [`execute_oracle`](crate::query::execute_oracle).
    pub fn run_oracle(&self, db: &Database) -> StoreResult<crate::row::Relation> {
        crate::query::execute_oracle(self, db)
    }

    /// Compute the output schema against `db`. This is also where a plan's
    /// column references are checked: a scan or index-join projection, a
    /// join key, a group-by column, a union key or a column an expression
    /// reads (a filter, projection or pushed-down predicate, an aggregate
    /// input) outside its input is a typed error here, and both executors
    /// derive the schema before they read a row.
    pub fn schema(&self, db: &Database) -> StoreResult<SchemaRef> {
        match self {
            Plan::Scan {
                table,
                predicate,
                projection,
            } => {
                let t = db.table(table)?;
                exprs_in_range(predicate, &t.schema)?;
                Ok(match projection {
                    Some(p) => {
                        in_range(p, &t.schema, "scan projection")?;
                        t.schema.project(p).shared()
                    }
                    None => t.schema.clone(),
                })
            }
            Plan::Values(rel) => Ok(rel.schema.clone()),
            Plan::Filter { input, predicate } => {
                let schema = input.schema(db)?;
                exprs_in_range([predicate], &schema)?;
                Ok(schema)
            }
            Plan::Project { input, exprs } => {
                let schema = input.schema(db)?;
                exprs_in_range(exprs.iter().map(|p| &p.expr), &schema)?;
                Ok(RelSchema::new(exprs.iter().map(|p| p.column.clone()).collect()).shared())
            }
            Plan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
            } => {
                let (l, r) = (left.schema(db)?, right.schema(db)?);
                join_keys(left_keys, &l, right_keys, &r)?;
                Ok(l.concat(&r).shared())
            }
            Plan::IndexJoin {
                probe,
                table,
                probe_keys,
                inner_keys,
                predicate,
                projection,
                probe_is_left,
            } => {
                let p = probe.schema(db)?;
                let t = db.table(table)?;
                join_keys(probe_keys, &p, inner_keys, &t.schema)?;
                exprs_in_range(predicate, &t.schema)?;
                let inner = match projection {
                    Some(cols) => {
                        in_range(cols, &t.schema, "index join projection")?;
                        t.schema.project(cols)
                    }
                    None => RelSchema::clone(&t.schema),
                };
                Ok(if *probe_is_left {
                    p.concat(&inner).shared()
                } else {
                    inner.concat(&p).shared()
                })
            }
            Plan::UnionDistinct { inputs, key } => {
                let mut schemas = inputs.iter().map(|i| i.schema(db));
                let first =
                    (schemas.next()).ok_or_else(|| StoreError::Invalid("empty union".into()))??;
                for s in schemas {
                    let w = s?.len();
                    if w != first.len() {
                        return Err(StoreError::Invalid(format!(
                            "union arity mismatch: {w} vs {}",
                            first.len()
                        )));
                    }
                }
                in_range(key.as_deref().unwrap_or_default(), &first, "union key")?;
                Ok(first)
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.schema(db)?;
                in_range(group_by, &in_schema, "group-by")?;
                let inputs = aggs.iter().filter_map(|a| match &a.op {
                    AggOp::Sum(e) => Some(e),
                    AggOp::CountStar => None,
                });
                exprs_in_range(inputs, &in_schema)?;
                let mut cols: Vec<Column> = group_by
                    .iter()
                    .map(|&i| in_schema.column(i).clone())
                    .collect();
                for a in aggs {
                    cols.push(Column::new(a.name.clone(), a.out_type(&in_schema)));
                }
                Ok(RelSchema::new(cols).shared())
            }
        }
    }

    /// Rough output-cardinality estimate for join-side selection.
    pub fn estimate_rows(&self, db: &Database) -> usize {
        match self {
            Plan::Scan {
                table, predicate, ..
            } => {
                let n = db.table(table).map(|t| t.row_count()).unwrap_or(0);
                if predicate.is_some() {
                    // classic 1/3 selectivity guess
                    (n / 3).max(1)
                } else {
                    n
                }
            }
            Plan::Values(rel) => rel.len(),
            Plan::Filter { input, .. } => (input.estimate_rows(db) / 3).max(1),
            Plan::Project { input, .. } => input.estimate_rows(db),
            Plan::HashJoin { left, right, .. } => {
                left.estimate_rows(db).max(right.estimate_rows(db))
            }
            Plan::IndexJoin { probe, table, .. } => {
                let inner = db.table(table).map(|t| t.row_count()).unwrap_or(0);
                probe.estimate_rows(db).max(inner)
            }
            Plan::UnionDistinct { inputs, .. } => inputs.iter().map(|i| i.estimate_rows(db)).sum(),
            Plan::Aggregate {
                input, group_by, ..
            } => {
                if group_by.is_empty() {
                    1
                } else {
                    (input.estimate_rows(db) / 2).max(1)
                }
            }
        }
    }
}

/// Check that every position in `cols` is a column of `schema`.
fn in_range(cols: &[usize], schema: &RelSchema, what: &str) -> StoreResult<()> {
    match cols.iter().find(|&&c| c >= schema.len()) {
        Some(c) => Err(StoreError::Invalid(format!(
            "{what}: column index {c} out of range for {} columns",
            schema.len()
        ))),
        None => Ok(()),
    }
}

/// Check that every column the expressions read is a column of `schema`
/// (the input they are evaluated on, or a table's rows).
fn exprs_in_range<'e>(
    exprs: impl IntoIterator<Item = &'e Expr>,
    schema: &RelSchema,
) -> StoreResult<()> {
    let mut cols = Vec::new();
    for e in exprs {
        e.referenced_columns(&mut cols);
    }
    in_range(&cols, schema, "expression")
}

/// Check a join's key lists: one key column per side, each inside its side.
fn join_keys(
    a: &[usize],
    a_schema: &RelSchema,
    b: &[usize],
    b_schema: &RelSchema,
) -> StoreResult<()> {
    if a.len() != b.len() {
        return Err(StoreError::Invalid("join key arity mismatch".into()));
    }
    in_range(a, a_schema, "join key")?;
    in_range(b, b_schema, "join key")
}
