//! Scalar expressions evaluated over rows.
//!
//! The language is what the processes, the CDB procedures and the engines
//! build: column and literal operands, the comparisons `=`, `<`, `<=`, `>`
//! and `>=`, `AND`, and [`Expr::Apply`] for a computed value (a semantic
//! value map, for instance). A node comes back together with its caller.
//!
//! Expressions reference columns by *position*; the query-builder helpers in
//! [`crate::query`] resolve names to positions against a schema at plan-build
//! time, so evaluation itself never does string lookups.

use crate::error::{StoreError, StoreResult};
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Positional access to a row's values.
///
/// The batch executor evaluates expressions over rows that are not
/// contiguous value slices — one row index across a chunk's columns — so
/// evaluation is generic over this accessor instead of taking `&[Value]`.
pub trait RowAccess {
    fn value_at(&self, i: usize) -> Option<&Value>;
}

impl RowAccess for [Value] {
    fn value_at(&self, i: usize) -> Option<&Value> {
        self.get(i)
    }
}

fn column<R: RowAccess + ?Sized>(row: &R, i: usize) -> StoreResult<&Value> {
    row.value_at(i)
        .ok_or_else(|| StoreError::Eval(format!("column index {i} out of range")))
}

/// Binary comparison operators (SQL three-valued semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A scalar expression tree.
#[derive(Clone)]
pub enum Expr {
    /// Column reference by position in the input row.
    Col(usize),
    /// Literal value.
    Lit(Value),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    /// Escape hatch for computed enrichments (e.g. semantic value maps).
    Apply(ApplyFn, Vec<Expr>),
}

/// The callable of an [`Expr::Apply`] node.
pub type ApplyFn = Arc<dyn Fn(&[Value]) -> StoreResult<Value> + Send + Sync>;

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "#{i}"),
            Expr::Lit(v) => write!(f, "{v:?}"),
            Expr::Cmp(op, a, b) => write!(f, "({a:?} {op:?} {b:?})"),
            Expr::And(a, b) => write!(f, "({a:?} AND {b:?})"),
            Expr::Apply(_, a) => write!(f, "APPLY(<fn>, {a:?})"),
        }
    }
}

impl Expr {
    pub fn col(idx: usize) -> Expr {
        Expr::Col(idx)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    fn compare(self, op: CmpOp, rhs: Expr) -> Expr {
        Expr::Cmp(op, Box::new(self), Box::new(rhs))
    }
    pub fn eq(self, rhs: Expr) -> Expr {
        self.compare(CmpOp::Eq, rhs)
    }
    pub fn lt(self, rhs: Expr) -> Expr {
        self.compare(CmpOp::Lt, rhs)
    }
    pub fn le(self, rhs: Expr) -> Expr {
        self.compare(CmpOp::Le, rhs)
    }
    pub fn gt(self, rhs: Expr) -> Expr {
        self.compare(CmpOp::Gt, rhs)
    }
    pub fn ge(self, rhs: Expr) -> Expr {
        self.compare(CmpOp::Ge, rhs)
    }
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// Evaluate against a materialized row.
    pub fn eval(&self, row: &[Value]) -> StoreResult<Value> {
        self.eval_on(row)
    }

    /// Evaluate against anything with positional value access (joined row
    /// halves, borrowed slices, …) without materializing it first.
    pub fn eval_on<R: RowAccess + ?Sized>(&self, row: &R) -> StoreResult<Value> {
        match self {
            Expr::Col(i) => column(row, *i).cloned(),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp(op, a, b) => {
                let (a, b) = (a.operand(row)?, b.operand(row)?);
                if a.is_null() || b.is_null() {
                    return Ok(Value::Null);
                }
                let ord = a.total_cmp(&b);
                let r = match op {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                };
                Ok(Value::Bool(r))
            }
            Expr::And(a, b) => {
                // SQL three-valued AND: false dominates null.
                let a = a.eval_on(row)?;
                if let Value::Bool(false) = a {
                    return Ok(Value::Bool(false));
                }
                let b = b.eval_on(row)?;
                Ok(match (a, b) {
                    (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                    (_, Value::Bool(false)) => Value::Bool(false),
                    _ => Value::Null,
                })
            }
            Expr::Apply(f, args) => {
                let vals: StoreResult<Vec<Value>> = args.iter().map(|a| a.eval_on(row)).collect();
                f(&vals?)
            }
        }
    }

    /// The value of a comparison operand: columns and literals are read in
    /// place (no `Arc<str>` refcount traffic on rows several threads
    /// share), anything else is computed.
    fn operand<'a, R: RowAccess + ?Sized>(&'a self, row: &'a R) -> StoreResult<Cow<'a, Value>> {
        match self {
            Expr::Col(i) => column(row, *i).map(Cow::Borrowed),
            Expr::Lit(v) => Ok(Cow::Borrowed(v)),
            computed => computed.eval_on(row).map(Cow::Owned),
        }
    }

    /// Evaluate as a predicate: `Null` counts as not-matching, per SQL.
    pub fn matches(&self, row: &[Value]) -> StoreResult<bool> {
        Ok(self.eval_on(row)?.is_true())
    }

    /// Predicate evaluation over any positional row representation.
    pub fn matches_on<R: RowAccess + ?Sized>(&self, row: &R) -> StoreResult<bool> {
        Ok(self.eval_on(row)?.is_true())
    }

    /// Collect the column positions this expression reads.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::And(a, b) => {
                a.referenced_columns(out);
                b.referenced_columns(out);
            }
            Expr::Apply(_, args) => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![
            Value::Int(10),
            Value::str("Berlin"),
            Value::Float(2.5),
            Value::Null,
            Value::Date(crate::value::days_from_civil(2008, 4, 7)),
        ]
    }

    /// `args[0] + args[1]` over ints, NULL if either is NULL.
    fn plus() -> ApplyFn {
        Arc::new(|a: &[Value]| match (&a[0], &a[1]) {
            (Value::Int(x), Value::Int(y)) => Ok(Value::Int(x + y)),
            _ => Ok(Value::Null),
        })
    }

    #[test]
    fn comparisons_and_logic() {
        let r = row();
        let e = Expr::col(0)
            .gt(Expr::lit(5))
            .and(Expr::col(1).eq(Expr::lit("Berlin")));
        assert!(e.matches(&r).unwrap());
        let e = Expr::col(3).eq(Expr::lit(1));
        assert!(!e.matches(&r).unwrap()); // NULL comparison is not true
        let is_null = Arc::new(|a: &[Value]| Ok(Value::Bool(a[0].is_null())));
        assert!(Expr::Apply(is_null, vec![Expr::col(3)])
            .matches(&r)
            .unwrap());
    }

    #[test]
    fn three_valued_and() {
        let r = row();
        // false AND null = false
        let e = Expr::lit(false).and(Expr::col(3).eq(Expr::lit(1)));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(false));
        // null AND false = false
        let e = Expr::col(3).eq(Expr::lit(1)).and(Expr::lit(false));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(false));
        // true AND null = null
        let e = Expr::lit(true).and(Expr::col(3).eq(Expr::lit(1)));
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
    }

    #[test]
    fn referenced_columns() {
        let e = Expr::Apply(plus(), vec![Expr::col(2), Expr::col(0)]).gt(Expr::lit(1));
        let mut cols = vec![];
        e.referenced_columns(&mut cols);
        cols.sort();
        assert_eq!(cols, vec![0, 2]);
    }

    #[test]
    fn apply_escape_hatch() {
        let f = Arc::new(|args: &[Value]| -> StoreResult<Value> {
            Ok(Value::Int(args[0].to_int().unwrap_or(0) * 2))
        });
        let e = Expr::Apply(f, vec![Expr::col(0)]);
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(20));
        // a computed operand of a comparison
        let e = Expr::Apply(plus(), vec![Expr::col(0), Expr::lit(5)]).eq(Expr::lit(15));
        assert!(e.matches(&row()).unwrap());
        let e = Expr::Apply(plus(), vec![Expr::col(3), Expr::lit(5)]).eq(Expr::lit(15));
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
    }
}
