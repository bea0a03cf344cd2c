//! Scalar expression language evaluated over rows.
//!
//! Expressions reference columns by *position*; the query-builder helpers in
//! [`crate::query`] resolve names to positions against a schema at plan-build
//! time, so evaluation itself never does string lookups.

use crate::error::{StoreError, StoreResult};
use crate::row::Row;
use crate::value::{date_parts, Value};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Positional access to a row's values.
///
/// The batch executor evaluates expressions over rows that are not
/// contiguous `Vec<Value>`s — one row index across a chunk's columns — so
/// evaluation is generic over this accessor instead of taking `&Row`.
pub trait RowAccess {
    fn value_at(&self, i: usize) -> Option<&Value>;
}

impl RowAccess for [Value] {
    fn value_at(&self, i: usize) -> Option<&Value> {
        self.get(i)
    }
}

impl RowAccess for Row {
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
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// Year of a `Date` value — the DWH time dimension's `Year()` built-in.
    Year,
    /// Month of a `Date` value.
    Month,
    /// Day-of-month of a `Date` value.
    Day,
    Upper,
    Lower,
    /// String length in bytes.
    Length,
    /// Absolute value of a numeric.
    Abs,
    /// Round a float to the nearest integer value (still Float).
    Round,
    CastInt,
    CastFloat,
    CastStr,
}

/// A scalar expression tree.
#[derive(Clone)]
pub enum Expr {
    /// Column reference by position in the input row.
    Col(usize),
    /// Literal value.
    Lit(Value),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    IsNull(Box<Expr>),
    /// SQL LIKE with `%` (any run) and `_` (any char) wildcards.
    Like(Box<Expr>, String),
    /// Membership in a literal list.
    InList(Box<Expr>, Vec<Value>),
    /// First non-null argument.
    Coalesce(Vec<Expr>),
    /// String concatenation of all arguments (nulls render as empty).
    Concat(Vec<Expr>),
    Func(ScalarFunc, Box<Expr>),
    /// `CASE WHEN cond THEN a ELSE b END`.
    Case(Box<Expr>, Box<Expr>, Box<Expr>),
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
            Expr::Arith(op, a, b) => write!(f, "({a:?} {op:?} {b:?})"),
            Expr::And(a, b) => write!(f, "({a:?} AND {b:?})"),
            Expr::Or(a, b) => write!(f, "({a:?} OR {b:?})"),
            Expr::Not(e) => write!(f, "NOT {e:?}"),
            Expr::IsNull(e) => write!(f, "{e:?} IS NULL"),
            Expr::Like(e, p) => write!(f, "{e:?} LIKE {p:?}"),
            Expr::InList(e, l) => write!(f, "{e:?} IN {l:?}"),
            Expr::Coalesce(a) => write!(f, "COALESCE{a:?}"),
            Expr::Concat(a) => write!(f, "CONCAT{a:?}"),
            Expr::Func(func, e) => write!(f, "{func:?}({e:?})"),
            Expr::Case(c, t, e) => write!(f, "CASE {c:?} THEN {t:?} ELSE {e:?}"),
            Expr::Apply(_, a) => write!(f, "APPLY(<fn>, {a:?})"),
        }
    }
}

// The builder methods mirror SQL operator names; `not`/`add`/`sub`/`mul`/
// `div` intentionally shadow the std operator-trait names because they
// build AST nodes rather than evaluate.
#[allow(clippy::should_implement_trait)]
impl Expr {
    pub fn col(idx: usize) -> Expr {
        Expr::Col(idx)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
    }
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs))
    }
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
    }
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
    }
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs))
    }
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
    }
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like(Box::new(self), pattern.into())
    }
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(rhs))
    }
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(rhs))
    }
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(rhs))
    }
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(self), Box::new(rhs))
    }
    pub fn func(f: ScalarFunc, arg: Expr) -> Expr {
        Expr::Func(f, Box::new(arg))
    }
    pub fn in_list(self, values: Vec<Value>) -> Expr {
        Expr::InList(Box::new(self), values)
    }
    pub fn case(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
        Expr::Case(Box::new(cond), Box::new(then), Box::new(otherwise))
    }

    /// Evaluate against a materialized row.
    pub fn eval(&self, row: &Row) -> StoreResult<Value> {
        self.eval_on(row.as_slice())
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
                    CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                    CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                    CmpOp::Lt => ord == std::cmp::Ordering::Less,
                    CmpOp::Le => ord != std::cmp::Ordering::Greater,
                    CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                    CmpOp::Ge => ord != std::cmp::Ordering::Less,
                };
                Ok(Value::Bool(r))
            }
            Expr::Arith(op, a, b) => {
                let (a, b) = (a.eval_on(row)?, b.eval_on(row)?);
                if a.is_null() || b.is_null() {
                    return Ok(Value::Null);
                }
                // Integer arithmetic when both sides are ints (except division).
                if let (Value::Int(x), Value::Int(y)) = (&a, &b) {
                    return Ok(match op {
                        ArithOp::Add => Value::Int(x.wrapping_add(*y)),
                        ArithOp::Sub => Value::Int(x.wrapping_sub(*y)),
                        ArithOp::Mul => Value::Int(x.wrapping_mul(*y)),
                        ArithOp::Div => {
                            if *y == 0 {
                                return Err(StoreError::Eval("division by zero".into()));
                            }
                            Value::Int(x / y)
                        }
                    });
                }
                let (x, y) = (
                    a.to_float()
                        .ok_or_else(|| StoreError::Eval(format!("non-numeric: {a}")))?,
                    b.to_float()
                        .ok_or_else(|| StoreError::Eval(format!("non-numeric: {b}")))?,
                );
                Ok(match op {
                    ArithOp::Add => Value::Float(x + y),
                    ArithOp::Sub => Value::Float(x - y),
                    ArithOp::Mul => Value::Float(x * y),
                    ArithOp::Div => {
                        if y == 0.0 {
                            return Err(StoreError::Eval("division by zero".into()));
                        }
                        Value::Float(x / y)
                    }
                })
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
            Expr::Or(a, b) => {
                let a = a.eval_on(row)?;
                if let Value::Bool(true) = a {
                    return Ok(Value::Bool(true));
                }
                let b = b.eval_on(row)?;
                Ok(match (a, b) {
                    (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                    (_, Value::Bool(true)) => Value::Bool(true),
                    _ => Value::Null,
                })
            }
            Expr::Not(e) => Ok(match e.eval_on(row)? {
                Value::Bool(b) => Value::Bool(!b),
                Value::Null => Value::Null,
                v => return Err(StoreError::Eval(format!("NOT of non-boolean {v}"))),
            }),
            Expr::IsNull(e) => Ok(Value::Bool(e.eval_on(row)?.is_null())),
            Expr::Like(e, pat) => match e.eval_on(row)? {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Bool(like_match(&s, pat))),
                v => Err(StoreError::Eval(format!("LIKE on non-string {v}"))),
            },
            Expr::InList(e, list) => {
                let v = e.eval_on(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Bool(list.iter().any(|x| x == &v)))
            }
            Expr::Coalesce(args) => {
                for a in args {
                    let v = a.eval_on(row)?;
                    if !v.is_null() {
                        return Ok(v);
                    }
                }
                Ok(Value::Null)
            }
            Expr::Concat(args) => {
                let mut out = String::new();
                for a in args {
                    let v = a.eval_on(row)?;
                    if !v.is_null() {
                        out.push_str(&v.render());
                    }
                }
                Ok(Value::str(out))
            }
            Expr::Func(f, e) => {
                let v = e.eval_on(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                eval_func(*f, v)
            }
            Expr::Case(c, t, e) => {
                if c.eval_on(row)?.is_true() {
                    t.eval_on(row)
                } else {
                    e.eval_on(row)
                }
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
    pub fn matches(&self, row: &Row) -> StoreResult<bool> {
        Ok(self.eval_on(row.as_slice())?.is_true())
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
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.referenced_columns(out);
                b.referenced_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::Like(e, _) | Expr::Func(_, e) => {
                e.referenced_columns(out)
            }
            Expr::InList(e, _) => e.referenced_columns(out),
            Expr::Coalesce(args) | Expr::Concat(args) => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
            Expr::Case(c, t, e) => {
                c.referenced_columns(out);
                t.referenced_columns(out);
                e.referenced_columns(out);
            }
            Expr::Apply(_, args) => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
        }
    }

    /// Rewrite column references through a mapping (old position → new).
    /// Used by the optimizer when pushing expressions below projections.
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(map(*i)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(a.remap_columns(map)),
                Box::new(b.remap_columns(map)),
            ),
            Expr::Arith(op, a, b) => Expr::Arith(
                *op,
                Box::new(a.remap_columns(map)),
                Box::new(b.remap_columns(map)),
            ),
            Expr::And(a, b) => Expr::And(
                Box::new(a.remap_columns(map)),
                Box::new(b.remap_columns(map)),
            ),
            Expr::Or(a, b) => Expr::Or(
                Box::new(a.remap_columns(map)),
                Box::new(b.remap_columns(map)),
            ),
            Expr::Not(e) => Expr::Not(Box::new(e.remap_columns(map))),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.remap_columns(map))),
            Expr::Like(e, p) => Expr::Like(Box::new(e.remap_columns(map)), p.clone()),
            Expr::InList(e, l) => Expr::InList(Box::new(e.remap_columns(map)), l.clone()),
            Expr::Coalesce(args) => {
                Expr::Coalesce(args.iter().map(|a| a.remap_columns(map)).collect())
            }
            Expr::Concat(args) => Expr::Concat(args.iter().map(|a| a.remap_columns(map)).collect()),
            Expr::Func(f, e) => Expr::Func(*f, Box::new(e.remap_columns(map))),
            Expr::Case(c, t, e) => Expr::Case(
                Box::new(c.remap_columns(map)),
                Box::new(t.remap_columns(map)),
                Box::new(e.remap_columns(map)),
            ),
            Expr::Apply(f, args) => Expr::Apply(
                f.clone(),
                args.iter().map(|a| a.remap_columns(map)).collect(),
            ),
        }
    }
}

fn eval_func(f: ScalarFunc, v: Value) -> StoreResult<Value> {
    use ScalarFunc::*;
    Ok(match f {
        Year | Month | Day => {
            let d = match v {
                Value::Date(d) => d,
                other => {
                    return Err(StoreError::Eval(format!(
                        "date function on non-date {other}"
                    )))
                }
            };
            let (y, m, dd) = date_parts(d);
            match f {
                Year => Value::Int(y as i64),
                Month => Value::Int(m as i64),
                _ => Value::Int(dd as i64),
            }
        }
        Upper => Value::str(v.render().to_uppercase()),
        Lower => Value::str(v.render().to_lowercase()),
        Length => Value::Int(v.rendered_len() as i64),
        Abs => match v {
            Value::Int(i) => Value::Int(i.abs()),
            Value::Float(f) => Value::Float(f.abs()),
            other => return Err(StoreError::Eval(format!("ABS of {other}"))),
        },
        Round => match v.to_float() {
            Some(f) => Value::Float(f.round()),
            None => return Err(StoreError::Eval("ROUND of non-numeric".into())),
        },
        CastInt => v
            .to_int()
            .map(Value::Int)
            .ok_or_else(|| StoreError::Eval("cannot cast to INT".into()))?,
        CastFloat => v
            .to_float()
            .map(Value::Float)
            .ok_or_else(|| StoreError::Eval("cannot cast to FLOAT".into()))?,
        CastStr => match v {
            s @ Value::Str(_) => s,
            other => Value::str(other.render()),
        },
    })
}

/// SQL LIKE matcher with `%` and `_` wildcards (iterative, no recursion
/// blow-up on adversarial patterns).
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            star_s += 1;
            si = star_s;
            pi = star_p + 1;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        vec![
            Value::Int(10),
            Value::str("Berlin"),
            Value::Float(2.5),
            Value::Null,
            Value::Date(crate::value::days_from_civil(2008, 4, 7)),
        ]
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
        assert!(Expr::col(3).is_null().matches(&r).unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let r = row();
        // false AND null = false
        let e = Expr::lit(false).and(Expr::col(3).eq(Expr::lit(1)));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(false));
        // true OR null = true
        let e = Expr::lit(true).or(Expr::col(3).eq(Expr::lit(1)));
        assert_eq!(e.eval(&r).unwrap(), Value::Bool(true));
        // true AND null = null
        let e = Expr::lit(true).and(Expr::col(3).eq(Expr::lit(1)));
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic() {
        let r = row();
        assert_eq!(
            Expr::col(0).add(Expr::lit(5)).eval(&r).unwrap(),
            Value::Int(15)
        );
        assert_eq!(
            Expr::col(0).mul(Expr::col(2)).eval(&r).unwrap(),
            Value::Float(25.0)
        );
        assert!(Expr::col(0).div(Expr::lit(0)).eval(&r).is_err());
        // NULL propagates
        assert_eq!(
            Expr::col(3).add(Expr::lit(1)).eval(&r).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn date_functions() {
        let r = row();
        assert_eq!(
            Expr::func(ScalarFunc::Year, Expr::col(4)).eval(&r).unwrap(),
            Value::Int(2008)
        );
        assert_eq!(
            Expr::func(ScalarFunc::Month, Expr::col(4))
                .eval(&r)
                .unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            Expr::func(ScalarFunc::Day, Expr::col(4)).eval(&r).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Berlin", "Ber%"));
        assert!(like_match("Berlin", "%lin"));
        assert!(like_match("Berlin", "B_rl_n"));
        assert!(!like_match("Berlin", "Paris%"));
        assert!(like_match("", "%"));
        assert!(like_match("abc", "%%c"));
        assert!(!like_match("abc", "a%d"));
    }

    #[test]
    fn coalesce_concat_case() {
        let r = row();
        assert_eq!(
            Expr::Coalesce(vec![Expr::col(3), Expr::lit(7)])
                .eval(&r)
                .unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            Expr::Concat(vec![Expr::col(1), Expr::lit("-"), Expr::col(0)])
                .eval(&r)
                .unwrap(),
            Value::str("Berlin-10")
        );
        let e = Expr::case(
            Expr::col(0).gt(Expr::lit(5)),
            Expr::lit("big"),
            Expr::lit("small"),
        );
        assert_eq!(e.eval(&r).unwrap(), Value::str("big"));
    }

    #[test]
    fn referenced_and_remap() {
        let e = Expr::col(2).add(Expr::col(0)).gt(Expr::lit(1));
        let mut cols = vec![];
        e.referenced_columns(&mut cols);
        cols.sort();
        assert_eq!(cols, vec![0, 2]);
        let remapped = e.remap_columns(&|i| i + 10);
        let mut cols = vec![];
        remapped.referenced_columns(&mut cols);
        cols.sort();
        assert_eq!(cols, vec![10, 12]);
    }

    #[test]
    fn apply_escape_hatch() {
        let f = Arc::new(|args: &[Value]| -> StoreResult<Value> {
            Ok(Value::Int(args[0].to_int().unwrap_or(0) * 2))
        });
        let e = Expr::Apply(f, vec![Expr::col(0)]);
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(20));
    }
}
