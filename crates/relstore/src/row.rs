//! Rows and materialized relations.
//!
//! A stored row is a [`SharedRow`]: its values in one immutable, shared
//! allocation. A table slot, a relation, a source snapshot, a captured
//! change and an undo record all hold the same row, so handing a row on
//! (a scan, a snapshot replay, a full-width executor output) bumps a
//! reference count, and dropping it (a wipe) decrements one. Nothing
//! writes a stored row in place: an update builds a new one. A plan reads
//! a [`Relation`] in place through a [`crate::query::Plan::Values`] leaf
//! that shares it, and a filter over that leaf hands on the very rows it
//! keeps.
//!
//! [`Row`] is the owned form a caller builds from values and hands to
//! [`crate::table::Table::insert`], which converts it once at the boundary.
//! The crate's own builders make a [`SharedRow`] directly, in one
//! allocation: collect an exact-size iterator of values (a `map` over a
//! slice or a range, a `chain` of those), or call [`try_row`] when a value
//! can fail.

use crate::schema::SchemaRef;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A stored row: values positionally matching a schema, shared and
/// immutable. Its `Debug` image is its values', as a list.
pub type SharedRow = Arc<[Value]>;

/// An owned row under construction, handed to an insert that converts it
/// into a [`SharedRow`].
pub type Row = Vec<Value>;

/// The row of `values`, or their first error. Every value is computed
/// even after an error (the evaluators are pure), so a row collected from
/// an exact-size iterator (a `map` over a slice or a range) is built in one
/// allocation, as an infallible collect is.
pub fn try_row<E>(values: impl IntoIterator<Item = Result<Value, E>>) -> Result<SharedRow, E> {
    let mut err = None;
    let row: SharedRow = (values.into_iter())
        .map(|v| {
            v.unwrap_or_else(|e| {
                err.get_or_insert(e);
                Value::Null
            })
        })
        .collect();
    match err {
        Some(e) => Err(e),
        None => Ok(row),
    }
}

/// A materialized relation: a schema plus a bag of rows. This is the unit
/// exchanged between the query executor, the integration engines and the
/// service layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    pub schema: SchemaRef,
    pub rows: Vec<SharedRow>,
}

impl Relation {
    pub fn new(schema: SchemaRef, rows: Vec<SharedRow>) -> Relation {
        Relation { schema, rows }
    }

    pub fn empty(schema: SchemaRef) -> Relation {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Value at `(row, column-name)`; panics on bad coordinates (test aid).
    pub fn get(&self, row: usize, col: &str) -> &Value {
        let idx = self.schema.index_of(col).expect("column exists");
        &self.rows[row][idx]
    }

    /// Iterate one column by name.
    pub fn column_values<'a>(&'a self, col: &str) -> impl Iterator<Item = &'a Value> {
        let idx = self.schema.index_of(col).expect("column exists");
        self.rows.iter().map(move |r| &r[idx])
    }

    /// Stable-sort rows by the given key columns (ascending, total order);
    /// useful for deterministic comparisons in tests and verification.
    pub fn sort_by_columns(&mut self, cols: &[usize]) {
        self.rows.sort_by(|a, b| {
            for &c in cols {
                let ord = a[c].total_cmp(&b[c]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    /// A rendered, aligned table — handy in examples and failure messages.
    pub fn render(&self, max_rows: usize) -> String {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let shown = self.rows.iter().take(max_rows);
        let rendered: Vec<Vec<String>> = shown
            .map(|r| r.iter().map(|v| v.render()).collect())
            .collect();
        for r in &rendered {
            for (i, cell) in r.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, n) in names.iter().enumerate() {
            out.push_str(&format!("{:width$} ", n, width = widths[i]));
        }
        out.push('\n');
        for r in &rendered {
            for (i, cell) in r.iter().enumerate() {
                out.push_str(&format!("{:width$} ", cell, width = widths[i]));
            }
            out.push('\n');
        }
        if self.rows.len() > max_rows {
            out.push_str(&format!("… {} more rows\n", self.rows.len() - max_rows));
        }
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;
    use crate::value::SqlType;

    #[test]
    fn get_and_sort() {
        let schema = RelSchema::of(&[("id", SqlType::Int), ("name", SqlType::Str)]).shared();
        let mut rel = Relation::new(
            schema,
            vec![
                [Value::Int(2), Value::str("b")].into(),
                [Value::Int(1), Value::str("a")].into(),
            ],
        );
        assert_eq!(rel.get(0, "name"), &Value::str("b"));
        rel.sort_by_columns(&[0]);
        assert_eq!(rel.get(0, "id"), &Value::Int(1));
        let names: Vec<String> = rel.column_values("name").map(|v| v.render()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn render_truncates() {
        let schema = RelSchema::of(&[("x", SqlType::Int)]).shared();
        let rel = Relation::new(schema, (0..5).map(|i| [Value::Int(i)].into()).collect());
        let s = rel.render(2);
        assert!(s.contains("… 3 more rows"));
    }
}
