//! Rows and materialized relations.

use crate::schema::SchemaRef;
use crate::value::Value;
use std::fmt;

/// A row is a plain vector of values, positionally matching a schema.
pub type Row = Vec<Value>;

/// A materialized relation: a schema plus a bag of rows. This is the unit
/// exchanged between the query executor, the integration engines and the
/// service layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    pub schema: SchemaRef,
    pub rows: Vec<Row>,
}

impl Relation {
    pub fn new(schema: SchemaRef, rows: Vec<Row>) -> Relation {
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
                vec![Value::Int(2), Value::str("b")],
                vec![Value::Int(1), Value::str("a")],
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
        let rel = Relation::new(schema, (0..5).map(|i| vec![Value::Int(i)]).collect());
        let s = rel.render(2);
        assert!(s.contains("… 3 more rows"));
    }
}
