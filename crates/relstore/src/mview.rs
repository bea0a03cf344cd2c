//! Materialized views.
//!
//! The DIPBench DWH schema contains the materialized view `OrdersMV`
//! (refreshed by P13) and each data mart has its own materialized views
//! (refreshed by P15). A [`MatView`] pairs a defining [`Plan`] with a
//! storage table; `refresh` recomputes the definition and replaces the
//! storage contents. (Delta maintenance of views is the `dip-ivm` engine's
//! job; docs/EXPERIMENTS.md records why the in-store incremental refresh
//! went.)

use crate::catalog::Database;
use crate::error::StoreResult;
use crate::query::plan::Plan;

/// A named materialized view.
#[derive(Debug)]
pub struct MatView {
    pub name: String,
    /// Name of the table that stores the materialized rows.
    pub storage: String,
    pub definition: Plan,
}

impl MatView {
    pub fn new(name: impl Into<String>, storage: impl Into<String>, definition: Plan) -> MatView {
        MatView {
            name: name.into(),
            storage: storage.into(),
            definition,
        }
    }

    /// Refresh the view; returns the number of rows now materialized.
    ///
    /// The refresh runs in its own transaction scope (nested if the caller
    /// already opened one): an error mid-refresh would otherwise leave the
    /// storage table truncated or half-filled — rollback restores it, so a
    /// failed refresh can simply be retried.
    pub fn refresh(&self, db: &Database) -> StoreResult<usize> {
        let tx = crate::tx::begin();
        let result = self.recompute(db);
        match &result {
            Ok(_) => tx.commit(),
            Err(_) => tx.rollback(),
        }
        result
    }

    fn recompute(&self, db: &Database) -> StoreResult<usize> {
        let rel = self.definition.run(db)?;
        let storage = db.table(&self.storage)?;
        storage.truncate();
        let n = rel.rows.len();
        storage.insert(rel.rows)?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;
    use crate::expr::Expr;
    use crate::query::plan::AggExpr;
    use crate::schema::{Column, RelSchema};
    use crate::table::Table;
    use crate::value::{SqlType, Value};

    /// orders(city, price) -> mv(city NOT NULL, revenue SUM, cnt COUNT)
    fn setup() -> Database {
        let db = Database::new("dwh");
        let orders = RelSchema::of(&[("city", SqlType::Str), ("price", SqlType::Float)]).shared();
        db.create_table(Table::new("orders", orders));
        let mv_schema = RelSchema::new(vec![
            Column::not_null("city", SqlType::Str),
            Column::new("revenue", SqlType::Float),
            Column::new("cnt", SqlType::Int),
        ])
        .shared();
        db.create_table(
            Table::new("orders_mv", mv_schema)
                .with_primary_key(&["city"])
                .unwrap(),
        );
        let def = Plan::scan("orders").aggregate(
            vec![0],
            vec![AggExpr::sum(1, "revenue"), AggExpr::count_star("cnt")],
        );
        db.create_view(MatView::new("orders_mv", "orders_mv", def));
        db
    }

    fn add(db: &Database, city: Value, price: f64) {
        db.table("orders")
            .unwrap()
            .insert(vec![vec![city, Value::Float(price)]])
            .unwrap();
    }

    #[test]
    fn refresh_materializes_and_follows_the_base() {
        let db = setup();
        add(&db, Value::str("Berlin"), 10.0);
        add(&db, Value::str("Berlin"), 5.0);
        add(&db, Value::str("Paris"), 7.0);
        assert_eq!(db.refresh_view("orders_mv").unwrap(), 2);
        let mv = db.table("orders_mv").unwrap();
        let row = mv.get_by_pk(&[Value::str("Berlin")]).unwrap();
        assert_eq!(row[1], Value::Float(15.0));
        assert_eq!(row[2], Value::Int(2));
        // a group whose rows are gone vanishes with the next refresh
        db.table("orders")
            .unwrap()
            .delete_where(&Expr::col(0).eq(Expr::lit("Paris")))
            .unwrap();
        assert_eq!(db.refresh_view("orders_mv").unwrap(), 1);
        assert!(mv.get_by_pk(&[Value::str("Paris")]).is_none());
    }

    /// An error mid-refresh — here after the storage table was truncated —
    /// must leave the view as the last good refresh left it, so the failed
    /// refresh is retryable.
    #[test]
    fn failed_refresh_rolls_back() {
        let db = setup();
        add(&db, Value::str("Berlin"), 10.0);
        db.refresh_view("orders_mv").unwrap();
        let mv_before = db.table("orders_mv").unwrap().state_dump();

        // the base allows a NULL city; the storage table does not
        add(&db, Value::str("Paris"), 2.0);
        add(&db, Value::Null, 5.0);
        let err = db.refresh_view("orders_mv").unwrap_err();
        assert!(matches!(err, StoreError::Constraint(_)), "{err}");
        assert_eq!(db.table("orders_mv").unwrap().state_dump(), mv_before);
    }
}
