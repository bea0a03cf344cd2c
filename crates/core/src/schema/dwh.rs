//! The data warehouse: canonical snowflake schema plus the materialized
//! view `OrdersMV` (paper Fig. 3) and its refresh procedure.

use super::canonical;
use dip_relstore::prelude::*;
use std::sync::Arc;

/// Logical database name of the DWH.
pub const DWH: &str = "dwh";

/// `OrdersMV`: daily order counts and revenue — the classic time-dimension
/// rollup over the fact table, keyed by `orderdate`.
pub fn orders_mv_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("orderdate", SqlType::Date),
        Column::new("order_count", SqlType::Int),
        Column::new("revenue", SqlType::Float),
    ])
    .shared()
}

/// The defining query of `OrdersMV`.
pub fn orders_mv_definition() -> Plan {
    Plan::scan("orders").aggregate(
        vec![2], // group by orderdate
        vec![
            AggExpr::count_star("order_count"),
            AggExpr::sum(3, "revenue"),
        ],
    )
}

/// Build the complete DWH. The paper's System A refreshes `OrdersMV` via a
/// stored-procedure call, realized here as `sp_refreshOrdersMV`.
pub fn create_dwh() -> StoreResult<Arc<Database>> {
    let db = Arc::new(Database::new(DWH));
    canonical::create_dimension_tables(&db)?;
    canonical::create_core_tables(&db)?;
    db.create_table(Table::new("orders_mv", orders_mv_schema()).with_primary_key(&["orderdate"])?);
    db.create_view(MatView::new(
        "orders_mv",
        "orders_mv",
        orders_mv_definition(),
    ));
    db.create_procedure(
        "sp_refreshOrdersMV",
        Arc::new(|db, _args| {
            let n = db.refresh_view("orders_mv")?;
            let schema = RelSchema::of(&[("rows", SqlType::Int)]).shared();
            Ok(Some(Relation::new(
                schema,
                vec![[Value::Int(n as i64)].into()],
            )))
        }),
    );
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_relstore::value::days_from_civil;

    fn order(k: i64, day: i32, total: f64) -> SharedRow {
        [
            Value::Int(k),
            Value::Int(1),
            Value::Date(day),
            Value::Float(total),
            Value::str("HIGH"),
            Value::str("OPEN"),
        ]
        .into()
    }

    #[test]
    fn refresh_proc_materializes_daily_rollup() {
        let db = create_dwh().unwrap();
        let d1 = days_from_civil(2008, 4, 7);
        let d2 = days_from_civil(2008, 4, 8);
        db.table("orders")
            .unwrap()
            .insert(vec![
                order(1, d1, 10.0),
                order(2, d1, 5.0),
                order(3, d2, 7.0),
            ])
            .unwrap();
        let out = db
            .call_procedure("sp_refreshOrdersMV", &[])
            .unwrap()
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(2)); // two distinct days
        let mv = db.table("orders_mv").unwrap();
        let row = mv.get_by_pk(&[Value::Date(d1)]).unwrap();
        assert_eq!(row[1], Value::Int(2));
        assert_eq!(row[2], Value::Float(15.0));
    }
}
