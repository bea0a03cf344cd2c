//! The three region-specific data marts (fourth logical layer).
//!
//! The single data-mart schemas are derived from the DWH snowflake with
//! region-specific denormalization (paper §III-B):
//!
//! * **Europe** — product *and* location dimensions denormalized;
//! * **Asia** — only the product dimension denormalized;
//! * **United_States** — only the location dimension denormalized.
//!
//! Facts (orders, orderline) keep the canonical shape everywhere. Each data
//! mart carries a materialized view over its facts (`dm_sales_mv`,
//! refreshed by P15 through `sp_refreshDataMartViews`).

use super::canonical;
use dip_relstore::prelude::*;
use std::sync::Arc;

/// The three marts and their logical database names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mart {
    Europe,
    UnitedStates,
    Asia,
}

impl Mart {
    pub const ALL: [Mart; 3] = [Mart::Europe, Mart::UnitedStates, Mart::Asia];

    pub fn db_name(&self) -> &'static str {
        match self {
            Mart::Europe => "dm_europe",
            Mart::UnitedStates => "dm_unitedstates",
            Mart::Asia => "dm_asia",
        }
    }

    /// The canonical region-dimension name this mart is partitioned on.
    pub fn region_name(&self) -> &'static str {
        match self {
            Mart::Europe => "Europe",
            Mart::UnitedStates => "America",
            Mart::Asia => "Asia",
        }
    }

    pub fn denormalized_product(&self) -> bool {
        matches!(self, Mart::Europe | Mart::Asia)
    }

    pub fn denormalized_location(&self) -> bool {
        matches!(self, Mart::Europe | Mart::UnitedStates)
    }
}

/// Denormalized customer dimension (location folded in).
pub fn customer_denorm_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("custkey", SqlType::Int),
        Column::new("name", SqlType::Str),
        Column::new("address", SqlType::Str),
        Column::new("city", SqlType::Str),
        Column::new("nation", SqlType::Str),
        Column::new("region", SqlType::Str),
        Column::new("segment", SqlType::Str),
    ])
    .shared()
}

/// Denormalized product dimension (group/line folded in).
pub fn product_denorm_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("prodkey", SqlType::Int),
        Column::new("name", SqlType::Str),
        Column::new("group_name", SqlType::Str),
        Column::new("line_name", SqlType::Str),
        Column::new("price", SqlType::Float),
    ])
    .shared()
}

/// The mart-level materialized view: revenue and order count per state.
pub fn sales_mv_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("state", SqlType::Str),
        Column::new("order_count", SqlType::Int),
        Column::new("revenue", SqlType::Float),
    ])
    .shared()
}

pub fn sales_mv_definition() -> Plan {
    Plan::scan("orders").aggregate(
        vec![5], // group by state
        vec![
            AggExpr::count_star("order_count"),
            AggExpr::sum(Expr::col(3), "revenue"),
        ],
    )
}

/// Build one data mart.
pub fn create_mart(mart: Mart) -> StoreResult<Arc<Database>> {
    let db = Arc::new(Database::new(mart.db_name()));
    // facts are canonical everywhere
    db.create_table(
        Table::new("orders", canonical::orders_schema()).with_primary_key(&["orderkey"])?,
    );
    db.create_table(
        Table::new("orderline", canonical::orderline_schema())
            .with_primary_key(&["orderkey", "lineno"])?,
    );
    if mart.denormalized_location() {
        db.create_table(
            Table::new("customer_d", customer_denorm_schema()).with_primary_key(&["custkey"])?,
        );
    } else {
        db.create_table(
            Table::new("customer", canonical::customer_schema()).with_primary_key(&["custkey"])?,
        );
        canonical::create_dimension_tables(&db)?; // normalized location dims
    }
    if mart.denormalized_product() {
        db.create_table(
            Table::new("product_d", product_denorm_schema()).with_primary_key(&["prodkey"])?,
        );
    } else {
        db.create_table(
            Table::new("product", canonical::product_schema()).with_primary_key(&["prodkey"])?,
        );
        if !db.has_table("productgroup") {
            canonical::create_dimension_tables(&db)?;
        }
    }
    db.create_table(Table::new("sales_mv", sales_mv_schema()).with_primary_key(&["state"])?);
    db.create_view(MatView::new("sales_mv", "sales_mv", sales_mv_definition()));
    db.create_procedure(
        "sp_refreshDataMartViews",
        Arc::new(|db, _args| {
            let n = db.refresh_view("sales_mv")?;
            let schema = RelSchema::of(&[("rows", SqlType::Int)]).shared();
            Ok(Some(Relation::new(
                schema,
                vec![vec![Value::Int(n as i64)]],
            )))
        }),
    );
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_relstore::value::days_from_civil;

    #[test]
    fn denormalization_matrix_matches_paper() {
        // Europe: both denormalized
        let eu = create_mart(Mart::Europe).unwrap();
        assert!(eu.has_table("customer_d") && eu.has_table("product_d"));
        assert!(!eu.has_table("city") && !eu.has_table("productgroup"));
        // Asia: product denormalized, location normalized
        let asia = create_mart(Mart::Asia).unwrap();
        assert!(asia.has_table("product_d") && asia.has_table("customer"));
        assert!(asia.has_table("city"));
        // US: location denormalized, product normalized
        let us = create_mart(Mart::UnitedStates).unwrap();
        assert!(us.has_table("customer_d") && us.has_table("product"));
        assert!(us.has_table("productgroup"));
    }

    #[test]
    fn mart_mv_refresh() {
        let db = create_mart(Mart::Europe).unwrap();
        let d = days_from_civil(2008, 4, 7);
        db.table("orders")
            .unwrap()
            .insert(vec![
                vec![
                    Value::Int(1),
                    Value::Int(1),
                    Value::Date(d),
                    Value::Float(10.0),
                    Value::str("HIGH"),
                    Value::str("OPEN"),
                ],
                vec![
                    Value::Int(2),
                    Value::Int(1),
                    Value::Date(d),
                    Value::Float(4.0),
                    Value::str("HIGH"),
                    Value::str("CLOSED"),
                ],
            ])
            .unwrap();
        db.call_procedure("sp_refreshDataMartViews", &[]).unwrap();
        let mv = db.table("sales_mv").unwrap();
        assert_eq!(mv.row_count(), 2);
        let open = mv.get_by_pk(&[Value::str("OPEN")]).unwrap();
        assert_eq!(open[2], Value::Float(10.0));
    }
}
