//! The canonical snowflake schema (paper Fig. 3) shared — with documented
//! variations — by the consolidated database, the data warehouse and the
//! data marts.
//!
//! Dimensions: Location (normalized: City → Nation → Region), Product
//! (normalized: Product → ProductGroup → ProductLine), Customer, and Time,
//! which is `orderdate` itself: no process derives a year, month or day
//! from it. Facts: Orders and Orderline. The DWH adds the materialized
//! view `OrdersMV`.

use dip_relstore::prelude::*;

pub fn region_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("regionkey", SqlType::Int),
        Column::not_null("name", SqlType::Str),
    ])
    .shared()
}

pub fn nation_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("nationkey", SqlType::Int),
        Column::not_null("name", SqlType::Str),
        Column::not_null("regionkey", SqlType::Int),
    ])
    .shared()
}

pub fn city_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("citykey", SqlType::Int),
        Column::not_null("name", SqlType::Str),
        Column::not_null("nationkey", SqlType::Int),
    ])
    .shared()
}

pub fn productline_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("linekey", SqlType::Int),
        Column::not_null("name", SqlType::Str),
    ])
    .shared()
}

pub fn productgroup_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("groupkey", SqlType::Int),
        Column::not_null("name", SqlType::Str),
        Column::not_null("linekey", SqlType::Int),
    ])
    .shared()
}

pub fn product_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("prodkey", SqlType::Int),
        Column::not_null("name", SqlType::Str),
        Column::not_null("groupkey", SqlType::Int),
        Column::new("price", SqlType::Float),
    ])
    .shared()
}

pub fn customer_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("custkey", SqlType::Int),
        Column::not_null("name", SqlType::Str),
        Column::new("address", SqlType::Str),
        Column::not_null("citykey", SqlType::Int),
        Column::new("segment", SqlType::Str),
        Column::new("phone", SqlType::Str),
        Column::new("acctbal", SqlType::Float),
    ])
    .shared()
}

pub fn orders_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("orderkey", SqlType::Int),
        Column::not_null("custkey", SqlType::Int),
        Column::not_null("orderdate", SqlType::Date),
        Column::new("totalprice", SqlType::Float),
        Column::new("priority", SqlType::Str),
        Column::new("state", SqlType::Str),
    ])
    .shared()
}

pub fn orderline_schema() -> SchemaRef {
    RelSchema::new(vec![
        Column::not_null("orderkey", SqlType::Int),
        Column::not_null("lineno", SqlType::Int),
        Column::not_null("prodkey", SqlType::Int),
        Column::new("quantity", SqlType::Int),
        Column::new("extendedprice", SqlType::Float),
        Column::new("discount", SqlType::Float),
    ])
    .shared()
}

/// Create the five dimension tables shared by CDB, DWH and (partially) the
/// data marts.
pub fn create_dimension_tables(db: &Database) -> StoreResult<()> {
    db.create_table(Table::new("region", region_schema()).with_primary_key(&["regionkey"])?);
    db.create_table(Table::new("nation", nation_schema()).with_primary_key(&["nationkey"])?);
    db.create_table(
        Table::new("city", city_schema())
            .with_primary_key(&["citykey"])?
            .with_index("city_by_name", &["name"])?,
    );
    db.create_table(
        Table::new("productline", productline_schema()).with_primary_key(&["linekey"])?,
    );
    db.create_table(
        Table::new("productgroup", productgroup_schema())
            .with_primary_key(&["groupkey"])?
            .with_index("pg_by_name", &["name"])?,
    );
    Ok(())
}

/// Create the clean master and movement tables (canonical shapes).
pub fn create_core_tables(db: &Database) -> StoreResult<()> {
    db.create_table(Table::new("customer", customer_schema()).with_primary_key(&["custkey"])?);
    db.create_table(Table::new("product", product_schema()).with_primary_key(&["prodkey"])?);
    db.create_table(Table::new("orders", orders_schema()).with_primary_key(&["orderkey"])?);
    db.create_table(
        Table::new("orderline", orderline_schema()).with_primary_key(&["orderkey", "lineno"])?,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tables_created() {
        let db = Database::new("x");
        create_dimension_tables(&db).unwrap();
        create_core_tables(&db).unwrap();
        for t in [
            "region",
            "nation",
            "city",
            "productline",
            "productgroup",
            "customer",
            "product",
            "orders",
            "orderline",
        ] {
            assert!(db.has_table(t), "missing {t}");
        }
    }

    #[test]
    fn composite_orderline_key() {
        let db = Database::new("x");
        create_core_tables(&db).unwrap();
        let ol = db.table("orderline").unwrap();
        ol.insert(vec![
            vec![
                Value::Int(1),
                Value::Int(1),
                Value::Int(9),
                Value::Int(1),
                Value::Float(1.0),
                Value::Float(0.0),
            ],
            vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(9),
                Value::Int(1),
                Value::Float(1.0),
                Value::Float(0.0),
            ],
        ])
        .unwrap();
        assert!(ol
            .insert(vec![vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(9),
                Value::Int(1),
                Value::Float(1.0),
                Value::Float(0.0)
            ]])
            .is_err());
    }
}
