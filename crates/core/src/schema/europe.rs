//! Region Europe source schemas (paper Fig. 2): a self-defined, normalized
//! schema with its own attribute names (the syntactic heterogeneity P05–P07
//! resolve with projections).
//!
//! Berlin and Paris share one physical database (`berlin_paris`) with a
//! `*_loc` discriminator column; Trondheim has its own database without the
//! location columns. The proprietary applications Vienna and MDM_Europe use
//! deep-structured XML instead (see [`crate::schema::messages`]).

use dip_relstore::prelude::*;
use std::sync::Arc;

/// Logical database names.
pub const BERLIN_PARIS: &str = "berlin_paris";
pub const TRONDHEIM: &str = "trondheim";

/// Location discriminator values in the shared Berlin/Paris database.
pub const LOC_BERLIN: &str = "berlin";
pub const LOC_PARIS: &str = "paris";

fn cust_columns(with_loc: bool) -> Vec<Column> {
    let mut cols = vec![
        Column::not_null("c_id", SqlType::Int),
        Column::new("c_name", SqlType::Str),
        Column::new("c_street", SqlType::Str),
        Column::new("c_city", SqlType::Str),
        Column::new("c_nation", SqlType::Str),
        Column::new("c_seg", SqlType::Str),
        Column::new("c_phone", SqlType::Str),
        Column::new("c_bal", SqlType::Float),
    ];
    if with_loc {
        cols.push(Column::not_null("c_loc", SqlType::Str));
    }
    cols
}

fn prod_columns() -> Vec<Column> {
    vec![
        Column::not_null("pr_id", SqlType::Int),
        Column::new("pr_name", SqlType::Str),
        Column::new("pr_group", SqlType::Str),
        Column::new("pr_line", SqlType::Str),
        Column::new("pr_price", SqlType::Float),
    ]
}

fn ord_columns(with_loc: bool) -> Vec<Column> {
    let mut cols = vec![
        Column::not_null("o_id", SqlType::Int),
        Column::not_null("o_cust", SqlType::Int),
        Column::new("o_date", SqlType::Date),
        Column::new("o_total", SqlType::Float),
        Column::new("o_prio", SqlType::Str),
        Column::new("o_state", SqlType::Str),
    ];
    if with_loc {
        cols.push(Column::not_null("o_loc", SqlType::Str));
    }
    cols
}

fn pos_columns(with_loc: bool) -> Vec<Column> {
    let mut cols = vec![
        Column::not_null("p_ord", SqlType::Int),
        Column::not_null("p_no", SqlType::Int),
        Column::not_null("p_prod", SqlType::Int),
        Column::new("p_qty", SqlType::Int),
        Column::new("p_price", SqlType::Float),
        Column::new("p_disc", SqlType::Float),
    ];
    if with_loc {
        cols.push(Column::not_null("p_loc", SqlType::Str));
    }
    cols
}

pub fn cust_schema(with_loc: bool) -> SchemaRef {
    RelSchema::new(cust_columns(with_loc)).shared()
}
pub fn prod_schema() -> SchemaRef {
    RelSchema::new(prod_columns()).shared()
}
pub fn ord_schema(with_loc: bool) -> SchemaRef {
    RelSchema::new(ord_columns(with_loc)).shared()
}
pub fn pos_schema(with_loc: bool) -> SchemaRef {
    RelSchema::new(pos_columns(with_loc)).shared()
}

fn create(name: &str, with_loc: bool) -> StoreResult<Arc<Database>> {
    let db = Arc::new(Database::new(name));
    let cust = Table::new("cust", cust_schema(with_loc)).with_primary_key(&["c_id"])?;
    let cust = if with_loc {
        cust.with_index("cust_by_loc", &["c_loc"])?
    } else {
        cust
    };
    db.create_table(cust);
    db.create_table(Table::new("prod", prod_schema()).with_primary_key(&["pr_id"])?);
    let ord = Table::new("ord", ord_schema(with_loc)).with_primary_key(&["o_id"])?;
    let ord = if with_loc {
        ord.with_index("ord_by_loc", &["o_loc"])?
    } else {
        ord
    };
    db.create_table(ord);
    db.create_table(Table::new("pos", pos_schema(with_loc)).with_primary_key(&["p_ord", "p_no"])?);
    Ok(db)
}

/// Build the shared Berlin/Paris database.
pub fn create_berlin_paris() -> StoreResult<Arc<Database>> {
    create(BERLIN_PARIS, true)
}

/// Build the Trondheim database.
pub fn create_trondheim() -> StoreResult<Arc<Database>> {
    create(TRONDHEIM, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_db_has_location_columns() {
        let bp = create_berlin_paris().unwrap();
        assert!(bp.table("cust").unwrap().schema.index_of("c_loc").is_ok());
        let tr = create_trondheim().unwrap();
        assert!(tr.table("cust").unwrap().schema.index_of("c_loc").is_err());
    }

    #[test]
    fn tables_exist() {
        let bp = create_berlin_paris().unwrap();
        for t in ["cust", "prod", "ord", "pos"] {
            assert!(bp.has_table(t));
        }
    }
}
