//! Region Asia: three Web services (Hongkong, Beijing, Seoul), each hiding
//! a local database and managing its master data locally.
//!
//! Beijing and Seoul have *different* local schemas (the reason P01's
//! master-data exchange needs an STX translation and P09 needs two
//! different stylesheets): Beijing uses bare names, Seoul prefixes
//! everything with `s_`. Seoul's web service additionally accepts the
//! `masterdata` update operation carrying an XSD_Seoul document (P01's
//! target), implemented by [`SeoulService`].

use dip_relstore::prelude::*;
use dip_services::resultset::ResultSet;
use dip_services::webservice::{DbService, ServiceError, ServiceResult, WebService};
use dip_xmlkit::node::Document;
use std::sync::Arc;

/// Web service names.
pub const HONGKONG: &str = "hongkong";
pub const BEIJING: &str = "beijing";
pub const SEOUL: &str = "seoul";

fn schema(prefix: &str, cols: &[(&str, SqlType)], not_null: &[usize]) -> SchemaRef {
    RelSchema::new(
        cols.iter()
            .enumerate()
            .map(|(i, (n, t))| {
                let name = format!("{prefix}{n}");
                if not_null.contains(&i) {
                    Column::not_null(name, *t)
                } else {
                    Column::new(name, *t)
                }
            })
            .collect(),
    )
    .shared()
}

pub fn customers_schema(prefix: &str) -> SchemaRef {
    schema(
        prefix,
        &[
            ("ckey", SqlType::Int),
            ("cname", SqlType::Str),
            ("ccity", SqlType::Str),
            ("cseg", SqlType::Str),
            ("cphone", SqlType::Str),
            ("cbal", SqlType::Float),
        ],
        &[0],
    )
}

pub fn parts_schema(prefix: &str) -> SchemaRef {
    schema(
        prefix,
        &[
            ("pkey", SqlType::Int),
            ("pname", SqlType::Str),
            ("pgroup", SqlType::Str),
            ("pline", SqlType::Str),
            ("pprice", SqlType::Float),
        ],
        &[0],
    )
}

pub fn orders_schema(prefix: &str) -> SchemaRef {
    schema(
        prefix,
        &[
            ("okey", SqlType::Int),
            ("ckey", SqlType::Int),
            ("odate", SqlType::Date),
            ("oprio", SqlType::Str),
            ("ostate", SqlType::Str),
            ("ototal", SqlType::Float),
        ],
        &[0, 1],
    )
}

pub fn orderlines_schema(prefix: &str) -> SchemaRef {
    schema(
        prefix,
        &[
            ("okey", SqlType::Int),
            ("lineno", SqlType::Int),
            ("pkey", SqlType::Int),
            ("qty", SqlType::Int),
            ("xprice", SqlType::Float),
            ("disc", SqlType::Float),
        ],
        &[0, 1, 2],
    )
}

/// The column-name prefix each service's local schema uses.
pub fn prefix_of(service: &str) -> &'static str {
    match service {
        SEOUL => "s_",
        _ => "",
    }
}

/// Build the local database behind one Asian web service.
pub fn create_asia_db(service: &str) -> StoreResult<Arc<Database>> {
    let p = prefix_of(service);
    let db = Arc::new(Database::new(format!("{service}_db")));
    db.create_table(
        Table::new("customers", customers_schema(p)).with_primary_key(&[&format!("{p}ckey")])?,
    );
    db.create_table(Table::new("parts", parts_schema(p)).with_primary_key(&[&format!("{p}pkey")])?);
    db.create_table(
        Table::new("orders", orders_schema(p)).with_primary_key(&[&format!("{p}okey")])?,
    );
    db.create_table(
        Table::new("orderlines", orderlines_schema(p))
            .with_primary_key(&[&format!("{p}okey"), &format!("{p}lineno")])?,
    );
    Ok(db)
}

/// Seoul's web service: a plain data-source service plus the `masterdata`
/// update operation that accepts an XSD_Seoul master-data document
/// (`<seoulMasterData>` with `<sCustomers>`/`<sParts>`) — the P01 target.
pub struct SeoulService {
    inner: DbService,
}

impl SeoulService {
    pub fn new(db: Arc<Database>) -> SeoulService {
        SeoulService {
            inner: DbService::new(SEOUL, db),
        }
    }

    pub fn db(&self) -> &Arc<Database> {
        &self.inner.db
    }
}

impl WebService for SeoulService {
    fn name(&self) -> &str {
        SEOUL
    }

    fn query(&self, operation: &str) -> ServiceResult<ResultSet> {
        self.inner.query(operation)
    }

    fn update(&self, operation: &str, doc: &Document) -> ServiceResult<usize> {
        if operation != "masterdata" {
            return self.inner.update(operation, doc);
        }
        if doc.root.name != "seoulMasterData" {
            return Err(ServiceError::Malformed(format!(
                "expected <seoulMasterData>, got <{}>",
                doc.root.name
            )));
        }
        let text = |e: &dip_xmlkit::Element, n: &str| e.child_text(n).unwrap_or_default();
        let int = |e: &dip_xmlkit::Element, n: &str| -> Result<i64, ServiceError> {
            text(e, n)
                .trim()
                .parse()
                .map_err(|_| ServiceError::Malformed(format!("bad integer in <{n}>")))
        };
        let float =
            |e: &dip_xmlkit::Element, n: &str| text(e, n).trim().parse::<f64>().unwrap_or(0.0);
        let mut n = 0usize;
        if let Some(custs) = doc.root.first("sCustomers") {
            let mut rows = Vec::new();
            for c in custs.all("sCustomer") {
                rows.push(SharedRow::from([
                    Value::Int(int(c, "sKey")?),
                    Value::str(text(c, "sName")),
                    Value::str(text(c, "sCity")),
                    Value::str(text(c, "sSegment")),
                    Value::str(text(c, "sPhone")),
                    Value::Float(float(c, "sBal")),
                ]));
            }
            n += self.inner.db.table("customers")?.upsert(rows)?;
        }
        if let Some(parts) = doc.root.first("sParts") {
            let mut rows = Vec::new();
            for p in parts.all("sPart") {
                rows.push(SharedRow::from([
                    Value::Int(int(p, "sKey")?),
                    Value::str(text(p, "sName")),
                    Value::str(text(p, "sGroup")),
                    Value::Null, // line name not exchanged by P01
                    Value::Float(float(p, "sPrice")),
                ]));
            }
            n += self.inner.db.table("parts")?.upsert(rows)?;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_xmlkit::Element;

    #[test]
    fn seoul_schema_is_prefixed() {
        let seoul = create_asia_db(SEOUL).unwrap();
        assert!(seoul
            .table("orders")
            .unwrap()
            .schema
            .index_of("s_okey")
            .is_ok());
        let beijing = create_asia_db(BEIJING).unwrap();
        assert!(beijing
            .table("orders")
            .unwrap()
            .schema
            .index_of("okey")
            .is_ok());
    }

    #[test]
    fn seoul_masterdata_update() {
        let db = create_asia_db(SEOUL).unwrap();
        let svc = SeoulService::new(db.clone());
        let doc = Document::new(
            Element::new("seoulMasterData")
                .child(
                    Element::new("sCustomers").child(
                        Element::new("sCustomer")
                            .child(Element::leaf("sKey", "1100001"))
                            .child(Element::leaf("sName", "kim"))
                            .child(Element::leaf("sCity", "Seoul"))
                            .child(Element::leaf("sSegment", "AUTO"))
                            .child(Element::leaf("sPhone", "+82"))
                            .child(Element::leaf("sBal", "5.5")),
                    ),
                )
                .child(
                    Element::new("sParts").child(
                        Element::new("sPart")
                            .child(Element::leaf("sKey", "1100002"))
                            .child(Element::leaf("sName", "bolt"))
                            .child(Element::leaf("sGroup", "Bolts"))
                            .child(Element::leaf("sPrice", "0.2")),
                    ),
                ),
        );
        let n = svc.update("masterdata", &doc).unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.table("customers").unwrap().row_count(), 1);
        assert_eq!(db.table("parts").unwrap().row_count(), 1);
        // upsert semantics: sending again replaces, not duplicates
        assert_eq!(svc.update("masterdata", &doc).unwrap(), 2);
        assert_eq!(db.table("customers").unwrap().row_count(), 1);
        // malformed root rejected
        let bad = Document::new(Element::new("junk"));
        assert!(svc.update("masterdata", &bad).is_err());
    }

    #[test]
    fn seoul_plain_query_still_works() {
        let db = create_asia_db(SEOUL).unwrap();
        let svc = SeoulService::new(db);
        let doc = svc.query("orders").unwrap().to_document();
        assert_eq!(doc.root.name, "resultSet");
    }
}
