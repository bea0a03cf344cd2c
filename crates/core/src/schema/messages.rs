//! Message schemas (XSD-lite), STX translation stylesheets and load
//! decoders — the full set of schema mappings the 15 process types need.
//!
//! Every source message shape is translated into the **canonical CDB order
//! message** before loading:
//!
//! ```xml
//! <cdbOrder>
//!   <orderkey/><custkey/><orderdate/><priority/><state/><totalprice/>
//!   <lines><line><lineno/><prodkey/><quantity/><extendedprice/><discount/></line>…</lines>
//! </cdbOrder>
//! ```

use crate::schema::vocab;
use dip_mtm::process::{TableRows, XmlDecoder};
use dip_relstore::prelude::*;
use dip_xmlkit::node::{Document, Element};
use dip_xmlkit::stx::{Rule, Stylesheet};
use dip_xmlkit::value_types::SimpleType;
use dip_xmlkit::xsd::{XsdElement, XsdSchema};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// XSD schemas
// ---------------------------------------------------------------------------

/// XSD for San Diego's error-prone messages — the schema P10 validates
/// against. Types and vocabularies are strict so each injected error kind
/// is caught.
pub fn san_diego_xsd() -> XsdSchema {
    let america_prio: Vec<String> = vocab::AMERICA_PRIORITY
        .iter()
        .map(|s| s.to_string())
        .collect();
    let america_state: Vec<String> = vocab::AMERICA_STATE.iter().map(|s| s.to_string()).collect();
    XsdSchema::new(
        "XSD_SanDiego",
        XsdElement::sequence(
            "sdMessage",
            vec![
                XsdElement::sequence(
                    "sdHeader",
                    vec![
                        XsdElement::simple("msgKey", SimpleType::String).once(),
                        XsdElement::simple("created", SimpleType::Date).once(),
                    ],
                )
                .once(),
                XsdElement::sequence(
                    "sdOrder",
                    vec![
                        XsdElement::simple("okey", SimpleType::Int).once(),
                        XsdElement::simple("ckey", SimpleType::Int).once(),
                        XsdElement::simple("odate", SimpleType::Date).once(),
                        XsdElement::simple("oprio", SimpleType::Enum(america_prio)).once(),
                        XsdElement::simple("ostate", SimpleType::Enum(america_state)).once(),
                        XsdElement::simple("total", SimpleType::Decimal).once(),
                    ],
                )
                .once(),
                XsdElement::sequence(
                    "sdLines",
                    vec![XsdElement::sequence(
                        "sdLine",
                        vec![
                            XsdElement::simple("pkey", SimpleType::Int).once(),
                            XsdElement::simple("qty", SimpleType::Int).once(),
                            XsdElement::simple("xprice", SimpleType::Decimal).once(),
                            XsdElement::simple("disc", SimpleType::Decimal).once(),
                        ],
                    )
                    .with_attr(dip_xmlkit::xsd::XsdAttr::required("no", SimpleType::Int))
                    .many()],
                )
                .once(),
            ],
        ),
    )
}

/// XSD for the Vienna order messages.
pub fn vienna_xsd() -> XsdSchema {
    XsdSchema::new(
        "XSD_Vienna",
        XsdElement::sequence(
            "viennaOrder",
            vec![
                XsdElement::sequence(
                    "orderHeader",
                    vec![
                        XsdElement::simple("orderKey", SimpleType::Int).once(),
                        XsdElement::simple("orderDate", SimpleType::Date).once(),
                        XsdElement::simple(
                            "priority",
                            SimpleType::Enum(
                                vocab::EUROPE_PRIORITY
                                    .iter()
                                    .map(|s| s.to_string())
                                    .collect(),
                            ),
                        )
                        .once(),
                        XsdElement::simple(
                            "state",
                            SimpleType::Enum(
                                vocab::EUROPE_STATE.iter().map(|s| s.to_string()).collect(),
                            ),
                        )
                        .once(),
                        XsdElement::simple("totalPrice", SimpleType::Decimal).once(),
                    ],
                )
                .once(),
                XsdElement::sequence(
                    "customerRef",
                    vec![XsdElement::simple("custKey", SimpleType::Int).once()],
                )
                .once(),
                XsdElement::sequence("positions", vec![XsdElement::any("position").many()]).once(),
            ],
        ),
    )
}

/// XSD_Beijing — the master-data exchange document shape P01 receives.
pub fn beijing_master_xsd() -> XsdSchema {
    XsdSchema::new(
        "XSD_Beijing",
        XsdElement::sequence(
            "bjMasterData",
            vec![
                XsdElement::sequence("bjCustomers", vec![XsdElement::any("bjCustomer").many()])
                    .once(),
                XsdElement::sequence("bjParts", vec![XsdElement::any("bjPart").many()]).once(),
            ],
        ),
    )
}

// ---------------------------------------------------------------------------
// STX stylesheets
// ---------------------------------------------------------------------------

fn canonical_line_rules() -> Vec<Rule> {
    vec![
        Rule::for_name("lineNo").rename("lineno").build(),
        Rule::for_name("prodKey").rename("prodkey").build(),
        Rule::for_name("extendedPrice")
            .rename("extendedprice")
            .build(),
    ]
}

/// P01: XSD_Beijing → XSD_Seoul.
pub fn stx_beijing_to_seoul() -> Arc<Stylesheet> {
    Arc::new(Stylesheet::new(
        "beijing_to_seoul",
        vec![
            Rule::for_name("bjMasterData")
                .rename("seoulMasterData")
                .build(),
            Rule::for_name("bjCustomers").rename("sCustomers").build(),
            Rule::for_name("bjCustomer").rename("sCustomer").build(),
            Rule::for_name("bjParts").rename("sParts").build(),
            Rule::for_name("bjPart").rename("sPart").build(),
            Rule::for_name("bjKey").rename("sKey").build(),
            Rule::for_name("bjName").rename("sName").build(),
            Rule::for_name("bjCity").rename("sCity").build(),
            Rule::for_name("bjSegment").rename("sSegment").build(),
            Rule::for_name("bjPhone").rename("sPhone").build(),
            Rule::for_name("bjGroup").rename("sGroup").build(),
            Rule::for_name("bjPrice").rename("sPrice").build(),
        ],
    ))
}

/// P02: MDM message → the Europe customer-update shape
/// `<euCustomer><custkey/><name/>…</euCustomer>`.
pub fn stx_mdm_to_europe() -> Arc<Stylesheet> {
    Arc::new(Stylesheet::new(
        "mdm_to_europe",
        vec![
            Rule::for_name("mdmCustomer").rename("euCustomer").build(),
            Rule::for_name("ident").unwrap_element().build(),
            Rule::for_name("details").unwrap_element().build(),
            Rule::for_name("address").unwrap_element().build(),
            Rule::for_name("custKey").rename("custkey").build(),
        ],
    ))
}

/// P04: Vienna order → canonical CDB order message (maps the Europe
/// priority vocabulary).
pub fn stx_vienna_to_cdb() -> Arc<Stylesheet> {
    let mut rules = vec![
        Rule::for_name("viennaOrder").rename("cdbOrder").build(),
        Rule::for_name("orderHeader").unwrap_element().build(),
        Rule::for_name("customerRef").unwrap_element().build(),
        Rule::for_name("orderKey").rename("orderkey").build(),
        Rule::for_name("orderDate").rename("orderdate").build(),
        Rule::for_name("priority")
            .map_text(&vocab::EUROPE_PRIORITY_MAP)
            .build(),
        Rule::for_name("totalPrice").rename("totalprice").build(),
        Rule::for_name("custKey").rename("custkey").build(),
        Rule::for_name("positions").rename("lines").build(),
        Rule::for_name("position").rename("line").build(),
    ];
    rules.extend(canonical_line_rules());
    Arc::new(Stylesheet::new("vienna_to_cdb", rules))
}

/// P08: Hongkong order → canonical CDB order message (maps the Asia
/// vocabularies).
pub fn stx_hongkong_to_cdb() -> Arc<Stylesheet> {
    let mut rules = vec![
        Rule::for_name("hkOrder").rename("cdbOrder").build(),
        Rule::for_name("hkOrderKey").rename("orderkey").build(),
        Rule::for_name("hkCustKey").rename("custkey").build(),
        Rule::for_name("hkDate").rename("orderdate").build(),
        Rule::for_name("hkPriority")
            .rename("priority")
            .map_text(&vocab::ASIA_PRIORITY_MAP)
            .build(),
        Rule::for_name("hkState")
            .rename("state")
            .map_text(&vocab::ASIA_STATE_MAP)
            .build(),
        Rule::for_name("hkTotal").rename("totalprice").build(),
        Rule::for_name("hkLines").rename("lines").build(),
        Rule::for_name("hkLine").rename("line").build(),
    ];
    rules.extend(canonical_line_rules());
    Arc::new(Stylesheet::new("hongkong_to_cdb", rules))
}

/// P10: San Diego message → canonical CDB order message (maps the America
/// vocabularies; only called on messages that passed validation).
pub fn stx_san_diego_to_cdb() -> Arc<Stylesheet> {
    Arc::new(Stylesheet::new(
        "san_diego_to_cdb",
        vec![
            Rule::for_name("sdMessage").rename("cdbOrder").build(),
            Rule::for_name("sdHeader").drop().build(),
            Rule::for_name("sdOrder").unwrap_element().build(),
            Rule::for_name("okey").rename("orderkey").build(),
            Rule::for_name("ckey").rename("custkey").build(),
            Rule::for_name("odate").rename("orderdate").build(),
            Rule::for_name("oprio")
                .rename("priority")
                .map_text(&vocab::AMERICA_PRIORITY_MAP)
                .build(),
            Rule::for_name("ostate")
                .rename("state")
                .map_text(&vocab::AMERICA_STATE_MAP)
                .build(),
            Rule::for_name("total").rename("totalprice").build(),
            Rule::for_name("sdLines").rename("lines").build(),
            Rule::for_name("sdLine")
                .rename("line")
                .rename_attr("no", "lineno")
                .attrs_to_elements()
                .build(),
            Rule::for_name("pkey").rename("prodkey").build(),
            Rule::for_name("qty").rename("quantity").build(),
            Rule::for_name("xprice").rename("extendedprice").build(),
            Rule::for_name("disc").rename("discount").build(),
        ],
    ))
}

/// P09: Beijing result sets → canonical staging column names. One
/// stylesheet covers all four entities (element names are disjoint).
pub fn stx_beijing_rs_to_canon() -> Arc<Stylesheet> {
    Arc::new(Stylesheet::new("beijing_rs_to_canon", rs_rules("")))
}

/// P09: Seoul result sets → canonical staging column names (the *second*,
/// different stylesheet the paper calls for — Seoul's columns are
/// `s_`-prefixed).
pub fn stx_seoul_rs_to_canon() -> Arc<Stylesheet> {
    Arc::new(Stylesheet::new("seoul_rs_to_canon", rs_rules("s_")))
}

fn rs_rules(p: &str) -> Vec<Rule> {
    let n = |base: &str| format!("{p}{base}");
    vec![
        // customers
        Rule::for_name(n("ckey")).rename("custkey").build(),
        Rule::for_name(n("cname")).rename("name").build(),
        Rule::for_name(n("ccity")).rename("city_name").build(),
        Rule::for_name(n("cseg")).rename("segment").build(),
        Rule::for_name(n("cphone")).rename("phone").build(),
        Rule::for_name(n("cbal")).rename("acctbal").build(),
        // parts
        Rule::for_name(n("pkey")).rename("prodkey").build(),
        Rule::for_name(n("pname")).rename("name").build(),
        Rule::for_name(n("pgroup")).rename("group_name").build(),
        Rule::for_name(n("pline")).rename("line_name").build(),
        Rule::for_name(n("pprice")).rename("price").build(),
        // orders
        Rule::for_name(n("okey")).rename("orderkey").build(),
        Rule::for_name(n("odate")).rename("orderdate").build(),
        Rule::for_name(n("oprio"))
            .rename("priority")
            .map_text(&vocab::ASIA_PRIORITY_MAP)
            .build(),
        Rule::for_name(n("ostate"))
            .rename("state")
            .map_text(&vocab::ASIA_STATE_MAP)
            .build(),
        Rule::for_name(n("ototal")).rename("totalprice").build(),
        // order lines
        Rule::for_name(n("lineno")).rename("lineno").build(),
        Rule::for_name(n("qty")).rename("quantity").build(),
        Rule::for_name(n("xprice")).rename("extendedprice").build(),
        Rule::for_name(n("disc")).rename("discount").build(),
    ]
}

// ---------------------------------------------------------------------------
// Load decoders
// ---------------------------------------------------------------------------

fn req_int(e: &Element, name: &str) -> Result<Value, String> {
    e.child_text(name)
        .and_then(|t| t.trim().parse::<i64>().ok().map(Value::Int))
        .ok_or_else(|| format!("missing or non-integer <{name}>"))
}

fn opt_float(e: &Element, name: &str) -> Value {
    e.child_text(name)
        .and_then(|t| t.trim().parse::<f64>().ok().map(Value::Float))
        .unwrap_or(Value::Null)
}

fn opt_str(e: &Element, name: &str) -> Value {
    e.child_text(name).map(Value::str).unwrap_or(Value::Null)
}

fn opt_date(e: &Element, name: &str) -> Value {
    e.child_text(name)
        .and_then(|t| parse_date(t.trim()))
        .map(Value::Date)
        .unwrap_or(Value::Null)
}

/// The CDB movement staging tables [`cdb_order_decoder`] emits rows for:
/// the order's, then its lines'.
pub const ORDER_STAGING_TABLES: [&str; 2] = ["orders_staging", "orderline_staging"];

/// Decoder from the canonical `<cdbOrder>` message into the CDB movement
/// staging tables. `source` tags the rows' origin system.
pub fn cdb_order_decoder(source: &str) -> XmlDecoder {
    let source = source.to_string();
    Arc::new(move |doc: &Document| {
        let root = &doc.root;
        if root.name != "cdbOrder" {
            return Err(format!("expected <cdbOrder>, got <{}>", root.name));
        }
        let orderkey = req_int(root, "orderkey")?;
        let order = vec![
            orderkey.clone(),
            req_int(root, "custkey")?,
            opt_date(root, "orderdate"),
            opt_float(root, "totalprice"),
            opt_str(root, "priority"),
            opt_str(root, "state"),
            Value::str(source.clone()),
        ];
        let mut lines = Vec::new();
        if let Some(container) = root.first("lines") {
            for line in container.all("line") {
                lines.push(vec![
                    orderkey.clone(),
                    req_int(line, "lineno")?,
                    req_int(line, "prodkey")?,
                    line.child_text("quantity")
                        .and_then(|t| t.trim().parse::<i64>().ok().map(Value::Int))
                        .unwrap_or(Value::Null),
                    opt_float(line, "extendedprice"),
                    opt_float(line, "discount"),
                    Value::str(source.clone()),
                ]);
            }
        }
        Ok(vec![
            TableRows {
                table: ORDER_STAGING_TABLES[0].into(),
                rows: vec![order],
            },
            TableRows {
                table: ORDER_STAGING_TABLES[1].into(),
                rows: lines,
            },
        ])
    })
}

/// Decode a `<euCustomer>` update message into one row of the Europe `cust`
/// table. `loc` is `Some("berlin"|"paris")` for the shared database, `None`
/// for Trondheim (whose schema has no location column).
pub fn europe_customer_row(doc: &Document, loc: Option<&str>) -> Result<Row, String> {
    let root = &doc.root;
    if root.name != "euCustomer" {
        return Err(format!("expected <euCustomer>, got <{}>", root.name));
    }
    let mut row = vec![
        req_int(root, "custkey")?,
        opt_str(root, "name"),
        opt_str(root, "street"),
        opt_str(root, "city"),
        opt_str(root, "nation"),
        opt_str(root, "segment"),
        opt_str(root, "phone"),
        opt_float(root, "acctbal"),
    ];
    if let Some(l) = loc {
        row.push(Value::str(l));
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_services::apps::{self, CustomerData, OrderData, OrderLineData};

    fn order() -> OrderData {
        OrderData {
            orderkey: 100,
            custkey: 7,
            orderdate: "2008-04-07".into(),
            priority: "2-HIGH".into(),
            state: "OPEN".into(),
            totalprice: 123.45,
            lines: vec![OrderLineData {
                lineno: 1,
                prodkey: 3,
                quantity: 2,
                extendedprice: 100.0,
                discount: 0.1,
            }],
        }
    }

    #[test]
    fn vienna_translates_to_canonical() {
        let msg = apps::vienna_order(&order());
        assert!(
            vienna_xsd().is_valid(&msg),
            "{:?}",
            vienna_xsd().validate(&msg)
        );
        let out = stx_vienna_to_cdb().transform(&msg).unwrap();
        assert_eq!(out.root.name, "cdbOrder");
        assert_eq!(out.root.child_text("orderkey").as_deref(), Some("100"));
        assert_eq!(out.root.child_text("priority").as_deref(), Some("HIGH"));
        let batches = cdb_order_decoder("vienna")(&out).unwrap();
        assert_eq!(batches[0].rows.len(), 1);
        assert_eq!(batches[1].rows.len(), 1);
        assert_eq!(batches[1].rows[0][1], Value::Int(1)); // lineno
    }

    #[test]
    fn hongkong_translates_with_asia_vocab() {
        let mut o = order();
        o.priority = "HIGH".into();
        o.state = "NEW".into();
        let msg = apps::hongkong_order(&o);
        let out = stx_hongkong_to_cdb().transform(&msg).unwrap();
        assert_eq!(out.root.name, "cdbOrder");
        assert_eq!(out.root.child_text("state").as_deref(), Some("OPEN"));
        assert!(cdb_order_decoder("hongkong")(&out).is_ok());
    }

    #[test]
    fn san_diego_validation_catches_each_error_kind() {
        let mut o = order();
        o.priority = "2".into();
        o.state = "O".into();
        let xsd = san_diego_xsd();
        let clean = apps::san_diego_order(&o, None);
        assert!(xsd.is_valid(&clean), "{:?}", xsd.validate(&clean));
        for kind in apps::ALL_MESSAGE_ERRORS {
            let bad = apps::san_diego_order(&o, Some(kind));
            assert!(!xsd.is_valid(&bad), "error kind {kind:?} not caught");
        }
    }

    #[test]
    fn san_diego_translates_after_validation() {
        let mut o = order();
        o.priority = "1".into();
        o.state = "P".into();
        let msg = apps::san_diego_order(&o, None);
        let out = stx_san_diego_to_cdb().transform(&msg).unwrap();
        assert_eq!(out.root.name, "cdbOrder");
        assert_eq!(out.root.child_text("priority").as_deref(), Some("URGENT"));
        assert_eq!(out.root.child_text("state").as_deref(), Some("SHIPPED"));
        assert!(out.root.first("sdHeader").is_none());
        let batches = cdb_order_decoder("san_diego")(&out).unwrap();
        let line = &batches[1].rows[0];
        assert_eq!(line[1], Value::Int(1)); // lineno from the `no` attribute
        assert_eq!(line[2], Value::Int(3)); // prodkey
    }

    #[test]
    fn mdm_translates_to_europe_row() {
        let c = CustomerData {
            custkey: 42,
            name: "acme".into(),
            address: "street 1".into(),
            city: "Wien".into(),
            nation: "Austria".into(),
            region: "Europe".into(),
            segment: "AUTO".into(),
            phone: "+43".into(),
            acctbal: 9.5,
        };
        let msg = apps::mdm_customer(&c);
        let out = stx_mdm_to_europe().transform(&msg).unwrap();
        assert_eq!(out.root.name, "euCustomer");
        let row = europe_customer_row(&out, Some("berlin")).unwrap();
        assert_eq!(row[0], Value::Int(42));
        assert_eq!(row[3], Value::str("Wien"));
        assert_eq!(row[8], Value::str("berlin"));
        let row = europe_customer_row(&out, None).unwrap();
        assert_eq!(row.len(), 8);
    }

    #[test]
    fn beijing_to_seoul_master_data() {
        let c = CustomerData {
            custkey: 1_100_001,
            name: "kim".into(),
            address: String::new(),
            city: "Seoul".into(),
            nation: "Korea".into(),
            region: "Asia".into(),
            segment: "AUTO".into(),
            phone: "+82".into(),
            acctbal: 1.0,
        };
        let p = apps::PartData {
            prodkey: 1_100_002,
            name: "bolt".into(),
            group: "Bolts".into(),
            line: "HW".into(),
            price: 0.5,
        };
        let msg = apps::beijing_master_data(&[c], &[p]);
        assert!(beijing_master_xsd().is_valid(&msg));
        let out = stx_beijing_to_seoul().transform(&msg).unwrap();
        assert_eq!(out.root.name, "seoulMasterData");
        let cust = out
            .root
            .first("sCustomers")
            .unwrap()
            .first("sCustomer")
            .unwrap();
        assert_eq!(cust.child_text("sKey").as_deref(), Some("1100001"));
        assert_eq!(cust.child_text("sCity").as_deref(), Some("Seoul"));
    }

    /// An order date whose day number leaves `i32` is malformed text like
    /// any other: the decoder stores NULL. It used to overflow inside
    /// `days_from_civil` — a panic in a debug build, a wrong date in a
    /// release build.
    #[test]
    fn decoder_stores_null_for_a_date_beyond_the_day_range() {
        let msg = Document::new(
            Element::new("cdbOrder")
                .child(Element::leaf("orderkey", "100"))
                .child(Element::leaf("custkey", "7"))
                .child(Element::leaf("orderdate", "99999999-01-01")),
        );
        let batches = cdb_order_decoder("vienna")(&msg).unwrap();
        assert_eq!(batches[0].rows[0][0], Value::Int(100));
        assert!(batches[0].rows[0][2].is_null());
    }

    #[test]
    fn decoder_rejects_garbage() {
        let bad = Document::new(Element::new("junk"));
        assert!(cdb_order_decoder("x")(&bad).is_err());
        let no_key = Document::new(Element::new("cdbOrder"));
        assert!(cdb_order_decoder("x")(&no_key).is_err());
        assert!(europe_customer_row(&bad, None).is_err());
    }
}
