//! "Proprietary XML functions" — the federated DBMS's XML path.
//!
//! The paper observes about its System A: "the concurrent processes are
//! realized using proprietary XML functionalities, which are apparently
//! not included in the optimizer" — while the relational operators "could
//! be well-optimized". This module models that asymmetry *honestly*: the
//! functions below produce exactly the same results as `dip-xmlkit`'s
//! streaming implementations, but do strictly more real work, the way a
//! CLOB-based SQL/XML function stack does — every call crosses a
//! serialize/parse boundary (XML values live as CLOBs in queue tables and
//! temp tables), transformations run over materialized DOM trees instead
//! of event streams, and nothing is cached between calls.
//!
//! [`transform`] is therefore the production caller of the *materializing*
//! STX driver (`sax::events` → `Stylesheet::transform_events` →
//! `sax::build`: two event vectors between three trees), while the MTM
//! engine's `TRANSLATE` runs the one-pass `Stylesheet::transform`. Same
//! rule engine, same result, different amount of buffering — which is the
//! asymmetry this module exists to model, and it keeps the fed / ivm
//! benchmark workloads a control for changes to the one-pass path.

use dip_xmlkit::node::Document;
use dip_xmlkit::path::Path;
use dip_xmlkit::sax::{build, events};
use dip_xmlkit::stx::Stylesheet;
use dip_xmlkit::xsd::{ValidationIssue, XsdSchema};
use dip_xmlkit::{parse, write_compact, XmlResult};

/// Round-trip a document through its CLOB representation (what happens
/// every time a value leaves or enters an XML function).
fn clob_roundtrip(doc: &Document) -> XmlResult<Document> {
    parse(&write_compact(doc))
}

/// Transform through the stylesheet the way an unoptimized XML function
/// stack does: CLOB in → DOM → events → transform → DOM → CLOB out, with
/// the engine re-checking its own output by re-parsing it.
pub fn transform(doc: &Document, stylesheet: &Stylesheet) -> XmlResult<Document> {
    let materialized = clob_roundtrip(doc)?;
    let transformed = build(stylesheet.transform_events(&events(&materialized))?)?;
    // the function returns a CLOB; the consumer parses it again
    clob_roundtrip(&transformed)
}

/// Validate through the CLOB boundary; the DOM is walked twice (once for
/// materialization statistics, once for validation), as engines without a
/// validating parser do.
pub fn validate(doc: &Document, xsd: &XsdSchema) -> XmlResult<Vec<ValidationIssue>> {
    let materialized = clob_roundtrip(doc)?;
    // statistics walk (the engine sizes its CLOB buffers)
    let _nodes = materialized.root.subtree_size();
    let _depth = materialized.root.depth();
    Ok(xsd.validate(&materialized))
}

/// Extract a single value by path expression — recompiled on every call
/// (no prepared-path cache) and evaluated over a freshly materialized DOM.
pub fn extract(doc: &Document, path_expr: &str) -> XmlResult<Option<String>> {
    let materialized = clob_roundtrip(doc)?;
    let path = Path::compile(path_expr)?;
    Ok(path.value(&materialized.root))
}

/// Serialize for storage in a queue or temp table.
pub fn to_clob(doc: &Document) -> String {
    write_compact(doc)
}

/// Parse from queue/temp-table storage.
pub fn from_clob(clob: &str) -> XmlResult<Document> {
    parse(clob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_xmlkit::stx::Rule;

    #[test]
    fn transform_matches_streaming_result() {
        let sheet = Stylesheet::new("s", vec![Rule::for_name("a").rename("b").build()]);
        let doc = parse("<a><x>1</x></a>").unwrap();
        let naive = transform(&doc, &sheet).unwrap();
        let streaming = sheet.transform(&doc).unwrap();
        assert_eq!(naive, streaming);
    }

    /// Each of the seven benchmark stylesheets, over 50 generated messages
    /// or result sets of its source type: the one-pass driver, the
    /// materializing pipeline and this module's CLOB-bound [`transform`]
    /// serialize to the same bytes. (It lives here because this is the
    /// lowest crate that sees the message generators and all three paths.)
    #[test]
    fn seven_stylesheets_agree_through_every_driver() {
        use dip_relstore::prelude::Relation;
        use dipbench::prelude::{BenchConfig, BenchEnvironment, Distribution, ScaleFactors};
        use dipbench::schema::{asia, messages};

        let scale = ScaleFactors::new(0.1, 1.0, Distribution::Uniform);
        let env = BenchEnvironment::new(BenchConfig::new(scale)).unwrap();
        env.initialize_sources(0).unwrap();
        let gen = &env.generator;
        // 50 result sets per service: every 13th row of each of its four
        // tables, from 13 (12 for two of them) different offsets
        let result_sets = |service: &str| -> Vec<Document> {
            let db = env.db(&format!("{service}_db"));
            (0..50usize)
                .map(|i| {
                    let table = ["customers", "parts", "orders", "orderlines"][i % 4];
                    let all = db.table(table).unwrap().scan();
                    let rows = all.rows.iter().skip(i / 4).step_by(13).cloned().collect();
                    let sample = Relation::new(all.schema.clone(), rows);
                    dip_services::resultset::encode(service, table, &sample)
                })
                .collect()
        };
        let messages_of = |make: &dyn Fn(u32) -> Document| (0..50).map(make).collect::<Vec<_>>();
        let cases = [
            (
                messages::stx_beijing_to_seoul(),
                messages_of(&|m| gen.beijing_master_message(0, m)),
            ),
            (
                messages::stx_mdm_to_europe(),
                messages_of(&|m| gen.mdm_message(0, m)),
            ),
            (
                messages::stx_vienna_to_cdb(),
                messages_of(&|m| gen.vienna_message(0, m)),
            ),
            (
                messages::stx_hongkong_to_cdb(),
                messages_of(&|m| gen.hongkong_message(0, m)),
            ),
            (
                messages::stx_san_diego_to_cdb(),
                messages_of(&|m| gen.san_diego_message(0, m).0),
            ),
            (
                messages::stx_beijing_rs_to_canon(),
                result_sets(asia::BEIJING),
            ),
            (messages::stx_seoul_rs_to_canon(), result_sets(asia::SEOUL)),
        ];
        for (sheet, docs) in &cases {
            let mut translated = 0;
            for doc in docs {
                let one_pass = write_compact(&sheet.transform(doc).unwrap());
                let materializing =
                    write_compact(&build(sheet.transform_events(&events(doc)).unwrap()).unwrap());
                assert_eq!(one_pass, materializing, "{}", sheet.name);
                // The CLOB-bound stack sees the message as it arrives: a
                // generated empty value is an empty text node in memory
                // and `<x/>` after any serialize / parse boundary.
                let arrived = from_clob(&to_clob(doc)).unwrap();
                assert_eq!(
                    write_compact(&sheet.transform(&arrived).unwrap()),
                    to_clob(&transform(doc, sheet).unwrap()),
                    "{}",
                    sheet.name
                );
                translated += usize::from(one_pass != write_compact(doc));
            }
            // the inputs are of the stylesheet's source type: its rules hit
            assert_eq!(translated, 50, "{}", sheet.name);
        }
    }

    #[test]
    fn validate_matches_direct_validation() {
        use dip_xmlkit::value_types::SimpleType;
        use dip_xmlkit::xsd::XsdElement;
        let xsd = XsdSchema::new(
            "t",
            XsdElement::sequence("r", vec![XsdElement::simple("x", SimpleType::Int).once()]),
        );
        let ok = parse("<r><x>5</x></r>").unwrap();
        let bad = parse("<r><x>five</x></r>").unwrap();
        assert!(validate(&ok, &xsd).unwrap().is_empty());
        assert_eq!(validate(&bad, &xsd).unwrap(), xsd.validate(&bad));
    }

    #[test]
    fn extract_and_clob_roundtrip() {
        let doc = parse("<m><k>42</k></m>").unwrap();
        assert_eq!(extract(&doc, "m/k").unwrap().as_deref(), Some("42"));
        assert_eq!(from_clob(&to_clob(&doc)).unwrap(), doc);
    }
}
