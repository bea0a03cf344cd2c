//! The fused result-set decode — a stylesheet run straight into a
//! [`RowSink`], what the MTM engine runs for a `TRANSLATE` whose output
//! only the next `XML_TO_REL` reads — against the tree path it replaces,
//! `decode(&stylesheet.transform(doc)?)`: the same relation, or the same
//! error (variant and text) with the translation's first, on generated
//! stylesheets and result sets.

mod support;

use dip_relstore::prelude::*;
use dip_services::resultset::encode;
use dip_xmlkit::node::{Document, Element, XmlNode};
use dip_xmlkit::stx::{Rule, Stylesheet};
use dip_xmlkit::{parse, XmlError};
use proptest::prelude::*;
use support::{arb_rules, pick, Outcome, Pools};

/// Element names a generated document uses and a generated rule aims at:
/// the two the decoder looks for, the schema's columns in mixed case, an
/// unknown field.
const NAMES: [&str; 9] = ["resultSet", "row", "k", "K", "v", "D", "f", "note", "x"];
/// Field text: values each column type reads, values none reads, blanks.
const TEXTS: [&str; 10] = [
    "1",
    " 42 ",
    "-7",
    "NaNaN",
    "abc",
    "",
    "2008-04-07",
    "2008-13-40",
    "1.5",
    "true",
];
const ATTRS: [&str; 4] = ["source", "table", "k", "v"];

fn schema() -> SchemaRef {
    RelSchema::of(&[
        ("k", SqlType::Int),
        ("v", SqlType::Str),
        ("d", SqlType::Date),
        ("f", SqlType::Float),
    ])
    .shared()
}

fn paths_agree(sheet: &Stylesheet, doc: &Document) -> Outcome {
    let one = support::fused(sheet, doc, &schema());
    assert_eq!(
        one,
        support::tree(sheet, doc, &schema()),
        "stylesheet {sheet:?}\ndocument {doc:?}"
    );
    one
}

/// One child of a row: `(kind, name pick, text pick)` — a field with its
/// text, the same with an element nested in it and the text split around
/// it, or text between fields.
type FieldSpec = (usize, usize, usize);
/// One child of the root: `(kind, attribute text pick, fields)` — a row
/// (with an attribute when the pick says so), text between rows, or
/// another element.
type ItemSpec = (usize, usize, Vec<FieldSpec>);

fn arb_document() -> impl Strategy<Value = (usize, Vec<ItemSpec>)> {
    let field = (0usize..6, 0usize..1000, 0usize..1000);
    let item = (0usize..8, 0usize..1000, prop::collection::vec(field, 0..5));
    (0usize..8, prop::collection::vec(item, 0..6))
}

fn document((root, items): &(usize, Vec<ItemSpec>)) -> Document {
    // mostly the right root
    let name = [
        "resultSet",
        "resultSet",
        "resultSet",
        "resultSet",
        "ResultSet",
        "row",
    ];
    let mut root = Element::new(pick(&name, *root))
        .attr("source", "beijing")
        .attr("table", "t");
    for (kind, attr, fields) in items {
        root.children.push(match kind {
            0 => XmlNode::Text(" \n ".into()),
            1 => XmlNode::Text("stray".into()),
            2 => XmlNode::Element(Element::leaf(pick(&NAMES, *attr), pick(&TEXTS, *attr))),
            _ => {
                let mut row = Element::new("row");
                if attr % 2 == 0 {
                    row = row.attr(pick(&ATTRS, *attr / 2), pick(&TEXTS, *attr / 8));
                }
                for &(kind, name, text) in fields {
                    let (name, text) = (pick(&NAMES, name), pick(&TEXTS, text));
                    row.children.push(match kind {
                        0 => XmlNode::Text("between".into()),
                        1 => XmlNode::Element(Element {
                            name: name.into(),
                            attrs: vec![],
                            children: vec![
                                XmlNode::Text(text.into()),
                                XmlNode::Element(Element::leaf("x", "9")),
                                XmlNode::Text(text.into()),
                            ],
                        }),
                        _ => XmlNode::Element(Element::leaf(name, text)),
                    });
                }
                XmlNode::Element(row)
            }
        });
    }
    Document::new(root)
}

/// Generated stylesheets aim at the names a generated document uses.
fn stylesheet(specs: &[support::RuleSpec]) -> Stylesheet {
    let pools = Pools {
        names: &NAMES,
        texts: &TEXTS,
        attrs: &ATTRS,
    };
    support::stylesheet(specs, &pools)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn fused_decode_equals_tree_decode(doc in arb_document(), rules in arb_rules()) {
        paths_agree(&stylesheet(&rules), &document(&doc));
    }
}

/// The outcomes the generator reaches, pinned so that none depends on the
/// seed: both paths agree on each, and on the outcome named here.
#[test]
fn fused_decode_equals_tree_decode_on_every_outcome() {
    let sheet = |rules: Vec<Rule>| Stylesheet::new("s", rules);
    let translate = |m: &str| Outcome::Translate(XmlError::Transform(m.into()));
    let doc = |text: &str| parse(text).unwrap();
    let rs = doc(
        "<resultSet source=\"s\" table=\"t\">\n <row><K>1</K><v>a</v><x>?</x></row>\n \
         <row k=\"3\"><k>2<x>9</x></k><d>2008-04-07</d></row></resultSet>",
    );

    let identity = Stylesheet::identity("id");
    let Outcome::Rows(rel) = paths_agree(&identity, &rs) else {
        panic!("the identity decodes");
    };
    assert_eq!(rel.rows[0][..2], [Value::Int(1), Value::str("a")]);
    assert_eq!(rel.rows[1][0], Value::Int(2), "nested element skipped");
    // attributes to elements: the row's `k` attribute leads, its field wins
    let attrs = sheet(vec![Rule::for_name("row").attrs_to_elements().build()]);
    assert!(matches!(paths_agree(&attrs, &rs), Outcome::Rows(r) if r.rows[1][0] == Value::Int(2)));

    // the root dropped, the root unwrapped over two rows or over text
    let drop_root = sheet(vec![Rule::for_name("resultSet").drop().build()]);
    assert_eq!(
        paths_agree(&drop_root, &rs),
        translate("empty event stream")
    );
    let unwrap_root = sheet(vec![Rule::for_name("resultSet").unwrap_element().build()]);
    assert_eq!(
        paths_agree(&unwrap_root, &rs),
        translate("multiple root elements")
    );
    let stray = doc("<resultSet><row/>stray</resultSet>");
    assert_eq!(
        paths_agree(&unwrap_root, &stray),
        translate("text outside root element")
    );
    // one row left: its fields are not rows, and it is the wrong root
    let one = doc("<resultSet><row><k>1</k></row></resultSet>");
    let wrong_root = Outcome::Decode(StoreError::Invalid(
        "expected <resultSet>, got <row>".into(),
    ));
    assert_eq!(paths_agree(&unwrap_root, &one), wrong_root);
    // a wrong root, then a second root: the translation's error first
    let renamed = sheet(vec![
        Rule::for_name("resultSet").unwrap_element().build(),
        Rule::for_name("row").rename("rows").build(),
    ]);
    assert_eq!(
        paths_agree(&renamed, &rs),
        translate("multiple root elements")
    );

    // rows dropped or unwrapped: no rows, or fields straight under the root
    for rule in [
        Rule::for_name("row").drop(),
        Rule::for_name("row").unwrap_element(),
    ] {
        let Outcome::Rows(rel) = paths_agree(&sheet(vec![rule.build()]), &rs) else {
            panic!("still a result set");
        };
        assert!(rel.rows.is_empty());
    }

    // a bad value: the first in document order, after a translation
    let bad = sheet(vec![Rule::for_name("v").rename("k").build()]);
    let Outcome::Decode(StoreError::SchemaMismatch(m)) = paths_agree(&bad, &rs) else {
        panic!("`a` is no INT");
    };
    assert!(m.starts_with("cannot read \"a\" as"), "{m}");

    // an encoded relation comes back as it went
    let rel = Relation::new(
        schema(),
        vec![[Value::Int(5), Value::Null, Value::Null, Value::Float(0.5)].into()],
    );
    assert_eq!(
        paths_agree(&identity, &encode("s", "t", &rel)),
        Outcome::Rows(rel)
    );
}
