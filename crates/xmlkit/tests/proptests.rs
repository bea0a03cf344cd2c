//! Property-based tests of the XML stack: serializer/parser round trips,
//! SAX stream invariants, STX identity behaviour on arbitrary trees, the
//! equivalence of the two STX drivers under generated stylesheets, and
//! hostile (truncated / mutated) input.

use dip_xmlkit::node::{Document, Element, XmlNode};
use dip_xmlkit::sax::{build, events};
use dip_xmlkit::stx::{Action, Match, Rule, Stylesheet};
use dip_xmlkit::value_types::SimpleType;
use dip_xmlkit::xsd::{XsdAttr, XsdElement, XsdSchema};
use dip_xmlkit::{compact_len, parse, write_compact, write_pretty, XmlError, XmlResult};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_.-]{0,8}"
}

/// Text that is not whitespace-only (the parser drops whitespace runs
/// between elements by design).
fn arb_text() -> impl Strategy<Value = String> {
    "[ -~]{1,20}".prop_filter("not whitespace-only", |s| !s.trim().is_empty())
}

fn arb_element(depth: u32) -> BoxedStrategy<Element> {
    let leaf = (
        arb_name(),
        prop::collection::vec((arb_name(), "[ -~]{0,10}"), 0..3),
    )
        .prop_map(|(name, attrs)| {
            let mut e = Element::new(name);
            for (n, v) in attrs {
                // attribute names must be unique per element
                if e.attribute(&n).is_none() {
                    e.attrs.push((n, v));
                }
            }
            e
        });
    if depth == 0 {
        return leaf.boxed();
    }
    (
        leaf,
        prop::collection::vec(
            prop_oneof![
                arb_element(depth - 1).prop_map(XmlNode::Element),
                arb_text().prop_map(XmlNode::Text),
            ],
            0..4,
        ),
    )
        .prop_map(|(mut e, children)| {
            // merge adjacent text nodes the way the parser would
            for c in children {
                match c {
                    XmlNode::Text(t) => {
                        if let Some(XmlNode::Text(prev)) = e.children.last_mut() {
                            prev.push_str(&t);
                        } else {
                            e.children.push(XmlNode::Text(t));
                        }
                    }
                    el => e.children.push(el),
                }
            }
            e
        })
        .boxed()
}

/// Strip text nodes that the parser would not preserve (whitespace-only
/// runs between elements).
fn normalize(e: &Element) -> Element {
    let mut out = Element::new(e.name.clone());
    out.attrs = e.attrs.clone();
    for c in &e.children {
        match c {
            XmlNode::Element(child) => out.children.push(XmlNode::Element(normalize(child))),
            XmlNode::Text(t) => {
                if !t.trim().is_empty() {
                    out.children.push(XmlNode::Text(t.clone()));
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// write → parse round-trips any generated tree (modulo dropped
    /// whitespace-only text).
    #[test]
    fn compact_roundtrip(root in arb_element(3)) {
        let doc = Document::new(normalize(&root));
        let text = write_compact(&doc);
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, doc);
    }

    /// The pretty printer parses back to the same tree.
    #[test]
    fn pretty_roundtrip(root in arb_element(3)) {
        let doc = Document::new(normalize(&root));
        let text = write_pretty(&doc);
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, doc);
    }

    /// SAX events ↔ tree is lossless and the event stream is balanced.
    #[test]
    fn sax_roundtrip(root in arb_element(3)) {
        let doc = Document::new(normalize(&root));
        let evs = events(&doc);
        // balanced: equal numbers of start and end events
        let starts = evs.iter().filter(|e| matches!(e, dip_xmlkit::sax::SaxEvent::StartElement { .. })).count();
        let ends = evs.iter().filter(|e| matches!(e, dip_xmlkit::sax::SaxEvent::EndElement { .. })).count();
        prop_assert_eq!(starts, ends);
        prop_assert_eq!(build(evs).unwrap(), doc);
    }

    /// The identity stylesheet is the identity function.
    #[test]
    fn stx_identity(root in arb_element(3)) {
        let doc = Document::new(normalize(&root));
        let out = Stylesheet::identity("id").transform(&doc).unwrap();
        prop_assert_eq!(out, doc);
    }

    /// Renaming a name to itself is also the identity.
    #[test]
    fn stx_self_rename(root in arb_element(3)) {
        let doc = Document::new(normalize(&root));
        let name = doc.root.name.clone();
        let sheet = Stylesheet::new("r", vec![Rule::for_name(name.clone()).rename(name).build()]);
        let out = sheet.transform(&doc).unwrap();
        prop_assert_eq!(out, doc);
    }

    /// A rename rule never changes the number of nodes, and a drop rule
    /// never increases it.
    #[test]
    fn stx_rules_preserve_or_shrink(root in arb_element(3), target in arb_name()) {
        let doc = Document::new(normalize(&root));
        let before = doc.root.subtree_size();
        let rename = Stylesheet::new("rn", vec![Rule::for_name(target.clone()).rename("renamed_x").build()]);
        let renamed = rename.transform(&doc).unwrap();
        prop_assert_eq!(renamed.root.subtree_size(), before);
        if doc.root.name != target {
            let drop = Stylesheet::new("dr", vec![Rule::for_name(target).drop().build()]);
            let dropped = drop.transform(&doc).unwrap();
            prop_assert!(dropped.root.subtree_size() <= before);
        }
    }

    /// Parsing arbitrary bytes never panics (it may error).
    #[test]
    fn parser_never_panics(input in "[ -~<>&;]{0,60}") {
        let _ = parse(&input);
    }
}

// ---------------------------------------------------------------------------
// The two STX drivers are one function
// ---------------------------------------------------------------------------

/// An action whose names are still *picks* (indices, resolved modulo the
/// pool size) into the name pools of the tree it will run on, so generated
/// rules hit generated trees without a dependent strategy.
#[derive(Debug, Clone)]
enum ActionSpec {
    Rename(String),
    Drop,
    Unwrap,
    MapText { text: usize, to: String },
    RenameAttr { attr: usize, to: String },
    DropAttr { attr: usize },
    SetAttr { attr: usize, value: String },
    AttrsToElements,
}

/// `(path suffix instead of name, element pick, actions)`.
type RuleSpec = (bool, usize, Vec<ActionSpec>);

fn arb_action() -> impl Strategy<Value = ActionSpec> {
    let pick = || 0usize..1000;
    prop_oneof![
        arb_name().prop_map(ActionSpec::Rename),
        Just(ActionSpec::Drop),
        Just(ActionSpec::Unwrap),
        (pick(), arb_text()).prop_map(|(text, to)| ActionSpec::MapText { text, to }),
        (pick(), arb_name()).prop_map(|(attr, to)| ActionSpec::RenameAttr { attr, to }),
        pick().prop_map(|attr| ActionSpec::DropAttr { attr }),
        (pick(), "[ -~]{0,10}").prop_map(|(attr, value)| ActionSpec::SetAttr { attr, value }),
        Just(ActionSpec::AttrsToElements),
    ]
}

fn arb_rules() -> impl Strategy<Value = Vec<RuleSpec>> {
    prop::collection::vec(
        (
            any::<bool>(),
            0usize..1000,
            prop::collection::vec(arb_action(), 1..4),
        ),
        1..7,
    )
}

/// What a tree offers a rule to aim at: every element as `(parent name,
/// name)` in document order (the root first), attribute names, text runs.
#[derive(Default)]
struct Pools {
    elements: Vec<(Option<String>, String)>,
    attrs: Vec<String>,
    texts: Vec<String>,
}

impl Pools {
    fn of(doc: &Document) -> Pools {
        let mut pools = Pools::default();
        pools.collect(None, &doc.root);
        // a tree without attributes or text still resolves every pick
        pools.attrs.push("absent".into());
        pools.texts.push("absent".into());
        pools
    }

    fn collect(&mut self, parent: Option<&str>, e: &Element) {
        self.elements
            .push((parent.map(str::to_string), e.name.clone()));
        self.attrs.extend(e.attrs.iter().map(|(n, _)| n.clone()));
        for c in &e.children {
            match c {
                XmlNode::Element(child) => self.collect(Some(&e.name), child),
                XmlNode::Text(t) => self.texts.push(t.trim().to_string()),
            }
        }
    }

    fn stylesheet(&self, specs: &[RuleSpec]) -> Stylesheet {
        let attr = |i: &usize| self.attrs[i % self.attrs.len()].clone();
        let rules = specs
            .iter()
            .map(|(by_path, pick, actions)| {
                let (parent, name) = &self.elements[pick % self.elements.len()];
                let matcher = match (by_path, parent) {
                    (true, Some(parent)) => Match::PathSuffix(vec![parent.clone(), name.clone()]),
                    (true, None) => Match::PathSuffix(vec![name.clone()]),
                    (false, _) => Match::Name(name.clone()),
                };
                let actions = actions
                    .iter()
                    .map(|a| match a {
                        ActionSpec::Rename(to) => Action::Rename(to.clone()),
                        ActionSpec::Drop => Action::Drop,
                        ActionSpec::Unwrap => Action::Unwrap,
                        ActionSpec::MapText { text, to } => Action::MapText(HashMap::from([(
                            self.texts[text % self.texts.len()].clone(),
                            to.clone(),
                        )])),
                        ActionSpec::RenameAttr { attr: a, to } => Action::RenameAttr {
                            from: attr(a),
                            to: to.clone(),
                        },
                        ActionSpec::DropAttr { attr: a } => Action::DropAttr(attr(a)),
                        ActionSpec::SetAttr { attr: a, value } => Action::SetAttr {
                            name: attr(a),
                            value: value.clone(),
                        },
                        ActionSpec::AttrsToElements => Action::AttrsToElements,
                    })
                    .collect();
                Rule { matcher, actions }
            })
            .collect();
        Stylesheet::new("generated", rules)
    }
}

/// The one-pass driver against its oracle, the materializing pipeline —
/// compared as `Result`s: same tree or same error.
fn drivers_agree(sheet: &Stylesheet, doc: &Document) -> XmlResult<Document> {
    let one_pass = sheet.transform(doc);
    let materializing = sheet.transform_events(&events(doc)).and_then(build);
    assert_eq!(one_pass, materializing, "stylesheet {sheet:?}");
    one_pass
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn stx_drivers_agree(root in arb_element(3), specs in arb_rules()) {
        let doc = Document::new(normalize(&root));
        let sheet = Pools::of(&doc).stylesheet(&specs);
        let _ = drivers_agree(&sheet, &doc);
    }
}

/// The corner outcomes of the fold, pinned so that none depends on the
/// seed (the generator above reaches the three errors often, the merged
/// text run rarely): both drivers agree on each, and on the outcome named
/// here.
#[test]
fn stx_drivers_agree_on_corner_outcomes() {
    let transform_err = |m: &str| Err(XmlError::Transform(m.into()));
    let doc = |text: &str| parse(text).unwrap();

    let drop_root = Stylesheet::new("s", vec![Rule::for_name("r").drop().build()]);
    assert_eq!(
        drivers_agree(&drop_root, &doc("<r><a/>t</r>")),
        transform_err("empty event stream")
    );

    let unwrap_root = Stylesheet::new("s", vec![Rule::for_name("r").unwrap_element().build()]);
    assert_eq!(
        drivers_agree(&unwrap_root, &doc("<r><a/><b/><c/></r>")),
        transform_err("multiple root elements")
    );
    assert_eq!(
        drivers_agree(&unwrap_root, &doc("<r><a/>stray</r>")),
        transform_err("text outside root element")
    );
    // one child left: unwrapping the root is legal
    assert_eq!(
        drivers_agree(&unwrap_root, &doc("<r><a>1</a></r>")),
        Ok(doc("<a>1</a>"))
    );

    let drop_mid = Stylesheet::new("s", vec![Rule::for_path(&["r", "x"]).drop().build()]);
    let merged = drivers_agree(&drop_mid, &doc("<r>left <x>gone</x>right</r>")).unwrap();
    assert_eq!(
        merged.root.children,
        vec![XmlNode::Text("left right".into())]
    );
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

/// Stand-ins for the benchmark's three message families — a Vienna order
/// (deep, element-only), a San Diego order (attributes, a dropped header)
/// and a generic result set — each with a stylesheet and a schema of the
/// real ones' shape (`dipbench::schema::messages`, which this crate cannot
/// see). `n` varies sizes and values.
fn message_families(n: u32) -> Vec<(Document, Stylesheet, XsdSchema)> {
    let lines = 1 + n % 3;
    let leaf = |name: &str, v: String| Element::leaf(name, v);

    let mut positions = Element::new("positions");
    let mut sd_lines = Element::new("sdLines");
    let mut result_set = Element::new("resultSet")
        .attr("source", "seoul")
        .attr("table", "orders");
    for l in 1..=lines {
        positions = positions.child(
            Element::new("position")
                .child(leaf("lineNo", l.to_string()))
                .child(leaf("prodKey", (110_000 + n + l).to_string()))
                .child(leaf("extendedPrice", format!("{}.50", 10 * l))),
        );
        sd_lines = sd_lines.child(
            Element::new("sdLine")
                .attr("no", l.to_string())
                .child(leaf("pkey", (2_010_000 + n + l).to_string()))
                .child(leaf("disc", format!("0.0{l}"))),
        );
        result_set = result_set.child(
            Element::new("row")
                .child(leaf("s_okey", (3_000_000 + n + l).to_string()))
                .child(leaf("s_oprio", ["HIGH", "LOW"][(l % 2) as usize].into()))
                .child(leaf("s_ototal", format!("{}.25", 100 + n))),
        );
    }

    let vienna = Element::new("viennaOrder")
        .child(
            Element::new("orderHeader")
                .child(leaf("orderKey", (1_000_000 + n).to_string()))
                .child(leaf("orderDate", format!("2008-04-{:02}", 1 + n % 28)))
                .child(leaf(
                    "priority",
                    ["1-URGENT", "2-HIGH"][(n % 2) as usize].into(),
                )),
        )
        .child(Element::new("customerRef").child(leaf("custKey", (100_000 + n).to_string())))
        .child(positions);
    let vienna_stx = Stylesheet::new(
        "vienna_like",
        vec![
            Rule::for_name("viennaOrder").rename("cdbOrder").build(),
            Rule::for_name("orderHeader").unwrap_element().build(),
            Rule::for_name("customerRef").unwrap_element().build(),
            Rule::for_name("priority")
                .map_text(&[("1-URGENT", "URGENT"), ("2-HIGH", "HIGH")])
                .build(),
            Rule::for_path(&["position", "lineNo"])
                .rename("lineno")
                .build(),
        ],
    );
    let vienna_xsd = XsdSchema::new(
        "vienna_like",
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
                            SimpleType::Enum(vec!["1-URGENT".into(), "2-HIGH".into()]),
                        )
                        .once(),
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
    );

    let san_diego = Element::new("sdMessage")
        .child(Element::new("sdHeader").child(leaf("msgKey", format!("SD-{n}"))))
        .child(
            Element::new("sdOrder")
                .child(leaf("okey", (2_000_000 + n).to_string()))
                .child(leaf("total", format!("{}.00", 50 + n))),
        )
        .child(sd_lines);
    let san_diego_stx = Stylesheet::new(
        "san_diego_like",
        vec![
            Rule::for_name("sdMessage").rename("cdbOrder").build(),
            Rule::for_name("sdHeader").drop().build(),
            Rule::for_name("sdOrder").unwrap_element().build(),
            Rule::for_name("sdLine")
                .rename("line")
                .rename_attr("no", "lineno")
                .attrs_to_elements()
                .build(),
        ],
    );
    let san_diego_xsd = XsdSchema::new(
        "san_diego_like",
        XsdElement::sequence(
            "sdMessage",
            vec![
                XsdElement::sequence(
                    "sdHeader",
                    vec![XsdElement::simple("msgKey", SimpleType::String).once()],
                )
                .once(),
                XsdElement::sequence(
                    "sdOrder",
                    vec![
                        XsdElement::simple("okey", SimpleType::Int).once(),
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
                            XsdElement::simple("disc", SimpleType::Decimal).once(),
                        ],
                    )
                    .with_attr(XsdAttr::required("no", SimpleType::Int))
                    .many()],
                )
                .once(),
            ],
        ),
    );

    let result_set_stx = Stylesheet::new(
        "result_set_like",
        vec![
            Rule::for_name("s_okey").rename("orderkey").build(),
            Rule::for_name("s_oprio")
                .rename("priority")
                .map_text(&[("HIGH", "2-HIGH"), ("LOW", "5-LOW")])
                .build(),
            Rule::for_name("s_ototal").rename("totalprice").build(),
        ],
    );
    let result_set_xsd = XsdSchema::new(
        "result_set_like",
        XsdElement::sequence(
            "resultSet",
            vec![XsdElement::sequence(
                "row",
                vec![
                    XsdElement::simple("s_okey", SimpleType::Int).once(),
                    XsdElement::simple("s_oprio", SimpleType::String).optional(),
                    XsdElement::simple("s_ototal", SimpleType::Decimal).optional(),
                ],
            )
            .many()],
        )
        .with_attr(XsdAttr::required("source", SimpleType::String))
        .with_attr(XsdAttr::required("table", SimpleType::String)),
    );

    vec![
        (Document::new(vienna), vienna_stx, vienna_xsd),
        (Document::new(san_diego), san_diego_stx, san_diego_xsd),
        (Document::new(result_set), result_set_stx, result_set_xsd),
    ]
}

/// Everything the engines do with a message that parsed. Any of it may
/// report an error; none of it may unwind.
fn exercise(text: &str, sheet: &Stylesheet, xsd: &XsdSchema) {
    if let Ok(doc) = parse(text) {
        let _ = sheet.transform(&doc);
        let _ = xsd.validate(&doc);
        assert_eq!(write_compact(&doc).len(), compact_len(&doc));
    }
}

/// Every truncation and 64 seeded single-byte mutations of each message
/// come back as a value or an `XmlError`.
#[test]
fn mutated_xml_never_panics() {
    for n in 0..3u32 {
        for (doc, sheet, xsd) in message_families(n) {
            assert!(xsd.is_valid(&doc), "{:?}", xsd.validate(&doc));
            let text = write_compact(&doc);
            assert!(text.is_ascii());
            for cut in 0..=text.len() {
                exercise(&text[..cut], &sheet, &xsd);
            }
            // xorshift, seeded per message
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (u64::from(n) << 32 | text.len() as u64);
            for _ in 0..64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let mut bytes = text.clone().into_bytes();
                let at = (state >> 16) as usize % bytes.len();
                // biased towards the bytes XML gives meaning to
                const MARKUP: &[u8] = b"<>&\"'/=;#![]?-";
                bytes[at] = match state % 4 {
                    0 => MARKUP[(state >> 8) as usize % MARKUP.len()],
                    _ => (state >> 8) as u8,
                };
                exercise(&String::from_utf8_lossy(&bytes), &sheet, &xsd);
            }
        }
    }
}
