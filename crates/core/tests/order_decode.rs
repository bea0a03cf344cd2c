//! The order decoder — one SAX handler, `messages::cdb_order_decoder` —
//! against the tree decoder it replaced, kept here as the oracle: on
//! generated canonical orders and mutations of them (a field missing,
//! duplicated, non-numeric or padded with whitespace, an element nested in
//! a field, a second `<lines>`, text directly in a `<line>`, a wrong root,
//! fields out of order, stray elements), the tree form
//! (`messages::decode_order`) and each order stylesheet run straight into
//! the decoder (`Stylesheet::transform_into`, what the MTM engine runs for
//! a fused `TRANSLATE` → `DB_LOAD_XML`) give the oracle's rows or its error
//! text — the first failure in the oracle's order. A stream the stylesheet
//! gets wrong fails with the tree builder's error and text.

use dip_mtm::process::TableRows;
use dip_relstore::prelude::*;
use dip_xmlkit::node::{Document, Element, XmlNode};
use dip_xmlkit::stx::{Rule, Stylesheet};
use dip_xmlkit::XmlError;
use dipbench::schema::messages;
use proptest::prelude::*;
use std::sync::Arc;

// ---- the oracle: the tree decoder as it was

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

fn oracle(source: &str, doc: &Document) -> Result<Vec<TableRows>, String> {
    let root = &doc.root;
    if root.name != "cdbOrder" {
        return Err(format!("expected <cdbOrder>, got <{}>", root.name));
    }
    let orderkey = req_int(root, "orderkey")?;
    let order = [
        orderkey.clone(),
        req_int(root, "custkey")?,
        opt_date(root, "orderdate"),
        opt_float(root, "totalprice"),
        opt_str(root, "priority"),
        opt_str(root, "state"),
        Value::str(source),
    ];
    let mut lines = Vec::new();
    if let Some(container) = root.first("lines") {
        for line in container.all("line") {
            lines.push(SharedRow::from([
                orderkey.clone(),
                req_int(line, "lineno")?,
                req_int(line, "prodkey")?,
                line.child_text("quantity")
                    .and_then(|t| t.trim().parse::<i64>().ok().map(Value::Int))
                    .unwrap_or(Value::Null),
                opt_float(line, "extendedprice"),
                opt_float(line, "discount"),
                Value::str(source),
            ]));
        }
    }
    let table = |name: &str, rows| TableRows {
        table: name.into(),
        rows,
    };
    Ok(vec![
        table("orders_staging", vec![order.into()]),
        table("orderline_staging", lines),
    ])
}

// ---- outcomes

#[derive(Debug, PartialEq)]
enum Outcome {
    Rows(Vec<(String, Vec<SharedRow>)>),
    Decode(String),
    Stream(XmlError),
}

fn outcome(decoded: Result<Vec<TableRows>, String>) -> Outcome {
    match decoded {
        Ok(batches) => Outcome::Rows(batches.into_iter().map(|b| (b.table, b.rows)).collect()),
        Err(e) => Outcome::Decode(e),
    }
}

/// The stylesheet into a tree, the tree into the oracle.
fn tree(sheet: &Stylesheet, source: &str, msg: &Document) -> Outcome {
    match sheet.transform(msg) {
        Err(e) => Outcome::Stream(e),
        Ok(translated) => outcome(oracle(source, &translated)),
    }
}

/// The stylesheet straight into the decoder.
fn fused(sheet: &Stylesheet, source: &str, msg: &Document) -> Outcome {
    let mut sink = messages::cdb_order_decoder(source)();
    let streamed = sheet.transform_into(msg, &mut *sink).map(|_| ());
    match streamed.and_then(|()| sink.finish()) {
        Err(e) => Outcome::Stream(e),
        Ok(decoded) => outcome(decoded),
    }
}

// ---- generated canonical orders and their mutations

fn pick<T: Copy>(pool: &[T], i: usize) -> T {
    pool[i % pool.len()]
}

/// Field text: integers, padded and signed ones, floats, dates (one beyond
/// the day range), vocabulary words, blanks, garbage.
const TEXTS: [&str; 16] = [
    "7",
    " 42 ",
    "-3",
    "abc",
    "",
    "1.5",
    "12x",
    "2008-04-07",
    " 2008-04-07 ",
    "2008-13-40",
    "99999999-01-01",
    "HIGH",
    "  ",
    "1e3",
    "+5",
    "9223372036854775808",
];
/// Elements a mutation adds: unknown ones, and known names in the wrong
/// place.
const STRAYS: [&str; 7] = [
    "x",
    "line",
    "lines",
    "orderkey",
    "lineno",
    "cdbOrder",
    "customer_segment",
];
const WRONG_ROOTS: [&str; 3] = ["order", "cdbOrders", "lines"];

/// A well-formed canonical order with `lines.len()` lines; the picks vary
/// the values.
fn canonical((key, lines): &(usize, Vec<usize>)) -> Element {
    let n = |i: usize| (i % 97).to_string();
    let mut lines_el = Element::new("lines");
    for (no, &p) in lines.iter().enumerate() {
        lines_el = lines_el.child(
            Element::new("line")
                .child(Element::leaf("lineno", (no + 1).to_string()))
                .child(Element::leaf("prodkey", n(p)))
                .child(Element::leaf("quantity", n(p / 97)))
                .child(Element::leaf("extendedprice", format!("{}.25", p % 13)))
                .child(Element::leaf("discount", "0.05")),
        );
    }
    Element::new("cdbOrder")
        .child(Element::leaf("orderkey", n(*key)))
        .child(Element::leaf("custkey", n(key / 97)))
        .child(Element::leaf("orderdate", "2008-04-07"))
        .child(Element::leaf("priority", pick(&["HIGH", "URGENT"], *key)))
        .child(Element::leaf("state", "OPEN"))
        .child(Element::leaf("totalprice", "100.50"))
        .child(lines_el)
}

/// The elements whose children a mutation edits: the root, and every
/// element under an element named `lines` under the root — as paths of
/// child indices.
fn parents(root: &Element) -> Vec<Vec<usize>> {
    let mut out = vec![vec![]];
    for (i, c) in root.children.iter().enumerate() {
        let Some(lines) = c.as_element().filter(|e| e.name == "lines") else {
            continue;
        };
        for (j, l) in lines.children.iter().enumerate() {
            if l.as_element().is_some() {
                out.push(vec![i, j]);
            }
        }
    }
    out
}

fn at<'e>(mut e: &'e mut Element, path: &[usize]) -> &'e mut Element {
    for &i in path {
        match &mut e.children[i] {
            XmlNode::Element(child) => e = child,
            XmlNode::Text(_) => unreachable!("paths lead through elements"),
        }
    }
    e
}

/// One mutation `(kind, where, what)`.
type Mutation = (usize, usize, usize);

fn mutate(root: &mut Element, &(kind, place, what): &Mutation) {
    if kind == 7 {
        root.name = pick(&WRONG_ROOTS, what).into();
        return;
    }
    let paths = parents(root);
    let parent = at(root, &paths[place % paths.len()]);
    let elements: Vec<usize> = (0..parent.children.len())
        .filter(|&i| parent.children[i].as_element().is_some())
        .collect();
    let text = pick(&TEXTS, what);
    if kind == 4 || elements.is_empty() {
        // text directly in the element
        let at = place % (parent.children.len() + 1);
        parent.children.insert(at, XmlNode::Text(text.into()));
        return;
    }
    let k = pick(&elements, place / 7);
    match kind {
        // a field missing
        0 => {
            parent.children.remove(k);
        }
        // duplicated, the copy before or after it, with other text
        1 => {
            let mut copy = parent.children[k].clone();
            if let XmlNode::Element(e) = &mut copy {
                if e.elements().next().is_none() {
                    e.children = vec![XmlNode::Text(text.into())];
                }
            }
            parent.children.insert(k + what % 2, copy);
        }
        // other text: non-numeric, padded, empty, out of range
        2 => {
            if let XmlNode::Element(e) = &mut parent.children[k] {
                e.children = vec![XmlNode::Text(text.into())];
            }
        }
        // an element nested in it, the text split around it
        3 => {
            if let XmlNode::Element(e) = &mut parent.children[k] {
                let nested = Element::leaf(pick(&STRAYS, what / 3), "9");
                let head = pick(&TEXTS, what / 5);
                e.children.insert(0, XmlNode::Text(head.into()));
                e.children.insert(1, XmlNode::Element(nested));
            }
        }
        // moved to the end
        5 => {
            let moved = parent.children.remove(k);
            parent.children.push(moved);
        }
        // a stray element
        _ => {
            let stray = match pick(&STRAYS, what) {
                // a second container, with one line of its own
                "lines" => Element::new("lines").child(
                    Element::new("line")
                        .child(Element::leaf("lineno", text))
                        .child(Element::leaf("prodkey", "5")),
                ),
                name => Element::leaf(name, text),
            };
            parent.children.insert(k, XmlNode::Element(stray));
        }
    }
}

fn order((base, mutations): &((usize, Vec<usize>), Vec<Mutation>)) -> Document {
    let mut root = canonical(base);
    for m in mutations {
        mutate(&mut root, m);
    }
    Document::new(root)
}

fn arb_order() -> impl Strategy<Value = ((usize, Vec<usize>), Vec<Mutation>)> {
    let base = (0usize..100_000, prop::collection::vec(0usize..10_000, 0..4));
    let mutation = (0usize..9, 0usize..1000, 0usize..1000);
    (base, prop::collection::vec(mutation, 0..4))
}

// ---- the three source shapes the order stylesheets read

/// The source systems and the canonical → source names their stylesheets
/// undo.
const SHAPES: [(&str, &[(&str, &str)]); 3] = [
    (
        "vienna",
        &[
            ("cdbOrder", "viennaOrder"),
            ("orderkey", "orderKey"),
            ("orderdate", "orderDate"),
            ("totalprice", "totalPrice"),
            ("custkey", "custKey"),
            ("lines", "positions"),
            ("line", "position"),
            ("lineno", "lineNo"),
            ("prodkey", "prodKey"),
            ("extendedprice", "extendedPrice"),
        ],
    ),
    (
        "hongkong",
        &[
            ("cdbOrder", "hkOrder"),
            ("orderkey", "hkOrderKey"),
            ("custkey", "hkCustKey"),
            ("orderdate", "hkDate"),
            ("priority", "hkPriority"),
            ("state", "hkState"),
            ("totalprice", "hkTotal"),
            ("lines", "hkLines"),
            ("line", "hkLine"),
            ("lineno", "lineNo"),
            ("prodkey", "prodKey"),
            ("extendedprice", "extendedPrice"),
        ],
    ),
    (
        "san_diego",
        &[
            ("cdbOrder", "sdMessage"),
            ("orderkey", "okey"),
            ("custkey", "ckey"),
            ("orderdate", "odate"),
            ("priority", "oprio"),
            ("state", "ostate"),
            ("totalprice", "total"),
            ("lines", "sdLines"),
            ("line", "sdLine"),
            ("prodkey", "pkey"),
            ("quantity", "qty"),
            ("extendedprice", "xprice"),
            ("discount", "disc"),
        ],
    ),
];

fn stylesheet(source: &str) -> Arc<Stylesheet> {
    match source {
        "vienna" => messages::stx_vienna_to_cdb(),
        "hongkong" => messages::stx_hongkong_to_cdb(),
        _ => messages::stx_san_diego_to_cdb(),
    }
}

fn rename(e: &mut Element, names: &[(&str, &str)]) {
    if let Some((_, to)) = names.iter().find(|(from, _)| *from == e.name) {
        e.name = to.to_string();
    }
    for c in &mut e.children {
        if let XmlNode::Element(child) = c {
            rename(child, names);
        }
    }
}

/// A San Diego line carries its number as the `no` attribute, which the
/// stylesheet turns back into the line's first child: the first `lineno`
/// that holds text only moves there.
fn line_numbers_to_attributes(e: &mut Element) {
    if e.name == "line" {
        let plain = |c: &XmlNode| {
            c.as_element()
                .is_some_and(|f| f.name == "lineno" && f.elements().next().is_none())
        };
        if let Some(i) = e.children.iter().position(plain) {
            if let XmlNode::Element(f) = e.children.remove(i) {
                e.attrs.push(("no".into(), f.text_content()));
            }
        }
    }
    for c in &mut e.children {
        if let XmlNode::Element(child) = c {
            line_numbers_to_attributes(child);
        }
    }
}

/// The root children before the first `lines` go into a `wrapper` the
/// stylesheet unwraps.
fn wrap_head(root: &mut Element, wrapper: &str) {
    let is_lines = |c: &XmlNode| c.as_element().is_some_and(|e| e.name == "lines");
    let head = root.children.iter().position(is_lines);
    let rest = root.children.split_off(head.unwrap_or(root.children.len()));
    let mut wrapped = Element::new(wrapper);
    wrapped.children = std::mem::replace(&mut root.children, rest);
    root.children.insert(0, XmlNode::Element(wrapped));
}

/// The canonical message `doc` written in `source`'s shape: what the
/// source's stylesheet translates back into `doc`.
fn in_source_shape(source: &str, names: &[(&str, &str)], doc: &Document) -> Document {
    let mut root = doc.root.clone();
    match source {
        "vienna" => wrap_head(&mut root, "orderHeader"),
        "san_diego" => {
            line_numbers_to_attributes(&mut root);
            wrap_head(&mut root, "sdOrder");
            let header = Element::new("sdHeader").child(Element::leaf("msgKey", "SD-1"));
            root.children.insert(0, XmlNode::Element(header));
        }
        _ => {}
    }
    rename(&mut root, names);
    Document::new(root)
}

/// Every path agrees with the oracle on `doc`; hands back the tree form's
/// outcome.
fn paths_agree(doc: &Document) -> Outcome {
    let tree_form = outcome(messages::decode_order("vienna", doc));
    assert_eq!(tree_form, outcome(oracle("vienna", doc)), "{doc:?}");
    for (source, names) in SHAPES {
        let msg = in_source_shape(source, names, doc);
        let sheet = stylesheet(source);
        assert_eq!(
            fused(&sheet, source, &msg),
            tree(&sheet, source, &msg),
            "{source}: {msg:?}"
        );
    }
    tree_form
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn the_order_decoder_answers_as_the_tree_decoder(spec in arb_order()) {
        paths_agree(&order(&spec));
    }
}

/// The outcomes the generator aims at, pinned so that none depends on the
/// seed: every path agrees with the oracle on each, and on the outcome
/// named here.
#[test]
fn the_order_decoder_answers_as_the_tree_decoder_on_every_outcome() {
    let base = (4242usize, vec![17, 18]);
    let decode_error = |m: &str| Outcome::Decode(m.into());
    let cases: [(Vec<Mutation>, Option<Outcome>); 10] = [
        (vec![], None),
        // orderkey missing
        (
            vec![(0, 0, 0)],
            Some(decode_error("missing or non-integer <orderkey>")),
        ),
        // custkey non-numeric, and the second line's prodkey: the key first
        (
            vec![(2, 9, 3), (2, 8, 3)],
            Some(decode_error("missing or non-integer <custkey>")),
        ),
        // the first line's number non-numeric, the second's product key
        // missing: the first line's failure
        (
            vec![(2, 1, 3), (0, 8, 0)],
            Some(decode_error("missing or non-integer <lineno>")),
        ),
        (
            vec![(7, 0, 0)],
            Some(decode_error("expected <cdbOrder>, got <order>")),
        ),
        // padded, nested, duplicated, moved, a second <lines>, text in a line
        (vec![(2, 0, 1), (3, 7, 0), (1, 14, 1), (5, 21, 0)], None),
        (vec![(6, 42, 2), (4, 1, 3)], None),
        (vec![(6, 0, 2)], None),
        (vec![(1, 42, 0)], None),
        (vec![(3, 15, 6)], None),
    ];
    for (mutations, expected) in cases {
        let doc = order(&(base.clone(), mutations.clone()));
        let got = paths_agree(&doc);
        match expected {
            Some(expected) => assert_eq!(got, expected, "{mutations:?}"),
            None => assert!(matches!(got, Outcome::Rows(_)), "{mutations:?}: {got:?}"),
        }
    }
}

/// What a stylesheet gets wrong about the stream — unwrapping the root
/// into several, or into text, or dropping it — fails as the tree builder
/// fails, with its text, streamed or not.
#[test]
fn stream_faults_give_the_tree_builders_text() {
    let msg = in_source_shape("hongkong", SHAPES[1].1, &order(&((1, vec![2]), vec![])));
    let stray_text = Document::new(Element::new("hkOrder").text("stray"));
    let one_child = Document::new(Element::new("hkOrder").child(Element::new("hkLines")));
    let root = |rule: fn(dip_xmlkit::stx::RuleBuilder) -> dip_xmlkit::stx::RuleBuilder| {
        Stylesheet::new("faulty", vec![rule(Rule::for_name("hkOrder")).build()])
    };
    let unwrap = root(|r| r.unwrap_element());
    let drop = root(|r| r.drop());
    let transform = |m: &str| Outcome::Stream(XmlError::Transform(m.into()));
    for (sheet, msg, expected) in [
        (&unwrap, &msg, transform("multiple root elements")),
        (&unwrap, &stray_text, transform("text outside root element")),
        (&drop, &msg, transform("empty event stream")),
        (
            &unwrap,
            &one_child,
            Outcome::Decode("expected <cdbOrder>, got <hkLines>".into()),
        ),
    ] {
        let got = fused(sheet, "hongkong", msg);
        assert_eq!(got, tree(sheet, "hongkong", msg), "{msg:?}");
        assert_eq!(got, expected, "{msg:?}");
    }
}
