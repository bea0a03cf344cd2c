//! The XSD validator against the traversal it replaced.
//!
//! `XsdSchema`'s traversal keeps its element trail as borrowed names,
//! reads a leaf's one text run in place and walks a sequence's children
//! without collecting them. The functions at the end of this file are that
//! traversal as it was before: a path `String` per element, a
//! `text_content()` copy per leaf, a `Vec` of children per sequence. They
//! are kept unchanged, but for the method turned into a function, as the
//! oracle. On every message family the benchmark validates, and on
//! generated mutations of them, `validate` must list the same issues
//! (paths, messages, order), `first_issue` must be the first of them and
//! `is_valid` their absence.

use dip_relstore::prelude::*;
use dip_services::resultset::{encode, result_set_xsd};
use dip_xmlkit::node::{Document, Element, XmlNode};
use dip_xmlkit::value_types::check_simple;
use dip_xmlkit::xsd::{Content, Particle, ValidationIssue, XsdElement, XsdSchema};
use dipbench::datagen::Generator;
use dipbench::scale::{Distribution, ScaleFactors};
use dipbench::schema::{cdb, messages};
use proptest::prelude::*;
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};

/// The three checks against the oracle on one document.
fn check(xsd: &XsdSchema, doc: &Document) -> Vec<ValidationIssue> {
    let all = xsd.validate(doc);
    assert_eq!(all, oracle(xsd, doc, false), "{doc:?}");
    assert_eq!(
        xsd.first_issue(doc),
        oracle(xsd, doc, true).pop(),
        "{doc:?}"
    );
    assert_eq!(xsd.first_issue(doc).as_ref(), all.first(), "{doc:?}");
    assert_eq!(xsd.is_valid(doc), all.is_empty(), "{doc:?}");
    all
}

/// Messages, each with the schema it is checked against.
type Corpus = Vec<(Document, Arc<XsdSchema>)>;

const PERIODS: u32 = 3;
const SAN_DIEGO_PER_PERIOD: u32 = 120;

fn generator() -> Generator {
    Generator::new(21, ScaleFactors::new(0.05, 1.0, Distribution::Uniform))
}

/// Every message family the benchmark validates, over three periods:
/// San Diego orders with their injected errors (P10), Vienna orders (P04),
/// Beijing master data (P01), and the result sets of the staging rows
/// each valid San Diego order decodes to.
fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let g = generator();
        let san_diego = Arc::new(messages::san_diego_xsd());
        let vienna = Arc::new(messages::vienna_xsd());
        let beijing = Arc::new(messages::beijing_master_xsd());
        let staging = [
            cdb::orders_staging_schema(),
            cdb::orderline_staging_schema(),
        ];
        let result_sets = staging
            .each_ref()
            .map(|s| Arc::new(result_set_xsd("rs", s)));
        let translate = messages::stx_san_diego_to_cdb();
        let mut corpus = Corpus::new();
        for k in 0..PERIODS {
            for m in 0..SAN_DIEGO_PER_PERIOD {
                let (doc, injected) = g.san_diego_message(k, m);
                if !injected {
                    let cdb_order = translate.transform(&doc).unwrap();
                    let tables = messages::decode_order("san_diego", &cdb_order).unwrap();
                    for ((t, schema), xsd) in tables.into_iter().zip(&staging).zip(&result_sets) {
                        let rel = Relation::new(schema.clone(), t.rows);
                        corpus.push((encode("san_diego", &t.table, &rel), xsd.clone()));
                    }
                }
                corpus.push((doc, san_diego.clone()));
            }
            for m in 0..40 {
                corpus.push((g.vienna_message(k, m), vienna.clone()));
                corpus.push((g.beijing_master_message(k, m), beijing.clone()));
            }
        }
        corpus
    })
}

#[test]
fn every_message_family_matches_the_oracle() {
    let invalid = (corpus().iter())
        .filter(|(doc, xsd)| !check(xsd, doc).is_empty())
        .count();
    let g = generator();
    let injected = (0..PERIODS)
        .flat_map(|k| (0..SAN_DIEGO_PER_PERIOD).map(move |m| (k, m)))
        .filter(|&(k, m)| g.san_diego_message(k, m).1)
        .count();
    // the injected San Diego errors, and the dirty Vienna priorities
    assert!(injected > 20, "{injected} injected errors");
    assert!(
        invalid >= injected,
        "{invalid} invalid, {injected} injected"
    );
    assert!(corpus().len() > 1000, "{} messages", corpus().len());
}

/// One change to one element of a message.
#[derive(Debug, Clone)]
enum Mutation {
    DropChild,
    DuplicateChild,
    Rename,
    SwapChildren,
    AddAttr,
    DropAttr,
    /// Replace the first text run, or add one.
    SetText,
    /// Cut the first text run into two adjacent text nodes.
    SplitText,
    /// A leaf element as a new child, of a leaf too.
    AddElement,
}

/// `(what, which element in document order, a pick for the details)`.
fn arb_mutation() -> impl Strategy<Value = (Mutation, usize, usize)> {
    let what = prop_oneof![
        Just(Mutation::DropChild),
        Just(Mutation::DuplicateChild),
        Just(Mutation::Rename),
        Just(Mutation::SwapChildren),
        Just(Mutation::AddAttr),
        Just(Mutation::DropAttr),
        Just(Mutation::SetText),
        Just(Mutation::SplitText),
        Just(Mutation::AddElement),
    ];
    (what, 0usize..1000, 0usize..1000)
}

/// Names a mutation gives an element or an attribute: mostly the schemas'
/// own, so a renamed or added one is often expected somewhere else.
const NAMES: [&str; 10] = [
    "sdLine", "pkey", "okey", "total", "no", "row", "msgKey", "sdHeader", "source", "rogue",
];

/// Texts a mutation gives a leaf: non-ASCII, whitespace-padded, empty,
/// almost a number or a date.
const TEXTS: [&str; 10] = [
    "",
    " 42 ",
    "\t2008-04-07\n",
    "١٢",
    "12é",
    "€",
    "-0",
    "1.",
    "2008-13-01",
    "x y",
];

/// The child-index path of every element, in document order.
fn element_paths(e: &Element, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(at.clone());
    for (i, c) in e.children.iter().enumerate() {
        if let XmlNode::Element(child) = c {
            at.push(i);
            element_paths(child, at, out);
            at.pop();
        }
    }
}

fn mutate(doc: &mut Document, (what, target, pick): &(Mutation, usize, usize)) {
    let mut paths = Vec::new();
    element_paths(&doc.root, &mut Vec::new(), &mut paths);
    let mut e = &mut doc.root;
    for &i in &paths[target % paths.len()] {
        let XmlNode::Element(child) = &mut e.children[i] else {
            unreachable!("a path names elements")
        };
        e = child;
    }
    let (n, name, text) = (e.children.len(), NAMES[pick % 10], TEXTS[pick % 10]);
    let first_text = e
        .children
        .iter()
        .position(|c| matches!(c, XmlNode::Text(_)));
    match what {
        Mutation::DropChild if n > 0 => {
            e.children.remove(pick % n);
        }
        Mutation::DuplicateChild if n > 0 => {
            let copy = e.children[pick % n].clone();
            e.children.insert(pick % n, copy);
        }
        Mutation::Rename => e.name = name.into(),
        Mutation::SwapChildren if n > 1 => e.children.swap(pick % n, (pick / 10) % n),
        Mutation::AddAttr => e.attrs.push((name.into(), text.into())),
        Mutation::DropAttr if !e.attrs.is_empty() => {
            e.attrs.remove(pick % e.attrs.len());
        }
        Mutation::SetText => match first_text {
            Some(i) => e.children[i] = XmlNode::Text(text.into()),
            None => e
                .children
                .insert(pick % (n + 1), XmlNode::Text(text.into())),
        },
        Mutation::SplitText => {
            let Some(i) = first_text else { return };
            let XmlNode::Text(t) = &e.children[i] else {
                unreachable!("a text run's position")
            };
            let cuts: Vec<usize> = (0..=t.len()).filter(|&c| t.is_char_boundary(c)).collect();
            let (left, right) = t.split_at(cuts[pick % cuts.len()]);
            let (left, right) = (XmlNode::Text(left.into()), XmlNode::Text(right.into()));
            e.children[i] = left;
            e.children.insert(i + 1, right);
        }
        Mutation::AddElement => {
            let leaf = Element::leaf(name, text);
            e.children.insert(pick % (n + 1), XmlNode::Element(leaf));
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_messages_match_the_oracle(
        message in 0usize..100_000,
        mutations in prop::collection::vec(arb_mutation(), 1..5),
    ) {
        let (doc, xsd) = &corpus()[message % corpus().len()];
        let mut doc = doc.clone();
        for m in &mutations {
            mutate(&mut doc, m);
        }
        check(xsd, &doc);
    }
}

// ---------------------------------------------------------------------------
// The traversal as it was
// ---------------------------------------------------------------------------

fn oracle(schema: &XsdSchema, doc: &Document, first_only: bool) -> Vec<ValidationIssue> {
    let mut issues = Issues {
        found: Vec::new(),
        first_only,
    };
    let path = format!("/{}", doc.root.name);
    // the traversal stops early only when asked to
    let _ = if doc.root.name != schema.root.name {
        issues.push(
            &path,
            format!("expected root element <{}>", schema.root.name),
        )
    } else {
        validate_element(&doc.root, &schema.root, &path, &mut issues)
    };
    issues.found
}

/// The issues a traversal has found; with `first_only`, the traversal
/// breaks off at the first.
struct Issues {
    found: Vec<ValidationIssue>,
    first_only: bool,
}

impl Issues {
    fn push(&mut self, path: &str, message: String) -> ControlFlow<()> {
        self.found.push(ValidationIssue {
            path: path.to_string(),
            message,
        });
        if self.first_only {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

fn validate_element(
    e: &Element,
    decl: &XsdElement,
    path: &str,
    issues: &mut Issues,
) -> ControlFlow<()> {
    // attributes
    for a in &decl.attrs {
        match e.attribute(&a.name) {
            None if a.required => {
                issues.push(path, format!("missing required attribute @{}", a.name))?
            }
            Some(v) => {
                if let Err(msg) = check_simple(&a.ty, v) {
                    issues.push(path, format!("attribute @{}: {msg}", a.name))?;
                }
            }
            None => {}
        }
    }
    for (n, _) in &e.attrs {
        if !decl.attrs.iter().any(|a| &a.name == n) {
            issues.push(path, format!("unexpected attribute @{n}"))?;
        }
    }
    // content
    match &decl.content {
        Content::Any => {}
        Content::Empty => {
            if !e.children.is_empty() {
                issues.push(path, "element must be empty".into())?;
            }
        }
        Content::Simple(ty) => {
            if e.elements().next().is_some() {
                let msg = "simple-content element must not have child elements";
                issues.push(path, msg.into())?;
            }
            let text = e.text_content();
            if let Err(msg) = check_simple(ty, text.trim()) {
                issues.push(path, msg)?;
            }
        }
        Content::Sequence(particles) => {
            for c in &e.children {
                if let XmlNode::Text(t) = c {
                    if !t.trim().is_empty() {
                        issues.push(path, "unexpected text content in sequence".into())?;
                    }
                }
            }
            validate_sequence(e, particles, path, issues)?;
        }
    }
    ControlFlow::Continue(())
}

/// Greedy in-order matching of child elements against the particle list.
fn validate_sequence(
    e: &Element,
    particles: &[Particle],
    path: &str,
    issues: &mut Issues,
) -> ControlFlow<()> {
    let children: Vec<&Element> = e.elements().collect();
    let mut ci = 0usize;
    for p in particles {
        let mut count = 0u32;
        while ci < children.len()
            && children[ci].name == p.element.name
            && p.max.is_none_or(|m| count < m)
        {
            let child_path = format!("{path}/{}", children[ci].name);
            validate_element(children[ci], &p.element, &child_path, issues)?;
            ci += 1;
            count += 1;
        }
        if count < p.min {
            let (min, name) = (p.min, &p.element.name);
            let msg = format!("expected at least {min} <{name}> element(s), found {count}");
            issues.push(path, msg)?;
        }
    }
    for child in &children[ci..] {
        issues.push(path, format!("unexpected element <{}>", child.name))?;
    }
    ControlFlow::Continue(())
}
