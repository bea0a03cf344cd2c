//! XSD-lite: structural schemas and a validator.
//!
//! The benchmark defines message schemas (XSD_Beijing, XSD_Seoul, the
//! Vienna/San-Diego/MDM message schemas, the generic result-set XSD) and
//! process P10 validates "error-prone" San Diego messages against one. This
//! module models the XSD subset those schemas need: nested element
//! sequences with occurrence bounds, required/optional attributes, and
//! simple types (string/int/decimal/date/enumeration).

use crate::node::{Document, Element, XmlNode};
use crate::value_types::{check_simple, SimpleType};
use std::ops::ControlFlow;

/// An attribute declaration.
#[derive(Debug, Clone)]
pub struct XsdAttr {
    pub name: String,
    pub required: bool,
    pub ty: SimpleType,
}

impl XsdAttr {
    pub fn required(name: impl Into<String>, ty: SimpleType) -> XsdAttr {
        XsdAttr {
            name: name.into(),
            required: true,
            ty,
        }
    }
    pub fn optional(name: impl Into<String>, ty: SimpleType) -> XsdAttr {
        XsdAttr {
            name: name.into(),
            required: false,
            ty,
        }
    }
}

/// Content model of an element.
#[derive(Debug, Clone)]
pub enum Content {
    /// Text content of the given simple type (leaf element).
    Simple(SimpleType),
    /// An ordered sequence of child particles; non-whitespace text is
    /// not allowed.
    Sequence(Vec<Particle>),
    /// Anything goes (used to stub foreign subtrees).
    Any,
    /// No children and no text.
    Empty,
}

/// A child-element occurrence constraint.
#[derive(Debug, Clone)]
pub struct Particle {
    pub element: XsdElement,
    pub min: u32,
    /// `None` = unbounded.
    pub max: Option<u32>,
}

/// An element declaration.
#[derive(Debug, Clone)]
pub struct XsdElement {
    pub name: String,
    pub attrs: Vec<XsdAttr>,
    pub content: Content,
}

impl XsdElement {
    /// A leaf element with typed text content.
    pub fn simple(name: impl Into<String>, ty: SimpleType) -> XsdElement {
        XsdElement {
            name: name.into(),
            attrs: Vec::new(),
            content: Content::Simple(ty),
        }
    }

    /// A container element with an ordered child sequence.
    pub fn sequence(name: impl Into<String>, children: Vec<Particle>) -> XsdElement {
        XsdElement {
            name: name.into(),
            attrs: Vec::new(),
            content: Content::Sequence(children),
        }
    }

    /// An element with unconstrained content.
    pub fn any(name: impl Into<String>) -> XsdElement {
        XsdElement {
            name: name.into(),
            attrs: Vec::new(),
            content: Content::Any,
        }
    }

    /// An element that must be empty.
    pub fn empty(name: impl Into<String>) -> XsdElement {
        XsdElement {
            name: name.into(),
            attrs: Vec::new(),
            content: Content::Empty,
        }
    }

    /// Builder: add an attribute declaration.
    pub fn with_attr(mut self, attr: XsdAttr) -> XsdElement {
        self.attrs.push(attr);
        self
    }

    /// Particle: exactly one.
    pub fn once(self) -> Particle {
        Particle {
            element: self,
            min: 1,
            max: Some(1),
        }
    }

    /// Particle: zero or one.
    pub fn optional(self) -> Particle {
        Particle {
            element: self,
            min: 0,
            max: Some(1),
        }
    }

    /// Particle: zero or more.
    pub fn many(self) -> Particle {
        Particle {
            element: self,
            min: 0,
            max: None,
        }
    }

    /// Particle with explicit bounds.
    pub fn occurs(self, min: u32, max: Option<u32>) -> Particle {
        Particle {
            element: self,
            min,
            max,
        }
    }
}

/// A named schema with a single global root element.
#[derive(Debug, Clone)]
pub struct XsdSchema {
    pub name: String,
    pub root: XsdElement,
}

/// One validation problem; `path` is a `/`-separated element trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationIssue {
    pub path: String,
    pub message: String,
}

impl std::fmt::Display for ValidationIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl XsdSchema {
    pub fn new(name: impl Into<String>, root: XsdElement) -> XsdSchema {
        XsdSchema {
            name: name.into(),
            root,
        }
    }

    /// Validate a document, returning every issue found (empty = valid).
    pub fn validate(&self, doc: &Document) -> Vec<ValidationIssue> {
        self.issues(doc, false)
    }

    /// The first issue [`XsdSchema::validate`] would report, found by the
    /// same traversal, which stops there.
    pub fn first_issue(&self, doc: &Document) -> Option<ValidationIssue> {
        self.issues(doc, true).pop()
    }

    pub fn is_valid(&self, doc: &Document) -> bool {
        self.first_issue(doc).is_none()
    }

    /// The one traversal behind the three checks, timed as one
    /// `xmlkit/xsd_validate` span. On a valid document it allocates
    /// nothing: the element trail is a chain of borrowed names, rendered
    /// into a path only for an issue.
    fn issues(&self, doc: &Document, first_only: bool) -> Vec<ValidationIssue> {
        let _span = dip_trace::span_cat(
            dip_trace::Layer::Xmlkit,
            "xsd_validate",
            dip_trace::Category::Processing,
        );
        let mut issues = Issues {
            found: Vec::new(),
            first_only,
        };
        let trail = Trail {
            parent: None,
            name: &doc.root.name,
        };
        // the traversal stops early only when asked to
        let _ = if doc.root.name != self.root.name {
            issues.push(
                &trail,
                format!("expected root element <{}>", self.root.name),
            )
        } else {
            validate_element(&doc.root, &self.root, &trail, &mut issues)
        };
        issues.found
    }
}

/// The element trail from the root to the element being checked, each
/// level a borrowed name on the stack of the traversal.
struct Trail<'a> {
    parent: Option<&'a Trail<'a>>,
    name: &'a str,
}

impl Trail<'_> {
    /// The `/`-separated path of an issue: `/root/child/…`.
    fn render(&self, out: &mut String) {
        if let Some(parent) = self.parent {
            parent.render(out);
        }
        out.push('/');
        out.push_str(self.name);
    }
}

/// The issues a traversal has found; with `first_only`, the traversal
/// breaks off at the first.
struct Issues {
    found: Vec<ValidationIssue>,
    first_only: bool,
}

impl Issues {
    fn push(&mut self, trail: &Trail, message: String) -> ControlFlow<()> {
        let mut path = String::new();
        trail.render(&mut path);
        self.found.push(ValidationIssue { path, message });
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
    trail: &Trail,
    issues: &mut Issues,
) -> ControlFlow<()> {
    // attributes
    for a in &decl.attrs {
        match e.attribute(&a.name) {
            None if a.required => {
                issues.push(trail, format!("missing required attribute @{}", a.name))?
            }
            Some(v) => {
                if let Err(msg) = check_simple(&a.ty, v) {
                    issues.push(trail, format!("attribute @{}: {msg}", a.name))?;
                }
            }
            None => {}
        }
    }
    for (n, _) in &e.attrs {
        if !decl.attrs.iter().any(|a| &a.name == n) {
            issues.push(trail, format!("unexpected attribute @{n}"))?;
        }
    }
    // content
    match &decl.content {
        Content::Any => {}
        Content::Empty => {
            if !e.children.is_empty() {
                issues.push(trail, "element must be empty".into())?;
            }
        }
        Content::Simple(ty) => {
            if e.elements().next().is_some() {
                let msg = "simple-content element must not have child elements";
                issues.push(trail, msg.into())?;
            }
            // a leaf's one text run is read where it lies
            let joined;
            let text = match e.children.as_slice() {
                [] => "",
                [XmlNode::Text(t)] => t,
                _ => {
                    joined = e.text_content();
                    &joined
                }
            };
            if let Err(msg) = check_simple(ty, text.trim()) {
                issues.push(trail, msg)?;
            }
        }
        Content::Sequence(particles) => {
            for c in &e.children {
                if let XmlNode::Text(t) = c {
                    if !t.trim().is_empty() {
                        issues.push(trail, "unexpected text content in sequence".into())?;
                    }
                }
            }
            validate_sequence(e, particles, trail, issues)?;
        }
    }
    ControlFlow::Continue(())
}

/// Greedy in-order matching of child elements against the particle list,
/// in one pass over the children.
fn validate_sequence(
    e: &Element,
    particles: &[Particle],
    trail: &Trail,
    issues: &mut Issues,
) -> ControlFlow<()> {
    let mut children = e.elements().peekable();
    for p in particles {
        let mut count = 0u32;
        while p.max.is_none_or(|m| count < m) {
            let Some(child) = children.next_if(|c| c.name == p.element.name) else {
                break;
            };
            let child_trail = Trail {
                parent: Some(trail),
                name: &child.name,
            };
            validate_element(child, &p.element, &child_trail, issues)?;
            count += 1;
        }
        if count < p.min {
            let (min, name) = (p.min, &p.element.name);
            let msg = format!("expected at least {min} <{name}> element(s), found {count}");
            issues.push(trail, msg)?;
        }
    }
    for child in children {
        issues.push(trail, format!("unexpected element <{}>", child.name))?;
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// <order id(int) required> <custkey:int/> <state:enum/> <line:dec>* </order>
    fn schema() -> XsdSchema {
        XsdSchema::new(
            "test_order",
            XsdElement::sequence(
                "order",
                vec![
                    XsdElement::simple("custkey", SimpleType::Int).once(),
                    XsdElement::simple(
                        "state",
                        SimpleType::Enum(vec!["OPEN".into(), "CLOSED".into()]),
                    )
                    .once(),
                    XsdElement::simple("line", SimpleType::Decimal).many(),
                ],
            )
            .with_attr(XsdAttr::required("id", SimpleType::Int)),
        )
    }

    #[test]
    fn valid_document_passes() {
        let doc = parse(
            r#"<order id="7"><custkey>42</custkey><state>OPEN</state><line>1.5</line><line>2</line></order>"#,
        )
        .unwrap();
        assert!(schema().is_valid(&doc), "{:?}", schema().validate(&doc));
    }

    #[test]
    fn missing_required_child() {
        let doc = parse(r#"<order id="7"><state>OPEN</state></order>"#).unwrap();
        let issues = schema().validate(&doc);
        assert!(issues.iter().any(|i| i.message.contains("<custkey>")));
    }

    #[test]
    fn type_errors_detected() {
        let doc =
            parse(r#"<order id="x"><custkey>abc</custkey><state>WEIRD</state></order>"#).unwrap();
        let issues = schema().validate(&doc);
        assert_eq!(issues.len(), 3); // bad id, bad custkey, bad enum
    }

    #[test]
    fn unexpected_element_and_attr() {
        let doc = parse(
            r#"<order id="1" rogue="y"><custkey>1</custkey><state>OPEN</state><extra/></order>"#,
        )
        .unwrap();
        let issues = schema().validate(&doc);
        assert!(issues.iter().any(|i| i.message.contains("@rogue")));
        assert!(issues.iter().any(|i| i.message.contains("<extra>")));
    }

    #[test]
    fn wrong_root() {
        let doc = parse("<nope/>").unwrap();
        let issues = schema().validate(&doc);
        assert_eq!(issues.len(), 1);
        assert!(issues[0].message.contains("root"));
    }

    #[test]
    fn order_matters_in_sequence() {
        let doc =
            parse(r#"<order id="1"><state>OPEN</state><custkey>1</custkey></order>"#).unwrap();
        assert!(!schema().is_valid(&doc));
    }

    #[test]
    fn max_occurs_enforced() {
        let s = XsdSchema::new(
            "s",
            XsdElement::sequence(
                "r",
                vec![XsdElement::simple("x", SimpleType::Int).occurs(0, Some(2))],
            ),
        );
        let ok = parse("<r><x>1</x><x>2</x></r>").unwrap();
        assert!(s.is_valid(&ok));
        let bad = parse("<r><x>1</x><x>2</x><x>3</x></r>").unwrap();
        assert!(!s.is_valid(&bad));
    }
}
