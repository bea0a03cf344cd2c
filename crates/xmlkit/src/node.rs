//! The XML tree model: documents, elements, text nodes.

use std::fmt;

/// A node in the tree: an element or a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    Element(Element),
    Text(String),
}

impl XmlNode {
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        }
    }
}

/// An XML element: name, attributes (ordered), children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    pub name: String,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<XmlNode>,
}

impl Element {
    pub fn new(name: impl Into<String>) -> Element {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder: add an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Element {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Builder: add a child element.
    pub fn child(mut self, e: Element) -> Element {
        self.children.push(XmlNode::Element(e));
        self
    }

    /// Builder: add a text child.
    pub fn text(mut self, t: impl Into<String>) -> Element {
        self.children.push(XmlNode::Text(t.into()));
        self
    }

    /// Builder: a leaf element wrapping a single text value — the most
    /// common shape in the benchmark's message schemas.
    pub fn leaf(name: impl Into<String>, value: impl Into<String>) -> Element {
        Element::new(name).text(value)
    }

    /// Attribute value by name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Set (or replace) an attribute in place.
    pub fn set_attribute(&mut self, name: &str, value: impl Into<String>) {
        match self.attrs.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value.into(),
            None => self.attrs.push((name.to_string(), value.into())),
        }
    }

    /// Child elements (skipping text nodes).
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(XmlNode::as_element)
    }

    /// First child element with the given name.
    pub fn first(&self, name: &str) -> Option<&Element> {
        self.elements().find(|e| e.name == name)
    }

    /// All child elements with the given name.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> {
        self.elements().filter(move |e| e.name == name)
    }

    /// Concatenated text content of this element (direct text children only).
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        for c in &self.children {
            if let XmlNode::Text(t) = c {
                out.push_str(t);
            }
        }
        out
    }

    /// Text of the first child element with the given name — the accessor
    /// used everywhere for `<custkey>42</custkey>`-style leaves.
    pub fn child_text(&self, name: &str) -> Option<String> {
        self.first(name).map(|e| e.text_content())
    }

    /// Total number of element nodes in this subtree (including self).
    pub fn subtree_size(&self) -> usize {
        1 + self.elements().map(|e| e.subtree_size()).sum::<usize>()
    }

    /// Depth of the deepest element below (and including) this one.
    pub fn depth(&self) -> usize {
        1 + self.elements().map(|e| e.depth()).max().unwrap_or(0)
    }
}

/// A parsed XML document (prolog is not preserved; the root element is).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    pub root: Element,
}

impl Document {
    pub fn new(root: Element) -> Document {
        Document { root }
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::writer::write_compact(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Element {
        Element::new("order")
            .attr("id", "7")
            .child(Element::leaf("custkey", "42"))
            .child(Element::leaf("state", "OPEN"))
            .child(Element::new("lines").child(Element::leaf("line", "1")))
    }

    #[test]
    fn accessors() {
        let e = doc();
        assert_eq!(e.attribute("id"), Some("7"));
        assert_eq!(e.attribute("missing"), None);
        assert_eq!(e.child_text("custkey").as_deref(), Some("42"));
        assert_eq!(e.first("lines").unwrap().elements().count(), 1);
        assert_eq!(e.subtree_size(), 5);
        assert_eq!(e.depth(), 3);
    }

    #[test]
    fn set_attribute_replaces() {
        let mut e = doc();
        e.set_attribute("id", "8");
        e.set_attribute("new", "x");
        assert_eq!(e.attribute("id"), Some("8"));
        assert_eq!(e.attribute("new"), Some("x"));
        assert_eq!(e.attrs.len(), 2);
    }

    #[test]
    fn text_content_concatenates() {
        let e = Element::new("t")
            .text("a")
            .child(Element::leaf("x", "skip"))
            .text("b");
        assert_eq!(e.text_content(), "ab");
    }
}
