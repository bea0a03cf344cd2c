//! SAX-style event streams over XML trees.
//!
//! STX — the transformation language the paper uses for schema translations
//! — is defined over a stream of events rather than a tree. Events reach a
//! consumer in one of two forms:
//!
//! * **borrowed**, pushed into a `Handler` (crate-private) one call at a
//!   time — what
//!   [`Stylesheet::transform`](crate::stx::Stylesheet::transform) does: it
//!   walks the input tree through the rules straight into a `TreeBuilder`,
//!   so nothing but the output tree is ever allocated;
//! * **materialized**, as a `Vec<SaxEvent>`: [`events`] linearizes a tree
//!   and [`build`] folds a vector back into one. This is the pipeline of a
//!   CLOB-bound XML function stack, and the one caller that runs it in
//!   production is `dip_feddbms::xmlfn::transform`
//!   (`build(sheet.transform_events(&events(doc)))`), on purpose; the tests
//!   use it as the oracle of the one-pass path.
//!
//! Both forms end in the same fold (`TreeBuilder`, which [`build`] feeds
//! too), so they agree on every tree and on every error.

use crate::error::{XmlError, XmlResult};
use crate::node::{Document, Element, XmlNode};
use std::borrow::Cow;

/// One SAX event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaxEvent {
    StartElement {
        name: String,
        attrs: Vec<(String, String)>,
    },
    Text(String),
    EndElement {
        name: String,
    },
}

/// Linearize a document into events (depth-first).
pub fn events(doc: &Document) -> Vec<SaxEvent> {
    let mut out = Vec::with_capacity(doc.root.subtree_size() * 2);
    emit(&doc.root, &mut out);
    out
}

fn emit(e: &Element, out: &mut Vec<SaxEvent>) {
    out.push(SaxEvent::StartElement {
        name: e.name.clone(),
        attrs: e.attrs.clone(),
    });
    for c in &e.children {
        match c {
            XmlNode::Element(child) => emit(child, out),
            XmlNode::Text(t) => out.push(SaxEvent::Text(t.clone())),
        }
    }
    out.push(SaxEvent::EndElement {
        name: e.name.clone(),
    });
}

/// A consumer of borrowed SAX events. `children` on a start event is the
/// producer's estimate of how many child nodes will follow (0 when it
/// cannot know), so a consumer that builds a tree can size the element
/// once instead of growing it.
pub(crate) trait Handler {
    fn start(
        &mut self,
        name: &str,
        attrs: Cow<'_, [(String, String)]>,
        children: usize,
    ) -> XmlResult<()>;
    fn text(&mut self, text: &str) -> XmlResult<()>;
    fn end(&mut self, name: &str) -> XmlResult<()>;
}

/// The materializing consumer: every event becomes an owned [`SaxEvent`].
impl Handler for Vec<SaxEvent> {
    fn start(
        &mut self,
        name: &str,
        attrs: Cow<'_, [(String, String)]>,
        _children: usize,
    ) -> XmlResult<()> {
        self.push(SaxEvent::StartElement {
            name: name.to_string(),
            attrs: attrs.into_owned(),
        });
        Ok(())
    }

    fn text(&mut self, text: &str) -> XmlResult<()> {
        self.push(SaxEvent::Text(text.to_string()));
        Ok(())
    }

    fn end(&mut self, name: &str) -> XmlResult<()> {
        self.push(SaxEvent::EndElement {
            name: name.to_string(),
        });
        Ok(())
    }
}

/// The fold from events to a tree: open elements on a stack, adjacent text
/// runs merged, exactly one root. An owned event ([`build`]) moves into
/// the tree; a borrowed one (the [`Handler`] impl) is copied once.
#[derive(Default)]
pub(crate) struct TreeBuilder {
    stack: Vec<Element>,
    root: Option<Element>,
}

impl TreeBuilder {
    fn open(&mut self, name: String, attrs: Vec<(String, String)>, children: usize) {
        self.stack.push(Element {
            name,
            attrs,
            children: Vec::with_capacity(children),
        });
    }

    fn append_text(&mut self, text: impl AsRef<str> + Into<String>) -> XmlResult<()> {
        match self.stack.last_mut() {
            Some(top) => {
                if let Some(XmlNode::Text(prev)) = top.children.last_mut() {
                    prev.push_str(text.as_ref());
                } else {
                    top.children.push(XmlNode::Text(text.into()));
                }
            }
            None => {
                if !text.as_ref().trim().is_empty() {
                    return Err(XmlError::Transform("text outside root element".into()));
                }
            }
        }
        Ok(())
    }

    fn close(&mut self, name: &str) -> XmlResult<()> {
        let done = self
            .stack
            .pop()
            .ok_or_else(|| XmlError::Transform("unbalanced end event".into()))?;
        if done.name != name {
            return Err(XmlError::Transform(format!(
                "end event {name} does not match open element {}",
                done.name
            )));
        }
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(XmlNode::Element(done)),
            None => {
                if self.root.is_some() {
                    return Err(XmlError::Transform("multiple root elements".into()));
                }
                self.root = Some(done);
            }
        }
        Ok(())
    }

    /// The finished document; the stream must have closed what it opened.
    pub(crate) fn finish(self) -> XmlResult<Document> {
        if !self.stack.is_empty() {
            return Err(XmlError::Transform(
                "unclosed elements at end of stream".into(),
            ));
        }
        self.root
            .map(Document::new)
            .ok_or_else(|| XmlError::Transform("empty event stream".into()))
    }
}

impl Handler for TreeBuilder {
    fn start(
        &mut self,
        name: &str,
        attrs: Cow<'_, [(String, String)]>,
        children: usize,
    ) -> XmlResult<()> {
        self.open(name.to_string(), attrs.into_owned(), children);
        Ok(())
    }

    fn text(&mut self, text: &str) -> XmlResult<()> {
        self.append_text(text)
    }

    fn end(&mut self, name: &str) -> XmlResult<()> {
        self.close(name)
    }
}

/// Fold an event stream back into a document. The stream must be
/// well-formed: one root element, balanced start/end tags.
pub fn build(events: impl IntoIterator<Item = SaxEvent>) -> XmlResult<Document> {
    let mut tree = TreeBuilder::default();
    for ev in events {
        match ev {
            SaxEvent::StartElement { name, attrs } => tree.open(name, attrs, 0),
            SaxEvent::Text(t) => tree.append_text(t)?,
            SaxEvent::EndElement { name } => tree.close(&name)?,
        }
    }
    tree.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn roundtrip_events() {
        let doc = parse(r#"<a x="1"><b>hi</b><c/></a>"#).unwrap();
        let evs = events(&doc);
        assert_eq!(evs.len(), 7); // a, b, "hi", /b, c, /c, /a
        let rebuilt = build(evs).unwrap();
        assert_eq!(rebuilt, doc);
    }

    #[test]
    fn build_rejects_imbalance() {
        let bad = vec![SaxEvent::StartElement {
            name: "a".into(),
            attrs: vec![],
        }];
        assert!(build(bad).is_err());
        let bad = vec![
            SaxEvent::StartElement {
                name: "a".into(),
                attrs: vec![],
            },
            SaxEvent::EndElement { name: "b".into() },
        ];
        assert!(build(bad).is_err());
    }

    #[test]
    fn build_rejects_two_roots() {
        let bad = vec![
            SaxEvent::StartElement {
                name: "a".into(),
                attrs: vec![],
            },
            SaxEvent::EndElement { name: "a".into() },
            SaxEvent::StartElement {
                name: "b".into(),
                attrs: vec![],
            },
            SaxEvent::EndElement { name: "b".into() },
        ];
        assert!(build(bad).is_err());
    }
}
