//! SAX-style event streams.
//!
//! STX — the transformation language the paper uses for schema translations
//! — is defined over a stream of events rather than a tree. Events come
//! from an [`EventSource`]: something that pushes its own events, depth
//! first, into a [`Sink`] that may keep each element's name and attributes
//! as long as the source lives. A [`Document`] walks itself;
//! `dip_services::resultset::ResultSet` emits a relation's rows as the
//! generic result set, rendering each value as it goes, so a web
//! service's response is XML only where something reads it as XML.
//!
//! Events reach a consumer in one of two forms:
//!
//! * **borrowed**, pushed into a [`Handler`] one call at a time. A handler
//!   is whatever folds the stream: the tree builder behind [`tree`] and
//!   [`Stylesheet::transform`](crate::stx::Stylesheet::transform), the
//!   vector behind
//!   [`Stylesheet::transform_events`](crate::stx::Stylesheet::transform_events),
//!   or one outside this crate — `dip_services::resultset::RowSink` builds
//!   a result set's rows from the events, and the order decoder
//!   (`dipbench::schema::messages::cdb_order_decoder`) an order message's
//!   staging rows, so a translated message that is only decoded is never
//!   built as a tree. Every handler is a sink, and so is a borrowed one
//!   (`&mut H`), so a driver can run into a handler behind a `dyn` type;
//! * **materialized**, as a `Vec<SaxEvent>`: [`events`] linearizes a tree
//!   and [`build`] folds a vector back into one. This is the pipeline of a
//!   CLOB-bound XML function stack, and the one caller that runs it in
//!   production is `dip_feddbms::xmlfn::transform`
//!   (`build(sheet.transform_events(&events(doc)))`), on purpose; the tests
//!   use it as the oracle of the one-pass path.
//!
//! Three drivers push events into a handler: [`walk`] runs a source into
//! it as it is, and the stylesheet's two
//! ([`Stylesheet::transform_into`](crate::stx::Stylesheet::transform_into)
//! for a source, `transform_events` for a vector) run them through the one
//! rule filter first — itself the sink a source emits into. The tree
//! builder is the fold [`build`] runs too, so every form agrees on every
//! tree and on every error.
//!
//! A handler that folds the stream into one document's worth of output
//! checks the stream's shape with [`OneRoot`] — one root, opened and
//! closed, no text outside it — the one place those checks and their
//! texts live: the tree builder, `RowSink` and the order decoder all report
//! their events to it, so a stylesheet that gets the stream wrong fails
//! alike whichever of them it runs into.

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

/// Linearize a document into events (depth-first): [`walk`] into a vector.
pub fn events(doc: &Document) -> Vec<SaxEvent> {
    let out = Vec::with_capacity(doc.root.subtree_size() * 2);
    // the vector handler never fails
    walk(doc, out).unwrap_or_default()
}

/// A producer of SAX events whose element names and attributes are
/// borrowed from itself: a consumer that keeps them (the rule filter keeps
/// the open elements' names, to match paths against) copies nothing. Text
/// may be the source's own or rendered for the one call.
pub trait EventSource {
    /// Push every event into `sink`, depth-first: one root, balanced tags.
    /// An error from the sink ends the stream and is returned as it is.
    fn emit<'a, S: Sink<'a>>(&'a self, sink: &mut S) -> XmlResult<()>;
}

/// A consumer of the events of an [`EventSource`] that lives for `'a`.
/// `children` on a start event is the producer's estimate of how many
/// child nodes will follow, as for [`Handler::start`]. Every [`Handler`]
/// is a sink.
pub trait Sink<'a> {
    fn start(
        &mut self,
        name: &'a str,
        attrs: &'a [(String, String)],
        children: usize,
    ) -> XmlResult<()>;
    fn text(&mut self, text: &str) -> XmlResult<()>;
    fn end(&mut self, name: &'a str) -> XmlResult<()>;
}

impl<'a, H: Handler> Sink<'a> for H {
    fn start(
        &mut self,
        name: &'a str,
        attrs: &'a [(String, String)],
        children: usize,
    ) -> XmlResult<()> {
        Handler::start(self, name, Cow::Borrowed(attrs), children)
    }

    fn text(&mut self, text: &str) -> XmlResult<()> {
        Handler::text(self, text)
    }

    fn end(&mut self, name: &'a str) -> XmlResult<()> {
        Handler::end(self, name)
    }
}

/// A document walks its tree as it is.
impl EventSource for Document {
    fn emit<'a, S: Sink<'a>>(&'a self, sink: &mut S) -> XmlResult<()> {
        fn visit<'a, S: Sink<'a>>(e: &'a Element, sink: &mut S) -> XmlResult<()> {
            sink.start(&e.name, &e.attrs, e.children.len())?;
            for c in &e.children {
                match c {
                    XmlNode::Element(child) => visit(child, sink)?,
                    XmlNode::Text(t) => sink.text(t)?,
                }
            }
            sink.end(&e.name)
        }
        visit(&self.root, sink)
    }
}

/// A consumer of borrowed SAX events. `children` on a start event is the
/// producer's estimate of how many child nodes will follow (0 when it
/// cannot know), so a consumer that builds a tree can size the element
/// once instead of growing it. An error from any call ends the stream: the
/// driver returns it as it is.
pub trait Handler {
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

/// A borrowed handler is a handler: a driver that takes its sink by value
/// can run into a sink the caller keeps, behind a `dyn` type included.
impl<H: Handler + ?Sized> Handler for &mut H {
    fn start(
        &mut self,
        name: &str,
        attrs: Cow<'_, [(String, String)]>,
        children: usize,
    ) -> XmlResult<()> {
        (**self).start(name, attrs, children)
    }

    fn text(&mut self, text: &str) -> XmlResult<()> {
        (**self).text(text)
    }

    fn end(&mut self, name: &str) -> XmlResult<()> {
        (**self).end(name)
    }
}

/// The one check of a stream's shape, for every handler that folds a
/// stream into one document's worth of output — the tree builder,
/// `dip_services::resultset::RowSink`, the order decoder: the stream must
/// be one root element, opened and closed, with no text outside it but
/// whitespace. A handler reports each event to it and reads back the
/// depth the event is at; the errors, and their texts, are this type's.
#[derive(Debug, Default)]
pub struct OneRoot {
    /// Open elements.
    depth: usize,
    /// Top-level elements opened so far.
    roots: usize,
}

impl OneRoot {
    /// An element opens: its depth, 0 for a top-level element.
    pub fn open(&mut self) -> usize {
        if self.depth == 0 {
            self.roots += 1;
        }
        self.depth += 1;
        self.depth - 1
    }

    /// Whether the open elements belong to a top-level element after the
    /// first: the stream is already wrong, and says so when it closes, so
    /// a handler ignores what is inside it.
    pub fn in_extra_root(&self) -> bool {
        self.roots > 1
    }

    /// Text arrives: the number of open elements it is inside, or the
    /// error for text outside the root (whitespace there is no text).
    pub fn text(&self, text: &str) -> XmlResult<usize> {
        if self.depth == 0 && !text.trim().is_empty() {
            return Err(XmlError::Transform("text outside root element".into()));
        }
        Ok(self.depth)
    }

    /// An element closes: its depth, or the error for an end without a
    /// start or for a second top-level element.
    pub fn close(&mut self) -> XmlResult<usize> {
        self.depth = (self.depth.checked_sub(1))
            .ok_or_else(|| XmlError::Transform("unbalanced end event".into()))?;
        if self.depth == 0 && self.roots > 1 {
            return Err(XmlError::Transform("multiple root elements".into()));
        }
        Ok(self.depth)
    }

    /// The stream ended: `Ok` once exactly one root has opened and closed.
    pub fn finish(&self) -> XmlResult<()> {
        if self.depth > 0 {
            let msg = "unclosed elements at end of stream";
            return Err(XmlError::Transform(msg.into()));
        }
        if self.roots == 0 {
            return Err(XmlError::Transform("empty event stream".into()));
        }
        Ok(())
    }
}

/// The fold from events to a tree: open elements on a stack, adjacent text
/// runs merged, its shape checked by [`OneRoot`]. An owned event
/// ([`build`]) moves into the tree; a borrowed one (the [`Handler`] impl)
/// is copied once.
#[derive(Default)]
pub(crate) struct TreeBuilder {
    shape: OneRoot,
    stack: Vec<Element>,
    root: Option<Element>,
}

impl TreeBuilder {
    fn open(&mut self, name: String, attrs: Vec<(String, String)>, children: usize) {
        self.shape.open();
        self.stack.push(Element {
            name,
            attrs,
            children: Vec::with_capacity(children),
        });
    }

    fn append_text(&mut self, text: impl AsRef<str> + Into<String>) -> XmlResult<()> {
        self.shape.text(text.as_ref())?;
        if let Some(top) = self.stack.last_mut() {
            if let Some(XmlNode::Text(prev)) = top.children.last_mut() {
                prev.push_str(text.as_ref());
            } else {
                top.children.push(XmlNode::Text(text.into()));
            }
        }
        Ok(())
    }

    fn close(&mut self, name: &str) -> XmlResult<()> {
        if let Some(open) = self.stack.last().filter(|open| open.name != name) {
            return Err(XmlError::Transform(format!(
                "end event {name} does not match open element {}",
                open.name
            )));
        }
        self.shape.close()?;
        // the shape saw an open element: the stack holds it
        if let Some(done) = self.stack.pop() {
            match self.stack.last_mut() {
                Some(parent) => parent.children.push(XmlNode::Element(done)),
                None => self.root = Some(done),
            }
        }
        Ok(())
    }

    /// The finished document; the stream must have closed what it opened.
    pub(crate) fn finish(self) -> XmlResult<Document> {
        self.shape.finish()?;
        // one root opened and closed: it is the root
        Ok(Document::new(self.root.unwrap_or_default()))
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

/// Run a source into `sink` as it is and hand the sink back. A source is
/// one root with balanced tags, so the stream is well-formed.
pub fn walk<S: EventSource + ?Sized, H: Handler>(src: &S, mut sink: H) -> XmlResult<H> {
    src.emit(&mut sink)?;
    Ok(sink)
}

/// A source's events folded into a tree.
pub fn tree<S: EventSource + ?Sized>(src: &S) -> XmlResult<Document> {
    walk(src, TreeBuilder::default())?.finish()
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
    fn walk_into_a_tree_builder_rebuilds_the_tree() {
        let doc = parse(r#"<a x="1"><b>hi</b><c/></a>"#).unwrap();
        assert_eq!(tree(&doc).unwrap(), doc);
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
