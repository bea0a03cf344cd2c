//! STX-like streaming XML transformations.
//!
//! The paper's schema translations (P01: XSD_Beijing → XSD_Seoul, P02:
//! MDM → Europe, P08/P09/P10: source schemas → CDB schema) are specified as
//! STX stylesheets — *streaming* transformations over a SAX event stream
//! (Becker, "Streaming Transformations for XML", 2003). This module
//! implements the subset those translations use: template rules that name
//! one element, with rename / drop / unwrap / attribute-rename /
//! attributes-to-elements and text-vocabulary actions, executed in a single
//! pass over the event stream with O(depth) state. The first rule naming
//! an element applies to it wherever it occurs; every stylesheet the
//! processes use is written that way, and a rule kind comes back only
//! together with a stylesheet that needs it.
//!
//! The rule application exists once, as a filter between borrowed events
//! and a [`Handler`]; two drivers feed it. [`Stylesheet::transform_into`]
//! runs any [`EventSource`] through it into any handler in one pass — the
//! source emits straight into the filter, which is a [`Sink`] and has no
//! walk of its own. [`Stylesheet::transform`] is that driver into a tree
//! builder, the output tree being all it allocates: the MTM engine's
//! `TRANSLATE` operator, over a bound document or over the result set a
//! `WS_QUERY` handed on (`dip_services::resultset::ResultSet`, which
//! renders its values as the filter reads them). The engine runs a
//! `TRANSLATE` whose output only the next `XML_TO_REL` or `DB_LOAD_XML`
//! reads straight into that step's row-building handler
//! (`dip_services::resultset::RowSink`, or the load's decoder — for an
//! order message the order decoder), so no output tree is built, and
//! behind a fused `WS_QUERY` no input tree either. [`Stylesheet::transform_events`] runs the filter from one
//! `Vec<SaxEvent>` into another; `dip_feddbms::xmlfn::transform` wraps
//! that in `sax::events` / `sax::build` and two CLOB round trips, because a
//! CLOB-bound SQL/XML function stack materializes every stage (the paper's
//! System A), and the tests use the same pipeline as the one-pass driver's
//! oracle. (`sax::walk`, the third driver, skips the filter.)

use crate::error::{XmlError, XmlResult};
use crate::node::Document;
use crate::sax::{EventSource, Handler, SaxEvent, Sink, TreeBuilder};
use std::borrow::Cow;
use std::collections::HashMap;

/// What to do with a matched element.
#[derive(Debug, Clone)]
pub enum Action {
    /// Emit the element under a different name.
    Rename(String),
    /// Drop the element and its entire subtree.
    Drop,
    /// Drop the element's own tags but keep (and keep transforming) its
    /// children — flattens one level of structure.
    Unwrap,
    /// Replace text content through a vocabulary map (the semantic
    /// heterogeneity mapping, e.g. priority-flag vocabularies); unmapped
    /// values pass through unchanged.
    MapText(HashMap<String, String>),
    /// Rename an attribute.
    RenameAttr { from: String, to: String },
    /// Turn every attribute into a leading child element
    /// (`<o id="1"/>` → `<o><id>1</id></o>`).
    AttrsToElements,
}

/// A template rule for the elements of one (input) name: the first rule
/// naming an element wins, and all its actions apply.
#[derive(Debug, Clone)]
pub struct Rule {
    pub name: String,
    pub actions: Vec<Action>,
}

impl Rule {
    pub fn for_name(name: impl Into<String>) -> RuleBuilder {
        RuleBuilder(Rule {
            name: name.into(),
            actions: Vec::new(),
        })
    }
}

/// Fluent rule construction.
pub struct RuleBuilder(Rule);

impl RuleBuilder {
    pub fn rename(mut self, to: impl Into<String>) -> RuleBuilder {
        self.0.actions.push(Action::Rename(to.into()));
        self
    }
    pub fn drop(mut self) -> RuleBuilder {
        self.0.actions.push(Action::Drop);
        self
    }
    pub fn unwrap_element(mut self) -> RuleBuilder {
        self.0.actions.push(Action::Unwrap);
        self
    }
    pub fn map_text(mut self, pairs: &[(&str, &str)]) -> RuleBuilder {
        let map = pairs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        self.0.actions.push(Action::MapText(map));
        self
    }
    pub fn rename_attr(mut self, from: impl Into<String>, to: impl Into<String>) -> RuleBuilder {
        self.0.actions.push(Action::RenameAttr {
            from: from.into(),
            to: to.into(),
        });
        self
    }
    pub fn attrs_to_elements(mut self) -> RuleBuilder {
        self.0.actions.push(Action::AttrsToElements);
        self
    }
    pub fn build(self) -> Rule {
        self.0
    }
}

/// A named stylesheet: an ordered list of template rules.
#[derive(Debug, Clone)]
pub struct Stylesheet {
    pub name: String,
    pub rules: Vec<Rule>,
}

/// Per-open-element transformation state.
struct Frame<'a> {
    /// Name to emit on the end event; `None` while unwrapped.
    emit_name: Option<&'a str>,
    /// Active text map for direct text children.
    text_map: Option<&'a HashMap<String, String>>,
}

/// The rule application as a SAX filter: the [`Sink`] a source emits
/// into, borrowed events out into `sink`, O(depth) state in between. `'a`
/// spans the stylesheet and the source, so emitted names and vocabulary
/// maps are references into one or the other and nothing is cloned on the
/// way through.
struct Filter<'a, H: Handler> {
    sheet: &'a Stylesheet,
    sink: H,
    frames: Vec<Frame<'a>>,
    /// While dropping a subtree: depth below the dropped element.
    drop_depth: Option<usize>,
}

impl<'a, H: Handler> Filter<'a, H> {
    fn new(sheet: &'a Stylesheet, sink: H) -> Self {
        Filter {
            sheet,
            sink,
            frames: Vec::new(),
            drop_depth: None,
        }
    }
}

impl<'a, H: Handler> Sink<'a> for Filter<'a, H> {
    /// `children` is the input element's child-node count, passed on (plus
    /// what the rule adds) so a tree-building sink sizes the element once.
    fn start(
        &mut self,
        name: &'a str,
        attrs: &'a [(String, String)],
        children: usize,
    ) -> XmlResult<()> {
        if let Some(d) = self.drop_depth.as_mut() {
            *d += 1;
            return Ok(());
        }
        let mut emit_name = Some(name);
        let mut text_map = None;
        let mut attrs_to_elements = false;
        // the rule's actions, when any of them renames an attribute
        let mut renames = None;
        if let Some(rule) = self.sheet.find_rule(name) {
            for action in &rule.actions {
                match action {
                    Action::Drop => self.drop_depth = Some(0),
                    Action::Unwrap => emit_name = None,
                    Action::Rename(to) => {
                        if emit_name.is_some() {
                            emit_name = Some(to);
                        }
                    }
                    Action::MapText(m) => text_map = Some(m),
                    Action::RenameAttr { .. } => renames = Some(&rule.actions[..]),
                    Action::AttrsToElements => attrs_to_elements = true,
                }
            }
        }
        if self.drop_depth.is_some() {
            // element dropped: remember no frame; the drop counter tracks
            // nesting from here on.
            return Ok(());
        }
        if let Some(n) = emit_name {
            let out_name = |attr: &'a str| renames.map_or(attr, |actions| renamed(actions, attr));
            if attrs_to_elements {
                self.sink
                    .start(n, Cow::Borrowed(&[]), children + attrs.len())?;
                for (an, av) in attrs {
                    let an = out_name(an);
                    self.sink.start(an, Cow::Borrowed(&[]), 1)?;
                    self.sink.text(av)?;
                    self.sink.end(an)?;
                }
            } else if renames.is_some() {
                let out_attrs = attrs
                    .iter()
                    .map(|(an, av)| (out_name(an).to_string(), av.clone()));
                self.sink
                    .start(n, Cow::Owned(out_attrs.collect()), children)?;
            } else {
                self.sink.start(n, Cow::Borrowed(attrs), children)?;
            }
        }
        self.frames.push(Frame {
            emit_name,
            text_map,
        });
        Ok(())
    }

    fn text(&mut self, text: &str) -> XmlResult<()> {
        if self.drop_depth.is_some() {
            return Ok(());
        }
        let mapped = self
            .frames
            .last()
            .and_then(|f| f.text_map)
            .and_then(|m| m.get(text.trim()))
            .map_or(text, String::as_str);
        self.sink.text(mapped)
    }

    fn end(&mut self, _name: &'a str) -> XmlResult<()> {
        match self.drop_depth.as_mut() {
            // the dropped element itself closed
            Some(0) => self.drop_depth = None,
            Some(d) => *d -= 1,
            None => {
                let frame = self
                    .frames
                    .pop()
                    .ok_or_else(|| XmlError::Transform("unbalanced input stream".into()))?;
                if let Some(n) = frame.emit_name {
                    self.sink.end(n)?;
                }
            }
        }
        Ok(())
    }
}

/// An attribute's output name: `name` through every `RenameAttr` of
/// `actions`, in action order, so `a→b` then `b→c` makes `a` into `c`.
fn renamed<'a>(actions: &'a [Action], name: &'a str) -> &'a str {
    actions.iter().fold(name, |n, action| match action {
        Action::RenameAttr { from, to } if from == n => to,
        _ => n,
    })
}

fn stx_span() -> dip_trace::Span {
    dip_trace::span_cat(
        dip_trace::Layer::Xmlkit,
        "stx_transform",
        dip_trace::Category::Processing,
    )
}

impl Stylesheet {
    pub fn new(name: impl Into<String>, rules: Vec<Rule>) -> Stylesheet {
        Stylesheet {
            name: name.into(),
            rules,
        }
    }

    /// The identity stylesheet.
    pub fn identity(name: impl Into<String>) -> Stylesheet {
        Stylesheet::new(name, Vec::new())
    }

    fn find_rule(&self, name: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// Transform a materialized SAX event stream into another one — the
    /// pipeline stage of a CLOB-bound XML function stack
    /// (`dip_feddbms::xmlfn::transform`) and the oracle
    /// [`Stylesheet::transform`] is tested against. Same filter, vector in,
    /// vector out.
    pub fn transform_events(&self, input: &[SaxEvent]) -> XmlResult<Vec<SaxEvent>> {
        let _span = stx_span();
        let mut filter = Filter::new(self, Vec::with_capacity(input.len()));
        for ev in input {
            match ev {
                SaxEvent::StartElement { name, attrs } => filter.start(name, attrs, 0)?,
                SaxEvent::Text(t) => filter.text(t)?,
                SaxEvent::EndElement { name } => filter.end(name)?,
            }
        }
        Ok(filter.sink)
    }

    /// Transform a source in one pass: its events stream through the rules
    /// into `sink`, which is handed back once the root has closed. Whatever
    /// the sink builds is its own; the filter keeps O(depth) state, and
    /// what a source renders on the way (a result set's values) is this
    /// span's time.
    pub fn transform_into<S, H>(&self, src: &S, sink: H) -> XmlResult<H>
    where
        S: EventSource + ?Sized,
        H: Handler,
    {
        let _span = stx_span();
        let mut filter = Filter::new(self, sink);
        src.emit(&mut filter)?;
        Ok(filter.sink)
    }

    /// [`Stylesheet::transform_into`] a tree builder: the output tree is
    /// the only thing allocated.
    pub fn transform<S: EventSource + ?Sized>(&self, src: &S) -> XmlResult<Document> {
        self.transform_into(src, TreeBuilder::default())?.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::writer::write_compact;

    #[test]
    fn rename_and_map_text() {
        // the P01-style Beijing → Seoul translation shape
        let sheet = Stylesheet::new(
            "beijing_to_seoul",
            vec![
                Rule::for_name("bj_customer").rename("customer").build(),
                Rule::for_name("bj_priority")
                    .rename("prio")
                    .map_text(&[("HIGH", "1"), ("MED", "2"), ("LOW", "3")])
                    .build(),
            ],
        );
        let doc = parse("<bj_customer><bj_priority>HIGH</bj_priority></bj_customer>").unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(
            write_compact(&out),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><customer><prio>1</prio></customer>"
        );
    }

    #[test]
    fn unmapped_text_passes_through() {
        let sheet = Stylesheet::new(
            "s",
            vec![Rule::for_name("p").map_text(&[("A", "B")]).build()],
        );
        let doc = parse("<p>UNKNOWN</p>").unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(out.root.text_content(), "UNKNOWN");
    }

    #[test]
    fn drop_removes_subtree() {
        let sheet = Stylesheet::new("s", vec![Rule::for_name("internal").drop().build()]);
        let doc = parse(
            "<msg><keep>1</keep><internal><deep><deeper/></deep></internal><keep>2</keep></msg>",
        )
        .unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(out.root.elements().count(), 2);
        assert!(out.root.first("internal").is_none());
    }

    #[test]
    fn unwrap_flattens_one_level() {
        let sheet = Stylesheet::new(
            "s",
            vec![Rule::for_name("wrapper").unwrap_element().build()],
        );
        let doc = parse("<msg><wrapper><a>1</a><b>2</b></wrapper></msg>").unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(out.root.child_text("a").as_deref(), Some("1"));
        assert_eq!(out.root.child_text("b").as_deref(), Some("2"));
    }

    #[test]
    fn attribute_actions() {
        let sheet = Stylesheet::new(
            "s",
            vec![Rule::for_name("o").rename_attr("id", "okey").build()],
        );
        let doc = parse(r#"<o id="5" junk="x"/>"#).unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(out.root.attribute("okey"), Some("5"));
        assert_eq!(out.root.attribute("junk"), Some("x"));
    }

    #[test]
    fn attrs_to_elements() {
        let sheet = Stylesheet::new("s", vec![Rule::for_name("row").attrs_to_elements().build()]);
        let doc = parse(r#"<t><row a="1" b="x"/></t>"#).unwrap();
        let out = sheet.transform(&doc).unwrap();
        let row = out.root.first("row").unwrap();
        assert!(row.attrs.is_empty());
        assert_eq!(row.child_text("a").as_deref(), Some("1"));
        assert_eq!(row.child_text("b").as_deref(), Some("x"));
    }

    #[test]
    fn a_rule_names_its_element_at_any_depth() {
        let sheet = Stylesheet::new("s", vec![Rule::for_name("state").rename("st").build()]);
        let doc =
            parse("<m><order><state>O</state></order><customer><state>C</state></customer></m>")
                .unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert!(out.root.first("order").unwrap().first("st").is_some());
        assert!(out.root.first("customer").unwrap().first("st").is_some());
    }

    #[test]
    fn first_matching_rule_wins() {
        let sheet = Stylesheet::new(
            "s",
            vec![
                Rule::for_name("x").rename("first").build(),
                Rule::for_name("x").rename("second").build(),
            ],
        );
        let doc = parse("<x/>").unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(out.root.name, "first");
    }

    #[test]
    fn identity_is_lossless() {
        let doc = parse(r#"<a q="1"><b>t</b><c><d/></c></a>"#).unwrap();
        let out = Stylesheet::identity("id").transform(&doc).unwrap();
        assert_eq!(out, doc);
    }

    #[test]
    fn nested_drop_of_same_name() {
        let sheet = Stylesheet::new("s", vec![Rule::for_name("kill").drop().build()]);
        let doc = parse("<m><kill><kill/></kill><ok/></m>").unwrap();
        let out = sheet.transform(&doc).unwrap();
        assert_eq!(out.root.elements().count(), 1);
    }
}
