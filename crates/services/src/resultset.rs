//! The generic "default result-set XSD" codec.
//!
//! The paper's region Asia "follows a generic approach, where all schemas
//! are expressed with default result set XSDs" — the Web services are
//! "simply data sources hidden by Web services". This module defines that
//! generic shape and converts between it and [`Relation`]s:
//!
//! ```xml
//! <resultSet source="beijing" table="orders">
//!   <row><orderkey>1</orderkey><custkey>10</custkey>…</row>
//!   …
//! </resultSet>
//! ```
//!
//! The encoder exists once, as a [`ResultSet`]'s event emitter: a web
//! service answers with the rows it scanned, sized for the wire by
//! arithmetic ([`ResultSet::wire_len`]), and the result set becomes XML
//! events only where something reads it as XML — rendering each value as
//! it goes. [`encode`] is that emitter into the tree builder
//! ([`ResultSet::to_document`]); the MTM engine runs a `TRANSLATE` that
//! reads a `WS_QUERY`'s response straight from the rows.
//!
//! The decoder exists once, as a SAX handler ([`RowSink`]) that builds the
//! rows from the events as they arrive. [`decode`] walks a document into
//! it; the MTM engine runs a `TRANSLATE` whose output only the next
//! `XML_TO_REL` reads through the stylesheet straight into it
//! (`Stylesheet::transform_into`), so that translated result set is never
//! built as a tree — and with a fused `WS_QUERY` before it, runs rows →
//! stylesheet → rows with no tree on either side.

use dip_relstore::prelude::*;
use dip_xmlkit::node::{Document, Element};
use dip_xmlkit::sax::{self, EventSource, Handler, Sink};
use dip_xmlkit::value_types::SimpleType;
use dip_xmlkit::writer::{escaped_len, PROLOG};
use dip_xmlkit::xsd::{XsdAttr, XsdElement, XsdSchema};
use dip_xmlkit::XmlResult;
use std::borrow::{Borrow, Cow};

/// A web service's response: the relation it scanned from `table` of
/// `source`, in the generic result-set shape without being XML yet. It
/// owns its relation; [`encode`] lends one (`R = &Relation`).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet<R: Borrow<Relation> = Relation> {
    /// `source` and `table`: the root element's attributes.
    attrs: [(String, String); 2],
    pub rel: R,
}

impl<R: Borrow<Relation>> ResultSet<R> {
    pub fn new(source: &str, table: &str, rel: R) -> ResultSet<R> {
        let attrs = [("source", source), ("table", table)].map(|(n, v)| (n.into(), v.into()));
        ResultSet { attrs, rel }
    }

    pub fn source(&self) -> &str {
        &self.attrs[0].1
    }

    pub fn table(&self) -> &str {
        &self.attrs[1].1
    }

    /// The byte length of the compact serialization,
    /// `compact_len(&self.to_document())`, counted without rendering a
    /// value: each field's text is [`Value::rendered_len`] bytes plus what
    /// escaping adds, which only a string can need.
    pub fn wire_len(&self) -> usize {
        const ROOT: &str = "resultSet";
        // `<name>text</name>`, the tags without the text
        let rel = self.rel.borrow();
        let tags: Vec<usize> = (rel.schema.columns().iter())
            .map(|c| 2 * c.name.len() + 5)
            .collect();
        // `<resultSet source="…" table="…"`
        let mut len = PROLOG.len() + 1 + ROOT.len();
        for (n, v) in &self.attrs {
            len += 1 + n.len() + 2 + escaped_len(v, true) + 1;
        }
        if rel.rows.is_empty() {
            return len + 2;
        }
        // `>` … `</resultSet>`
        len += 1 + 2 + ROOT.len() + 1;
        for row in &rel.rows {
            let mut fields = 0;
            for (v, tag) in row.iter().zip(&tags) {
                fields += match v {
                    Value::Null => 0,
                    Value::Str(s) => tag + escaped_len(s, false),
                    v => tag + v.rendered_len(),
                };
            }
            // `<row/>`, or `<row>` fields `</row>`
            len += if fields == 0 { 6 } else { 11 + fields };
        }
        len
    }

    /// The response as a tree: the emitter into the tree builder.
    pub fn to_document(&self) -> Document {
        // one root with balanced tags and no text outside it: the builder
        // has nothing to reject
        sax::tree(self).unwrap_or_else(|_| Document::new(Element::new("resultSet")))
    }
}

/// The result set's events: the root with its two attributes; a `<row>`
/// per row; in it, for each non-NULL value (NULL is an absent element), an
/// element named by its column holding the rendered value. Names and
/// attributes are the result set's own; every value but a string, which is
/// its own text, is rendered into one buffer, reused.
impl<R: Borrow<Relation>> EventSource for ResultSet<R> {
    fn emit<'a, S: Sink<'a>>(&'a self, sink: &mut S) -> XmlResult<()> {
        let rel = self.rel.borrow();
        let columns = rel.schema.columns();
        let mut rendered = String::new();
        sink.start("resultSet", &self.attrs, rel.rows.len())?;
        for row in &rel.rows {
            let fields = row.iter().filter(|v| !v.is_null()).count();
            sink.start("row", &[], fields)?;
            for (v, col) in row.iter().zip(columns) {
                let text = match v {
                    Value::Null => continue,
                    // a string is its own rendering
                    Value::Str(s) => s,
                    v => {
                        rendered.clear();
                        v.render_into(&mut rendered);
                        rendered.as_str()
                    }
                };
                sink.start(&col.name, &[], 1)?;
                sink.text(text)?;
                sink.end(&col.name)?;
            }
            sink.end("row")?;
        }
        sink.end("resultSet")
    }
}

/// Encode a relation as a generic result-set document: a [`ResultSet`]'s
/// events folded into a tree.
pub fn encode(source: &str, table: &str, rel: &Relation) -> Document {
    ResultSet::new(source, table, rel).to_document()
}

/// Decode a result-set document back into a relation with the given target
/// schema: elements are matched to columns by name (case-insensitive),
/// missing elements become NULL, values are coerced to the column type.
/// The document is walked into a [`RowSink`].
pub fn decode(doc: &Document, schema: &SchemaRef) -> StoreResult<Relation> {
    // a tree is one balanced root: the stream checks never fire on a walk
    let decoded = sax::walk(doc, RowSink::new(schema)).and_then(RowSink::finish);
    decoded.map_err(|e| StoreError::Invalid(e.to_string()))?
}

/// The result-set decoder as a [`Handler`]: rows are built from the events
/// as they arrive, so nothing else of the document is kept. The root must
/// be `<resultSet>`; each of its `<row>` children is one row; each element
/// child of a row whose name is a column's (case-insensitive) sets that
/// column from its direct text, coerced to the column type; anything else
/// (other elements, text between rows, attributes, elements nested in a
/// field) is skipped.
///
/// A decode failure (a wrong root, a value that does not read as its
/// column type) is kept, the first one in document order, and the stream
/// runs on: what the stream itself gets wrong — text outside the root, a
/// second root, no root at all — is the tree builder's error, with its
/// text ([`sax::OneRoot`], the one check both run), and comes first, so a
/// stylesheet run into this sink fails as
/// `decode(&stylesheet.transform(doc)?)` does. The one check of the tree
/// builder this leaves out is that an end event names the open element:
/// every driver over a tree closes what it opened.
pub struct RowSink {
    schema: SchemaRef,
    rows: Vec<SharedRow>,
    shape: sax::OneRoot,
    /// The values of the row being built, while a `<row>` of the root is
    /// open; one buffer for every row, each row stored from it in one
    /// allocation when it closes.
    row: Vec<Value>,
    /// Whether a `<row>` of the root is open and not failed.
    in_row: bool,
    /// The column of the open field, while a known field of `row` is open.
    field: Option<usize>,
    /// The open field's direct text.
    text: String,
    /// The first decode failure; no row is built after it.
    failed: Option<StoreError>,
}

impl RowSink {
    pub fn new(schema: &SchemaRef) -> RowSink {
        RowSink {
            schema: schema.clone(),
            rows: Vec::new(),
            shape: sax::OneRoot::default(),
            row: Vec::new(),
            in_row: false,
            field: None,
            text: String::new(),
            failed: None,
        }
    }

    /// The decoded relation once the stream has ended: `Err` if the stream
    /// was not one closed root (the tree builder's error), `Ok(Err)` with
    /// the first decode failure.
    pub fn finish(self) -> XmlResult<StoreResult<Relation>> {
        self.shape.finish()?;
        Ok(match self.failed {
            Some(e) => Err(e),
            None => Ok(Relation::new(self.schema, self.rows)),
        })
    }

    /// Coerce the open field's text into its column of the open row.
    fn set_field(&mut self, idx: usize) {
        let Some(col) = self.schema.columns().get(idx).filter(|_| self.in_row) else {
            return;
        };
        match (coerce(&self.text, col.ty), self.row.get_mut(idx)) {
            (Some(v), Some(slot)) => *slot = v,
            _ => {
                self.failed = Some(StoreError::SchemaMismatch(format!(
                    "cannot read {:?} as {} for column {}",
                    self.text, col.ty, col.name
                )));
                self.in_row = false;
            }
        }
    }
}

impl Handler for RowSink {
    fn start(
        &mut self,
        name: &str,
        _attrs: Cow<'_, [(String, String)]>,
        children: usize,
    ) -> XmlResult<()> {
        match self.shape.open() {
            // a second root: the tree builder's error, once it closes
            _ if self.shape.in_extra_root() => {}
            0 => {
                if name == "resultSet" {
                    self.rows.reserve(children);
                } else {
                    let got = format!("expected <resultSet>, got <{name}>");
                    self.failed = Some(StoreError::Invalid(got));
                }
            }
            1 if self.failed.is_none() && name == "row" => {
                self.row.clear();
                self.row.resize(self.schema.len(), Value::Null);
                self.in_row = true;
            }
            2 if self.in_row => {
                let mut columns = self.schema.columns().iter();
                self.field = columns.position(|c| c.name.eq_ignore_ascii_case(name));
                self.text.clear();
            }
            _ => {}
        }
        Ok(())
    }

    fn text(&mut self, text: &str) -> XmlResult<()> {
        if self.shape.text(text)? == 3 && self.field.is_some() {
            self.text.push_str(text);
        }
        Ok(())
    }

    fn end(&mut self, _name: &str) -> XmlResult<()> {
        match self.shape.close()? {
            1 if self.in_row => {
                self.in_row = false;
                self.rows.push(self.row.drain(..).collect());
            }
            2 => {
                if let Some(idx) = self.field.take() {
                    self.set_field(idx);
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// Lexical-to-typed coercion used when decoding.
pub fn coerce(text: &str, ty: SqlType) -> Option<Value> {
    let t = text.trim();
    Some(match ty {
        SqlType::Int => Value::Int(t.parse().ok()?),
        SqlType::Float => Value::Float(t.parse().ok()?),
        SqlType::Bool => Value::Bool(t.parse().ok()?),
        SqlType::Str => Value::str(t),
        SqlType::Date => Value::Date(parse_date(t)?),
    })
}

/// The structural XSD for result-set documents over a given schema.
pub fn result_set_xsd(name: &str, schema: &RelSchema) -> XsdSchema {
    let fields: Vec<_> = schema
        .columns()
        .iter()
        .map(|c| {
            let ty = match c.ty {
                SqlType::Int => SimpleType::Int,
                SqlType::Float => SimpleType::Decimal,
                SqlType::Date => SimpleType::Date,
                _ => SimpleType::String,
            };
            // every field is optional: NULL encodes as absence
            XsdElement::simple(c.name.clone(), ty).optional()
        })
        .collect();
    XsdSchema::new(
        name,
        XsdElement::sequence(
            "resultSet",
            vec![XsdElement::sequence("row", fields).many()],
        )
        .with_attr(XsdAttr::required("source", SimpleType::String))
        .with_attr(XsdAttr::required("table", SimpleType::String)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> SchemaRef {
        RelSchema::of(&[
            ("orderkey", SqlType::Int),
            ("price", SqlType::Float),
            ("odate", SqlType::Date),
            ("note", SqlType::Str),
        ])
        .shared()
    }

    fn rel() -> Relation {
        Relation::new(
            schema(),
            vec![
                [
                    Value::Int(1),
                    Value::Float(9.5),
                    Value::Date(days_from_civil(2008, 4, 7)),
                    Value::str("a<b"),
                ]
                .into(),
                [Value::Int(2), Value::Null, Value::Null, Value::Null].into(),
            ],
        )
    }

    #[test]
    fn roundtrip() {
        let doc = encode("beijing", "orders", &rel());
        let back = decode(&doc, &schema()).unwrap();
        assert_eq!(back, rel());
    }

    #[test]
    fn encoded_document_validates() {
        let doc = encode("beijing", "orders", &rel());
        let xsd = result_set_xsd("rs_orders", &schema());
        assert!(xsd.is_valid(&doc), "{:?}", xsd.validate(&doc));
    }

    #[test]
    fn decode_rejects_wrong_root() {
        let doc = Document::new(Element::new("nope"));
        assert!(decode(&doc, &schema()).is_err());
    }

    #[test]
    fn decode_rejects_bad_lexical_value() {
        let doc = Document::new(
            Element::new("resultSet")
                .child(Element::new("row").child(Element::leaf("orderkey", "NaNaN"))),
        );
        assert!(decode(&doc, &schema()).is_err());
    }

    #[test]
    fn unknown_fields_ignored() {
        let doc = Document::new(
            Element::new("resultSet").child(
                Element::new("row")
                    .child(Element::leaf("orderkey", "5"))
                    .child(Element::leaf("mystery", "?")),
            ),
        );
        let rel = decode(&doc, &schema()).unwrap();
        assert_eq!(rel.rows[0][0], Value::Int(5));
    }

    #[test]
    fn serialized_size_is_stable() {
        // the netsim layer charges bandwidth by serialized byte count;
        // make sure encoding is deterministic
        let a = dip_xmlkit::write_compact(&encode("s", "t", &rel()));
        let b = dip_xmlkit::write_compact(&encode("s", "t", &rel()));
        assert_eq!(a, b);
    }
}
