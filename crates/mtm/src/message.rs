//! The message model: what flows between MTM operators.
//!
//! Process variables (`msg1`, `msg2`, … in the paper's figures) hold either
//! an XML document, a relational dataset, or a scalar — the three data
//! shapes the DIPBench processes exchange.
//!
//! A variable is a *value*: operators read it and bind new variables, they
//! never mutate one. Documents and relations are therefore held behind an
//! `Arc`, and every hand-off — ASSIGN, FORK, SUBPROCESS input — shares the
//! payload instead of copying it. The relational steps (SELECTION,
//! PROJECTION, UNION DISTINCT, JOIN) run as plans over `Plan::Values`
//! leaves holding those `Arc`s: the executor reads the rows in place and
//! copies each value it keeps once. A variable's last reader unbinds it:
//! a relational step frees its input as it ends and a SUBPROCESS hands it
//! to the callee, when nothing else shares it; a `DbInsert` moves the rows
//! into the target table, copying them while another binding shares them.
//!
//! A SELECTION whose input another binding shares (P14's three FORK
//! branches all select from `sales`) copies nothing: it binds a
//! [`MtmMessage::Picked`], the shared relation plus the ids of the rows it
//! kept, and a relational step reads those rows in place through its
//! `Values` leaf. A reader that needs an owned relation copies the picked
//! rows once: a `DbInsert` its rows, and `as_rel` (`RelToXml`, a `CUSTOM`
//! check) a relation it keeps beside the view for later readers.

use dip_relstore::prelude::*;
use dip_xmlkit::node::Document;
use std::sync::{Arc, OnceLock};

/// A value bound to a process variable. Cloning shares the payload.
#[derive(Debug, Clone)]
pub enum MtmMessage {
    Xml(Arc<Document>),
    Rel(Arc<Relation>),
    /// A selection's rows over a relation another binding shares.
    Picked(Arc<Picked>),
    Scalar(Value),
}

/// The rows a SELECTION kept, read in place from the relation it read,
/// and the copy [`MtmMessage::as_rel`] makes of them, once, when a reader
/// asks for a `&Relation`.
#[derive(Debug)]
pub struct Picked {
    view: View,
    copy: OnceLock<Relation>,
}

impl MtmMessage {
    pub fn as_xml(&self) -> Result<&Document, MtmTypeError> {
        match self {
            MtmMessage::Xml(d) => Ok(d),
            other => Err(MtmTypeError::expected("XML", other)),
        }
    }

    /// The document behind its `Arc`, by value: a `CUSTOM` handed the
    /// only binding edits it in place (`Arc::unwrap_or_clone`).
    pub fn into_xml(self) -> Result<Arc<Document>, MtmTypeError> {
        match self {
            MtmMessage::Xml(d) => Ok(d),
            other => Err(MtmTypeError::expected("XML", &other)),
        }
    }

    /// The relation; picked rows are copied into one the first time.
    pub fn as_rel(&self) -> Result<&Relation, MtmTypeError> {
        match self {
            MtmMessage::Rel(r) => Ok(r),
            MtmMessage::Picked(p) => Ok(p.copy.get_or_init(|| p.view.clone().into_relation())),
            other => Err(MtmTypeError::expected("relation", other)),
        }
    }

    /// The relation's rows as a view (what a `Plan::Values` holds): the
    /// payload shared, no row copied.
    pub(crate) fn view(&self) -> Result<View, MtmTypeError> {
        match self {
            MtmMessage::Rel(r) => Ok(View::from(r.clone())),
            MtmMessage::Picked(p) => Ok(p.view.clone()),
            other => Err(MtmTypeError::expected("relation", other)),
        }
    }

    /// Bind the rows `view` picks.
    pub(crate) fn picked(view: View) -> MtmMessage {
        let copy = OnceLock::new();
        MtmMessage::Picked(Arc::new(Picked { view, copy }))
    }

    /// Whether this binding is the payload's only one.
    pub(crate) fn unshared(&self) -> bool {
        match self {
            MtmMessage::Rel(r) => Arc::strong_count(r) == 1,
            MtmMessage::Picked(p) => Arc::strong_count(p) == 1,
            _ => false,
        }
    }

    /// The relation's rows: moved out when this binding was the payload's
    /// only one, shared row by row when another still holds it.
    pub(crate) fn into_rows(self) -> Result<Vec<SharedRow>, MtmTypeError> {
        match self {
            MtmMessage::Rel(rel) => Ok(View::from(rel).into_relation().rows),
            MtmMessage::Picked(p) => Ok(match Arc::try_unwrap(p) {
                Ok(Picked { view, copy }) => {
                    copy.into_inner().unwrap_or_else(|| view.into_relation())
                }
                Err(shared) => shared.view.clone().into_relation(),
            }
            .rows),
            other => Err(MtmTypeError::expected("relation", &other)),
        }
    }

    pub fn as_scalar(&self) -> Result<&Value, MtmTypeError> {
        match self {
            MtmMessage::Scalar(v) => Ok(v),
            other => Err(MtmTypeError::expected("scalar", other)),
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            MtmMessage::Xml(_) => "XML",
            MtmMessage::Rel(_) | MtmMessage::Picked(_) => "relation",
            MtmMessage::Scalar(_) => "scalar",
        }
    }
}

/// A relation and picked rows are equal when they hold the same rows under
/// the same schema, however each holds them.
impl PartialEq for MtmMessage {
    fn eq(&self, other: &MtmMessage) -> bool {
        match (self, other) {
            (MtmMessage::Xml(a), MtmMessage::Xml(b)) => a == b,
            (MtmMessage::Scalar(a), MtmMessage::Scalar(b)) => a == b,
            (a, b) => matches!((a.view(), b.view()), (Ok(a), Ok(b)) if a == b),
        }
    }
}

impl From<Document> for MtmMessage {
    fn from(d: Document) -> Self {
        MtmMessage::Xml(Arc::new(d))
    }
}

impl From<Relation> for MtmMessage {
    fn from(r: Relation) -> Self {
        MtmMessage::Rel(Arc::new(r))
    }
}

impl From<Value> for MtmMessage {
    fn from(v: Value) -> Self {
        MtmMessage::Scalar(v)
    }
}

/// Shape mismatch when an operator reads a variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtmTypeError {
    pub expected: &'static str,
    pub got: &'static str,
}

impl MtmTypeError {
    fn expected(expected: &'static str, got: &MtmMessage) -> MtmTypeError {
        MtmTypeError {
            expected,
            got: got.kind(),
        }
    }
}

impl std::fmt::Display for MtmTypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected a {} message, got {}", self.expected, self.got)
    }
}

impl std::error::Error for MtmTypeError {}

/// A `Custom` step's function reports failures as text: `inputs[0].as_xml()?`.
impl From<MtmTypeError> for String {
    fn from(e: MtmTypeError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_xmlkit::Element;

    #[test]
    fn accessors_enforce_kind() {
        let m = MtmMessage::from(Document::new(Element::new("x")));
        assert!(m.as_xml().is_ok());
        assert!(m.as_rel().is_err());
        let e = m.as_scalar().unwrap_err();
        assert_eq!(e.expected, "scalar");
        assert_eq!(e.got, "XML");
    }
}
