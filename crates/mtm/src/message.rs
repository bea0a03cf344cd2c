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
//! leaves holding those `Arc`s: the executor reads the rows in place, a
//! row it keeps whole (a SELECTION's) is the input's own shared row, and
//! a row it computes copies each value once. A variable's last reader
//! unbinds it: a relational step frees its input as it ends and a
//! SUBPROCESS hands it to the callee, when nothing else shares it; a
//! `DbInsert` moves the rows into the target table, sharing them row by
//! row while another binding holds the relation.

use dip_relstore::prelude::*;
use dip_xmlkit::node::Document;
use std::sync::Arc;

/// A value bound to a process variable. Cloning shares the payload.
#[derive(Debug, Clone, PartialEq)]
pub enum MtmMessage {
    Xml(Arc<Document>),
    Rel(Arc<Relation>),
    Scalar(Value),
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

    pub fn as_rel(&self) -> Result<&Relation, MtmTypeError> {
        match self {
            MtmMessage::Rel(r) => Ok(r),
            other => Err(MtmTypeError::expected("relation", other)),
        }
    }

    /// The relation behind its `Arc`, by value (what a `Plan::Values`
    /// holds): no row copied.
    pub(crate) fn into_rel(self) -> Result<Arc<Relation>, MtmTypeError> {
        match self {
            MtmMessage::Rel(r) => Ok(r),
            other => Err(MtmTypeError::expected("relation", &other)),
        }
    }

    /// Whether this binding is its relation's only one.
    pub(crate) fn unshared(&self) -> bool {
        matches!(self, MtmMessage::Rel(r) if Arc::strong_count(r) == 1)
    }

    /// The relation's rows: moved out when this binding was the relation's
    /// only one, shared row by row when another still holds it.
    pub(crate) fn into_rows(self) -> Result<Vec<SharedRow>, MtmTypeError> {
        Ok(Arc::unwrap_or_clone(self.into_rel()?).rows)
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
            MtmMessage::Rel(_) => "relation",
            MtmMessage::Scalar(_) => "scalar",
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
