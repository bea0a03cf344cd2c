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

    pub fn as_rel(&self) -> Result<&Relation, MtmTypeError> {
        self.shared_rel().map(|rel| &**rel)
    }

    /// The relation behind its `Arc`: a clone of it (what a `Plan::Values`
    /// holds) shares the payload.
    pub(crate) fn shared_rel(&self) -> Result<&Arc<Relation>, MtmTypeError> {
        match self {
            MtmMessage::Rel(r) => Ok(r),
            other => Err(MtmTypeError::expected("relation", other)),
        }
    }

    /// The relation's rows: moved out when this binding was the payload's
    /// only one, copied when another still shares it.
    pub(crate) fn into_rows(self) -> Result<Vec<Row>, MtmTypeError> {
        match self {
            MtmMessage::Rel(rel) => {
                Ok(Arc::try_unwrap(rel).map_or_else(|shared| shared.rows.clone(), |rel| rel.rows))
            }
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
            MtmMessage::Rel(_) => "relation",
            MtmMessage::Scalar(_) => "scalar",
        }
    }

    /// Approximate payload size, used for communication-cost modeling.
    pub fn approx_bytes(&self) -> usize {
        match self {
            MtmMessage::Xml(d) => d.root.subtree_size() * 24,
            MtmMessage::Rel(r) => r.rows.len() * r.schema.len() * 8 + 64,
            MtmMessage::Scalar(_) => 16,
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

    #[test]
    fn sizes_scale() {
        let small = MtmMessage::Scalar(Value::Int(1));
        let schema = RelSchema::of(&[("a", SqlType::Int)]).shared();
        let big = MtmMessage::from(Relation::new(
            schema,
            (0..100).map(|i| vec![Value::Int(i)]).collect(),
        ));
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
