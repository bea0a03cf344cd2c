//! What the result-set tests share: generated stylesheets, and the two
//! ways a translated result set reaches rows — the stylesheet straight
//! into a [`RowSink`], or into a tree that is then decoded.

use dip_relstore::prelude::*;
use dip_services::resultset::{decode, RowSink};
use dip_xmlkit::sax::EventSource;
use dip_xmlkit::stx::{Action, Rule, Stylesheet};
use dip_xmlkit::XmlError;
use proptest::prelude::*;
use std::collections::HashMap;

pub fn pick<T: Copy>(pool: &[T], i: usize) -> T {
    pool[i % pool.len()]
}

#[derive(Debug, PartialEq)]
pub enum Outcome {
    Rows(Relation),
    Translate(XmlError),
    Decode(StoreError),
}

/// The stylesheet from `src` into the row sink.
pub fn fused<S: EventSource + ?Sized>(sheet: &Stylesheet, src: &S, schema: &SchemaRef) -> Outcome {
    match sheet.transform_into(src, RowSink::new(schema)) {
        Err(e) => Outcome::Translate(e),
        Ok(sink) => match sink.finish() {
            Err(e) => Outcome::Translate(e),
            Ok(Err(e)) => Outcome::Decode(e),
            Ok(Ok(rel)) => Outcome::Rows(rel),
        },
    }
}

/// The stylesheet from `src` into a tree, the tree decoded.
pub fn tree<S: EventSource + ?Sized>(sheet: &Stylesheet, src: &S, schema: &SchemaRef) -> Outcome {
    match sheet.transform(src) {
        Err(e) => Outcome::Translate(e),
        Ok(out) => match decode(&out, schema) {
            Err(e) => Outcome::Decode(e),
            Ok(rel) => Outcome::Rows(rel),
        },
    }
}

/// Name pools a generated stylesheet aims at.
pub struct Pools<'p> {
    pub names: &'p [&'p str],
    pub texts: &'p [&'p str],
    pub attrs: &'p [&'p str],
}

/// `(name pick, actions as (kind, pick, pick))`.
pub type RuleSpec = (usize, Vec<(usize, usize, usize)>);

pub fn arb_rules() -> impl Strategy<Value = Vec<RuleSpec>> {
    let action = (0usize..6, 0usize..1000, 0usize..1000);
    prop::collection::vec((0usize..1000, prop::collection::vec(action, 1..3)), 0..4)
}

/// Every `Action`, aimed by name at the names in `pools` — the root and
/// `row` among them.
pub fn stylesheet(specs: &[RuleSpec], pools: &Pools) -> Stylesheet {
    let (names, texts, attrs) = (pools.names, pools.texts, pools.attrs);
    let rules = specs.iter().map(|(name, actions)| {
        let actions = actions.iter().map(|&(kind, a, b)| match kind {
            0 => Action::Rename(pick(names, a).into()),
            1 => Action::Drop,
            2 => Action::Unwrap,
            3 => Action::MapText(HashMap::from([(
                pick(texts, a).trim().to_string(),
                pick(texts, b).to_string(),
            )])),
            4 => Action::RenameAttr {
                from: pick(attrs, a).into(),
                to: pick(names, b).into(),
            },
            _ => Action::AttrsToElements,
        });
        Rule {
            name: pick(names, *name).into(),
            actions: actions.collect(),
        }
    });
    Stylesheet::new("generated", rules.collect())
}
