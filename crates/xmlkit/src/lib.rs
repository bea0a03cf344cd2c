//! # dip-xmlkit — XML substrate
//!
//! Everything XML-shaped that DIPBench needs, written from scratch:
//!
//! * a tree model ([`node`]) and a non-validating parser ([`parser`]) /
//!   serializer ([`writer`]);
//! * SAX event streams ([`sax`]) as the substrate for streaming
//!   transformations;
//! * an XPath-lite selection language ([`path`]): child-name paths, the
//!   one form a process uses;
//! * an XSD-lite structural validator ([`xsd`]) used by P10's error-prone
//!   message handling and P12/P13's load validation;
//! * an STX-like streaming transformation engine ([`stx`]) implementing
//!   the paper's schema translations with rules that name an element.
//!
//! This crate reads what a source system sent, so malformed input is an
//! expected event: outside tests nothing here may panic (the lint below),
//! and [`parser::MAX_DEPTH`] bounds the recursion of everything that walks
//! a parsed tree.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod error;
pub mod node;
pub mod parser;
pub mod path;
pub mod sax;
pub mod stx;
pub mod value_types;
pub mod writer;
pub mod xsd;

pub use error::{XmlError, XmlResult};
pub use node::{Document, Element, XmlNode};
pub use parser::parse;
pub use writer::{compact_len, write_compact};
