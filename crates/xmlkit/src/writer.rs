//! XML serialization.

use crate::node::{Document, Element, XmlNode};

/// The XML declaration every compact document starts with.
pub const PROLOG: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";

/// Serialize without insignificant whitespace (round-trips through the
/// parser, which drops whitespace-only text runs).
pub fn write_compact(doc: &Document) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(PROLOG);
    write_element(&doc.root, &mut out);
    out
}

/// Byte length of [`write_compact`]'s output, computed without building
/// the string — wire-size accounting calls this once per web-service
/// round trip, where serializing a whole document just to measure it
/// would dominate the call.
pub fn compact_len(doc: &Document) -> usize {
    PROLOG.len() + element_len(&doc.root)
}

fn element_len(e: &Element) -> usize {
    // "<name" + per-attr " n=\"v\"" + ("/>" | ">" children "</name>")
    let mut len = 1 + e.name.len();
    for (n, v) in &e.attrs {
        len += 1 + n.len() + 2 + escaped_len(v, true) + 1;
    }
    if e.children.is_empty() {
        return len + 2;
    }
    len += 1;
    for c in &e.children {
        len += match c {
            XmlNode::Element(child) => element_len(child),
            XmlNode::Text(t) => escaped_len(t, false),
        };
    }
    len + 2 + e.name.len() + 1
}

/// Byte length of `s` as the serializers write it, escaped, in attribute
/// context if `attr`: every escaped character is ASCII, so bytes are
/// counted.
pub fn escaped_len(s: &str, attr: bool) -> usize {
    let extra = |b: &u8| match b {
        b'<' | b'>' => 3,
        b'&' => 4,
        b'"' if attr => 5,
        _ => 0,
    };
    s.len() + s.as_bytes().iter().map(extra).sum::<usize>()
}

fn write_element(e: &Element, out: &mut String) {
    out.push('<');
    out.push_str(&e.name);
    for (n, v) in &e.attrs {
        out.push(' ');
        out.push_str(n);
        out.push_str("=\"");
        escape_into(v, true, out);
        out.push('"');
    }
    if e.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for c in &e.children {
        match c {
            XmlNode::Element(child) => write_element(child, out),
            XmlNode::Text(t) => escape_into(t, false, out),
        }
    }
    out.push_str("</");
    out.push_str(&e.name);
    out.push('>');
}

/// Escape markup characters; in attribute context also quotes.
fn escape_into(s: &str, attr: bool, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if attr => out.push_str("&quot;"),
            _ => out.push(ch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn roundtrip_compact() {
        let src = r#"<order id="a &quot;b&quot;"><k>1 &lt; 2</k><empty/></order>"#;
        let doc = parse(src).unwrap();
        let out = write_compact(&doc);
        let doc2 = parse(&out).unwrap();
        assert_eq!(doc, doc2);
    }

    #[test]
    fn compact_len_matches_serialization() {
        let docs = [
            r#"<order id="a &quot;b&quot;"><k>1 &lt; 2</k><empty/></order>"#,
            "<a><b><c>x&amp;y</c></b><d/></a>",
            r#"<r enc="&lt;&gt;">Straße &amp; Gärten</r>"#,
        ];
        for src in docs {
            let doc = parse(src).unwrap();
            assert_eq!(compact_len(&doc), write_compact(&doc).len(), "doc {src}");
        }
    }
}
