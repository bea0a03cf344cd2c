//! A hand-written, non-validating XML parser.
//!
//! Supports the subset the benchmark's message schemas use: the XML
//! declaration, elements, attributes (single- or double-quoted), character
//! data, CDATA sections, comments, processing instructions and the five
//! predefined entities plus decimal/hex character references. Namespaces
//! are not interpreted (prefixes stay part of the name).

use crate::error::{XmlError, XmlResult};
use crate::node::{Document, Element, XmlNode};

/// Deepest element nesting [`parse`] accepts. The parser, the writer, the
/// tree walks and `Drop` all recurse once per level, and a stack overflow
/// is an abort no panic guard catches — so depth is bounded where outside
/// input enters. The deepest benchmark message has fewer than 10 levels.
pub const MAX_DEPTH: usize = 256;

/// Parse a complete document.
pub fn parse(input: &str) -> XmlResult<Document> {
    let _span = dip_trace::span_cat(
        dip_trace::Layer::Xmlkit,
        "xml_parse",
        dip_trace::Category::Processing,
    );
    dip_trace::count("xmlkit.parse_bytes", input.len() as u64);
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_prolog()?;
    let root = p.parse_element(1)?;
    p.skip_misc();
    if p.pos != p.bytes.len() {
        return Err(XmlError::parse(
            p.pos,
            "trailing content after root element",
        ));
    }
    Ok(Document::new(root))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn expect(&mut self, s: &str) -> XmlResult<()> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(XmlError::parse(self.pos, format!("expected {s:?}")))
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// Skip the XML declaration, comments, PIs and whitespace before root.
    fn skip_prolog(&mut self) -> XmlResult<()> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            self.skip_until("?>")?;
        }
        self.skip_misc();
        // DOCTYPE (ignored, no internal subset support)
        if self.starts_with("<!DOCTYPE") {
            self.skip_until(">")?;
        }
        self.skip_misc();
        Ok(())
    }

    /// Skip comments, PIs and whitespace.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if self.skip_until("-->").is_err() {
                    return;
                }
            } else if self.starts_with("<?") {
                if self.skip_until("?>").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> XmlResult<()> {
        let hay = &self.bytes[self.pos..];
        match find_sub(hay, end.as_bytes()) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(XmlError::parse(
                self.pos,
                format!("unterminated construct, expected {end:?}"),
            )),
        }
    }

    fn parse_name(&mut self) -> XmlResult<String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':');
            if ok {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(XmlError::parse(start, "expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    /// `depth` is the nesting level of the element about to be read (the
    /// root is 1).
    fn parse_element(&mut self, depth: usize) -> XmlResult<Element> {
        if depth > MAX_DEPTH {
            return Err(XmlError::parse(
                self.pos,
                format!("elements nested deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.expect("<")?;
        let name = self.parse_name()?;
        let mut elem = Element::new(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok(elem);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let aname = self.parse_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => {
                            return Err(XmlError::parse(
                                self.pos,
                                "expected quoted attribute value",
                            ))
                        }
                    };
                    self.pos += 1;
                    let vstart = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(XmlError::parse(vstart, "unterminated attribute value"));
                    }
                    let raw = &self.bytes[vstart..self.pos];
                    self.pos += 1;
                    let value = decode_entities(&String::from_utf8_lossy(raw), vstart)?;
                    elem.attrs.push((aname, value));
                }
                None => return Err(XmlError::parse(self.pos, "unexpected end of input in tag")),
            }
        }
        // content
        loop {
            match self.peek() {
                None => {
                    return Err(XmlError::parse(
                        self.pos,
                        format!("unexpected end of input inside <{}>", elem.name),
                    ))
                }
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.pos += 2;
                        let close = self.parse_name()?;
                        if close != elem.name {
                            return Err(XmlError::parse(
                                self.pos,
                                format!("mismatched close tag </{close}> for <{}>", elem.name),
                            ));
                        }
                        self.skip_ws();
                        self.expect(">")?;
                        return Ok(elem);
                    } else if self.starts_with("<!--") {
                        self.skip_until("-->")?;
                    } else if self.starts_with("<![CDATA[") {
                        self.pos += "<![CDATA[".len();
                        let hay = &self.bytes[self.pos..];
                        let end = find_sub(hay, b"]]>")
                            .ok_or_else(|| XmlError::parse(self.pos, "unterminated CDATA"))?;
                        let text = String::from_utf8_lossy(&hay[..end]).into_owned();
                        push_text(&mut elem, text);
                        self.pos += end + 3;
                    } else if self.starts_with("<?") {
                        self.skip_until("?>")?;
                    } else {
                        let child = self.parse_element(depth + 1)?;
                        elem.children.push(XmlNode::Element(child));
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]);
                    let text = decode_entities(&raw, start)?;
                    // whitespace-only runs between elements are not preserved
                    if !text.trim().is_empty() {
                        push_text(&mut elem, text);
                    }
                }
            }
        }
    }
}

/// Append text, merging adjacent text nodes.
fn push_text(elem: &mut Element, text: String) {
    if let Some(XmlNode::Text(prev)) = elem.children.last_mut() {
        prev.push_str(&text);
    } else {
        elem.children.push(XmlNode::Text(text));
    }
}

/// Substring search (naive; inputs are message-sized).
fn find_sub(hay: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || hay.len() < needle.len() {
        return None;
    }
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Decode `&amp;`-style entities and numeric character references.
fn decode_entities(s: &str, offset: usize) -> XmlResult<String> {
    if !s.contains('&') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let end = rest
            .find(';')
            .ok_or_else(|| XmlError::parse(offset, "unterminated entity reference"))?;
        let ent = &rest[1..end];
        match ent {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let cp = u32::from_str_radix(&ent[2..], 16)
                    .map_err(|_| XmlError::parse(offset, format!("bad char ref &{ent};")))?;
                out.push(
                    char::from_u32(cp)
                        .ok_or_else(|| XmlError::parse(offset, "invalid code point"))?,
                );
            }
            _ if ent.starts_with('#') => {
                let cp: u32 = ent[1..]
                    .parse()
                    .map_err(|_| XmlError::parse(offset, format!("bad char ref &{ent};")))?;
                out.push(
                    char::from_u32(cp)
                        .ok_or_else(|| XmlError::parse(offset, "invalid code point"))?,
                );
            }
            _ => return Err(XmlError::parse(offset, format!("unknown entity &{ent};"))),
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_document() {
        let doc = parse(
            r#"<?xml version="1.0"?>
            <!-- a comment -->
            <order id="7">
              <custkey>42</custkey>
              <note>a &amp; b &lt;ok&gt;</note>
              <empty/>
            </order>"#,
        )
        .unwrap();
        assert_eq!(doc.root.name, "order");
        assert_eq!(doc.root.attribute("id"), Some("7"));
        assert_eq!(doc.root.child_text("custkey").as_deref(), Some("42"));
        assert_eq!(doc.root.child_text("note").as_deref(), Some("a & b <ok>"));
        assert!(doc.root.first("empty").unwrap().children.is_empty());
    }

    #[test]
    fn cdata_and_char_refs() {
        let doc = parse("<t><![CDATA[<not-a-tag>]]>&#65;&#x42;</t>").unwrap();
        assert_eq!(doc.root.text_content(), "<not-a-tag>AB");
    }

    #[test]
    fn attribute_entities_and_quotes() {
        let doc = parse(r#"<t a="x &quot;y&quot;" b='single'/>"#).unwrap();
        assert_eq!(doc.root.attribute("a"), Some("x \"y\""));
        assert_eq!(doc.root.attribute("b"), Some("single"));
    }

    #[test]
    fn errors_are_positioned() {
        assert!(matches!(parse("<a><b></a>"), Err(XmlError::Parse { .. })));
        assert!(parse("<a>").is_err());
        assert!(parse("<a></a><b/>").is_err());
        assert!(parse("<a>&unknown;</a>").is_err());
        assert!(parse("<a x=unquoted/>").is_err());
    }

    /// Run on a stack the size of a worker or FORK thread's.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    fn nested(depth: usize) -> String {
        format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth))
    }

    #[test]
    fn nesting_beyond_the_limit_is_a_parse_error() {
        // 100 000 levels overflowed the stack (an abort, not a panic)
        // before the bound
        let err = on_small_stack(|| parse(&nested(100_000))).unwrap_err();
        assert_eq!(
            err,
            XmlError::parse(
                3 * MAX_DEPTH,
                format!("elements nested deeper than {MAX_DEPTH} levels")
            )
        );
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn a_document_at_the_limit_goes_all_the_way_through() {
        on_small_stack(|| {
            let text = nested(MAX_DEPTH);
            let doc = parse(&text).unwrap();
            assert_eq!(doc.root.depth(), MAX_DEPTH);
            let out = crate::stx::Stylesheet::identity("id")
                .transform(&doc)
                .unwrap();
            assert_eq!(out, doc);
            let written = crate::writer::write_compact(&out);
            assert!(written.ends_with(&text.replace("<a></a>", "<a/>")));
            assert_eq!(crate::writer::compact_len(&out), written.len());
            drop((doc, out));
        });
    }

    #[test]
    fn doctype_and_pi_skipped() {
        let doc = parse("<?xml version=\"1.0\"?><!DOCTYPE x><?pi data?><x/>").unwrap();
        assert_eq!(doc.root.name, "x");
    }

    #[test]
    fn whitespace_between_elements_dropped_but_mixed_kept() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.root.children.len(), 1);
        let doc = parse("<a>hi <b/> there</a>").unwrap();
        assert_eq!(doc.root.children.len(), 3);
    }
}
