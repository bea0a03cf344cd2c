//! XPath-lite: element selection by a path of child names.
//!
//! A path is element names separated by `/`, with an optional leading `/`:
//!
//! ```text
//! path := '/'? name ('/' name)*
//! ```
//!
//! The first name matches the root element, each further name that
//! element's children of that name; a path's value is the first match's
//! text content. That is every form a caller writes (`euCustomer/custkey`
//! in P02's SWITCH, `cdbOrder/custkey` in fed's `xmlfn::extract`). Any
//! other form — `//`, `*`, `@attr`, `text()`, an empty step — is an
//! [`XmlError::Path`].

use crate::error::{XmlError, XmlResult};
use crate::node::Element;

/// A compiled path: the element name of each step.
#[derive(Debug, Clone)]
pub struct Path {
    steps: Vec<String>,
}

impl Path {
    /// Compile a path expression.
    pub fn compile(expr: &str) -> XmlResult<Path> {
        let expr = expr.trim();
        // A leading '/' only anchors at the root element, which selection
        // always does anyway: strip it.
        let rest = expr.strip_prefix('/').unwrap_or(expr);
        let steps = rest
            .split('/')
            .map(|step| {
                let is_name = !step.is_empty()
                    && step
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'));
                if is_name {
                    Ok(step.to_string())
                } else {
                    Err(XmlError::Path(format!(
                        "expected an element name at {step:?} in {expr:?}"
                    )))
                }
            })
            .collect::<XmlResult<_>>()?;
        Ok(Path { steps })
    }

    /// Select matching elements below (and including, for the first step)
    /// `root`. The first step matches the root element itself when its name
    /// matches — so `/orders/order` against a document whose root is
    /// `<orders>` selects the `<order>` children.
    pub fn select<'a>(&self, root: &'a Element) -> Vec<&'a Element> {
        let mut steps = self.steps.iter();
        let mut current: Vec<&Element> = match steps.next() {
            Some(first) if &root.name == first => vec![root],
            _ => Vec::new(),
        };
        for n in steps {
            current = (current.into_iter())
                .flat_map(|e| e.elements().filter(move |c| &c.name == n))
                .collect();
        }
        current
    }

    /// The text content of the first matching element, if any.
    pub fn value(&self, root: &Element) -> Option<String> {
        self.select(root).first().map(|e| e.text_content())
    }
}

/// One-shot convenience: select elements by path expression.
pub fn select<'a>(root: &'a Element, expr: &str) -> XmlResult<Vec<&'a Element>> {
    Ok(Path::compile(expr)?.select(root))
}

/// One-shot convenience: first string value of a path expression.
pub fn value(root: &Element, expr: &str) -> XmlResult<Option<String>> {
    Ok(Path::compile(expr)?.value(root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn doc() -> crate::node::Document {
        parse(
            r#"<orders region="eu">
                 <order id="1"><custkey>10</custkey></order>
                 <order id="2"><custkey>20</custkey></order>
                 <meta><nested><custkey>99</custkey></nested></meta>
               </orders>"#,
        )
        .unwrap()
    }

    #[test]
    fn child_paths() {
        let d = doc();
        let orders = select(&d.root, "/orders/order").unwrap();
        assert_eq!(orders.len(), 2);
        assert_eq!(
            value(&d.root, "orders/order/custkey").unwrap().as_deref(),
            Some("10")
        );
    }

    #[test]
    fn bad_paths_rejected() {
        for bad in [
            "",
            " ",
            "/",
            "//x",
            "a//b",
            "a/*",
            "a/@id",
            "a/text()",
            "a/",
            "a/@x/y",
            "a/text()/b",
            "a//",
        ] {
            assert!(
                matches!(Path::compile(bad), Err(XmlError::Path(_))),
                "{bad:?}"
            );
        }
        assert!(Path::compile(" /a/b-c.d_e:f ").is_ok());
    }

    #[test]
    fn no_match_is_empty() {
        let d = doc();
        assert!(select(&d.root, "orders/nothing").unwrap().is_empty());
        assert_eq!(value(&d.root, "wrongroot/x").unwrap(), None);
    }
}
