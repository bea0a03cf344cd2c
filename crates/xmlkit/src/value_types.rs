//! Simple types shared by the XSD validator and the result-set codec.

/// XSD-style simple types for text and attribute content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimpleType {
    /// Any text.
    String,
    /// Optionally-signed integer.
    Int,
    /// Decimal number in xs:decimal's lexical form: an optional sign,
    /// digits, an optional fraction (`-1`, `4.`, `.5`, `+0.25`); no
    /// exponent, `NaN` or infinity.
    Decimal,
    /// `YYYY-MM-DD`.
    Date,
    /// One of an enumerated vocabulary (exact match).
    Enum(Vec<String>),
}

/// Check a lexical value against a simple type; `Err` carries a message.
pub fn check_simple(ty: &SimpleType, text: &str) -> Result<(), String> {
    match ty {
        SimpleType::String => Ok(()),
        SimpleType::Int => {
            if text.parse::<i64>().is_ok() {
                Ok(())
            } else {
                Err(format!("{text:?} is not an integer"))
            }
        }
        SimpleType::Decimal => {
            if is_decimal(text) {
                Ok(())
            } else {
                Err(format!("{text:?} is not a decimal"))
            }
        }
        SimpleType::Date => {
            let ok = text.len() == 10
                && text.as_bytes()[4] == b'-'
                && text.as_bytes()[7] == b'-'
                && text[..4].parse::<u32>().is_ok()
                && matches!(text[5..7].parse::<u32>(), Ok(1..=12))
                && matches!(text[8..10].parse::<u32>(), Ok(1..=31));
            if ok {
                Ok(())
            } else {
                Err(format!("{text:?} is not a date (YYYY-MM-DD)"))
            }
        }
        SimpleType::Enum(vocab) => {
            if vocab.iter().any(|v| v == text) {
                Ok(())
            } else {
                Err(format!("{text:?} not in enumeration {vocab:?}"))
            }
        }
    }
}

/// `[+-]?(digits(.digits?)?|.digits)`.
fn is_decimal(text: &str) -> bool {
    let unsigned = text.strip_prefix(['+', '-']).unwrap_or(text);
    let (whole, fraction) = unsigned.split_once('.').unwrap_or((unsigned, ""));
    let digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
    digits(whole) && digits(fraction) && !(whole.is_empty() && fraction.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_decimal() {
        assert!(check_simple(&SimpleType::Int, "-42").is_ok());
        assert!(check_simple(&SimpleType::Int, "4.2").is_err());
        assert!(check_simple(&SimpleType::Decimal, "4.2").is_ok());
        assert!(check_simple(&SimpleType::Decimal, "4").is_ok());
        assert!(check_simple(&SimpleType::Decimal, "").is_err());
        assert!(check_simple(&SimpleType::Decimal, "x").is_err());
        for ok in ["0", "-1", "+2", "4.", ".5", "-.5", "+0.25", "123.45", "007"] {
            assert!(check_simple(&SimpleType::Decimal, ok).is_ok(), "{ok:?}");
        }
        // none is xs:decimal; `f64::from_str` reads the first eight
        for bad in [
            "NaN",
            "nan",
            "inf",
            "-inf",
            "+infinity",
            "1e3",
            "1E3",
            "1.5e-2",
            ".",
            "+",
            "-",
            "+-1",
            "1.2.3",
            " 1",
            "1 ",
            "0x1",
        ] {
            assert!(check_simple(&SimpleType::Decimal, bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn date() {
        assert!(check_simple(&SimpleType::Date, "2008-04-12").is_ok());
        assert!(check_simple(&SimpleType::Date, "2008-13-12").is_err());
        assert!(check_simple(&SimpleType::Date, "2008-4-12").is_err());
        assert!(check_simple(&SimpleType::Date, "garbage").is_err());
    }

    #[test]
    fn enumeration() {
        let e = SimpleType::Enum(vec!["HIGH".into(), "LOW".into()]);
        assert!(check_simple(&e, "HIGH").is_ok());
        assert!(check_simple(&e, "high").is_err());
    }
}
