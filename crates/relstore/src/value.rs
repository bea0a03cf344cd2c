//! Typed scalar values and SQL-ish data types.
//!
//! `Value` is the unit of data everywhere in the store: rows are vectors of
//! values, expressions evaluate to values, index keys are tuples of values.
//! The type system is intentionally small — exactly what the DIPBench
//! schemas need (integers, decimals stored as `f64`, strings, booleans and
//! dates) — but total orderings and hashing are defined carefully so that
//! values can serve as join and index keys.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The SQL-level type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    Bool,
    Int,
    Float,
    Str,
    /// Days since 1970-01-01 (proleptic Gregorian).
    Date,
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SqlType::Bool => "BOOLEAN",
            SqlType::Int => "BIGINT",
            SqlType::Float => "DOUBLE",
            SqlType::Str => "VARCHAR",
            SqlType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// A dynamically typed scalar value.
///
/// `Null` belongs to every type. Comparison follows a *total* order so that
/// values can be sorted and used as B-tree keys: `Null` sorts first, then
/// booleans, integers/floats (numerically, cross-type), strings and dates.
///
/// Strings are shared (`Arc<str>`): cloning a value — and therefore a row,
/// an index key tuple, a hash-join build entry or a captured change — bumps
/// a reference count instead of copying the bytes. Equality, ordering and
/// hashing all go through the underlying `str`, so the representation is
/// invisible to join and index semantics.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Date(i32),
}

impl Value {
    /// Construct a string value from anything string-like. This is the one
    /// place string bytes are copied into a shared allocation; every later
    /// clone of the value is a reference-count bump.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Borrow the string contents, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The runtime type of this value, or `None` for `Null`.
    pub fn sql_type(&self) -> Option<SqlType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(SqlType::Bool),
            Value::Int(_) => Some(SqlType::Int),
            Value::Float(_) => Some(SqlType::Float),
            Value::Str(_) => Some(SqlType::Str),
            Value::Date(_) => Some(SqlType::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by arithmetic and cross-type comparison.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (floats are truncated, numeric strings parsed).
    pub fn to_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            Value::Bool(b) => Some(*b as i64),
            Value::Str(s) => s.trim().parse().ok(),
            Value::Date(d) => Some(*d as i64),
            Value::Null => None,
        }
    }

    /// Float view (integers widened, numeric strings parsed).
    pub fn to_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            Value::Str(s) => s.trim().parse().ok(),
            Value::Null => None,
            _ => None,
        }
    }

    /// Truthiness used by predicate evaluation; `Null` is not true.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Render the value the way the report writers print it.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{f:.1}")
                } else {
                    format!("{f}")
                }
            }
            Value::Str(s) => s.to_string(),
            Value::Date(d) => render_date(*d),
        }
    }

    /// Byte length of [`Value::render`]'s output, computed without
    /// building the string — wire-size accounting runs this once per value
    /// on every remote load/query. Every length is arithmetic except that
    /// of NaN, an infinity, a float below `1e-4` in magnitude or an
    /// integral one from `1e15` up, which is counted by formatting into a
    /// byte counter.
    pub fn rendered_len(&self) -> usize {
        match self {
            Value::Null => 4,
            Value::Bool(b) => {
                if *b {
                    4
                } else {
                    5
                }
            }
            Value::Int(i) => int_digits(*i),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    // `{f:.1}`: the integer, `.0`, and the sign, `-0.0`'s too
                    let sign = usize::from(f.is_sign_negative());
                    sign + uint_digits(f.abs() as u64) + 2
                } else if let Some(len) = shortest_float_len(*f) {
                    len
                } else {
                    let mut w = LenCounter(0);
                    use std::fmt::Write;
                    let _ = write!(w, "{f}");
                    w.0
                }
            }
            Value::Str(s) => s.len(),
            // `{y:04}-{m:02}-{d:02}`: the padding counts a year's sign
            Value::Date(d) => int_digits(i64::from(civil_from_days(*d).0)).max(4) + 6,
        }
    }

    /// SQL-style three-valued equality: `Null` compared to anything is not
    /// equal (returns `None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// Total comparison used for sorting and index keys.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                _ => rank(a).cmp(&rank(b)),
            },
        }
    }
}

/// Cross-type rank for the total order when values are not comparable
/// numerically (e.g. a string vs. a date).
fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Str(_) => 3,
        Value::Date(_) => 4,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats that compare equal must hash equally.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                // hash the str contents, not the Arc pointer, so equal
                // strings hash equally across distinct allocations
                (**s).hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}

/// Byte-counting sink for [`Value::rendered_len`]: formats into nothing.
struct LenCounter(usize);

impl std::fmt::Write for LenCounter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Decimal digit count of `n`.
fn uint_digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Decimal digit count of `i` including a leading `-` sign.
fn int_digits(i: i64) -> usize {
    usize::from(i < 0) + uint_digits(i.unsigned_abs())
}

/// `10^f` for every fraction length [`shortest_float_len`] can meet.
const POW10: [u128; 22] = {
    let mut p = [1u128; 22];
    let mut f = 1;
    while f < p.len() {
        p[f] = p[f - 1] * 10;
        f += 1;
    }
    p
};

/// Byte length of `{x}` (`Display`, shortest round-trip digits, printed
/// positionally) for a non-integral `x` with `1e-4 <= |x|`, in integer
/// arithmetic; `None` outside that domain.
///
/// `core::fmt` decodes `x = m·2^e` into the rounding interval
/// `((2m−1)·2^(e−1), (2m+1)·2^(e−1))` — `(4m−1)·2^(e−2)` below when `m` is
/// `2^52`, the lower neighbour being closer — with both ends included
/// iff `m` is even, and prints the multiple of the largest power of ten
/// that the interval holds (the closest one, if it holds two). No integer
/// lies in the interval of a non-integral double below `2^52`, so that
/// power is `10^-f` for some `f >= 1` and the output is the integer part,
/// a point and `f` fraction digits.
fn shortest_float_len(x: f64) -> Option<usize> {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let abs = x.abs();
    // excludes NaN, the infinities, subnormals and every integral value
    if !(1e-4..TWO_52).contains(&abs) || x.fract() == 0.0 {
        return None;
    }
    let bits = x.to_bits();
    let fraction = bits & ((1 << 52) - 1);
    let m = fraction | (1 << 52);
    // |x| = m·2^e with -66 <= e <= -1; in units of 2^-s the interval's
    // ends are integers below 2^55
    let s = 1077 - ((bits >> 52) & 0x7ff) as usize;
    let inclusive = m.is_multiple_of(2);
    let low = u128::from(4 * m - if fraction == 0 { 1 } else { 2 });
    let high = u128::from(4 * m + 2);
    let unit = (1u128 << s) - 1;
    // it holds a multiple of 10^-f iff (low·10^f, high·10^f) holds a
    // multiple of 2^s — a multiple of 10^-f is one of 10^-(f+1) too, so
    // this is monotone in f
    let holds = |f: usize| {
        let (low, high) = (low * POW10[f], high * POW10[f]);
        let above = (low | unit) + 1;
        if inclusive {
            low & unit == 0 || above <= high
        } else {
            above < high
        }
    };
    // it is wider than 2^(1-s) > 10^-g, so it holds a multiple of 10^-g
    // (`k·78913 >> 18` is ⌊k·log10 2⌋ here; g <= 21, and 2^55·10^21 still
    // fits); most doubles need every digit, so one fewer is tried first
    let g = (((s - 1) * 78_913) >> 18) + 1;
    let mut f = g;
    if holds(g - 1) {
        let mut lo = 1;
        f = g - 1;
        while lo < f {
            let mid = (lo + f) / 2;
            if holds(mid) {
                f = mid;
            } else {
                lo = mid + 1;
            }
        }
    }
    let sign = usize::from(x < 0.0);
    Some(sign + uint_digits(abs as u64) + 1 + f)
}

/// Days-since-epoch to `YYYY-MM-DD`, civil calendar.
pub fn render_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// `YYYY-MM-DD` to days-since-epoch; returns `None` on malformed input and
/// on a date whose day number does not fit in an `i32`.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut it = s.split('-');
    let y: i32 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    i32::try_from(day_number(y, m, d)).ok()
}

/// Howard Hinnant's `days_from_civil` algorithm, for dates whose day
/// number fits in an `i32` (years within ±5 879 610); beyond them it
/// saturates.
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let days = day_number(y, m, d);
    i32::try_from(days).unwrap_or(if days < 0 { i32::MIN } else { i32::MAX })
}

/// [`days_from_civil`] in `i64`, which no `i32` year overflows.
fn day_number(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u32;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + i64::from(doe) - 719_468
}

/// Inverse of [`days_from_civil`], total over `i32` (computed in `i64`).
pub fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = i64::from(z) + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u32;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let y = i64::from(yoe) + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    // |y| <= 5 879 611 for any i32 day
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

/// Calendar field extraction used by the DWH time dimension functions.
pub fn date_parts(days: i32) -> (i32, u32, u32) {
    civil_from_days(days)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn null_sorts_first() {
        let mut vs = [Value::Int(1), Value::Null, Value::str("a")];
        vs.sort();
        assert!(vs[0].is_null());
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
        assert!(Value::Int(2) < Value::Float(2.5));
    }

    #[test]
    fn sql_eq_is_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (2000, 2, 29), (2008, 4, 12), (1969, 12, 31)] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d));
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(parse_date("2008-04-07"), Some(days_from_civil(2008, 4, 7)));
        assert_eq!(render_date(days_from_civil(2008, 4, 7)), "2008-04-07");
        assert_eq!(parse_date("2008-13-01"), None);
    }

    /// A year whose day number leaves `i32` is malformed text, not an
    /// overflow, and every `i32` day renders — both used to panic in a
    /// debug build and wrap in a release build.
    #[test]
    fn dates_beyond_the_day_range_are_rejected_not_wrapped() {
        assert_eq!(parse_date("99999999-01-01"), None);
        assert_eq!(parse_date("-1-01-01"), None);
        for days in [i32::MAX, i32::MIN, i32::MIN + 1] {
            let rendered = render_date(days);
            assert_eq!(Value::Date(days).rendered_len(), rendered.len());
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days, "{rendered}");
        }
        assert_eq!(parse_date(&render_date(i32::MAX)), Some(i32::MAX));
        let past_the_end = format!("{}-12-31", civil_from_days(i32::MAX).0);
        assert_eq!(parse_date(&past_the_end), None);
    }

    #[test]
    fn to_int_and_float_views() {
        assert_eq!(Value::str(" 42 ").to_int(), Some(42));
        assert_eq!(Value::Float(2.9).to_int(), Some(2));
        assert_eq!(Value::Int(2).to_float(), Some(2.0));
        assert_eq!(Value::Null.to_int(), None);
    }

    #[test]
    fn render_formats() {
        assert_eq!(Value::Float(2.0).render(), "2.0");
        assert_eq!(Value::Int(7).render(), "7");
        assert_eq!(Value::Null.render(), "NULL");
    }

    #[test]
    fn rendered_len_matches_render() {
        let cases = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(7),
            Value::Int(-7),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(2.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(-7.0),
            Value::Float(999_999_999_999_999.0),
            Value::Float(-0.125),
            Value::Float(0.1),
            Value::Float(123.45),
            Value::Float(-0.000_123_4),
            Value::Float(1e-4),
            Value::Float(9.5e-5),
            Value::Float(4_503_599_627_370_495.5),
            Value::Float(1.0 / 3.0),
            Value::Float(f64::EPSILON),
            Value::Float(f64::MIN_POSITIVE / 2.0),
            Value::Float(1e300),
            Value::Float(3.125e15),
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::str(""),
            Value::str("Straße 12"),
            Value::Date(0),
            Value::Date(19000),
            Value::Date(-140000),
            Value::Date(-719_528),
            Value::Date(-719_529),
            Value::Date(-1_000_000),
            Value::Date(i32::MAX),
        ];
        for v in cases {
            assert_eq!(v.rendered_len(), v.render().len(), "value {v:?}");
        }
    }

    #[test]
    fn string_equality_across_representations() {
        // the same text arriving as &str, String, or a shared Arc<str>
        // must compare, order and hash identically
        let a = Value::str("berlin");
        let b = Value::str(String::from("berlin"));
        let c = Value::from(std::sync::Arc::<str>::from("berlin"));
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(h(&a), h(&b));
        assert_eq!(h(&b), h(&c));
        assert_eq!(a.total_cmp(&b), Ordering::Equal);
        assert!(Value::str("a") < Value::str(String::from("b")));
        assert_eq!(a.as_str(), Some("berlin"));
        assert_eq!(Value::Int(1).as_str(), None);
    }

    #[test]
    fn string_clone_shares_allocation() {
        let a = Value::str("shared-bytes");
        let b = a.clone();
        match (&a, &b) {
            (Value::Str(x), Value::Str(y)) => {
                assert!(std::sync::Arc::ptr_eq(x, y), "clone must not copy bytes");
            }
            _ => unreachable!(),
        }
    }
}
