//! A web service's response read as XML straight from its rows — the
//! `ResultSet` emitter, what the MTM engine runs for a `WS_QUERY` whose
//! output only the next `TRANSLATE` reads — against the tree it no longer
//! builds: the same wire size as the tree's compact serialization, the
//! same event stream as the tree's, and through generated stylesheets into
//! a `RowSink` the same relation or the same error, on generated relations
//! that reach NULLs, all-NULL rows and zero rows, empty strings, markup
//! characters in values and in the root's attributes, non-ASCII text,
//! every rendering branch of a float and dates at the calendar's edges.

mod support;

use dip_relstore::prelude::*;
use dip_services::resultset::{encode, ResultSet};
use dip_xmlkit::node::{Document, Element};
use dip_xmlkit::{compact_len, sax, write_compact};
use proptest::prelude::*;
use support::{arb_rules, pick, Outcome, Pools};

const COLUMNS: [(&str, SqlType); 5] = [
    ("k", SqlType::Int),
    ("s", SqlType::Str),
    ("f", SqlType::Float),
    ("d", SqlType::Date),
    ("b", SqlType::Bool),
];
/// Source and table names: markup characters to escape, non-ASCII, empty.
const LABELS: [&str; 4] = ["beijing", "a<b>&\"c\"'", "Straße", ""];
const STRS: [&str; 8] = [
    "",
    "a",
    " padded ",
    "<>&\"'",
    "Straße & Gärten",
    "日本語",
    "x&amp;y",
    "]]>",
];
const INTS: [i64; 5] = [0, -1, 42, i64::MIN, i64::MAX];
/// Every branch of `Value::rendered_len`: integral below 1e15 (with -0.0),
/// fractional, below 1e-4, integral from 1e15 up, and the non-finite.
const FLOATS: [f64; 16] = [
    0.0,
    -0.0,
    1.0,
    -3.0,
    999_999_999_999_999.0,
    0.5,
    -2.75,
    123_456.789,
    1e-5,
    -3.2e-7,
    5e-324,
    1e15,
    -2.5e20,
    1e300,
    f64::INFINITY,
    f64::NAN,
];
/// `(y, m, d)` at the calendar's edges: the epoch and the day before it,
/// leap days and the days around a century that is not a leap year,
/// years 0, -1, 9999 and 10000.
const DATES: [(i32, u32, u32); 10] = [
    (1970, 1, 1),
    (1969, 12, 31),
    (2000, 2, 29),
    (1900, 2, 28),
    (1900, 3, 1),
    (2008, 12, 31),
    (0, 1, 1),
    (-1, 12, 31),
    (9999, 12, 31),
    (10000, 1, 1),
];

/// Names a generated stylesheet aims at: the root, `row`, the columns, a
/// column in another case, an unknown field.
const NAMES: [&str; 9] = ["resultSet", "row", "k", "s", "f", "d", "b", "S", "x"];
/// Map-text pool: rendered values and markup.
const TEXTS: [&str; 8] = ["1", "NaN", "", "2000-02-29", "true", "<>&\"", "-0.0", "x"];
const ATTRS: [&str; 4] = ["source", "table", "k", "s"];

fn schema() -> SchemaRef {
    RelSchema::of(&COLUMNS).shared()
}

fn value(ty: SqlType, p: usize) -> Value {
    if p.is_multiple_of(4) {
        return Value::Null;
    }
    let p = p / 4;
    match ty {
        SqlType::Int => Value::Int(pick(&INTS, p)),
        SqlType::Str => Value::str(pick(&STRS, p)),
        SqlType::Float => Value::Float(pick(&FLOATS, p)),
        SqlType::Date => {
            let (y, m, d) = pick(&DATES, p);
            Value::Date(days_from_civil(y, m, d))
        }
        SqlType::Bool => Value::Bool(p.is_multiple_of(2)),
    }
}

/// `(source pick, table pick, rows as (kind, value picks))`; a row of kind
/// 0 is all NULL.
type Spec = (usize, usize, Vec<(usize, Vec<usize>)>);

fn arb_result_set() -> impl Strategy<Value = Spec> {
    let row = (0usize..8, prop::collection::vec(0usize..1000, 5..6));
    (0usize..8, 0usize..8, prop::collection::vec(row, 0..6))
}

fn result_set((source, table, rows): &Spec) -> ResultSet {
    let rows = rows.iter().map(|(kind, picks)| {
        let values = COLUMNS.iter().zip(picks);
        values
            .map(|(&(_, ty), &p)| {
                if *kind == 0 {
                    Value::Null
                } else {
                    value(ty, p)
                }
            })
            .collect()
    });
    let rel = Relation::new(schema(), rows.collect());
    ResultSet::new(pick(&LABELS, *source), pick(&LABELS, *table), rel)
}

/// The tree a result set is, built element by element: a leaf per
/// non-NULL value holding its rendering, NULL an absent element.
fn oracle(rs: &ResultSet) -> Document {
    let mut root = Element::new("resultSet")
        .attr("source", rs.source())
        .attr("table", rs.table());
    for row in &rs.rel.rows {
        let mut row_el = Element::new("row");
        for (v, col) in row.iter().zip(rs.rel.schema.columns()) {
            if !v.is_null() {
                row_el = row_el.child(Element::leaf(col.name.clone(), v.render()));
            }
        }
        root = root.child(row_el);
    }
    Document::new(root)
}

/// The rows source against its tree, on everything the tests ask of it.
fn source_equals_tree(rs: &ResultSet, rules: &[support::RuleSpec]) {
    let doc = encode(rs.source(), rs.table(), &rs.rel);
    assert_eq!(doc, oracle(rs), "the emitter into a tree");
    assert_eq!(rs.to_document(), doc);
    assert_eq!(rs.wire_len(), compact_len(&doc), "{}", write_compact(&doc));
    assert_eq!(rs.wire_len(), write_compact(&doc).len());
    assert_eq!(sax::walk(rs, Vec::new()).unwrap(), sax::events(&doc));

    let pools = Pools {
        names: &NAMES,
        texts: &TEXTS,
        attrs: &ATTRS,
    };
    let sheet = support::stylesheet(rules, &pools);
    let schema = schema();
    let rows = support::fused(&sheet, rs, &schema);
    assert_eq!(
        rows,
        support::tree(&sheet, &doc, &schema),
        "stylesheet {sheet:?}\nresult set {rs:?}"
    );
    assert_eq!(
        rows,
        support::fused(&sheet, &doc, &schema),
        "the tree into the row sink"
    );
    assert_eq!(sheet.transform(rs), sheet.transform(&doc));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn rows_source_equals_its_tree(rs in arb_result_set(), rules in arb_rules()) {
        source_equals_tree(&result_set(&rs), &rules);
    }
}

/// Every value of every pool in one result set, so that none depends on
/// the generator's seed: the identity stylesheet decodes what renders
/// back to itself, and fails on the first date whose year does not fit
/// four digits and a sign-free field.
#[test]
fn every_pooled_value_sizes_and_decodes_alike() {
    let longest = [STRS.len(), INTS.len(), FLOATS.len(), DATES.len(), 2];
    let rows = (0..*longest.iter().max().unwrap())
        .map(|i| {
            COLUMNS
                .iter()
                .map(|&(_, ty)| value(ty, 4 * i + 1))
                .collect()
        })
        .chain([vec![Value::Null; COLUMNS.len()]])
        .map(Into::into)
        .collect();
    let rs = ResultSet::new(LABELS[1], LABELS[2], Relation::new(schema(), rows));
    source_equals_tree(&rs, &[]);
    let identity = dip_xmlkit::stx::Stylesheet::identity("id");
    let Outcome::Decode(StoreError::SchemaMismatch(m)) = support::fused(&identity, &rs, &schema())
    else {
        panic!("year -1 does not parse back");
    };
    assert!(m.contains("\"-001-12-31\""), "{m}");

    // without the dates, every value reads back as itself
    let rows = (rs.rel.rows.iter()).map(|r| {
        let mut r = r.to_vec();
        r[3] = Value::Null;
        SharedRow::from(r)
    });
    let rel = Relation::new(schema(), rows.collect());
    let no_dates = ResultSet::new("s", "t", rel.clone());
    let Outcome::Rows(back) = support::fused(&identity, &no_dates, &schema()) else {
        panic!("decodes");
    };
    for (got, want) in back.rows.iter().zip(&rel.rows) {
        // strings come back trimmed, as `coerce` reads them
        let want: Vec<Value> = (want.iter())
            .map(|v| match v {
                Value::Str(s) => Value::str(s.trim()),
                v => v.clone(),
            })
            .collect();
        assert_eq!(got[..], want[..]);
    }

    // no rows: `<resultSet …/>`
    let empty = ResultSet::new("s", "t", Relation::new(schema(), vec![]));
    source_equals_tree(&empty, &[]);
}
