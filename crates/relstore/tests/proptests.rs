//! Property-based tests of the relational store's core invariants.

use dip_relstore::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// A computed expression: `f` over the values of `args`.
fn apply(
    args: Vec<Expr>,
    f: impl Fn(&[Value]) -> StoreResult<Value> + Send + Sync + 'static,
) -> Expr {
    Expr::Apply(Arc::new(f), args)
}

/// `col * by`: NULL stays NULL, a non-number is an evaluation error.
fn times(col: usize, by: f64) -> Expr {
    apply(vec![Expr::col(col)], move |a| match &a[0] {
        Value::Null => Ok(Value::Null),
        v => (v.to_float().map(|x| Value::Float(x * by)))
            .ok_or_else(|| StoreError::Eval(format!("non-numeric: {v}"))),
    })
}

/// `col IS NULL`, or its negation.
fn null_test(col: usize, null: bool) -> Expr {
    apply(vec![Expr::col(col)], move |a| {
        Ok(Value::Bool(a[0].is_null() == null))
    })
}

/// `COALESCE(args[0], args[1])`.
fn coalesce(args: Vec<Expr>) -> Expr {
    apply(args, |a| {
        Ok(if a[0].is_null() { &a[1] } else { &a[0] }.clone())
    })
}

/// An int key column's membership in `keys`.
fn key_in(keys: Vec<i64>) -> Expr {
    apply(vec![Expr::col(0)], move |a| {
        Ok(Value::Bool(
            a[0].to_int().is_some_and(|k| keys.contains(&k)),
        ))
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(|i| Value::Int(i as i64)),
        (-1.0e6f64..1.0e6).prop_map(Value::Float),
        "[a-z]{0,8}".prop_map(Value::str),
        (-100_000i32..100_000).prop_map(Value::Date),
    ]
}

proptest! {
    /// total_cmp is a total order: antisymmetric and transitive over
    /// random triples, and equal values hash equally.
    #[test]
    fn value_total_order(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // antisymmetry
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // transitivity
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
        // hash consistency with equality
        if a == b {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    /// Date conversion round-trips for every day from year 0 (the first
    /// one `parse_date` reads: a negative year has a leading `-`) to the
    /// last `i32` day.
    #[test]
    fn date_roundtrip(days in -719_528i32..=i32::MAX) {
        let rendered = render_date(days);
        prop_assert_eq!(parse_date(&rendered), Some(days));
    }
}

/// The anchors of the float size's arithmetic arm: its domain's edges
/// (`1e-4`, `1e15`, `2^52`) and every power of two and of ten from just
/// below it to just above it.
fn float_anchors() -> Vec<f64> {
    let twos = (-15..=54).map(|k| 2f64.powi(k));
    // parsed, not computed: the double nearest each power of ten
    let tens = (-5..=16).map(|k| format!("1e{k}").parse::<f64>().unwrap());
    twos.chain(tens).collect()
}

/// Values whose wire size takes an arm of its own, near the arms' edges.
fn arb_sized_value() -> impl Strategy<Value = Value> {
    let anchors = float_anchors();
    let near_anchor =
        (0..anchors.len(), -50i64..=50, any::<bool>()).prop_map(move |(a, ulps, neg)| {
            let x = f64::from_bits((anchors[a].to_bits() as i64 + ulps) as u64);
            Value::Float(if neg { -x } else { x })
        });
    let digit_boundary = (0u32..=18, -1i64..=1, any::<bool>()).prop_map(|(k, off, neg)| {
        let i = 10i64.pow(k) + off;
        Value::Int(if neg { -i } else { i })
    });
    prop_oneof![
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        // the generator's `sample_f64` ranges
        (-500.0f64..10_000.0).prop_map(Value::Float),
        (0.5f64..500.0).prop_map(Value::Float),
        (1.0f64..900.0).prop_map(Value::Float),
        (0.0f64..0.2).prop_map(Value::Float),
        near_anchor,
        digit_boundary,
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        any::<i32>().prop_map(Value::Date),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The network bills a value by `rendered_len`, which computes what
    /// `render` would print without printing it.
    #[test]
    fn rendered_len_is_render_len(v in arb_sized_value()) {
        prop_assert_eq!(v.rendered_len(), v.render().len(), "{:?}", v);
    }
}

/// A random table of (pk, group, value) rows.
fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(i64, i64, f64)>> {
    prop::collection::vec((0i64..1000, 0i64..10, -100.0f64..100.0), 0..max).prop_map(|mut v| {
        // distinct primary keys
        v.sort_by_key(|(k, _, _)| *k);
        v.dedup_by_key(|(k, _, _)| *k);
        v
    })
}

fn make_db(rows: &[(i64, i64, f64)]) -> Database {
    let db = Database::new("prop");
    let schema = RelSchema::of(&[
        ("k", SqlType::Int),
        ("g", SqlType::Int),
        ("v", SqlType::Float),
    ])
    .shared();
    let t = Table::new("t", schema).with_primary_key(&["k"]).unwrap();
    t.insert(
        rows.iter()
            .map(|(k, g, v)| vec![Value::Int(*k), Value::Int(*g), Value::Float(*v)])
            .collect(),
    )
    .unwrap();
    db.create_table(t);
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimizer never changes query results: a filter+project+join
    /// pipeline returns the same rows optimized and unoptimized.
    #[test]
    fn optimizer_preserves_semantics(rows in arb_rows(60), threshold in -100.0f64..100.0) {
        let db = make_db(&rows);
        let plan = Plan::scan("t")
            .hash_join(Plan::scan("t"), vec![1], vec![1])
            .filter(Expr::col(2).gt(Expr::lit(threshold)).and(Expr::col(4).le(Expr::lit(5))))
            .project(vec![
                ProjExpr::new(Expr::col(0), "k", SqlType::Int),
                ProjExpr::new(times(5, 2.0), "v2", SqlType::Float),
            ]);
        let mut a = execute(&plan, &db).unwrap();
        let mut b = execute_oracle(&plan, &db).unwrap();
        a.sort_by_columns(&[0, 1]);
        b.sort_by_columns(&[0, 1]);
        prop_assert_eq!(a.rows, b.rows);
    }

    /// UNION DISTINCT on the key column never yields duplicate keys and
    /// covers exactly the union of input keys.
    #[test]
    fn union_distinct_is_set_union(a in arb_rows(40), b in arb_rows(40)) {
        let db = Database::new("u");
        let schema = RelSchema::of(&[
            ("k", SqlType::Int),
            ("g", SqlType::Int),
            ("v", SqlType::Float),
        ])
        .shared();
        for (name, rows) in [("ta", &a), ("tb", &b)] {
            let t = Table::new(name, schema.clone()).with_primary_key(&["k"]).unwrap();
            t.insert(
                rows.iter()
                    .map(|(k, g, v)| vec![Value::Int(*k), Value::Int(*g), Value::Float(*v)])
                    .collect(),
            )
            .unwrap();
            db.create_table(t);
        }
        let plan = Plan::UnionDistinct {
            inputs: vec![Plan::scan("ta"), Plan::scan("tb")],
            key: Some(vec![0]),
        };
        let rel = plan.run(&db).unwrap();
        let mut keys: Vec<i64> = rel.rows.iter().map(|r| r[0].to_int().unwrap()).collect();
        keys.sort();
        let mut expected: Vec<i64> = a.iter().chain(b.iter()).map(|(k, _, _)| *k).collect();
        expected.sort();
        expected.dedup();
        prop_assert_eq!(keys, expected);
    }

    /// Aggregates are conserved: SUM over groups equals the global SUM and
    /// COUNT over groups equals the row count.
    #[test]
    fn aggregate_conservation(rows in arb_rows(60)) {
        let db = make_db(&rows);
        let grouped = Plan::scan("t")
            .aggregate(
                vec![1],
                vec![AggExpr::count_star("n"), AggExpr::sum(2, "s")],
            )
            .run(&db)
            .unwrap();
        let n: i64 = grouped.rows.iter().map(|r| r[1].to_int().unwrap()).sum();
        prop_assert_eq!(n as usize, rows.len());
        let s: f64 = grouped.rows.iter().filter_map(|r| r[2].to_float()).sum();
        let expected: f64 = rows.iter().map(|(_, _, v)| v).sum();
        prop_assert!((s - expected).abs() < 1e-6 * (1.0 + expected.abs()));
    }

    /// The executor's fused scan→filter and index-nested-loop join paths
    /// return exactly the rows of the naive materializing oracle across
    /// randomized data (sorting both results on every column pins one
    /// total order).
    #[test]
    fn executor_agrees_with_oracle_row_for_row(
        rows in arb_rows(60),
        dim in prop::collection::vec((0i64..12, "[a-z]{0,4}"), 0..20)
            .prop_map(|mut v| { v.sort_by_key(|(k, _)| *k); v.dedup_by_key(|(k, _)| *k); v }),
        threshold in -100.0f64..100.0,
    ) {
        let db = make_db(&rows);
        let dschema = RelSchema::of(&[("k", SqlType::Int), ("w", SqlType::Str)]).shared();
        let t = Table::new("dim", dschema).with_primary_key(&["k"]).unwrap();
        t.insert(
            dim.iter()
                .map(|(k, w)| vec![Value::Int(*k), Value::str(w.as_str())])
                .collect(),
        )
        .unwrap();
        db.create_table(t);
        // optimized: the filter pushes into t's scan and the join becomes
        // an index-nested-loop probe of dim's primary key
        let plan = Plan::scan("t")
            .hash_join(Plan::scan("dim"), vec![1], vec![0])
            .filter(Expr::col(2).gt(Expr::lit(threshold)));
        let mut oracle = execute_oracle(&plan, &db).unwrap();
        let mut executed = execute(&plan, &db).unwrap();
        oracle.sort_by_columns(&[0, 1, 2, 3, 4]);
        executed.sort_by_columns(&[0, 1, 2, 3, 4]);
        prop_assert_eq!(executed.rows, oracle.rows);
    }

    /// delete_where + the inverse predicate partition the table.
    #[test]
    fn delete_partitions(rows in arb_rows(60), threshold in 0i64..10) {
        let db = make_db(&rows);
        let t = db.table("t").unwrap();
        let before = t.row_count();
        let deleted = t.delete_where(&Expr::col(1).lt(Expr::lit(threshold))).unwrap();
        let remaining = t.row_count();
        prop_assert_eq!(deleted + remaining, before);
        // no survivor matches the predicate
        let survivors = t
            .scan_where(&Expr::col(1).lt(Expr::lit(threshold)), None)
            .unwrap();
        prop_assert_eq!(survivors.len(), 0);
    }

    /// Upsert is idempotent and insert_ignore never changes existing rows.
    #[test]
    fn upsert_idempotent(rows in arb_rows(40)) {
        let db = make_db(&rows);
        let t = db.table("t").unwrap();
        let snapshot = {
            let mut rel = t.scan();
            rel.sort_by_columns(&[0]);
            rel.rows
        };
        let all: Vec<SharedRow> = snapshot.clone();
        t.upsert(all.clone()).unwrap();
        t.insert_ignore_duplicates(all).unwrap();
        let mut rel = t.scan();
        rel.sort_by_columns(&[0]);
        prop_assert_eq!(rel.rows, snapshot);
    }
}

/// One randomly chosen mutation against the transactional test database.
#[derive(Debug, Clone)]
enum TxOp {
    InsertIgnore(Vec<(i64, i64, f64)>),
    Upsert(Vec<(i64, i64, f64)>),
    DeleteWhere(i64),
    UpdateWhere(i64, f64),
    Truncate,
    RefreshView,
    /// A change-data pull: the log empties, the undo journal keeps it.
    DrainChanges,
}

fn arb_tx_op() -> impl Strategy<Value = TxOp> {
    prop_oneof![
        arb_rows(8).prop_map(TxOp::InsertIgnore),
        arb_rows(8).prop_map(TxOp::Upsert),
        (0i64..10).prop_map(TxOp::DeleteWhere),
        (0i64..1000, -100.0f64..100.0).prop_map(|(k, v)| TxOp::UpdateWhere(k, v)),
        Just(TxOp::Truncate),
        Just(TxOp::RefreshView),
        Just(TxOp::DrainChanges),
    ]
}

/// Build a database with a secondary-indexed, change-capturing base table,
/// seed rows (pending in its change log), and a materialized view already
/// refreshed once.
fn make_tx_db(rows: &[(i64, i64, f64)]) -> Database {
    let db = Database::new("txprop");
    let schema = RelSchema::of(&[
        ("k", SqlType::Int),
        ("g", SqlType::Int),
        ("v", SqlType::Float),
    ])
    .shared();
    let t = Table::new("t", schema)
        .with_primary_key(&["k"])
        .unwrap()
        .with_index("by_g", &["g"])
        .unwrap()
        .with_change_capture();
    t.insert(
        rows.iter()
            .map(|(k, g, v)| vec![Value::Int(*k), Value::Int(*g), Value::Float(*v)])
            .collect(),
    )
    .unwrap();
    db.create_table(t);
    let mv_schema = RelSchema::of(&[("g", SqlType::Int), ("s", SqlType::Float)]).shared();
    db.create_table(
        Table::new("t_mv", mv_schema)
            .with_primary_key(&["g"])
            .unwrap(),
    );
    db.create_view(MatView::new(
        "t_by_g",
        "t_mv",
        Plan::scan("t").aggregate(vec![1], vec![AggExpr::sum(2, "s")]),
    ));
    db.refresh_view("t_by_g").unwrap();
    db
}

fn full_state(db: &Database) -> String {
    db.table_names()
        .iter()
        .map(|t| db.table(t).unwrap().state_dump())
        .collect::<Vec<_>>()
        .join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Rolling back a random batch of mixed operations — bulk inserts,
    /// upserts, predicate deletes (including the full-wipe fast path),
    /// updates, truncates, mview refreshes and change-log drains — restores
    /// every table, every index, the pending change log and the mview
    /// storage byte-identically.
    #[test]
    fn rollback_restores_store_byte_identically(
        rows in arb_rows(30),
        ops in prop::collection::vec(arb_tx_op(), 1..10),
    ) {
        let db = make_tx_db(&rows);
        let before = full_state(&db);
        let tx = dip_relstore::tx::begin();
        let t = db.table("t").unwrap();
        for op in &ops {
            match op {
                TxOp::InsertIgnore(batch) => {
                    t.insert_ignore_duplicates(
                        batch
                            .iter()
                            .map(|(k, g, v)| vec![Value::Int(*k), Value::Int(*g), Value::Float(*v)])
                            .map(Into::into).collect(),
                    )
                    .unwrap();
                }
                TxOp::Upsert(batch) => {
                    t.upsert(
                        batch
                            .iter()
                            .map(|(k, g, v)| vec![Value::Int(*k), Value::Int(*g), Value::Float(*v)])
                            .map(Into::into).collect(),
                    )
                    .unwrap();
                }
                TxOp::DeleteWhere(g) => {
                    t.delete_where(&Expr::col(1).lt(Expr::lit(*g))).unwrap();
                }
                TxOp::UpdateWhere(k, v) => {
                    t.update_where(&Expr::col(0).eq(Expr::lit(*k)), &[(2, Expr::lit(*v))])
                        .unwrap();
                }
                TxOp::Truncate => t.truncate(),
                TxOp::RefreshView => {
                    // nested scope: the refresh commits into the outer tx
                    db.refresh_view("t_by_g").unwrap();
                }
                TxOp::DrainChanges => drop(t.drain_changes()),
            }
        }
        tx.rollback();
        prop_assert_eq!(full_state(&db), before);
        // the store stays fully usable: rolled-back keys are re-insertable
        // and the view still refreshes
        t.insert(vec![vec![Value::Int(5000), Value::Int(0), Value::Float(1.0)]]).unwrap();
        db.refresh_view("t_by_g").unwrap();
    }
}

/// A row of the write-path model test: `(k, flag, v)` — an `Int` primary
/// key, a nullable boolean under a secondary index (the `cs_integrated`
/// shape: every row sits under one of two keys), a payload.
type FlagRow = (i64, Option<bool>, i64);

fn flag_row((k, flag, v): &FlagRow) -> SharedRow {
    [
        Value::Int(*k),
        flag.map_or(Value::Null, Value::Bool),
        Value::Int(*v),
    ]
    .into()
}

/// One step of the write-path model test.
#[derive(Debug, Clone)]
enum WriteOp {
    Insert(Vec<FlagRow>),
    InsertIgnore(Vec<FlagRow>),
    Upsert(Vec<FlagRow>),
    DeleteKey(i64),
    DeleteFlag(bool),
    /// The staging tables' flag flip: every row under one key moves.
    FlipFlag(bool),
    /// `v = v'` for `k < bound`: keys unchanged, rows re-register.
    Touch(i64, i64),
    /// `k = k * mul + add` on one flag's rows — a primary-key move, refused
    /// when the new keys collide with the rows that stay or each other.
    Rekey {
        flag: bool,
        mul: i64,
        add: i64,
    },
    DeleteAll,
    Truncate,
    Begin,
    Commit,
    Rollback,
}

fn arb_write_op() -> impl Strategy<Value = WriteOp> {
    let flag = || {
        prop_oneof![
            5 => Just(Some(false)),
            4 => Just(Some(true)),
            1 => Just(None),
        ]
    };
    // duplicates inside a batch are wanted: no dedup here
    let batch = move || prop::collection::vec((0i64..48, flag(), 0i64..1000), 1..7);
    prop_oneof![
        4 => batch().prop_map(WriteOp::Insert),
        4 => batch().prop_map(WriteOp::InsertIgnore),
        4 => batch().prop_map(WriteOp::Upsert),
        2 => (0i64..48).prop_map(WriteOp::DeleteKey),
        1 => any::<bool>().prop_map(WriteOp::DeleteFlag),
        2 => any::<bool>().prop_map(WriteOp::FlipFlag),
        2 => (0i64..48, 0i64..1000).prop_map(|(b, v)| WriteOp::Touch(b, v)),
        2 => (any::<bool>(), 0i64..2, 0i64..6)
            .prop_map(|(flag, mul, add)| WriteOp::Rekey { flag, mul, add }),
        1 => Just(WriteOp::DeleteAll),
        1 => Just(WriteOp::Truncate),
        3 => Just(WriteOp::Begin),
        2 => Just(WriteOp::Commit),
        2 => Just(WriteOp::Rollback),
    ]
}

/// The naive model: live rows with their slot numbers, in index
/// registration order (append on insert, re-append on replace), plus the
/// length of the slot vector.
#[derive(Debug, Clone, Default)]
struct Model {
    rows: Vec<(usize, SharedRow)>,
    slots: usize,
}

impl Model {
    fn position(&self, k: &Value) -> Option<usize> {
        self.rows.iter().position(|(_, r)| &r[0] == k)
    }

    fn append(&mut self, row: SharedRow) {
        self.rows.push((self.slots, row));
        self.slots += 1;
    }

    fn replace(&mut self, at: usize, row: SharedRow) {
        let (slot, _) = self.rows.remove(at);
        self.rows.push((slot, row));
    }

    fn wipe(&mut self) {
        self.rows.clear();
        self.slots = 0;
    }

    /// `update_where`: the matching rows, in slot order, each replaced by
    /// `f(row)`.
    fn update(
        &mut self,
        matches: impl Fn(&SharedRow) -> bool,
        f: impl Fn(&SharedRow) -> SharedRow,
    ) {
        let mut hit: Vec<(usize, SharedRow)> = (self.rows.iter())
            .filter(|(_, r)| matches(r))
            .map(|(slot, r)| (*slot, f(r)))
            .collect();
        hit.sort_by_key(|(slot, _)| *slot);
        self.rows.retain(|(_, r)| !matches(r));
        self.rows.extend(hit);
    }

    fn under(&self, flag: bool) -> Vec<SharedRow> {
        (self.rows.iter())
            .filter(|(_, r)| r[1] == Value::Bool(flag))
            .map(|(_, r)| r.clone())
            .collect()
    }

    fn in_slot_order(&self) -> Vec<SharedRow> {
        let mut rows = self.rows.clone();
        rows.sort_by_key(|(slot, _)| *slot);
        rows.into_iter().map(|(_, r)| r).collect()
    }
}

fn by_flag(flag: bool) -> Expr {
    Expr::col(1).eq(Expr::lit(flag))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(72))]

    /// Every write flavour, in and out of (nested) transactions that commit
    /// or roll back, against a naive model — on a table with a primary key
    /// and a two-valued secondary index, seeded with up to thousands of
    /// slots under one key. After every step: point lookups, the row
    /// *order* of `scan_where(flag = b)` (registration order; a replaced
    /// row moves to the tail) and of `scan()` (slot order), `row_count`,
    /// `pk_cardinality`; a refused statement leaves `state_dump()`
    /// byte-identical, and so does a rollback. A rollback restores content
    /// and registrations, not the order within a chain (a restored row
    /// re-registers at the tail), so the model re-reads that order after
    /// checking the rows are the same.
    #[test]
    fn write_path_agrees_with_a_naive_model(
        seed_rows in prop_oneof![Just(0i64), Just(40), Just(2500)],
        ops in prop::collection::vec(arb_write_op(), 1..40),
    ) {
        let schema = RelSchema::of(&[
            ("k", SqlType::Int),
            ("flag", SqlType::Bool),
            ("v", SqlType::Int),
        ])
        .shared();
        let t = Table::new("m", schema)
            .with_primary_key(&["k"])
            .unwrap()
            .with_index("by_flag", &["flag"])
            .unwrap()
            .into_shared();
        let mut model = Model::default();
        let seed: Vec<SharedRow> = (0..seed_rows).map(|i| flag_row(&(1000 + i, Some(false), i))).collect();
        t.insert(seed.clone()).unwrap();
        seed.into_iter().for_each(|r| model.append(r));

        let mut open: Vec<(TxScope, Model, String)> = Vec::new();
        // close the transactions still open at the end, rolling back
        let closing = std::iter::repeat(&WriteOp::Rollback);
        for (step, op) in ops.iter().chain(closing).enumerate() {
            if step >= ops.len() && open.is_empty() {
                break;
            }
            let refusable = matches!(op, WriteOp::Insert(_) | WriteOp::Rekey { .. });
            let before = refusable.then(|| t.state_dump());
            let mut touched: Vec<Value> = vec![Value::Int(0), Value::Int(1000), Value::Int(3499)];
            let refused = match op {
                WriteOp::Insert(batch) => {
                    let rows: Vec<SharedRow> = batch.iter().map(flag_row).collect();
                    touched.extend(rows.iter().map(|r| r[0].clone()));
                    let clash = rows.iter().enumerate().any(|(i, r)| {
                        model.position(&r[0]).is_some() || rows[..i].iter().any(|e| e[0] == r[0])
                    });
                    let result = t.insert(rows.clone());
                    if clash {
                        prop_assert!(matches!(result, Err(StoreError::DuplicateKey { .. })), "{result:?}");
                    } else {
                        prop_assert_eq!(result.unwrap(), rows.len());
                        rows.into_iter().for_each(|r| model.append(r));
                    }
                    clash
                }
                WriteOp::InsertIgnore(batch) => {
                    let rows: Vec<SharedRow> = batch.iter().map(flag_row).collect();
                    touched.extend(rows.iter().map(|r| r[0].clone()));
                    let mut fresh = 0;
                    for r in &rows {
                        if model.position(&r[0]).is_none() {
                            model.append(r.clone());
                            fresh += 1;
                        }
                    }
                    prop_assert_eq!(t.insert_ignore_duplicates(rows).unwrap(), fresh);
                    false
                }
                WriteOp::Upsert(batch) => {
                    let rows: Vec<SharedRow> = batch.iter().map(flag_row).collect();
                    touched.extend(rows.iter().map(|r| r[0].clone()));
                    for r in &rows {
                        match model.position(&r[0]) {
                            Some(at) => model.replace(at, r.clone()),
                            None => model.append(r.clone()),
                        }
                    }
                    prop_assert_eq!(t.upsert(rows.clone()).unwrap(), rows.len());
                    false
                }
                WriteOp::DeleteKey(k) => {
                    touched.push(Value::Int(*k));
                    let n = t.delete_where(&Expr::col(0).eq(Expr::lit(*k))).unwrap();
                    prop_assert_eq!(n, usize::from(model.position(&Value::Int(*k)).is_some()));
                    model.rows.retain(|(_, r)| r[0] != Value::Int(*k));
                    false
                }
                WriteOp::DeleteFlag(flag) => {
                    let n = t.delete_where(&by_flag(*flag)).unwrap();
                    prop_assert_eq!(n, model.under(*flag).len());
                    if n == model.rows.len() && n > 0 {
                        model.wipe(); // the full-wipe path resets the slots
                    } else {
                        model.rows.retain(|(_, r)| r[1] != Value::Bool(*flag));
                    }
                    false
                }
                WriteOp::FlipFlag(flag) => {
                    let n = t.update_where(&by_flag(*flag), &[(1, Expr::lit(!*flag))]).unwrap();
                    prop_assert_eq!(n, model.under(*flag).len());
                    model.update(
                        |r| r[1] == Value::Bool(*flag),
                        |r| [r[0].clone(), Value::Bool(!*flag), r[2].clone()].into(),
                    );
                    false
                }
                WriteOp::Touch(bound, v) => {
                    t.update_where(&Expr::col(0).lt(Expr::lit(*bound)), &[(2, Expr::lit(*v))])
                        .unwrap();
                    model.update(
                        |r| r[0] < Value::Int(*bound),
                        |r| [r[0].clone(), r[1].clone(), Value::Int(*v)].into(),
                    );
                    false
                }
                WriteOp::Rekey { flag, mul, add } => {
                    let moved = |r: &SharedRow| {
                        let k = r[0].to_int().unwrap() * mul + add;
                        [Value::Int(k), r[1].clone(), r[2].clone()].into()
                    };
                    let (moving, staying): (Vec<&SharedRow>, Vec<&SharedRow>) = (model.rows.iter())
                        .map(|(_, r)| r)
                        .partition(|r| r[1] == Value::Bool(*flag));
                    let new: Vec<SharedRow> = moving.iter().map(|r| moved(r)).collect();
                    touched.extend(new.iter().take(8).map(|r| r[0].clone()));
                    let clash = new.iter().enumerate().any(|(i, r)| {
                        staying.iter().any(|s| s[0] == r[0]) || new[..i].iter().any(|e| e[0] == r[0])
                    });
                    let (mul, add) = (*mul, *add);
                    let key = apply(vec![Expr::col(0)], move |a| {
                        Ok(Value::Int(a[0].to_int().unwrap() * mul + add))
                    });
                    let result = t.update_where(&by_flag(*flag), &[(0, key)]);
                    if clash {
                        prop_assert!(matches!(result, Err(StoreError::DuplicateKey { .. })), "{result:?}");
                    } else {
                        prop_assert_eq!(result.unwrap(), new.len());
                        model.update(|r| r[1] == Value::Bool(*flag), moved);
                    }
                    clash
                }
                WriteOp::DeleteAll => {
                    let n = t.delete_where(&Expr::lit(true)).unwrap();
                    prop_assert_eq!(n, model.rows.len());
                    if n > 0 {
                        model.wipe();
                    }
                    false
                }
                WriteOp::Truncate => {
                    t.truncate();
                    model.wipe();
                    false
                }
                WriteOp::Begin => {
                    if open.len() < 3 {
                        open.push((dip_relstore::tx::begin(), model.clone(), t.state_dump()));
                    }
                    false
                }
                WriteOp::Commit => {
                    if let Some((tx, ..)) = open.pop() {
                        tx.commit();
                    }
                    false
                }
                WriteOp::Rollback => {
                    if let Some((tx, saved, dump)) = open.pop() {
                        tx.rollback();
                        prop_assert_eq!(t.state_dump(), dump, "step {}: rollback", step);
                        let slot_of = |r: &SharedRow| saved.rows[saved.position(&r[0]).unwrap()].0;
                        let mut rows: Vec<(usize, SharedRow)> = Vec::new();
                        for flag in [false, true] {
                            let chain = t.scan_where(&by_flag(flag), None).unwrap().rows;
                            let (mut got, mut want) = (chain.clone(), saved.under(flag));
                            got.sort();
                            want.sort();
                            prop_assert_eq!(got, want, "step {}: rows under {}", step, flag);
                            rows.extend(chain.into_iter().map(|r| (slot_of(&r), r)));
                        }
                        rows.extend(saved.rows.iter().filter(|(_, r)| r[1].is_null()).cloned());
                        model = Model { rows, slots: saved.slots };
                    }
                    false
                }
            };
            if refused {
                prop_assert_eq!(Some(t.state_dump()), before, "step {}: refused {:?}", step, op);
            }
            prop_assert_eq!(t.row_count(), model.rows.len(), "step {} {:?}", step, op);
            prop_assert_eq!(t.pk_cardinality(), Some(model.rows.len()), "step {} {:?}", step, op);
            prop_assert_eq!(t.scan().rows, model.in_slot_order(), "step {} {:?}", step, op);
            for flag in [false, true] {
                let got = t.scan_where(&by_flag(flag), None).unwrap().rows;
                prop_assert_eq!(got, model.under(flag), "step {} {:?}: order under {}", step, op, flag);
            }
            for k in touched {
                let want = model.position(&k).map(|at| model.rows[at].1.clone());
                prop_assert_eq!(t.get_by_pk(std::slice::from_ref(&k)), want, "step {} {:?}: key {:?}", step, op, k);
            }
        }
    }
}

/// Rows for the typed-column suite: every non-key column is nullable so
/// the batch executor's validity bitmaps see real NULLs, and the integer
/// column draws from the extremes so SUM hits the i64-overflow fallback.
type NullableRow = (i64, Option<i64>, Option<f64>, Option<String>);

fn arb_nullable_rows(max: usize) -> impl Strategy<Value = Vec<NullableRow>> {
    let big = prop_oneof![
        4 => (-1000i64..1000).prop_map(Some),
        1 => Just(Some(i64::MAX - 7)),
        1 => Just(Some(i64::MIN + 7)),
        2 => Just(None),
    ];
    let flt = prop_oneof![
        3 => (-100.0f64..100.0).prop_map(Some),
        1 => Just(None),
    ];
    let txt = prop_oneof![
        3 => "[a-z]{0,6}".prop_map(Some),
        1 => Just(None),
    ];
    prop::collection::vec((0i64..1000, big, flt, txt), 0..max).prop_map(|mut v| {
        v.sort_by_key(|(k, ..)| *k);
        v.dedup_by_key(|(k, ..)| *k);
        v
    })
}

fn make_nullable_db(rows: &[NullableRow]) -> Database {
    let db = Database::new("typed");
    let schema = RelSchema::of(&[
        ("k", SqlType::Int),
        ("g", SqlType::Int),
        ("v", SqlType::Float),
        ("s", SqlType::Str),
    ])
    .shared();
    let t = Table::new("t", schema).with_primary_key(&["k"]).unwrap();
    let opt = |o: &Option<i64>| o.map(Value::Int).unwrap_or(Value::Null);
    t.insert(
        rows.iter()
            .map(|(k, g, v, s)| {
                vec![
                    Value::Int(*k),
                    opt(g),
                    v.map(Value::Float).unwrap_or(Value::Null),
                    s.as_deref().map(Value::str).unwrap_or(Value::Null),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.create_table(t);
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Typed column storage (I64/F64/Str vectors + NULL bitmaps) returns
    /// exactly the oracle's rows across every plan shape: fused
    /// scan→filter→project, grouped aggregation over a NULL-bearing group
    /// key (COUNT(*) and SUM, including overflow-boundary i64 sums),
    /// distinct union, and a join on a nullable key. Both results are
    /// sorted on every column before they are compared.
    #[test]
    fn typed_columns_agree_with_oracle(
        rows in arb_nullable_rows(50),
        threshold in -100.0f64..100.0,
    ) {
        let db = make_nullable_db(&rows);
        let plans = [
            // scan → filter → project over all three typed layouts
            Plan::scan("t")
                .filter(Expr::col(2).gt(Expr::lit(threshold)))
                .project(vec![
                    ProjExpr::new(Expr::col(0), "k", SqlType::Int),
                    ProjExpr::new(Expr::col(1), "g", SqlType::Int),
                    ProjExpr::new(Expr::col(3), "s", SqlType::Str),
                    ProjExpr::new(times(2, 2.0), "v2", SqlType::Float),
                ]),
            // grouped aggregation: NULL group keys group together;
            // the i64 SUM crosses the checked-add overflow boundary
            Plan::scan("t")
                .aggregate(
                    vec![1],
                    vec![
                        AggExpr::count_star("n"),
                        AggExpr::sum(1, "si"),
                        AggExpr::sum(2, "sf"),
                    ],
                ),
            // distinct union on a nullable string key
            Plan::UnionDistinct {
                inputs: vec![Plan::scan("t"), Plan::scan("t")],
                key: Some(vec![3]),
            },
            // self join on the nullable int column: NULL keys never join
            Plan::scan("t")
                .hash_join(Plan::scan("t"), vec![1], vec![1]),
        ];
        for plan in &plans {
            let sorted = |mut rel: Relation| {
                rel.sort_by_columns(&(0..rel.schema.len()).collect::<Vec<_>>());
                rel.rows
            };
            let oracle = sorted(execute_oracle(plan, &db).unwrap());
            prop_assert_eq!(sorted(execute(plan, &db).unwrap()), oracle);
        }
    }

    /// Exact integer SUM survives the typed fast path: a sum that stays in
    /// range is bit-exact Int, and one pushed past i64::MAX widens to the
    /// same compensated float in the executor and the oracle.
    #[test]
    fn typed_int_sum_is_exact_and_overflow_consistent(
        base in prop::collection::vec(1i64..1_000_000, 1..40),
        overflow in any::<bool>(),
    ) {
        let db = Database::new("sum");
        let schema = RelSchema::of(&[("k", SqlType::Int), ("x", SqlType::Int)]).shared();
        let t = Table::new("t", schema).with_primary_key(&["k"]).unwrap();
        let mut rows: Vec<Vec<Value>> = base
            .iter()
            .enumerate()
            .map(|(i, &x)| vec![Value::Int(i as i64), Value::Int(x)])
            .collect();
        if overflow {
            rows.push(vec![Value::Int(-1), Value::Int(i64::MAX - 2)]);
            rows.push(vec![Value::Int(-2), Value::Int(i64::MAX - 3)]);
        }
        t.insert(rows).unwrap();
        db.create_table(t);
        let plan = Plan::scan("t")
            .aggregate(vec![], vec![AggExpr::sum(1, "s")]);
        let oracle = execute_oracle(&plan, &db).unwrap();
        if !overflow {
            let expect: i64 = base.iter().sum();
            prop_assert_eq!(&oracle.rows[0][0], &Value::Int(expect));
        }
        prop_assert_eq!(execute(&plan, &db).unwrap().rows, oracle.rows);
    }
}

/// A row of the plan generator's tables: `(k, g, v, s)`, every column but
/// the key nullable. `v` is a quarter and `g` a small int, so every SUM is
/// exact and the same in any order — the two paths may feed an aggregate
/// its rows in different orders (see `generated_plans_agree_with_oracle`).
type GenRow = (i64, Option<i64>, Option<i64>, Option<String>);

fn arb_gen_rows() -> impl Strategy<Value = Vec<GenRow>> {
    let small = |lo: i64, hi: i64| prop_oneof![3 => (lo..hi).prop_map(Some), 1 => Just(None)];
    let txt = prop_oneof![3 => "[ab]{0,1}".prop_map(Some), 1 => Just(None)];
    prop::collection::vec((0i64..20, small(0, 5), small(-8, 8), txt), 3..16).prop_map(|mut v| {
        v.sort_by_key(|r| r.0);
        v.dedup_by_key(|r| r.0);
        v
    })
}

fn gen_row((k, g, v, s): &GenRow) -> SharedRow {
    [
        Value::Int(*k),
        g.map_or(Value::Null, Value::Int),
        v.map_or(Value::Null, |q| Value::Float(q as f64 / 4.0)),
        s.as_deref().map_or(Value::Null, Value::str),
    ]
    .into()
}

/// `t` and `u` share the `(k, g, v, s)` shape, keyed on `k`; `t` also
/// indexes `g`, and its rows keyed in `gone` are deleted after the insert,
/// so a scan of it walks tombstones. `d(k, w)` is a dimension keyed on
/// `k`. The first rows of `u` double as the generator's `Values` leaf.
fn make_gen_db(
    t: &[GenRow],
    gone: &[i64],
    u: &[GenRow],
    d: &[(i64, Option<String>)],
) -> (Database, Plan) {
    let db = Database::new("gen");
    let schema = RelSchema::of(&[
        ("k", SqlType::Int),
        ("g", SqlType::Int),
        ("v", SqlType::Float),
        ("s", SqlType::Str),
    ])
    .shared();
    let tt = Table::new("t", schema.clone())
        .with_primary_key(&["k"])
        .unwrap()
        .with_index("t_g", &["g"])
        .unwrap();
    tt.insert(t.iter().map(gen_row).collect()).unwrap();
    tt.delete_where(&key_in(gone.to_vec())).unwrap();
    db.create_table(tt);
    let ut = Table::new("u", schema.clone())
        .with_primary_key(&["k"])
        .unwrap();
    ut.insert(u.iter().map(gen_row).collect()).unwrap();
    db.create_table(ut);
    let dschema = RelSchema::of(&[("k", SqlType::Int), ("w", SqlType::Str)]).shared();
    let dt = Table::new("d", dschema).with_primary_key(&["k"]).unwrap();
    let dim = d
        .iter()
        .map(|(k, w)| vec![Value::Int(*k), w.as_deref().map_or(Value::Null, Value::str)]);
    dt.insert(dim.collect()).unwrap();
    db.create_table(dt);
    let values = Relation::new(schema, u.iter().take(4).map(gen_row).collect());
    (db, Plan::Values(values.into()))
}

/// Builds a plan from a vector of picks — the proptest shim has no
/// `prop_flat_map`, so a plan is a deterministic function of the picks.
/// Every expression it writes evaluates without error on any row.
struct PlanGen<'a> {
    db: &'a Database,
    values: Plan,
    picks: Vec<usize>,
    at: usize,
}

impl PlanGen<'_> {
    /// The next choice among `n` (0 once the picks run out).
    fn pick(&mut self, n: usize) -> usize {
        let p = self.picks.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        p % n.max(1)
    }

    fn types(&self, plan: &Plan) -> Vec<SqlType> {
        let schema = plan.schema(self.db).unwrap();
        schema.columns().iter().map(|c| c.ty).collect()
    }

    fn leaf(&mut self) -> Plan {
        match self.pick(4) {
            0 => Plan::scan("t"),
            1 => Plan::scan("u"),
            2 => Plan::scan("d"),
            _ => self.values.clone(),
        }
    }

    fn literal(&mut self, ty: SqlType) -> Expr {
        match ty {
            SqlType::Int => Expr::lit(self.pick(8) as i64 - 4),
            SqlType::Float => Expr::lit(self.pick(12) as f64 / 2.0 - 3.0),
            SqlType::Str => Expr::lit(["a", "b", ""][self.pick(3)]),
            _ => Expr::lit(true),
        }
    }

    /// Comparisons, computed NULL tests and their ANDs, which are NULL
    /// wherever a compared column is; a third of them
    /// under a `col(0) = literal` conjunct, which over a scan of a table
    /// keyed on its first column (every table here) is an index probe,
    /// for a key in the tables' range.
    fn predicate(&mut self, types: &[SqlType]) -> Expr {
        let (a, b) = (self.pick(types.len()), self.pick(types.len()));
        let lit = self.literal(types[a]);
        let pred = match self.pick(5) {
            0 => null_test(a, true),
            1 => Expr::col(a).lt(lit),
            2 => Expr::col(a).eq(lit).and(Expr::col(b).le(Expr::col(a))),
            3 => Expr::col(a).eq(Expr::col(b)),
            _ => Expr::col(a).ge(lit).and(null_test(b, false)),
        };
        let key = match types[0] {
            SqlType::Int => Expr::lit(self.pick(22) as i64 - 1),
            ty => self.literal(ty),
        };
        match self.pick(3) {
            0 => Expr::col(0).eq(key).and(pred),
            _ => pred,
        }
    }

    /// A column of `types` typed `ty`, if there is one, so that a join on
    /// it can match.
    fn partner(&mut self, types: &[SqlType], ty: SqlType) -> usize {
        let same: Vec<usize> = (0..types.len()).filter(|&c| types[c] == ty).collect();
        match same.len() {
            0 => self.pick(types.len()),
            n => same[self.pick(n)],
        }
    }

    /// A plan `depth` nodes deep at most, and the key columns to compare
    /// when only those agree between the two paths (see the test).
    fn plan(&mut self, depth: usize, root: bool) -> (Plan, Option<Vec<usize>>) {
        if depth == 0 {
            return (self.leaf(), None);
        }
        let plan = match self.pick(8) {
            0 => self.leaf(),
            1 => {
                let input = self.plan(depth - 1, false).0;
                let pred = self.predicate(&self.types(&input));
                input.filter(pred)
            }
            2 => {
                // bare columns keep their names, so over a scan the planner
                // pushes them into its projection; one column is computed
                let input = self.plan(depth - 1, false).0;
                let schema = input.schema(self.db).unwrap();
                let mut exprs: Vec<ProjExpr> = (0..1 + self.pick(3))
                    .map(|_| {
                        let c = self.pick(schema.len());
                        ProjExpr::passthrough(&schema, &schema.column(c).name, None).unwrap()
                    })
                    .collect();
                let (a, b) = (self.pick(schema.len()), self.pick(schema.len()));
                exprs.insert(
                    self.pick(exprs.len() + 1),
                    match self.pick(2) {
                        0 => ProjExpr::new(
                            // a|b, a NULL rendering empty
                            apply(vec![Expr::col(a), Expr::col(b)], |v| {
                                let text = |v: &Value| {
                                    if v.is_null() {
                                        String::new()
                                    } else {
                                        v.render()
                                    }
                                };
                                Ok(Value::str(format!("{}|{}", text(&v[0]), text(&v[1]))))
                            }),
                            "cat",
                            SqlType::Str,
                        ),
                        _ => {
                            let fallback = self.literal(schema.column(a).ty);
                            let ty = schema.column(a).ty;
                            ProjExpr::new(coalesce(vec![Expr::col(a), fallback]), "coal", ty)
                        }
                    },
                );
                input.project(exprs)
            }
            3..=5 => {
                // the right side is often a scan, bare or filtered: a bare
                // one joined on a key its index covers, the planner makes
                // an index join, a filtered one stays under a hash join
                let left = self.plan(depth - 1, false).0;
                let right = match self.pick(3) {
                    0 => self.leaf(),
                    1 => {
                        let leaf = self.leaf();
                        let pred = self.predicate(&self.types(&leaf));
                        leaf.filter(pred)
                    }
                    _ => self.plan(depth - 1, false).0,
                };
                let (lt, rt) = (self.types(&left), self.types(&right));
                let lk = match self.pick(3) {
                    0 => self.pick(lt.len()),
                    _ => self.partner(&lt, SqlType::Int),
                };
                let rk = self.partner(&rt, lt[lk]);
                left.hash_join(right, vec![lk], vec![rk])
            }
            6 => {
                let input = self.plan(depth - 1, false).0;
                let types = self.types(&input);
                let second = match self.pick(3) {
                    0 => input.clone(),
                    1 => {
                        let pred = self.predicate(&types);
                        input.clone().filter(pred)
                    }
                    _ if types.len() == 4 => Plan::scan(["t", "u"][self.pick(2)]),
                    _ => input.clone(),
                };
                let key = match self.pick(3) {
                    0 => None,
                    1 => Some(vec![self.pick(types.len())]),
                    _ => Some(vec![self.pick(types.len()), self.pick(types.len())]),
                };
                // a keyed union over a join keeps whichever row of a key
                // the join emits first; only the root may be one
                let ordered = key.is_some() && has_join(&input);
                let key = if ordered && !root { None } else { key };
                let keys_only = if ordered && root { key.clone() } else { None };
                let union = Plan::UnionDistinct {
                    inputs: vec![input, second],
                    key,
                };
                return (union, keys_only);
            }
            _ => {
                let input = self.plan(depth - 1, false).0;
                let types = self.types(&input);
                let group_by: Vec<usize> =
                    (0..self.pick(3)).map(|_| self.pick(types.len())).collect();
                let mut col = || self.pick(types.len());
                let aggs = vec![
                    AggExpr::count_star("n"),
                    AggExpr::sum(col(), "s"),
                    AggExpr::sum(col(), "c"),
                ];
                input.aggregate(group_by, aggs)
            }
        };
        (plan, None)
    }
}

fn has_join(plan: &Plan) -> bool {
    match plan {
        Plan::HashJoin { .. } | Plan::IndexJoin { .. } => true,
        Plan::Scan { .. } | Plan::Values(_) => false,
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. } => has_join(input),
        Plan::UnionDistinct { inputs, .. } => inputs.iter().any(has_join),
    }
}

/// Keys of `t` to delete after the insert (see `make_gen_db`).
fn arb_gone() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(0i64..20, 0..8)
}

fn arb_dim_rows() -> impl Strategy<Value = Vec<(i64, Option<String>)>> {
    let w = prop_oneof![3 => "[ab]".prop_map(Some), 1 => Just(None)];
    prop::collection::vec((0i64..6, w), 2..8).prop_map(|mut v| {
        v.sort_by_key(|r| r.0);
        v.dedup_by_key(|r| r.0);
        v
    })
}

/// Cases of the generated-plan differential, and of the test that checks
/// its reach.
const GEN_CASES: u32 = 256;

/// One case of `generated_plans_agree_with_oracle`: `t`, the keys deleted
/// from it, `u`, `d` and the generator's picks.
type GenCase = (
    Vec<GenRow>,
    Vec<i64>,
    Vec<GenRow>,
    Vec<(i64, Option<String>)>,
    Vec<usize>,
);

/// The differential's inputs, drawn in one fixed order so that the reach
/// test below sees exactly the cases the differential runs.
fn arb_gen_case() -> impl Strategy<Value = GenCase> {
    let picks = prop::collection::vec(0usize..840, 96);
    (
        arb_gen_rows(),
        arb_gone(),
        arb_gen_rows(),
        arb_dim_rows(),
        picks,
    )
}

/// The database of `case`, the plan it generates and the columns the two
/// paths must agree on.
fn gen_case_plan((t, gone, u, d, picks): GenCase) -> (Database, Plan, Vec<usize>) {
    let (db, values) = make_gen_db(&t, &gone, &u, &d);
    let (plan, cols) = gen_plan(&db, values, picks);
    (db, plan, cols)
}

/// The plan `picks` build over `db`, and the columns the two paths must
/// agree on (see `generated_plans_agree_with_oracle`).
fn gen_plan(db: &Database, values: Plan, picks: Vec<usize>) -> (Plan, Vec<usize>) {
    let mut gen = PlanGen {
        db,
        values,
        picks,
        at: 0,
    };
    let (plan, keys_only) = gen.plan(3, true);
    let width = plan.schema(db).unwrap().len();
    (plan, keys_only.unwrap_or_else(|| (0..width).collect()))
}

/// The executor's and the oracle's rows of `plan`, each cut to `cols` and
/// sorted.
fn both_paths(plan: &Plan, cols: &[usize], db: &Database) -> (Vec<SharedRow>, Vec<SharedRow>) {
    let canonical = |rel: Relation| {
        let mut rows: Vec<SharedRow> = (rel.rows.iter())
            .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
            .collect();
        rows.sort_by(|a, b| {
            let mut cmp = a.iter().zip(b.iter()).map(|(x, y)| x.total_cmp(y));
            cmp.find(|o| o.is_ne()).unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    };
    let executed = canonical(execute(plan, db).unwrap());
    (executed, canonical(execute_oracle(plan, db).unwrap()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(GEN_CASES))]

    /// Generated plans — scans (over tombstones, and index probes where a
    /// `col = literal` conjunct covers a key) and `Values`, filters,
    /// projections with a computed column, hash joins (index joins where
    /// an index covers the key, a filtered inner scan's predicate pushed
    /// into the join), keyed and whole-row UNION DISTINCT,
    /// grouped and global aggregates, up to three deep over three small
    /// nullable tables — return the oracle's rows as a multiset.
    ///
    /// Where a keyed UNION DISTINCT sits above a join only its key columns
    /// are compared: the executor builds a hash join on the side its
    /// estimate says is smaller, the oracle on the side that is, and an
    /// index join emits in probe order, so the two can emit a join's rows
    /// in different orders and keep a different first row for a key.
    #[test]
    fn generated_plans_agree_with_oracle(case in arb_gen_case()) {
        let (db, plan, cols) = gen_case_plan(case);
        let (executed, oracle) = both_paths(&plan, &cols, &db);
        prop_assert_eq!(executed, oracle, "{:?}", plan);
    }

    /// A picked write to `t` inside a transaction — an insert of new keys,
    /// a `delete_where`, an upsert that replaces, revives and appends — is
    /// read by a generated plan the same on both paths, and after the
    /// rollback both paths return the rows they returned before the write.
    #[test]
    fn generated_plans_agree_across_a_rolled_back_write(
        t in arb_gen_rows(),
        gone in arb_gone(),
        u in arb_gen_rows(),
        d in arb_dim_rows(),
        batch in arb_gen_rows(),
        write in 0usize..3,
        picks in prop::collection::vec(0usize..840, 96),
    ) {
        let (db, values) = make_gen_db(&t, &gone, &u, &d);
        let (plan, cols) = gen_plan(&db, values, picks);
        let before = both_paths(&plan, &cols, &db);
        prop_assert_eq!(&before.0, &before.1, "{:?}", plan);
        let table = db.table("t").unwrap();
        let rows = |shift: i64| -> Vec<SharedRow> {
            (batch.iter()).map(|(k, g, v, s)| gen_row(&(k + shift, *g, *v, s.clone()))).collect()
        };
        let scope = tx::begin();
        let written = match write {
            0 => table.insert(rows(20)),
            1 => table.delete_where(&key_in(batch.iter().map(|r| r.0).collect())),
            _ => table.upsert(rows(0)),
        };
        prop_assert!(written.is_ok(), "{:?}", written);
        let during = both_paths(&plan, &cols, &db);
        prop_assert_eq!(&during.0, &during.1, "write {} {:?}", write, plan);
        scope.rollback();
        prop_assert_eq!(both_paths(&plan, &cols, &db), before, "write {} {:?}", write, plan);
    }
}

/// The shapes the generated-plan differential must keep reaching, each
/// set once an optimized plan holds one.
#[derive(Debug, Default)]
struct Reach {
    builds_left: bool,
    builds_right: bool,
    index_join: bool,
    null_join_key: bool,
    sum_over_no_rows: bool,
    count_over_no_rows: bool,
}

/// Any row of `plan`'s output with a NULL in one of `keys`?
fn null_key(plan: &Plan, keys: &[usize], db: &Database) -> bool {
    let rows = execute(plan, db).unwrap().rows;
    rows.iter().any(|r| keys.iter().any(|&k| r[k].is_null()))
}

fn note_reach(plan: &Plan, db: &Database, seen: &mut Reach) {
    match plan {
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            // the executor's build-side rule
            if right.estimate_rows(db) <= left.estimate_rows(db) {
                seen.builds_right = true;
            } else {
                seen.builds_left = true;
            }
            seen.null_join_key |= null_key(left, left_keys, db) || null_key(right, right_keys, db);
            note_reach(left, db, seen);
            note_reach(right, db, seen);
        }
        Plan::IndexJoin {
            probe, probe_keys, ..
        } => {
            seen.index_join = true;
            seen.null_join_key |= null_key(probe, probe_keys, db);
            note_reach(probe, db, seen);
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            if group_by.is_empty() && execute(input, db).unwrap().rows.is_empty() {
                let out = execute(plan, db).unwrap().rows;
                for (a, v) in aggs.iter().zip(out[0].iter()) {
                    match (&a.op, v) {
                        (AggOp::Sum(_), Value::Null) => seen.sum_over_no_rows = true,
                        (AggOp::CountStar, Value::Int(0)) => seen.count_over_no_rows = true,
                        _ => panic!("{} over no rows is {v:?}", a.name),
                    }
                }
            }
            note_reach(input, db, seen);
        }
        Plan::Filter { input, .. } | Plan::Project { input, .. } => note_reach(input, db, seen),
        Plan::UnionDistinct { inputs, .. } => {
            for i in inputs {
                note_reach(i, db, seen);
            }
        }
        Plan::Scan { .. } | Plan::Values(_) => {}
    }
}

/// The differential above keeps its reach with inner joins, SUM and
/// COUNT(*) only: its seeded cases, drawn from its strategy under its
/// name and optimized, build hash joins on either side, probe an index
/// join, join on a NULL key and aggregate zero rows into a
/// NULL SUM and a zero COUNT(*).
#[test]
fn generated_plans_reach_every_join_and_aggregate_shape() {
    use proptest::test_runner::TestRng;
    // Naming the differential here makes a rename fail to compile rather
    // than silently seed other cases.
    let _: fn() = generated_plans_agree_with_oracle;
    let name = concat!(module_path!(), "::generated_plans_agree_with_oracle");
    let cases = arb_gen_case();
    let mut seen = Reach::default();
    for case in 0..GEN_CASES {
        let (db, plan, _) = gen_case_plan(cases.generate(&mut TestRng::for_case(name, case)));
        let optimized = dip_relstore::query::planner::optimize(plan, &db).unwrap();
        note_reach(&optimized, &db, &mut seen);
    }
    let Reach {
        builds_left,
        builds_right,
        index_join,
        null_join_key,
        sum_over_no_rows,
        count_over_no_rows,
    } = seen;
    assert!(
        builds_left
            && builds_right
            && index_join
            && null_join_key
            && sum_over_no_rows
            && count_over_no_rows,
        "{seen:?}"
    );
}
