//! Query processing: logical plans, a rule-based planner, one columnar
//! batch executor ([`execute`]) and the naive reference interpreter it is
//! tested against ([`execute_oracle`]).

mod batch;
pub mod exec;
pub mod plan;
pub mod planner;

pub use exec::{execute, execute_oracle};
pub use plan::{AggExpr, AggOp, Plan, ProjExpr};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::expr::Expr;
    use crate::row::{Relation, SharedRow};
    use crate::schema::RelSchema;
    use crate::table::Table;
    use crate::value::{SqlType, Value};
    use std::sync::Arc;

    /// Rows as plain value lists, to compare against literals.
    fn vecs(rows: &[SharedRow]) -> Vec<Vec<Value>> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    /// A computed expression: `f` over the values of `args`.
    fn apply(args: Vec<Expr>, f: impl Fn(&[Value]) -> Value + Send + Sync + 'static) -> Expr {
        Expr::Apply(Arc::new(move |a: &[Value]| Ok(f(a))), args)
    }

    /// `NOT (col = s)`, NULL on a NULL column.
    fn differs(col: usize, s: &'static str) -> Expr {
        apply(vec![Expr::col(col)], move |a| match &a[0] {
            Value::Null => Value::Null,
            v => Value::Bool(v != &Value::str(s)),
        })
    }

    fn db() -> Database {
        let db = Database::new("q");
        let cust = RelSchema::of(&[
            ("custkey", SqlType::Int),
            ("name", SqlType::Str),
            ("citykey", SqlType::Int),
        ])
        .shared();
        let city = RelSchema::of(&[("citykey", SqlType::Int), ("cname", SqlType::Str)]).shared();
        let t = Table::new("customer", cust)
            .with_primary_key(&["custkey"])
            .unwrap();
        t.insert(vec![
            vec![Value::Int(1), Value::str("alpha"), Value::Int(10)],
            vec![Value::Int(2), Value::str("beta"), Value::Int(20)],
            vec![Value::Int(3), Value::str("gamma"), Value::Int(10)],
            vec![Value::Int(4), Value::str("delta"), Value::Int(99)],
        ])
        .unwrap();
        db.create_table(t);
        let t = Table::new("city", city)
            .with_primary_key(&["citykey"])
            .unwrap();
        t.insert(vec![
            vec![Value::Int(10), Value::str("Berlin")],
            vec![Value::Int(20), Value::str("Paris")],
        ])
        .unwrap();
        db.create_table(t);
        db
    }

    /// Run a plan through the executor and the oracle: they must agree as
    /// a multiset (the oracle runs the unoptimized plan, which may emit
    /// another order). Returns the executor's result.
    fn run_vs_oracle(plan: &Plan, db: &Database) -> Relation {
        let out = execute(plan, db).unwrap();
        let mut oracle = execute_oracle(plan, db).unwrap().rows;
        let mut sorted = out.rows.clone();
        oracle.sort();
        sorted.sort();
        assert_eq!(oracle, sorted, "oracle vs executor multiset");
        out
    }

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn scan_filter_project() {
        let db = db();
        let schema = db.table("customer").unwrap().schema.clone();
        let plan = Plan::scan("customer")
            .filter(Expr::col(2).eq(Expr::lit(10)))
            .project(vec![
                ProjExpr::passthrough(&schema, "name", Some("n")).unwrap()
            ]);
        let rel = run_vs_oracle(&plan, &db);
        assert_eq!(rel.schema.names(), vec!["n"]);
        let mut names: Vec<String> = rel.rows.iter().map(|r| r[0].render()).collect();
        names.sort();
        assert_eq!(names, vec!["alpha", "gamma"]);
    }

    #[test]
    fn inner_join() {
        let db = db();
        let plan = Plan::scan("customer").hash_join(Plan::scan("city"), vec![2], vec![0]);
        let rel = run_vs_oracle(&plan, &db);
        assert_eq!(rel.schema.len(), 5);
        // probe order; delta's citykey 99 has no match
        assert_eq!(
            vecs(&rel.rows),
            vec![
                vec![
                    int(1),
                    Value::str("alpha"),
                    int(10),
                    int(10),
                    Value::str("Berlin")
                ],
                vec![
                    int(2),
                    Value::str("beta"),
                    int(20),
                    int(20),
                    Value::str("Paris")
                ],
                vec![
                    int(3),
                    Value::str("gamma"),
                    int(10),
                    int(10),
                    Value::str("Berlin")
                ],
            ]
        );
    }

    #[test]
    fn union_distinct_on_key() {
        let db = db();
        let plan = Plan::UnionDistinct {
            inputs: vec![Plan::scan("customer"), Plan::scan("customer")],
            key: Some(vec![0]),
        };
        let rel = run_vs_oracle(&plan, &db);
        assert_eq!(rel.len(), 4);
        // first-seen dedup turns emission order into content: on citykey,
        // gamma (a second 10) loses to alpha
        let plan = Plan::UnionDistinct {
            inputs: vec![Plan::scan("customer"), Plan::scan("customer")],
            key: Some(vec![2]),
        };
        let rel = run_vs_oracle(&plan, &db);
        assert_eq!(
            vecs(&rel.rows),
            vec![
                vec![int(1), Value::str("alpha"), int(10)],
                vec![int(2), Value::str("beta"), int(20)],
                vec![int(4), Value::str("delta"), int(99)],
            ]
        );
    }

    #[test]
    fn union_distinct_whole_row() {
        let db = db();
        let plan = Plan::UnionDistinct {
            inputs: vec![Plan::scan("city"), Plan::scan("city")],
            key: None,
        };
        let rel = run_vs_oracle(&plan, &db);
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn aggregate_group_by() {
        let db = db();
        let plan = Plan::scan("customer").aggregate(
            vec![2],
            vec![AggExpr::count_star("n"), AggExpr::sum(0, "keys")],
        );
        let rel = run_vs_oracle(&plan, &db);
        // groups in first-seen order; citykey 10 twice
        assert_eq!(
            vecs(&rel.rows),
            vec![
                vec![int(10), int(2), int(4)],
                vec![int(20), int(1), int(2)],
                vec![int(99), int(1), int(4)],
            ]
        );
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let db = db();
        let plan = Plan::scan("customer")
            .filter(Expr::col(0).gt(Expr::lit(1000)))
            .aggregate(vec![], vec![AggExpr::count_star("n"), AggExpr::sum(0, "s")]);
        let rel = run_vs_oracle(&plan, &db);
        assert_eq!(vecs(&rel.rows), vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn optimized_equals_unoptimized() {
        let db = db();
        let schema = db.table("customer").unwrap().schema.clone();
        let plan = Plan::scan("customer")
            .hash_join(Plan::scan("city"), vec![2], vec![0])
            .filter(
                apply(vec![Expr::col(1)], |a| match &a[0] {
                    Value::Str(s) => Value::Bool(s.contains('a')),
                    _ => Value::Null,
                })
                .and(Expr::col(4).eq(Expr::lit("Berlin"))),
            )
            .project(vec![ProjExpr::passthrough(&schema, "name", None).unwrap()]);
        run_vs_oracle(&plan, &db);
    }

    #[test]
    fn sum_keeps_integer_type_and_exactness() {
        let db = db();
        // SUM over an Int column stays Int — and stays exact above 2^53,
        // where an f64 accumulator would silently round
        let schema = RelSchema::of(&[("x", SqlType::Int)]).shared();
        let big = 9_007_199_254_740_993i64; // 2^53 + 1, not representable in f64
        let rel = Relation::new(
            schema.clone(),
            vec![[Value::Int(big)].into(), [Value::Int(0)].into()],
        );
        let plan = Plan::Values(rel.into()).aggregate(vec![], vec![AggExpr::sum(0, "s")]);
        let out = run_vs_oracle(&plan, &db);
        assert_eq!(out.rows[0][0], Value::Int(big));
        // the output schema advertises Int as well
        assert_eq!(plan.schema(&db).unwrap().column(0).ty, SqlType::Int);

        // overflow falls back to float instead of panicking/wrapping
        let rel = Relation::new(
            schema.clone(),
            vec![[Value::Int(i64::MAX)].into(), [Value::Int(i64::MAX)].into()],
        );
        let plan = Plan::Values(rel.into()).aggregate(vec![], vec![AggExpr::sum(0, "s")]);
        let out = run_vs_oracle(&plan, &db);
        assert_eq!(out.rows[0][0], Value::Float(i64::MAX as f64 * 2.0));

        // mixed int/float input widens to Float
        let mixed = RelSchema::of(&[("x", SqlType::Float)]).shared();
        let rel = Relation::new(
            mixed,
            vec![[Value::Int(1)].into(), [Value::Float(2.5)].into()],
        );
        let plan = Plan::Values(rel.into()).aggregate(vec![], vec![AggExpr::sum(0, "s")]);
        let out = run_vs_oracle(&plan, &db);
        assert_eq!(out.rows[0][0], Value::Float(3.5));
    }

    #[test]
    fn float_sum_is_order_invariant() {
        // The shared compensated (Kahan–Babuška/Neumaier) accumulator makes
        // float SUM independent of input order: [1e16, 1.0, -1e16] sums to
        // exactly 1.0 under every permutation, where naive f64 summation
        // loses the 1.0 for some orders. The executor and the oracle must
        // produce the identical byte pattern for every permutation.
        let db = db();
        let schema = RelSchema::of(&[("x", SqlType::Float)]).shared();
        let vals = [1e16f64, 1.0, -1e16];
        let perms: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for p in perms {
            let rows: Vec<SharedRow> = p.iter().map(|&i| [Value::Float(vals[i])].into()).collect();
            let plan = Plan::Values(Relation::new(schema.clone(), rows).into())
                .aggregate(vec![], vec![AggExpr::sum(0, "s")]);
            for out in [
                execute(&plan, &db).unwrap(),
                execute_oracle(&plan, &db).unwrap(),
            ] {
                let Value::Float(s) = out.rows[0][0] else {
                    panic!("SUM not a float for {p:?}");
                };
                assert_eq!(s.to_bits(), 1.0f64.to_bits(), "permutation {p:?}");
            }
        }
    }

    #[test]
    fn multi_chunk_inputs() {
        // More rows than one 1024-row chunk, exercising chunk boundaries
        // through filter → join → aggregate and a filter ending mid-chunk.
        let db = Database::new("big");
        let schema = RelSchema::of(&[("k", SqlType::Int), ("g", SqlType::Int)]).shared();
        let t = Table::new("wide", schema).with_primary_key(&["k"]).unwrap();
        t.insert(
            (0..3000)
                .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        db.create_table(t);

        let agg = Plan::scan("wide")
            .filter(Expr::col(0).lt(Expr::lit(2500)))
            .aggregate(
                vec![1],
                vec![AggExpr::count_star("n"), AggExpr::sum(0, "s")],
            );
        let rel = run_vs_oracle(&agg, &db);
        assert_eq!(rel.len(), 7);
        let total: i64 = rel
            .rows
            .iter()
            .map(|r| match r[1] {
                Value::Int(n) => n,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 2500);

        let join = Plan::scan("wide").hash_join(
            Plan::scan("wide").filter(Expr::col(1).eq(Expr::lit(3))),
            vec![0],
            vec![0],
        );
        let rel = run_vs_oracle(&join, &db);
        assert_eq!(rel.len(), 3000 / 7 + 1); // k ≡ 3 (mod 7): 3, 10, …, 2999

        let prefix = Plan::scan("wide").filter(Expr::col(0).lt(Expr::lit(1500)));
        let rel = run_vs_oracle(&prefix, &db);
        assert_eq!(rel.len(), 1500);
    }

    #[test]
    fn planner_selects_index_join_on_pk() {
        let db = db();
        // city is scanned with its join key covered by its primary key
        let plan = Plan::scan("customer").hash_join(Plan::scan("city"), vec![2], vec![0]);
        let opt = crate::query::planner::optimize(plan.clone(), &db).unwrap();
        assert!(
            matches!(opt, Plan::IndexJoin { .. }),
            "expected IndexJoin, got {opt:?}"
        );
        run_vs_oracle(&plan, &db);
    }

    #[test]
    fn self_join_is_not_index_joined() {
        let db = db();
        // probing would re-lock the table the probe side is scanning
        let plan = Plan::scan("customer").hash_join(Plan::scan("customer"), vec![0], vec![0]);
        let opt = crate::query::planner::optimize(plan.clone(), &db).unwrap();
        assert!(matches!(opt, Plan::HashJoin { .. }), "got {opt:?}");
        let rel = run_vs_oracle(&plan, &db);
        assert_eq!(rel.len(), 4);
    }

    #[test]
    fn values_plan() {
        let db = db();
        let schema = RelSchema::of(&[("x", SqlType::Int)]).shared();
        let rel = Relation::new(schema, vec![[Value::Int(5)].into()]);
        let plan = Plan::Values(rel.into()).project(vec![ProjExpr::new(
            apply(vec![Expr::col(0)], |a| {
                Value::Int(a[0].to_int().unwrap() * 2)
            }),
            "y",
            SqlType::Int,
        )]);
        let out = run_vs_oracle(&plan, &db);
        assert_eq!(out.rows[0][0], Value::Int(10));
    }

    #[test]
    fn project_after_unpushable_filter() {
        let db = db();
        // The planner pushes no filter through a join, so this one, over
        // columns of both join sides, stays above the join: the batch
        // executor's Project then sees a chunk with a selection vector
        // over gathered join columns — a shape where forwarded bare
        // columns must compose the selection into their gather index
        // (regression: the physical selection was once re-attached to
        // already-compacted columns).
        let schema = db.table("customer").unwrap().schema.clone();
        let plan = Plan::scan("customer")
            .hash_join(Plan::scan("city"), vec![2], vec![0])
            .filter(
                apply(vec![Expr::col(0), Expr::col(3)], |a| {
                    Value::Int(a[0].to_int().unwrap() + a[1].to_int().unwrap())
                })
                .lt(Expr::lit(20)),
            )
            .project(vec![
                ProjExpr::passthrough(&schema, "name", None).unwrap(),
                ProjExpr::new(
                    apply(vec![Expr::col(0)], |a| {
                        Value::Int(a[0].to_int().unwrap() * 10)
                    }),
                    "k10",
                    SqlType::Int,
                ),
            ]);
        // the shape under test: the filter survives above the join
        let opt = crate::query::planner::optimize(plan.clone(), &db).unwrap();
        let Plan::Project { input, .. } = &opt else {
            panic!("expected Project root, got {opt:?}");
        };
        assert!(
            matches!(&**input, Plan::Filter { input, .. }
                if matches!(&**input, Plan::HashJoin { .. } | Plan::IndexJoin { .. })),
            "expected residual filter above join, got {opt:?}"
        );
        // survivors are rows 0 and 2 of the join output — a
        // non-contiguous selection, so a mis-attached physical selection
        // cannot pass by coincidence on a prefix
        let mut rel = run_vs_oracle(&plan, &db);
        rel.sort_by_columns(&[1]);
        assert_eq!(rel.len(), 2); // alpha (1+10) and gamma (3+10); beta is 2+20
        assert_eq!(rel.rows[0][0], Value::str("alpha"));
        assert_eq!(rel.rows[0][1], Value::Int(10));
        assert_eq!(rel.rows[1][0], Value::str("gamma"));
        assert_eq!(rel.rows[1][1], Value::Int(30));
    }

    /// A table spanning many chunks.
    fn big_db(rows: usize) -> Database {
        let db = Database::new("big");
        let schema = RelSchema::of(&[
            ("k", SqlType::Int),
            ("g", SqlType::Int),
            ("v", SqlType::Float),
        ])
        .shared();
        let t = Table::new("wide", schema).with_primary_key(&["k"]).unwrap();
        t.insert(
            (0..rows)
                .map(|i| {
                    vec![
                        Value::Int(i as i64),
                        Value::Int((i % 97) as i64),
                        Value::Float(i as f64 * 0.5),
                    ]
                })
                .collect(),
        )
        .unwrap();
        db.create_table(t);
        db
    }

    #[test]
    fn large_join_free_aggregate_agrees_with_oracle() {
        let db = big_db(32 * 1024 + 17);
        let plan = Plan::scan("wide").aggregate(
            vec![1],
            vec![
                AggExpr::count_star("n"),
                AggExpr::sum(0, "sk"),
                AggExpr::sum(2, "sv"),
            ],
        );
        let mut rel = run_vs_oracle(&plan, &db);
        rel.sort_by_columns(&[0]);
        assert_eq!(rel.len(), 97);
        // exact integer sums: group g holds keys g, g+97, g+194, …
        let n0 = rel.rows[0][1].to_int().unwrap();
        assert_eq!(rel.rows[0][0], Value::Int(0));
        let expect: i64 = (0..n0).map(|i| i * 97).sum();
        assert_eq!(rel.rows[0][2], Value::Int(expect));
    }

    /// 6 000 rows of `w(f FLOAT, i INT, s STR)` — six chunks — holding what
    /// the storage layer accepts beyond the declared type: an `Int` in the
    /// `FLOAT` column (every `r % 5 == 1`), a `Bool` in the `INT` column
    /// (every `r % 7 == 1`) and NULLs in every column; `dim(f FLOAT, label
    /// STR)` carries the join key as `Float`, as widened `Int`, as NULL
    /// and twice.
    fn widened_db() -> Database {
        let db = Database::new("widened");
        let w = RelSchema::of(&[
            ("f", SqlType::Float),
            ("i", SqlType::Int),
            ("s", SqlType::Str),
        ])
        .shared();
        let row = |r: i64| {
            let f = match r % 5 {
                0 => Value::Null,
                1 => Value::Int(r % 4),
                _ => Value::Float((r % 4) as f64),
            };
            let i = match r % 7 {
                0 => Value::Null,
                1 => Value::Bool(r % 2 == 0),
                _ => Value::Int(r % 3),
            };
            let s = match (r % 11, r % 13) {
                (0, _) => Value::Null,
                (_, 0..=8) => Value::str("a"),
                _ => Value::str("b"),
            };
            vec![f, i, s]
        };
        let t = Table::new("w", w);
        t.insert((0..6000).map(row).collect()).unwrap();
        db.create_table(t);
        let dim = RelSchema::of(&[("f", SqlType::Float), ("label", SqlType::Str)]).shared();
        let t = Table::new("dim", dim);
        t.insert(vec![
            vec![Value::Float(0.0), Value::str("zero")],
            vec![Value::Int(1), Value::str("one")],
            vec![Value::Float(2.0), Value::str("two")],
            vec![Value::Null, Value::str("none")],
            vec![Value::Int(1), Value::str("uno")],
        ])
        .unwrap();
        db.create_table(t);
        db
    }

    /// Widened values re-emit as they were stored and compare / hash
    /// across numeric types, through every operator, over selection
    /// vectors, gathers and shared columns.
    #[test]
    fn widened_values_and_nulls_survive_every_operator() {
        let db = widened_db();
        let (a, b) = (Value::str("a"), Value::str("b"));
        let (float, boolean) = (Value::Float, Value::Bool);

        // scan with a pushed-down filter → hash join on the widened key:
        // probe order × build insertion order, NULL keys never join, key 3
        // has no partner, Int(1) = Float(1.0) = Int(1) twice
        let joined = Plan::scan("w")
            .filter(Expr::col(2).eq(Expr::lit("a")))
            .hash_join(Plan::scan("dim"), vec![0], vec![0]);
        let rel = run_vs_oracle(&joined, &db);
        assert_eq!(rel.len(), 3022);
        assert_eq!(
            vecs(&rel.rows[..5]),
            [
                vec![int(1), boolean(false), a.clone(), int(1), Value::str("one")],
                vec![int(1), boolean(false), a.clone(), int(1), Value::str("uno")],
                vec![float(2.0), int(2), a.clone(), float(2.0), Value::str("two")],
                vec![
                    float(0.0),
                    int(1),
                    a.clone(),
                    float(0.0),
                    Value::str("zero")
                ],
                vec![int(2), int(0), a.clone(), float(2.0), Value::str("two")],
            ]
        );

        // a residual filter over both join sides narrows the gathered
        // chunks to a selection vector; the aggregates read through it
        // NOT (col(1) IS NULL AND col(4) = 'uno')
        let kept = joined.filter(apply(vec![Expr::col(1), Expr::col(4)], |a| {
            match (a[0].is_null(), &a[1]) {
                (false, _) => Value::Bool(true),
                (true, Value::Null) => Value::Null,
                (true, v) => Value::Bool(v != &Value::str("uno")),
            }
        }));
        let opt = crate::query::planner::optimize(kept.clone(), &db).unwrap();
        assert!(matches!(opt, Plan::Filter { .. }), "got {opt:?}");
        let aggs = vec![
            AggExpr::count_star("n"),
            AggExpr::sum(1, "si"),
            AggExpr::sum(0, "sf"),
        ];
        // grouped on the widened key: a group's key is its first-seen
        // value as stored; SUM skips the Bool, and a Float among the Ints
        // of the key column widens its sum
        let rel = run_vs_oracle(&kept.clone().aggregate(vec![0], aggs.clone()), &db);
        assert_eq!(
            vecs(&rel.rows),
            vec![
                vec![int(1), int(1402), int(1074), float(1402.0)],
                vec![float(2.0), int(757), int(545), float(1514.0)],
                vec![float(0.0), int(755), int(531), float(0.0)],
            ]
        );
        let rel = run_vs_oracle(&kept.aggregate(vec![], aggs), &db);
        assert_eq!(
            vecs(&rel.rows),
            vec![vec![int(2914), int(2150), float(2916.0)]]
        );

        // UnionDistinct keeps first occurrences: whole rows, then per key
        let distinct = |key: Option<Vec<usize>>| Plan::UnionDistinct {
            inputs: vec![Plan::scan("w"), Plan::scan("w")],
            key,
        };
        let rel = run_vs_oracle(&distinct(None), &db);
        assert_eq!(rel.len(), 78);
        assert_eq!(
            vecs(&rel.rows[..3]),
            [
                vec![Value::Null, Value::Null, Value::Null],
                vec![int(1), boolean(false), a.clone()],
                vec![float(2.0), int(2), a.clone()],
            ]
        );
        assert_eq!(
            rel.rows[77],
            [Value::Null, boolean(false), Value::Null].into()
        );
        let rel = run_vs_oracle(&distinct(Some(vec![0])), &db);
        assert_eq!(
            vecs(&rel.rows),
            vec![
                vec![Value::Null, Value::Null, Value::Null],
                vec![int(1), boolean(false), a.clone()],
                vec![float(2.0), int(2), a.clone()],
                vec![float(3.0), int(0), a.clone()],
                vec![float(0.0), int(1), a.clone()],
            ]
        );

        // a renaming projection forwards its input columns shared; rows
        // come out in scan order across the chunk boundaries
        let renamed = Plan::scan("w").project(vec![
            ProjExpr::new(Expr::col(0), "ff", SqlType::Float),
            ProjExpr::new(Expr::col(2), "ss", SqlType::Str),
        ]);
        let rel = run_vs_oracle(&renamed, &db);
        assert_eq!(rel.len(), 6000);
        assert_eq!(rel.rows[1], [int(1), a.clone()].into());
        assert_eq!(rel.rows[2499], [float(3.0), a].into());
        assert_eq!(rel.rows[2051], [int(3), b].into());
    }

    #[test]
    fn union_mixing_join_and_scan_inputs() {
        // one join-bearing input + one bare scan input: the union keeps
        // input order, so first-seen dedup prefers the join side
        let db = db();
        let join_side = Plan::scan("customer")
            .hash_join(Plan::scan("city"), vec![2], vec![0])
            .project(vec![
                ProjExpr::new(Expr::col(0), "k", SqlType::Int),
                ProjExpr::new(Expr::col(1), "name", SqlType::Str),
            ]);
        let scan_side = Plan::scan("customer").project(vec![
            ProjExpr::new(Expr::col(0), "k", SqlType::Int),
            ProjExpr::new(Expr::col(1), "name", SqlType::Str),
        ]);
        let sides = run_vs_oracle(&join_side, &db).len() + run_vs_oracle(&scan_side, &db).len();
        assert_eq!(sides, 3 + 4);
        let distinct = Plan::UnionDistinct {
            inputs: vec![join_side, scan_side],
            key: Some(vec![0]),
        };
        let rel = run_vs_oracle(&distinct, &db);
        assert_eq!(rel.len(), 4); // keys 1-4, first-seen from the join side
        assert_eq!(rel.rows[0][0], Value::Int(1));
    }

    /// A hand-built index join over a table no index covers runs as the
    /// hash join it stands for, on both paths.
    #[test]
    fn index_join_without_its_index_runs_as_the_hash_join() {
        let db = db();
        let plan = Plan::IndexJoin {
            probe: Box::new(Plan::scan("city")),
            table: "customer".into(),
            probe_keys: vec![0],
            inner_keys: vec![2],
        };
        let hashed = Plan::scan("city").hash_join(Plan::scan("customer"), vec![0], vec![2]);
        let mut expected = execute_oracle(&hashed, &db).unwrap().rows;
        let mut rows = run_vs_oracle(&plan, &db).rows;
        expected.sort();
        rows.sort();
        assert_eq!(expected.len(), 3);
        assert_eq!(rows, expected);
    }

    /// A column index outside its input — a join key, a group-by column, a
    /// union key, a scan projection, a projected column — is the same typed
    /// error from the executor and the oracle: the executor used to read
    /// an out-of-range join key as NULL (no rows) and the oracle to panic
    /// on it, and both paths panicked
    /// on the group-by and the planner on the projected column. Plan
    /// references are checked before a row is read, so a union of no rows
    /// fails too.
    #[test]
    fn out_of_range_columns_are_the_same_error_on_both_paths() {
        let db = db();
        let values = |rows: i64| {
            let schema = RelSchema::of(&[("k", SqlType::Int), ("v", SqlType::Int)]).shared();
            let rows = (0..rows)
                .map(|i| vec![int(i), int(i * 10)])
                .map(Into::into)
                .collect();
            Plan::Values(Relation::new(schema, rows).into())
        };
        let plans = [
            values(5).hash_join(values(3), vec![0], vec![5]),
            values(5).aggregate(vec![7], vec![AggExpr::count_star("n")]),
            Plan::UnionDistinct {
                inputs: vec![values(2), values(0)],
                key: Some(vec![4]),
            },
            Plan::Scan {
                table: "customer".into(),
                predicate: None,
                projection: Some(vec![0, 9]),
            },
            Plan::scan("customer").project(vec![ProjExpr::new(Expr::col(9), "name", SqlType::Str)]),
        ];
        for plan in &plans {
            let executed = execute(plan, &db);
            assert!(
                matches!(&executed, Err(e) if e.to_string().contains("column index")),
                "{plan:?}: {executed:?}"
            );
            assert_eq!(executed, execute_oracle(plan, &db), "{plan:?}");
        }
    }

    /// A column an expression reads outside its input — in a filter, a
    /// projection, a SUM's input or a scan's pushed-down predicate — is
    /// the same typed error from the executor
    /// and the oracle, over no rows as over one. Over no rows both paths
    /// used to answer (`[]`, or `[[NULL]]` for the SUM): expressions were
    /// checked only when a row reached them.
    #[test]
    fn out_of_range_expression_columns_fail_before_a_row_is_read() {
        let db = db();
        let schema = RelSchema::of(&[("k", SqlType::Int), ("v", SqlType::Int)]).shared();
        db.create_table(Table::new("nothing", schema.clone()));
        let values = |rows: i64| {
            let rows = (0..rows)
                .map(|i| vec![int(i), int(i * 10)])
                .map(Into::into)
                .collect();
            Plan::Values(Relation::new(schema.clone(), rows).into())
        };
        let five = || Expr::col(5).eq(Expr::lit(1));
        for rows in [0, 1] {
            let plans = [
                values(rows).filter(five()),
                values(rows).project(vec![ProjExpr::new(Expr::col(5), "x", SqlType::Int)]),
                values(rows).aggregate(vec![], vec![AggExpr::sum(5, "s")]),
                Plan::scan("nothing").filter(five()),
            ];
            for plan in &plans {
                let (executed, oracle) = (plan.run(&db), plan.run_oracle(&db));
                for (path, result) in [("run", &executed), ("run_oracle", &oracle)] {
                    assert!(
                        matches!(result, Err(crate::error::StoreError::Invalid(e))
                            if e.contains("column index 5 out of range for 2 columns")),
                        "{path}, {rows} rows, {plan:?}: {result:?}"
                    );
                }
                assert_eq!(executed, oracle, "{rows} rows, {plan:?}");
            }
        }
    }

    /// A `Values` row narrower or wider than the relation's schema is the
    /// same `StoreError::Invalid` from the executor and the oracle, before
    /// a row is emitted — also when it sits past two full chunks, under a
    /// filter or a union. The executor used to shift a short row's cells
    /// into the next one, `[[1], [2, 3], [4, 5]]` coming out as
    /// `[[1, 3], [2, 5], [4]]`, while the oracle passed the rows through.
    #[test]
    fn ragged_values_rows_are_invalid_on_both_paths() {
        let db = db();
        let values = |rows: Vec<Vec<i64>>| {
            let schema = RelSchema::of(&[("a", SqlType::Int), ("b", SqlType::Int)]).shared();
            let rows = rows.into_iter().map(|r| r.into_iter().map(int).collect());
            Plan::Values(Relation::new(schema, rows.collect()).into())
        };
        let short = || values(vec![vec![1], vec![2, 3], vec![4, 5]]);
        let mut long: Vec<Vec<i64>> = (0..2500).map(|i| vec![i, i % 7]).collect();
        long.push(vec![1, 2, 3]);
        let plans = [
            short(),
            values(long),
            short().filter(Expr::col(0).gt(Expr::lit(0))),
            Plan::UnionDistinct {
                inputs: vec![values(vec![vec![9, 9]]), short()],
                key: Some(vec![0]),
            },
        ];
        for plan in &plans {
            let executed = execute(plan, &db);
            assert!(
                matches!(&executed, Err(crate::error::StoreError::Invalid(_))),
                "{executed:?}"
            );
            assert_eq!(executed, execute_oracle(plan, &db));
        }
    }

    /// A filter over a `Values` leaf hands on the leaf's own rows, across
    /// chunk boundaries and through a second filter, and a plan reads
    /// them as it reads the rows of the filtered plan.
    #[test]
    fn a_filter_over_values_shares_the_rows_it_keeps() {
        let db = db();
        let schema = RelSchema::of(&[("a", SqlType::Int), ("b", SqlType::Int)]).shared();
        let rows = (0..2500).map(|i| vec![int(i), int(i % 7)]);
        let rel = Arc::new(Relation::new(schema, rows.map(Into::into).collect()));
        let both = Plan::Values(rel.clone())
            .filter(Expr::col(1).eq(Expr::lit(3)))
            .filter(Expr::col(0).gt(Expr::lit(1000)));
        let kept = both.run(&db).unwrap();
        assert_eq!(kept.len(), 214);
        let shared = |r: &SharedRow| rel.rows.iter().any(|s| Arc::ptr_eq(s, r));
        assert!(kept.rows.iter().all(shared), "no row copied");
        let doubled = |input: Plan| {
            let twice = Expr::Apply(
                Arc::new(|a: &[Value]| Ok(int(a[0].to_int().unwrap_or(0) * 2))),
                vec![Expr::col(0)],
            );
            input.project(vec![ProjExpr::new(twice, "a2", SqlType::Int)])
        };
        let read = doubled(Plan::Values(kept.into()));
        assert_eq!(read.run(&db).unwrap(), doubled(both).run(&db).unwrap());
        assert_eq!(read.run(&db), read.run_oracle(&db));
    }

    /// Scans read their table's slots in place, chunk by chunk: over 2 500
    /// rows with every 7th deleted (three chunks of live rows between
    /// tombstones) a bare scan, a projected scan, primary-key equality (an
    /// index probe, on a live and on a deleted key), a range, a filter the
    /// planner leaves above its scan, a hash join whose build side is a
    /// scan and an aggregate emitting 1 428 groups (two chunks) each
    /// return the oracle's rows in the oracle's order — optimized, and as
    /// written.
    #[test]
    fn scans_over_tombstones_and_chunks_agree_with_the_oracle() {
        let db = Database::new("tombstones");
        let schema = RelSchema::of(&[
            ("k", SqlType::Int),
            ("g", SqlType::Int),
            ("s", SqlType::Str),
        ])
        .shared();
        let t = Table::new("t", schema).with_primary_key(&["k"]).unwrap();
        let row = |k: i64| vec![int(k), int(k % 1500), Value::str(format!("s{}", k % 3))];
        t.insert((0..2500).map(row).collect()).unwrap();
        // k IN (0, 7, 14, …)
        let sevens = apply(vec![Expr::col(0)], |a| {
            Value::Bool(a[0].to_int().is_some_and(|k| k % 7 == 0))
        });
        assert_eq!(t.delete_where(&sevens).unwrap(), 358);
        db.create_table(t);

        let scan = || Plan::scan("t");
        let scan_where = |p: Expr| Plan::Scan {
            table: "t".into(),
            predicate: Some(p),
            projection: None,
        };
        let key = |k: i64| Expr::col(0).eq(Expr::lit(k));
        let plans = [
            (scan(), 2142),
            (
                Plan::Scan {
                    table: "t".into(),
                    predicate: None,
                    projection: Some(vec![2, 0]),
                },
                2142,
            ),
            (scan_where(key(1000)), 1),
            (scan_where(key(1001)), 0),
            (
                scan_where(
                    Expr::col(0)
                        .ge(Expr::lit(300))
                        .and(Expr::col(0).lt(Expr::lit(2200))),
                ),
                1628,
            ),
            (scan().filter(differs(2, "s1")), 1428),
            (scan().hash_join(scan(), vec![1], vec![0]), 1999),
            (
                scan().aggregate(
                    vec![1],
                    vec![AggExpr::count_star("n"), AggExpr::sum(0, "s")],
                ),
                1428,
            ),
        ];
        for (n, (plan, rows)) in plans.iter().enumerate() {
            let oracle = execute_oracle(plan, &db).unwrap();
            assert_eq!(oracle.len(), *rows, "plan {n}");
            assert_eq!(execute(plan, &db).unwrap(), oracle, "plan {n}");
            let as_written = batch::materialize_chunked(plan, &db).unwrap();
            assert_eq!(as_written, oracle, "plan {n}");
        }
    }

    /// A fact table over three chunks with NULL and unmatched dimension
    /// keys, `d1` keyed by it, and `d2` keyed by `d1.x` (NULL or unmatched
    /// in turn), each with its primary key.
    fn gather_db() -> Database {
        let db = Database::new("gather");
        let table = |name: &str, cols: &[(&str, SqlType)], rows: Vec<Vec<Value>>| {
            let schema = RelSchema::of(cols).shared();
            let t = Table::new(name, schema).with_primary_key(&[cols[0].0]);
            let t = t.unwrap();
            t.insert(rows).unwrap();
            db.create_table(t);
        };
        let null_every = |n: i64, k: i64, v: i64| if k % n == 0 { Value::Null } else { int(v) };
        let facts = (0..3000i64).map(|k| {
            let v = Value::str(format!("v{}", k % 5));
            vec![int(k), null_every(11, k, k % 40), v]
        });
        let f = [
            ("k", SqlType::Int),
            ("d", SqlType::Int),
            ("v", SqlType::Str),
        ];
        table("f", &f, facts.collect());
        let dims = (0..30i64).map(|id| {
            let name = Value::str(format!("n{id}"));
            vec![int(id), name, null_every(7, id, id % 9)]
        });
        let d1 = [
            ("id", SqlType::Int),
            ("name", SqlType::Str),
            ("x", SqlType::Int),
        ];
        table("d1", &d1, dims.collect());
        let labels = (0..6i64).map(|id| vec![int(id), Value::str(format!("l{id}"))]);
        table(
            "d2",
            &[("id", SqlType::Int), ("label", SqlType::Str)],
            labels.collect(),
        );
        db
    }

    /// Index joins emit their inner half as gathers over the inner table's
    /// row slots (NULL probe keys and probes without a match emit nothing),
    /// chained so that the second join probes with a key read through the
    /// first one's gather, and a hash join probing with such a chunk — each
    /// agrees with the oracle.
    #[test]
    fn index_joins_gather_inner_rows_and_agree_with_the_oracle() {
        let db = gather_db();
        let f_d1 = || Plan::scan("f").hash_join(Plan::scan("d1"), vec![1], vec![0]);
        // f.d: NULL at k ≡ 0 (mod 11), unmatched from 30 up
        let unmatched = (0..3000).filter(|k| k % 11 == 0 || k % 40 >= 30).count();
        let opt = planner::optimize(f_d1(), &db).unwrap();
        assert!(matches!(opt, Plan::IndexJoin { .. }), "{opt:?}");
        let out = run_vs_oracle(&f_d1(), &db);
        assert_eq!(out.len(), 3000 - unmatched);
        assert!(out.rows.iter().all(|r| r.len() == 6 && !r[3].is_null()));

        let chained = f_d1().hash_join(Plan::scan("d2"), vec![5], vec![0]);
        let opt = planner::optimize(chained.clone(), &db).unwrap();
        assert!(
            matches!(&opt, Plan::IndexJoin { probe, .. } if matches!(**probe, Plan::IndexJoin { .. })),
            "{opt:?}"
        );
        run_vs_oracle(&chained, &db);

        let tags = Relation::new(
            RelSchema::of(&[("x", SqlType::Int), ("tag", SqlType::Str)]).shared(),
            vec![
                [int(2), Value::str("two")].into(),
                [int(8), Value::str("eight")].into(),
            ],
        );
        let hashed = f_d1().hash_join(Plan::Values(tags.into()), vec![5], vec![0]);
        let opt = planner::optimize(hashed.clone(), &db).unwrap();
        assert!(
            matches!(&opt, Plan::HashJoin { left, .. } if matches!(**left, Plan::IndexJoin { .. })),
            "{opt:?}"
        );
        run_vs_oracle(&hashed, &db);
    }
}
