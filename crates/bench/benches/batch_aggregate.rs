//! The executor against the reference interpreter on the plan shape that
//! dominates the heavy E2 processes (P09/P11/P13/P14): filter →
//! hash-join → grouped SUM/COUNT(*) aggregation, plus its join-free and
//! index-join-only variants. One row count per order of magnitude — 1k
//! fits in a single chunk, 32k and 256k exercise the multi-chunk path,
//! pre-sized hash tables and the chunked probe loop. CI runs it and
//! uploads the output as an artifact; nothing is compared against it.

use criterion::{criterion_group, criterion_main, Criterion};
use dip_relstore::prelude::*;
use std::hint::black_box;

/// An orderline-shaped fact table joined to a small dimension: `n` facts
/// (linekey, partkey, qty, price) against 64 parts.
fn facts(n: i64) -> Database {
    let db = Database::new("bench");
    let line = RelSchema::of(&[
        ("linekey", SqlType::Int),
        ("partkey", SqlType::Int),
        ("qty", SqlType::Int),
        ("price", SqlType::Float),
    ])
    .shared();
    let t = Table::new("lineitem", line)
        .with_primary_key(&["linekey"])
        .unwrap();
    t.insert(
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 64),
                    Value::Int(1 + i % 40),
                    Value::Float(((i * 37) % 9973) as f64 / 100.0),
                ]
            })
            .collect(),
    )
    .unwrap();
    let part = RelSchema::of(&[("partkey", SqlType::Int), ("name", SqlType::Str)]).shared();
    let pt = Table::new("part", part)
        .with_primary_key(&["partkey"])
        .unwrap();
    pt.insert(
        (0..64)
            .map(|i| vec![Value::Int(i), Value::Str(format!("part-{i}").into())])
            .collect(),
    )
    .unwrap();
    db.create_table(t);
    db.create_table(pt);
    db
}

/// The P13/P14-shaped plan: filter qty, join the dimension, aggregate
/// revenue per part.
fn mart_refresh_plan() -> Plan {
    Plan::scan("lineitem")
        .filter(Expr::col(2).gt(Expr::lit(5i64)))
        .hash_join(Plan::scan("part"), vec![1], vec![0])
        .aggregate(
            vec![1],
            vec![
                AggExpr::sum(Expr::col(3), "revenue"),
                AggExpr::count_star("lines"),
                AggExpr::sum(Expr::col(2), "qty"),
            ],
        )
}

/// The join-free refresh-aggregate shape, where per-chunk setup is not
/// amortized by a join.
fn join_free_plan() -> Plan {
    Plan::scan("lineitem")
        .filter(Expr::col(2).gt(Expr::lit(5i64)))
        .aggregate(
            vec![1],
            vec![
                AggExpr::sum(Expr::col(3), "revenue"),
                AggExpr::count_star("lines"),
                AggExpr::sum(Expr::col(2), "qty"),
            ],
        )
}

/// The index-join probe shape: the bare join, whose only consumer is the
/// materialization of its output, so the probe chunks are only ever read
/// row-wise by the join's lookup loop. The planner folds the dimension
/// scan into an `IndexJoin` over its pk.
fn index_join_plan() -> Plan {
    Plan::scan("lineitem")
        .filter(Expr::col(2).gt(Expr::lit(5i64)))
        .hash_join(Plan::scan("part"), vec![1], vec![0])
}

type Runner = fn(&Plan, &Database) -> StoreResult<Relation>;
const RUNNERS: [(&str, Runner); 2] = [("executor", execute), ("oracle", execute_oracle)];

fn bench_batch_aggregate(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_aggregate");
    g.sample_size(15);
    for &rows in &[1_000i64, 32_000, 256_000] {
        let db = facts(rows);
        for (shape, plan) in [
            ("", mart_refresh_plan()),
            ("joinfree_", join_free_plan()),
            ("index_join_", index_join_plan()),
        ] {
            for (name, run) in RUNNERS {
                g.bench_function(format!("{shape}{name}_{}k", rows / 1000), |b| {
                    b.iter(|| black_box(run(&plan, &db).unwrap().len()))
                });
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench_batch_aggregate);
criterion_main!(benches);
