//! Microbenchmarks of the substrate crates: relational operators, index
//! probes and materialized-view refresh in `dip-relstore`. These back the
//! "well-optimized relational operators" half of the paper's System A
//! observation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dip_relstore::prelude::*;
use std::hint::black_box;

fn customers(n: i64) -> Database {
    let db = Database::new("bench");
    let cust = RelSchema::of(&[
        ("custkey", SqlType::Int),
        ("name", SqlType::Str),
        ("citykey", SqlType::Int),
        ("acctbal", SqlType::Float),
    ])
    .shared();
    let t = Table::new("customer", cust)
        .with_primary_key(&["custkey"])
        .unwrap();
    t.insert(
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(format!("customer-{i}").into()),
                    Value::Int(i % 50),
                    Value::Float((i % 997) as f64),
                ]
            })
            .collect(),
    )
    .unwrap();
    let city = RelSchema::of(&[("citykey", SqlType::Int), ("name", SqlType::Str)]).shared();
    let ct = Table::new("city", city)
        .with_primary_key(&["citykey"])
        .unwrap();
    ct.insert(
        (0..50)
            .map(|i| vec![Value::Int(i), Value::Str(format!("city-{i}").into())])
            .collect(),
    )
    .unwrap();
    db.create_table(t);
    db.create_table(ct);
    db
}

fn bench_relstore(c: &mut Criterion) {
    let mut g = c.benchmark_group("relstore");
    g.sample_size(20);

    let db = customers(10_000);
    g.bench_function("pk_point_lookup", |b| {
        let t = db.table("customer").unwrap();
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 10_000;
            black_box(t.get_by_pk(&[Value::Int(k)]))
        })
    });

    g.bench_function("filter_scan_10k", |b| {
        let plan = Plan::scan("customer").filter(Expr::col(3).gt(Expr::lit(500.0)));
        b.iter(|| black_box(plan.run(&db).unwrap().len()))
    });

    g.bench_function("hash_join_10k_x_50", |b| {
        let plan =
            Plan::scan("customer").hash_join(Plan::scan("city"), vec![2], vec![0], JoinKind::Inner);
        b.iter(|| black_box(plan.run(&db).unwrap().len()))
    });

    g.bench_function("union_distinct_3x10k", |b| {
        let plan = Plan::UnionDistinct {
            inputs: vec![
                Plan::scan("customer"),
                Plan::scan("customer"),
                Plan::scan("customer"),
            ],
            key: Some(vec![0]),
        };
        b.iter(|| black_box(plan.run(&db).unwrap().len()))
    });

    g.bench_function("aggregate_group_by_city", |b| {
        let plan = Plan::scan("customer").aggregate(
            vec![2],
            vec![
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Sum, Expr::col(3), "bal"),
            ],
        );
        b.iter(|| black_box(plan.run(&db).unwrap().len()))
    });

    g.bench_function("insert_1k_rows", |b| {
        b.iter_batched(
            || {
                let db = Database::new("x");
                let s = RelSchema::of(&[("k", SqlType::Int), ("v", SqlType::Str)]).shared();
                db.create_table(Table::new("t", s).with_primary_key(&["k"]).unwrap());
                let rows: Vec<Row> = (0..1000)
                    .map(|i| vec![Value::Int(i), Value::str("payload")])
                    .collect();
                (db, rows)
            },
            |(db, rows)| db.table("t").unwrap().insert(rows).unwrap(),
            BatchSize::SmallInput,
        )
    });

    g.finish();
}

fn bench_mview(c: &mut Criterion) {
    let mut g = c.benchmark_group("mview_refresh");
    g.sample_size(15);
    for (label, mode) in [
        ("full", RefreshMode::Full),
        ("incremental", RefreshMode::Incremental),
    ] {
        g.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let db = Database::new("mv");
                    let orders =
                        RelSchema::of(&[("day", SqlType::Int), ("price", SqlType::Float)]).shared();
                    db.create_table(Table::new("orders", orders).with_change_capture());
                    let mv = RelSchema::of(&[
                        ("day", SqlType::Int),
                        ("n", SqlType::Int),
                        ("rev", SqlType::Float),
                    ])
                    .shared();
                    db.create_table(
                        Table::new("orders_mv", mv)
                            .with_primary_key(&["day"])
                            .unwrap(),
                    );
                    let def = Plan::scan("orders").aggregate(
                        vec![0],
                        vec![
                            AggExpr::count_star("n"),
                            AggExpr::new(AggFunc::Sum, Expr::col(1), "rev"),
                        ],
                    );
                    db.create_view(MatView::new("orders_mv", "orders_mv", def, mode));
                    // a large base plus a small delta — the incremental case
                    db.table("orders")
                        .unwrap()
                        .insert(
                            (0..5000)
                                .map(|i| vec![Value::Int(i % 30), Value::Float(1.0)])
                                .collect(),
                        )
                        .unwrap();
                    db.refresh_view("orders_mv").unwrap();
                    db.table("orders")
                        .unwrap()
                        .insert(
                            (0..100)
                                .map(|i| vec![Value::Int(i % 30), Value::Float(2.0)])
                                .collect(),
                        )
                        .unwrap();
                    db
                },
                |db| db.refresh_view("orders_mv").unwrap(),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    let mut g = c.benchmark_group("planner");
    g.sample_size(20);
    let db = customers(10_000);
    // filter above a join: pushdown turns a 10k-row probe into an index probe
    let plan = Plan::scan("customer")
        .hash_join(Plan::scan("city"), vec![2], vec![0], JoinKind::Inner)
        .filter(Expr::col(0).eq(Expr::lit(42)));
    g.bench_function("pushdown_on", |b| {
        b.iter(|| black_box(execute(&plan, &db).unwrap().len()))
    });
    g.bench_function("pushdown_off", |b| {
        b.iter(|| black_box(execute_oracle(&plan, &db).unwrap().len()))
    });
    g.finish();
}

criterion_group!(benches, bench_relstore, bench_mview, bench_optimizer);
criterion_main!(benches);
