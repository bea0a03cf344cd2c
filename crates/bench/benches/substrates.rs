//! Microbenchmarks of the substrate crates: relational operators, index
//! probes and materialized-view refresh in `dip-relstore`. These back the
//! "well-optimized relational operators" half of the paper's System A
//! observation. `mtm_dataflow` adds the MTM interpreter's hand-offs: what
//! moving a table-shaped message between operators costs, and what sizing
//! it for the wire costs (`wire_bytes`). `write_path`
//! runs the store's write flavours (bulk insert, merge, upsert, flag flip,
//! truncate, rollback) over a wide indexed table.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dip_mtm::process::{AssignValue, EventType, LoadMode, ProcessDef, Step};
use dip_mtm::{MtmEngine, MtmMessage};
use dip_netsim::{LatencyModel, LinkSpec, Network};
use dip_relstore::prelude::*;
use dip_services::registry::ExternalWorld;
use std::hint::black_box;
use std::sync::Arc;

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
        let plan = Plan::scan("customer").hash_join(Plan::scan("city"), vec![2], vec![0]);
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
            vec![AggExpr::count_star("n"), AggExpr::sum(Expr::col(3), "bal")],
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
    g.bench_function("full", |b| {
        b.iter_batched(
            || {
                let db = Database::new("mv");
                let orders =
                    RelSchema::of(&[("day", SqlType::Int), ("price", SqlType::Float)]).shared();
                db.create_table(Table::new("orders", orders));
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
                    vec![AggExpr::count_star("n"), AggExpr::sum(Expr::col(1), "rev")],
                );
                db.create_view(MatView::new("orders_mv", "orders_mv", def));
                // a large base refreshed once, then a small delta on top
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
    g.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    let mut g = c.benchmark_group("planner");
    g.sample_size(20);
    let db = customers(10_000);
    // filter above a join: pushdown turns a 10k-row probe into an index probe
    let plan = Plan::scan("customer")
        .hash_join(Plan::scan("city"), vec![2], vec![0])
        .filter(Expr::col(0).eq(Expr::lit(42)));
    g.bench_function("pushdown_on", |b| {
        b.iter(|| black_box(execute(&plan, &db).unwrap().len()))
    });
    g.bench_function("pushdown_off", |b| {
        b.iter(|| black_box(execute_oracle(&plan, &db).unwrap().len()))
    });
    g.finish();
}

const REGIONS: [&str; 3] = ["europe", "asia", "america"];
const SALES_COLUMNS: usize = 25;

/// `keys` widened to [`SALES_COLUMNS`] columns with attribute columns of
/// mixed types.
fn wide_schema(keys: &[(&str, SqlType)]) -> SchemaRef {
    let attrs: Vec<String> = (keys.len()..SALES_COLUMNS)
        .map(|a| format!("a{a}"))
        .collect();
    let mut cols = keys.to_vec();
    for (a, name) in (keys.len()..).zip(&attrs) {
        cols.push((name, [SqlType::Int, SqlType::Float, SqlType::Str][a % 3]));
    }
    RelSchema::of(&cols).shared()
}

/// The string pool the attribute columns draw from.
fn attr_names() -> Vec<Value> {
    (0..97).map(|i| Value::str(format!("name-{i}"))).collect()
}

/// Row `i`'s key values widened with its attribute values.
fn widen(mut row: Row, i: i64, names: &[Value]) -> Row {
    for a in row.len()..SALES_COLUMNS {
        row.push(match a % 3 {
            0 => Value::Int(i + a as i64),
            1 => Value::Float((i % 997) as f64 / 7.0),
            _ => names[(i as usize + a) % names.len()].clone(),
        });
    }
    row
}

/// A line-grain sales relation shaped like P14_S1's output: a few key
/// columns (order, line, customer, product, region) and 20 attribute
/// columns of mixed types.
fn sales(rows: i64) -> Relation {
    let schema = wide_schema(&[
        ("orderkey", SqlType::Int),
        ("lineno", SqlType::Int),
        ("custkey", SqlType::Int),
        ("prodkey", SqlType::Int),
        ("region", SqlType::Str),
    ]);
    let names = attr_names();
    let data = (0..rows)
        .map(|i| {
            let order = i / 3;
            let keys = vec![
                Value::Int(order),
                Value::Int(i % 3),
                Value::Int(order % 400),
                Value::Int(i % 100),
                Value::str(REGIONS[(order % 3) as usize]),
            ];
            widen(keys, i, &names)
        })
        .collect();
    Relation::new(schema, data)
}

/// The four loads of one mart, P14-loader style: `(table, columns, pk)`,
/// the first `pk` columns being the table's key. A single-column key is
/// coarser than the line grain, so that load dedups on it first.
const MART_LOADS: [(&str, &[usize], usize); 4] = [
    ("orders", &[0, 2, 5, 6, 7, 8], 1),
    ("orderline", &[0, 1, 3, 9, 10, 11], 2),
    ("customer", &[2, 12, 13, 14, 15, 16, 17], 1),
    ("product", &[3, 18, 19, 20, 21], 1),
];

fn mart_table(region: &str, table: &str) -> String {
    format!("{region}_{table}")
}

fn loader(region: &str, schema: &RelSchema) -> ProcessDef {
    let mut steps = Vec::new();
    for (table, cols, pk) in MART_LOADS {
        let raw = format!("{table}_raw");
        steps.push(Step::Projection {
            input: "input".into(),
            exprs: cols
                .iter()
                .map(|&c| {
                    let col = &schema.columns()[c];
                    ProjExpr::new(Expr::col(c), col.name.clone(), col.ty)
                })
                .collect(),
            output: raw.clone(),
        });
        let loaded = if pk == 1 {
            steps.push(Step::UnionDistinct {
                inputs: vec![raw],
                key: Some(vec![0]),
                output: table.into(),
            });
            table.to_string()
        } else {
            raw
        };
        steps.push(Step::DbInsert {
            db: "marts".into(),
            table: mart_table(region, table),
            input: loaded,
            mode: LoadMode::InsertIgnore,
        });
    }
    ProcessDef::new(
        format!("FLOW_{region}"),
        "load one mart",
        'D',
        EventType::Timed,
        steps,
    )
}

/// P14's data flow without its DWH query: the sales relation is bound,
/// then FORK x3 -> SELECTION by region -> SUBPROCESS loader -> 4 x
/// PROJECTION (+ UNION DISTINCT) -> insert into scratch tables.
fn dataflow(sales: Relation) -> ProcessDef {
    let schema = sales.schema.clone();
    let branches = REGIONS
        .iter()
        .map(|&region| {
            let selected = format!("sales_{region}");
            vec![
                Step::Selection {
                    input: "sales".into(),
                    predicate: Expr::col(4).eq(Expr::lit(region)),
                    output: selected.clone(),
                },
                Step::Subprocess {
                    process: Arc::new(loader(region, &schema)),
                    input: Some(selected),
                    output: None,
                },
            ]
        })
        .collect();
    ProcessDef::new(
        "FLOW",
        "P14-shaped data flow",
        'D',
        EventType::Timed,
        vec![
            Step::Assign {
                var: "sales".into(),
                value: AssignValue::Const(MtmMessage::from(sales)),
            },
            Step::Fork { branches },
        ],
    )
}

fn bench_mtm_dataflow(c: &mut Criterion) {
    let mut g = c.benchmark_group("mtm_dataflow");
    g.sample_size(20);

    let sales = sales(6_000);
    // what the network bills for handing the relation to a remote system:
    // `ExternalWorld`'s rendered length of every value plus a separator
    g.bench_function("wire_bytes", |b| {
        b.iter(|| {
            let row_bytes = |r: &Row| r.iter().map(|v| v.rendered_len() + 1).sum::<usize>();
            black_box(&sales).rows.iter().map(row_bytes).sum::<usize>()
        })
    });
    let marts = Arc::new(Database::new("marts"));
    for region in REGIONS {
        for (table, cols, pk) in MART_LOADS {
            let columns: Vec<Column> = cols
                .iter()
                .map(|&c| sales.schema.columns()[c].clone())
                .collect();
            let key: Vec<&str> = columns[..pk].iter().map(|c| c.name.as_str()).collect();
            let table = Table::new(
                mart_table(region, table),
                RelSchema::new(columns.clone()).shared(),
            )
            .with_primary_key(&key)
            .unwrap();
            marts.create_table(table);
        }
    }
    let net = Arc::new(Network::new(
        LinkSpec::new(LatencyModel::Fixed { micros: 10 }, 10_000_000),
        1,
    ));
    let mut world = ExternalWorld::new(net, "is");
    world.add_database("marts", "es.marts", marts.clone());
    let engine = MtmEngine::new(Arc::new(world));
    engine.deploy(dataflow(sales)).unwrap();

    g.bench_function("p14_shape_6000x25", |b| {
        b.iter_batched(
            || {
                for name in marts.table_names() {
                    marts.table(&name).unwrap().truncate();
                }
            },
            |()| engine.execute("FLOW", 0, None).unwrap(),
            BatchSize::PerIteration,
        )
    });
    g.finish();
    let loaded: usize = marts
        .table_names()
        .iter()
        .map(|t| marts.table(t).unwrap().row_count())
        .sum();
    // lines + orders + every customer and product once per mart
    assert_eq!(loaded, 6_000 + 2_000 + 3 * 400 + 3 * 100);
}

const WRITE_ROWS: i64 = 20_000;

/// `n` rows of the write-path table from key `from`: an `Int` primary
/// key, a boolean flag under a secondary index (every row under one of
/// its two keys, like the CDB staging tables' `integrated`), and 23 mixed
/// attribute columns — 25 in all, the width of a P14 sales row.
fn flagged_rows(from: i64, n: i64) -> Vec<Row> {
    let names = attr_names();
    (from..from + n)
        .map(|i| widen(vec![Value::Int(i), Value::Bool(false)], i, &names))
        .collect()
}

fn flagged_table() -> Arc<Table> {
    let schema = wide_schema(&[("k", SqlType::Int), ("flag", SqlType::Bool)]);
    Table::new("flagged", schema)
        .with_primary_key(&["k"])
        .unwrap()
        .with_index("by_flag", &["flag"])
        .unwrap()
        .into_shared()
}

/// The store's write flavours over 20 000 x 25 rows: what a period's
/// initialize / bulk-load / uninitialize cycle pays per table.
fn bench_write_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("write_path");
    g.sample_size(10);
    let rows = flagged_rows(0, WRITE_ROWS);
    let t = flagged_table();
    let emptied = || {
        t.truncate();
        rows.clone()
    };
    let loaded = || {
        t.truncate();
        t.insert(rows.clone()).unwrap();
        rows.clone()
    };
    let per = BatchSize::PerIteration;

    g.bench_function("insert_20k", |b| {
        b.iter_batched(emptied, |rows| t.insert(rows).unwrap(), per)
    });
    g.bench_function("insert_ignore_fresh_20k", |b| {
        b.iter_batched(
            emptied,
            |rows| t.insert_ignore_duplicates(rows).unwrap(),
            per,
        )
    });
    g.bench_function("insert_ignore_all_duplicate_20k", |b| {
        b.iter_batched(
            loaded,
            |rows| t.insert_ignore_duplicates(rows).unwrap(),
            per,
        )
    });
    g.bench_function("upsert_all_hit_20k", |b| {
        b.iter_batched(loaded, |rows| t.upsert(rows).unwrap(), per)
    });
    g.bench_function("flag_flip_20k", |b| {
        loaded();
        let mut flag = false;
        b.iter(|| {
            let flipped = t
                .update_where(&Expr::col(1).eq(Expr::lit(flag)), &[(1, Expr::lit(!flag))])
                .unwrap();
            flag = !flag;
            flipped
        })
    });
    g.bench_function("truncate_20k", |b| {
        b.iter_batched(|| drop(loaded()), |()| t.truncate(), per)
    });
    g.bench_function("rollback_1k_on_20k", |b| {
        loaded();
        b.iter_batched(
            || {
                let scope = tx::begin();
                t.insert(flagged_rows(WRITE_ROWS, 1000)).unwrap();
                scope
            },
            |scope| scope.rollback(),
            per,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_relstore,
    bench_mview,
    bench_optimizer,
    bench_mtm_dataflow,
    bench_write_path
);
criterion_main!(benches);
