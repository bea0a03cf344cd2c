//! The XML-path ablation: streaming STX transformation (`dip-xmlkit`)
//! versus the federated DBMS's CLOB-bound "proprietary XML functions"
//! (`dip_feddbms::xmlfn`), with the materializing STX driver the latter
//! runs measured on its own in between. The paper attributes System A's
//! poor showing on the concurrent process types to exactly this
//! difference — XML functionality "apparently not included in the
//! optimizer".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dip_relstore::prelude::*;
use dip_services::apps::{self, OrderData, OrderLineData};
use dip_xmlkit::node::Document;
use dip_xmlkit::sax::{build, events};
use dipbench::schema::{messages, vocab};
use std::hint::black_box;

fn order_message(lines: usize) -> Document {
    let o = OrderData {
        orderkey: 1,
        custkey: 100_000,
        orderdate: "2008-04-07".into(),
        priority: "2-HIGH".into(),
        state: "OPEN".into(),
        totalprice: 100.0,
        lines: (1..=lines as i64)
            .map(|l| OrderLineData {
                lineno: l,
                prodkey: 110_000 + l,
                quantity: 2,
                extendedprice: 10.0,
                discount: 0.05,
            })
            .collect(),
    };
    apps::vienna_order(&o)
}

/// The P09 shape: one wide Seoul result set, every element renamed, two
/// columns through a vocabulary map.
fn seoul_result_set(rows: i64) -> Document {
    let columns = [
        ("s_okey", SqlType::Int),
        ("s_ckey", SqlType::Int),
        ("s_odate", SqlType::Str),
        ("s_oprio", SqlType::Str),
        ("s_ostate", SqlType::Str),
        ("s_ototal", SqlType::Float),
        ("s_lineno", SqlType::Int),
        ("s_pkey", SqlType::Int),
        ("s_qty", SqlType::Int),
        ("s_xprice", SqlType::Float),
        ("s_disc", SqlType::Float),
        ("s_cname", SqlType::Str),
    ];
    let rows = (0..rows)
        .map(|i| {
            vec![
                Value::Int(3_000_000 + i),
                Value::Int(1_100_000 + i % 200),
                Value::str("2008-04-07"),
                Value::str(vocab::ASIA_PRIORITY[(i % 3) as usize]),
                Value::str(vocab::ASIA_STATE[(i % 3) as usize]),
                Value::Float(100.0 + i as f64),
                Value::Int(1 + i % 4),
                Value::Int(1_110_000 + i % 40),
                Value::Int(2),
                Value::Float(10.0),
                Value::Float(0.05),
                Value::str(format!("customer-{i}")),
            ]
        })
        .collect();
    let rel = Relation::new(RelSchema::of(&columns).shared(), rows);
    dip_services::resultset::encode("seoul", "orders", &rel)
}

/// Three ways through one stylesheet: the one-pass driver (MTM's
/// TRANSLATE), the materializing pipeline on its own (tree → events →
/// filter → events → tree), and that pipeline between its two CLOB round
/// trips (`xmlfn::transform`, System A).
fn bench_translation(c: &mut Criterion) {
    let mut g = c.benchmark_group("xml_translate");
    g.sample_size(30);
    let orders = [2usize, 20, 100].map(|lines| {
        let stx = messages::stx_vienna_to_cdb();
        (lines.to_string(), stx, order_message(lines))
    });
    let p09 = (
        "p09_2000x12".to_string(),
        messages::stx_seoul_rs_to_canon(),
        seoul_result_set(2_000),
    );
    for (id, stx, doc) in orders.iter().chain([&p09]) {
        g.bench_with_input(BenchmarkId::new("streaming_stx", id), doc, |b, doc| {
            b.iter(|| black_box(stx.transform(doc).unwrap()))
        });
        g.bench_with_input(
            BenchmarkId::new("materializing_driver", id),
            doc,
            |b, doc| {
                b.iter(|| black_box(build(stx.transform_events(&events(doc)).unwrap()).unwrap()))
            },
        );
        g.bench_with_input(BenchmarkId::new("feddbms_xmlfn", id), doc, |b, doc| {
            b.iter(|| black_box(dip_feddbms::xmlfn::transform(doc, stx).unwrap()))
        });
    }
    g.finish();
}

fn bench_validation(c: &mut Criterion) {
    let mut g = c.benchmark_group("xml_validate");
    g.sample_size(30);
    let xsd = messages::san_diego_xsd();
    let o = OrderData {
        orderkey: 1,
        custkey: 2_000_000,
        orderdate: "2008-04-07".into(),
        priority: "2".into(),
        state: "O".into(),
        totalprice: 50.0,
        lines: (1..=20)
            .map(|l| OrderLineData {
                lineno: l,
                prodkey: 2_010_000 + l,
                quantity: 1,
                extendedprice: 5.0,
                discount: 0.0,
            })
            .collect(),
    };
    let doc = apps::san_diego_order(&o, None);
    g.bench_function("direct", |b| b.iter(|| black_box(xsd.validate(&doc).len())));
    g.bench_function("feddbms_xmlfn", |b| {
        b.iter(|| black_box(dip_feddbms::xmlfn::validate(&doc, &xsd).unwrap().len()))
    });
    g.finish();
}

fn bench_parse_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("xml_parse_write");
    g.sample_size(30);
    let doc = order_message(100);
    let text = dip_xmlkit::write_compact(&doc);
    g.bench_function("parse_100_lines", |b| {
        b.iter(|| black_box(dip_xmlkit::parse(&text).unwrap()))
    });
    g.bench_function("write_100_lines", |b| {
        b.iter(|| black_box(dip_xmlkit::write_compact(&doc).len()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_translation,
    bench_validation,
    bench_parse_write
);
criterion_main!(benches);
