//! The XML-path ablation: streaming STX transformation (`dip-xmlkit`)
//! versus the federated DBMS's CLOB-bound "proprietary XML functions"
//! (`dip_feddbms::xmlfn`), with the materializing STX driver the latter
//! runs measured on its own in between. The paper attributes System A's
//! poor showing on the concurrent process types to exactly this
//! difference — XML functionality "apparently not included in the
//! optimizer". `translate_decode` times the P09 result set translated and
//! decoded into rows: the fused path MTM runs for a `TRANSLATE` whose
//! output only the next `XML_TO_REL` reads (the stylesheet into
//! `resultset::RowSink`), against the tree it no longer builds.
//! `ws_translate_decode` times the whole response-to-rows chain MTM runs
//! behind a fused `WS_QUERY`: the response sized and read straight from its
//! rows (`resultset::ResultSet`), against the source tree built, sized
//! with a walk and then read. `order_translate_decode` times a 20-line
//! Hongkong (P08) and San Diego (P10) order translated and decoded into
//! staging rows: the stylesheet straight into the order decoder, what MTM
//! runs for a fused `TRANSLATE` → `DB_LOAD_XML` (`fused`), against the
//! translated tree built and walked into it (`tree`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dip_relstore::prelude::*;
use dip_services::apps::{self, OrderData, OrderLineData};
use dip_services::resultset::{self, ResultSet, RowSink};
use dip_xmlkit::node::Document;
use dip_xmlkit::sax::{build, events};
use dipbench::processes::catalog;
use dipbench::schema::{messages, vocab};
use std::hint::black_box;

fn order_message(lines: usize) -> Document {
    apps::vienna_order(&order_data(lines))
}

fn order_data(lines: usize) -> OrderData {
    OrderData {
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
    }
}

/// The P09 shape: one wide Seoul result set, every element renamed, two
/// columns through a vocabulary map.
fn seoul_result_set(rows: i64) -> Document {
    seoul_rows(rows).to_document()
}

/// [`seoul_result_set`] as the web service answers it, not yet XML.
fn seoul_rows(rows: i64) -> ResultSet {
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
    ResultSet::new("seoul", "orders", rel)
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

/// The P09 result set into the orders staging schema: the stylesheet
/// straight into the row sink, or into a tree that is then decoded.
fn bench_translate_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("translate_decode");
    g.sample_size(30);
    let stx = messages::stx_seoul_rs_to_canon();
    let doc = seoul_result_set(2_000);
    let mut entities = catalog::asia_entities().into_iter();
    let schema = entities.find(|e| e.operation == "orders").unwrap().schema;
    g.bench_function("fused", |b| {
        b.iter(|| {
            let rows = stx.transform_into(&doc, RowSink::new(&schema)).unwrap();
            black_box(rows.finish().unwrap().unwrap())
        })
    });
    g.bench_function("tree", |b| {
        b.iter(|| black_box(resultset::decode(&stx.transform(&doc).unwrap(), &schema).unwrap()))
    });
    g.finish();
}

/// The Seoul response into the orders staging schema, sized and decoded:
/// read from its rows, or built as a tree, sized with a walk and read
/// from the tree.
fn bench_ws_translate_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("ws_translate_decode");
    g.sample_size(30);
    let stx = messages::stx_seoul_rs_to_canon();
    let response = seoul_rows(2_000);
    let mut entities = catalog::asia_entities().into_iter();
    let schema = entities.find(|e| e.operation == "orders").unwrap().schema;
    g.bench_function("rows", |b| {
        b.iter(|| {
            black_box(response.wire_len());
            let rows = stx
                .transform_into(&response, RowSink::new(&schema))
                .unwrap();
            black_box(rows.finish().unwrap().unwrap())
        })
    });
    g.bench_function("tree", |b| {
        b.iter(|| {
            let doc = response.to_document();
            black_box(dip_xmlkit::compact_len(&doc));
            let rows = stx.transform_into(&doc, RowSink::new(&schema)).unwrap();
            black_box(rows.finish().unwrap().unwrap())
        })
    });
    g.finish();
}

/// A 20-line order into the staging rows: each source's stylesheet straight
/// into the order decoder, or into a tree the decoder then walks.
fn bench_order_translate_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("order_translate_decode");
    g.sample_size(30);
    let mut order = order_data(20);
    order.priority = "HIGH".into();
    order.state = "NEW".into();
    let hongkong = apps::hongkong_order(&order);
    order.priority = "1".into();
    order.state = "P".into();
    let san_diego = apps::san_diego_order(&order, None);
    for (id, source, stx, msg) in [
        (
            "hongkong_20",
            "hongkong",
            messages::stx_hongkong_to_cdb(),
            hongkong,
        ),
        (
            "san_diego_20",
            "san_diego",
            messages::stx_san_diego_to_cdb(),
            san_diego,
        ),
    ] {
        let decoder = messages::cdb_order_decoder(source);
        g.bench_with_input(BenchmarkId::new("fused", id), &msg, |b, msg| {
            b.iter(|| {
                let mut sink = decoder();
                stx.transform_into(msg, &mut *sink).unwrap();
                black_box(sink.finish().unwrap().unwrap())
            })
        });
        g.bench_with_input(BenchmarkId::new("tree", id), &msg, |b, msg| {
            b.iter(|| {
                let translated = stx.transform(msg).unwrap();
                black_box(messages::decode_order(source, &translated).unwrap())
            })
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
    bench_translate_decode,
    bench_ws_translate_decode,
    bench_order_translate_decode,
    bench_validation,
    bench_parse_write
);
criterion_main!(benches);
