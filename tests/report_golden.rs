//! Golden-file test for `dipbench report`: the barometer must render
//! byte-identically from a fixed measurement history — including a
//! schema-v1 record (the vintage of the committed baselines), whose cells
//! are derived from its per-process stats at report time.

use dip_bench::barometer::{Report, ReportFormat};
use dip_trace::RunRecord;

const RECORD_V1: &str = include_str!("fixtures/record_v1.json");
const RECORD_V2: &str = include_str!("fixtures/record_v2.json");
const GOLDEN_MD: &str = include_str!("fixtures/report_golden.md");
const GOLDEN_TXT: &str = include_str!("fixtures/report_golden.txt");

fn fixture_records() -> Vec<RunRecord> {
    // same order as a directory scan: record_v1.json sorts first
    vec![
        RunRecord::parse(RECORD_V1).expect("v1 fixture parses"),
        RunRecord::parse(RECORD_V2).expect("v2 fixture parses"),
    ]
}

#[test]
fn fixture_vintages_parse_as_expected() {
    let records = fixture_records();
    assert_eq!(records[0].schema_version, 1);
    assert!(records[0].cells.is_empty(), "v1 has no cells field");
    assert_eq!(records[0].cells_or_derived().len(), 3, "cells are derived");
    assert_eq!(records[1].schema_version, 2);
    assert_eq!(records[1].cells.len(), 3, "v2 carries explicit cells");
}

#[test]
fn report_renders_the_markdown_golden() {
    let records = fixture_records();
    let report = Report::build(&records, 0.20);
    assert!(report.regressions().is_empty());
    assert_eq!(report.render(ReportFormat::Markdown), GOLDEN_MD);
}

#[test]
fn report_renders_the_text_golden() {
    let records = fixture_records();
    let report = Report::build(&records, 0.20);
    assert_eq!(report.render(ReportFormat::Text), GOLDEN_TXT);
}

#[test]
fn rendering_is_order_insensitive() {
    // a directory scan could hand records in any order; the report keys
    // and sorts everything, so the bytes must not change
    let mut records = fixture_records();
    records.reverse();
    let report = Report::build(&records, 0.20);
    assert_eq!(report.render(ReportFormat::Markdown), GOLDEN_MD);
}
