//! The exact budget for spans and counters: one traced closed-load run per
//! engine (d = 0.01, one period, seed 7 — the cell `gate::run_cell` runs)
//! must reproduce `tests/fixtures/trace_counts_pr23.txt` byte for byte, so
//! a PR that adds, drops or renames a span or a counter says so in its
//! diff.
//!
//! One `#[test]` in its own binary: the trace collector is process-wide.
//! On a mismatch the rendering of this run is left in the target tmp
//! directory; copy it over the fixture once the difference is intended.

use dip_bench::gate::{run_cell, Load};
use dip_bench::{build_system, EngineKind};
use dipbench::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/trace_counts_pr23.txt"
);

fn config() -> BenchConfig {
    BenchConfig::new(ScaleFactors::new(0.01, 1.0, Distribution::Uniform))
        .with_periods(1)
        .with_seed(7)
}

/// Spans of one work phase: `run_cell` drops the spans it drains, so the
/// span half drives the client directly.
fn spans_of(kind: EngineKind) -> Vec<dip_trace::SpanRecord> {
    let env = BenchEnvironment::new(config()).expect("environment");
    let system = build_system(kind, &env);
    dip_trace::enable();
    let outcome = Client::new(&env, system).and_then(|client| client.run());
    let spans = dip_trace::drain();
    let _ = dip_trace::drain_counters();
    dip_trace::disable();
    outcome.expect("work phase");
    spans
}

/// This run in the fixture's form, under the fixture's own first line
/// (which says where the file came from).
fn render(header: &str) -> String {
    let mut out = format!("{header}\n");
    for (tag, kind) in [
        ("fed", EngineKind::Federated),
        ("mtm", EngineKind::Mtm),
        ("ivm", EngineKind::Ivm),
    ] {
        let spans = spans_of(kind);
        let mut per_op: BTreeMap<String, usize> = BTreeMap::new();
        for s in &spans {
            *per_op
                .entry(format!("{}/{}", s.layer.label(), s.op))
                .or_default() += 1;
        }
        let cell = run_cell(kind, config(), &Load::Closed).expect("cell");
        assert!(cell.fingerprint.verified, "{tag}: verification failed");
        writeln!(out, "{tag} spans {}", spans.len()).unwrap();
        for (op, n) in per_op {
            writeln!(out, "{tag} span {op} {n}").unwrap();
        }
        for (name, n) in &cell.fingerprint.counters {
            writeln!(out, "{tag} counter {name} {n}").unwrap();
        }
    }
    out
}

#[test]
fn spans_and_counters_match_the_fixture() {
    let expected = std::fs::read_to_string(FIXTURE).unwrap_or_default();
    let actual = render(expected.lines().next().unwrap_or_default());
    if actual != expected {
        let left = concat!(env!("CARGO_TARGET_TMPDIR"), "/trace_counts_actual.txt");
        std::fs::write(left, &actual).expect("write the actual rendering");
        let differing: Vec<String> = (expected.lines().map(|l| format!("- {l}")))
            .filter(|l| !actual.lines().any(|a| a == &l[2..]))
            .chain(
                (actual.lines().map(|l| format!("+ {l}")))
                    .filter(|l| !expected.lines().any(|e| e == &l[2..])),
            )
            .collect();
        panic!(
            "span / counter budget moved ({} lines; this run: {left}):\n{}",
            differing.len(),
            differing.join("\n")
        );
    }
}
