//! The tracing subsystem against a real benchmark run: the disabled sink
//! must collect nothing (the zero-cost guarantee the hot paths rely on),
//! and an enabled run must cover every instrumented layer.
//!
//! The phases share this thread's collector, so they run in one ordered
//! test.

use dipbench::client;
use dipbench_suite::{test_config, EngineKind};

/// One run of the test configuration on `kind`.
fn run(kind: EngineKind) -> dipbench::prelude::Run {
    client::run(test_config(), &kind.spec().build).unwrap()
}

#[test]
fn disabled_sink_is_noop_and_enabled_run_covers_layers() {
    // Phase 1: tracing disabled. A full benchmark run must leave the
    // thread's collector, switched off, empty — no spans, no counters.
    dip_trace::enable();
    dip_trace::disable();
    assert!(!dip_trace::is_enabled());
    assert!(!run(EngineKind::Mtm).outcome.metrics.is_empty());
    assert!(
        dip_trace::drain().is_empty(),
        "disabled sink collected spans"
    );
    assert!(dip_trace::drain_counters().is_empty());

    // Phase 2: tracing enabled. The same run must produce spans from every
    // instrumented layer the MTM engine exercises.
    dip_trace::enable();
    run(EngineKind::Mtm);
    let spans = dip_trace::drain();
    let counters = dip_trace::drain_counters();
    dip_trace::disable();

    let mut layers: Vec<&str> = spans.iter().map(|s| s.layer.label()).collect();
    layers.sort_unstable();
    layers.dedup();
    for expected in ["core", "mtm", "netsim", "relstore", "xmlkit"] {
        assert!(
            layers.contains(&expected),
            "layer {expected} missing from trace (got {layers:?})"
        );
    }
    assert!(
        counters
            .iter()
            .any(|(n, v)| n == "netsim.messages" && *v > 0),
        "netsim.messages counter missing: {counters:?}"
    );

    // The Chrome export of a real trace must be loadable JSON with one
    // complete event per span.
    let chrome = dip_trace::to_chrome_trace(&spans);
    let parsed = dip_trace::Json::parse(&chrome).expect("chrome trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .count();
    assert_eq!(complete, spans.len());

    // Phase 3: disabled again — instrumented code must go back to no-op.
    run(EngineKind::Federated);
    assert!(dip_trace::drain().is_empty());
    assert!(dip_trace::drain_counters().is_empty());
}
