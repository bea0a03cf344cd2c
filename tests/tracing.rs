//! The tracing subsystem against a real benchmark run: the disabled sink
//! must collect nothing (the zero-cost guarantee the hot paths rely on),
//! and an enabled run must cover every instrumented layer.
//!
//! Tracing state is process-global, so the disabled and enabled phases
//! run in one ordered test rather than racing in parallel tests.

use dipbench_suite::{run_benchmark, test_config, EngineKind};

#[test]
fn disabled_sink_is_noop_and_enabled_run_covers_layers() {
    // Phase 1: tracing disabled (the default). A full benchmark run must
    // leave the collector completely empty — no spans, no counters.
    assert!(!dip_trace::is_enabled());
    let (_env, outcome) = run_benchmark(EngineKind::Mtm, test_config());
    assert!(!outcome.metrics.is_empty());
    assert_eq!(dip_trace::span_count(), 0, "disabled sink collected spans");
    assert!(dip_trace::drain().is_empty());
    assert!(dip_trace::drain_counters().is_empty());

    // Phase 2: tracing enabled. The same run must produce spans from every
    // instrumented layer the MTM engine exercises.
    dip_trace::enable();
    let (_env, _outcome) = run_benchmark(EngineKind::Mtm, test_config());
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
    let (_env, _outcome) = run_benchmark(EngineKind::Federated, test_config());
    assert_eq!(dip_trace::span_count(), 0);
}
