//! The metric names this benchmark emits — the same lists, in the same
//! order, as `BENCHMARK.json` (a unit test compares them).

/// End-to-end metrics: `(name, unit, bound)`; lower is better for all.
/// A bound is three times the widest spread (IQR ÷ median of ten runs with
/// ten seeds) seen on any workload in any series, rounded up and capped at
/// the contract's 25 %. `period_nms` would be 10 % by that rule; it is at the
/// cap because the driver also holds the medians of two series against the
/// bound, and one machine-state flip moved the same binary's median by
/// +19.6 % on `mtm_d20_zipf` (README, "Steadiness"). Finer comparisons go
/// through `ab.sh`.
/// Failures are not gated as a metric (the median of `fail_frac` is 0, and
/// the driver gates by a share of the median): they are the `attempted` /
/// `failed` counts of every result, and `fail_frac` per layer.
pub const END_TO_END: [(&str, &str, f64); 6] = [
    ("setup_s", "s", 0.25),
    ("period_nms", "nms", 0.25),
    ("e1_p50_nus", "nus", 0.16),
    ("e1_p95_nus", "nus", 0.25),
    ("navg_plus_tu", "tu", 0.08),
    ("peak_rss_mb", "MiB", 0.25),
];

/// Per-layer metrics: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 80] = [
    // failures of the run's untraced loop: failed ÷ attempted
    ("fail_frac", "ratio", "lower"),
    // bench: what explains drift
    ("bench.cal_ms", "ms", "lower"),
    ("bench.cal_spread", "ratio", "lower"),
    ("bench.cpu_ms_per_period", "ms", "lower"),
    ("bench.sys_frac", "ratio", "lower"),
    ("bench.minflt_per_period", "faults", "lower"),
    // core, from the timers around the environment and client calls
    ("core.period_wall_ms", "ms", "lower"),
    ("core.period_p90_nms", "nms", "lower"),
    ("core.cold_period_nms", "nms", "lower"),
    ("core.env_init_nms", "nms", "lower"),
    ("core.env_uninit_nms", "nms", "lower"),
    ("core.dispatch_gap_nms", "nms", "lower"),
    ("core.monitor_nms", "nms", "lower"),
    // engine, from the deliver decorator
    ("engine.P01_nus", "nus", "lower"),
    ("engine.P02_nus", "nus", "lower"),
    ("engine.P03_nus", "nus", "lower"),
    ("engine.P04_nus", "nus", "lower"),
    ("engine.P05_nus", "nus", "lower"),
    ("engine.P06_nus", "nus", "lower"),
    ("engine.P07_nus", "nus", "lower"),
    ("engine.P08_nus", "nus", "lower"),
    ("engine.P09_nus", "nus", "lower"),
    ("engine.P10_nus", "nus", "lower"),
    ("engine.P11_nus", "nus", "lower"),
    ("engine.P12_nus", "nus", "lower"),
    ("engine.P13_nus", "nus", "lower"),
    ("engine.P14_nus", "nus", "lower"),
    ("engine.P15_nus", "nus", "lower"),
    ("engine.e1_p99_nus", "nus", "lower"),
    ("engine.e1_p999_nus", "nus", "lower"),
    ("engine.e2_nms", "nms", "lower"),
    ("engine.instances_per_period", "count", "higher"),
    ("engine.retries", "count", "lower"),
    ("engine.dead_letters", "count", "lower"),
    ("netsim.bytes", "count", "lower"),
    ("netsim.messages", "count", "lower"),
    ("netsim.modeled_ms", "ms", "lower"),
    ("engine.deploy_nms", "nms", "lower"),
    ("core.verify_nms", "nms", "lower"),
    ("core.digest_nms", "nms", "lower"),
    // traced run: self times, exact counts, tracing overhead
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans_per_period", "count", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("core.self_ms", "nms", "lower"),
    ("feddbms.self_ms", "nms", "lower"),
    ("mtm.self_ms", "nms", "lower"),
    ("relstore.self_ms", "nms", "lower"),
    ("xmlkit.self_ms", "nms", "lower"),
    ("relstore.index_join_ms", "nms", "lower"),
    ("relstore.scan_ms", "nms", "lower"),
    ("relstore.rows_scanned", "count", "lower"),
    ("relstore.rows_joined", "count", "lower"),
    ("relstore.batch_chunks", "count", "lower"),
    ("relstore.tx_begin", "count", "lower"),
    ("xmlkit.parse_bytes", "count", "lower"),
    // isolated probes
    ("core.datagen_snapshot_nms", "nms", "lower"),
    ("core.msggen_nus", "nus", "lower"),
    ("xmlkit.parse_nus_per_kb", "nus", "lower"),
    ("xmlkit.write_nus_per_kb", "nus", "lower"),
    ("xmlkit.compact_len_nus_per_kb", "nus", "lower"),
    ("xmlkit.stx_nus_per_msg", "nus", "lower"),
    ("xmlkit.xsd_nus_per_msg", "nus", "lower"),
    ("feddbms.clob_roundtrip_nus", "nus", "lower"),
    ("relstore.join9_nms", "nms", "lower"),
    ("relstore.join9_rows_examined_per_result", "ratio", "lower"),
    ("relstore.mv_refresh_nms", "nms", "lower"),
    ("relstore.union_distinct_nms", "nms", "lower"),
    ("relstore.wipe_nms", "nms", "lower"),
    ("relstore.bulk_insert_nus_per_krow", "nus", "lower"),
    ("relstore.rollback_nus_per_krow", "nus", "lower"),
    ("relstore.point_insert_tx_nus", "nus", "lower"),
    ("services.ws_query_nms", "nms", "lower"),
    ("services.remote_query_nus", "nus", "lower"),
    ("services.remote_insert_nus", "nus", "lower"),
    ("netsim.transfer_ns", "ns", "lower"),
    ("trace.span_disabled_ns", "ns", "lower"),
    ("trace.span_enabled_ns", "ns", "lower"),
    ("core.sched_w2_ratio", "ratio", "lower"),
    ("core.eai_msg_nus", "nus", "lower"),
    ("core.eai_max_depth", "count", "lower"),
];

/// Per-layer counts that must repeat exactly between two runs of the same
/// code and seed (`--selfcheck` compares them). `netsim.bytes` is not one:
/// on `fed_d05` about one run in four differs by some 1e-5 of the total,
/// depending on how streams A and B interleave.
pub const EXACT_COUNTS: [&str; 10] = [
    "engine.instances_per_period",
    "engine.retries",
    "engine.dead_letters",
    "netsim.messages",
    "trace.spans_per_period",
    "relstore.rows_scanned",
    "relstore.rows_joined",
    "relstore.batch_chunks",
    "relstore.tx_begin",
    "xmlkit.parse_bytes",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use dip_trace::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or("")
    }

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        all.extend(PER_LAYER.iter().map(|m| m.0));
        all.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &all {
            assert!(well_formed(name), "{name}");
        }
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        for exact in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.0 == exact), "{exact}");
        }
    }

    #[test]
    fn lists_equal_benchmark_json() {
        let spec = benchmark_json();
        let entries = |key: &str| spec.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec();

        let workloads: Vec<(String, String)> = entries("workloads")
            .iter()
            .map(|w| (field(w, "name").to_string(), field(w, "why").to_string()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200));

        let e2e: Vec<(String, String, String, f64)> = entries("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name").to_string(),
                    field(m, "unit").to_string(),
                    field(m, "better").to_string(),
                    m.get("bound").and_then(Json::as_f64).unwrap_or(-1.0),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), "lower".to_string(), *b))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(String, String, String)> = entries("per_layer")
            .iter()
            .map(|m| {
                (
                    field(m, "name").to_string(),
                    field(m, "unit").to_string(),
                    field(m, "better").to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layers, ours);

        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
