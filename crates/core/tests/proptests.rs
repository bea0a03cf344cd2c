//! Property-based tests of the benchmark core: cost normalization,
//! schedule series, metric arithmetic and generator determinism.

use dip_mtm::cost::InstanceRecord;
use dipbench::monitor::{concurrency_factors, normalize};
use dipbench::scale::{Distribution, ScaleFactors};
use dipbench::{datagen, schedule};
use proptest::prelude::*;
use std::time::Duration;

fn arb_records(max: usize) -> impl Strategy<Value = Vec<InstanceRecord>> {
    prop::collection::vec((0u64..10_000, 1u64..500, 0u64..400), 1..max).prop_map(|spans| {
        spans
            .into_iter()
            .enumerate()
            .map(|(i, (start, len, cost))| InstanceRecord {
                process: format!("P{:02}", i % 15 + 1),
                period: 0,
                seq: (i / 15) as u32,
                start: Duration::from_micros(start),
                end: Duration::from_micros(start + len),
                comm: Duration::from_micros(cost / 2),
                mgmt: Duration::from_micros(cost / 8),
                proc: Duration::from_micros(cost - cost / 2 - cost / 8),
                ok: true,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Concurrency factors are always in (0, 1], and normalized cost never
    /// exceeds raw cost.
    #[test]
    fn factors_bounded(records in arb_records(24)) {
        for f in concurrency_factors(&records) {
            prop_assert!(f > 0.0 && f <= 1.0 + 1e-9, "factor {f}");
        }
        for n in normalize(&records) {
            prop_assert!(n.nc <= n.raw + Duration::from_nanos(1));
            // category breakdown sums to the normalized total (±rounding)
            let parts = n.comm + n.mgmt + n.proc;
            let diff = parts.abs_diff(n.nc);
            prop_assert!(diff <= Duration::from_micros(3), "{diff:?}");
        }
    }

    /// Instances that overlap nothing keep factor exactly 1.
    #[test]
    fn serial_records_unscaled(gaps in prop::collection::vec(1u64..100, 1..20)) {
        let mut t = 0u64;
        let records: Vec<InstanceRecord> = gaps
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let start = t;
                t += g + 10; // 10µs run, g µs gap
                InstanceRecord {
                    process: "P04".into(),
                    period: 0,
                    seq: i as u32,
                    start: Duration::from_micros(start),
                    end: Duration::from_micros(start + 10),
                    comm: Duration::from_micros(5),
                    mgmt: Duration::ZERO,
                    proc: Duration::from_micros(5),
                    ok: true,
                }
            })
            .collect();
        for f in concurrency_factors(&records) {
            prop_assert!((f - 1.0).abs() < 1e-9);
        }
    }

    /// Schedule instance counts: monotone in d, decreasing in k for P01,
    /// and always at least 1.
    #[test]
    fn schedule_counts_monotone(k in 0u32..100, d1 in 0.01f64..1.0, d2 in 0.01f64..1.0) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(schedule::p01_count(k, lo) <= schedule::p01_count(k, hi));
        prop_assert!(schedule::p04_count(lo) <= schedule::p04_count(hi));
        prop_assert!(schedule::p08_count(lo) <= schedule::p08_count(hi));
        prop_assert!(schedule::p10_count(lo) <= schedule::p10_count(hi));
        prop_assert!(schedule::p01_count(k, d1) >= 1);
        if k < 99 {
            prop_assert!(schedule::p01_count(k, d1) >= schedule::p01_count(k + 1, d1));
        }
    }

    /// Every stream's events are deadline-sorted and the chained events
    /// stay behind their prerequisites.
    #[test]
    fn streams_sorted(k in 0u32..100, d in 0.01f64..0.5) {
        for (_, events) in schedule::period_streams(k, d) {
            for w in events.windows(2) {
                prop_assert!(w[0].deadline_tu <= w[1].deadline_tu + 1e-9);
            }
        }
    }

    /// tu conversion round-trips under any time scale.
    #[test]
    fn tu_roundtrip(t in 0.1f64..10.0, tu in 0.0f64..10_000.0) {
        let s = ScaleFactors::new(0.05, t, Distribution::Uniform);
        let d = s.tu_to_duration(tu);
        let back = s.duration_to_tu(d);
        prop_assert!((back - tu).abs() < 1e-6 * (1.0 + tu), "{tu} -> {back}");
    }

    /// Message generation is a pure function of (seed, period, index).
    #[test]
    fn generator_messages_deterministic(k in 0u32..50, m in 0u32..50, seed in 0u64..1000) {
        let scale = ScaleFactors::new(0.05, 1.0, Distribution::Uniform);
        let g1 = datagen::Generator::new(seed, scale);
        let g2 = datagen::Generator::new(seed, scale);
        prop_assert_eq!(
            dip_xmlkit::write_compact(&g1.vienna_message(k, m)),
            dip_xmlkit::write_compact(&g2.vienna_message(k, m))
        );
        prop_assert_eq!(
            g1.san_diego_message(k, m).1,
            g2.san_diego_message(k, m).1
        );
    }

    /// Generated San Diego keys stay in the San Diego order-key range, so
    /// key spaces never collide across sources.
    #[test]
    fn san_diego_keys_in_range(k in 0u32..20, m in 0u32..200) {
        let scale = ScaleFactors::new(0.05, 1.0, Distribution::Uniform);
        let g = datagen::Generator::new(7, scale);
        let (doc, injected) = g.san_diego_message(k, m);
        if !injected {
            let key: i64 = dip_xmlkit::path::value(&doc.root, "sdMessage/sdOrder/okey")
                .unwrap()
                .unwrap()
                .parse()
                .unwrap();
            prop_assert!(key >= datagen::keys::ORD_SAN_DIEGO);
        }
    }
}
