//! Integration tests for the open-loop overload harness: admission
//! decisions are made in virtual time (a pure function of seed, scale and
//! rate), so same-seed runs must be byte-identical — the whole gate
//! fingerprint, every drained counter included, and the queueing stats —
//! and the E1 conservation check must close even when admission control
//! sheds messages (`scheduled = integrated + dead-lettered + failed + shed`).

use dip_bench::gate::{overload_cell, run_cell, CellRun, Detail};
use dip_bench::EngineKind;
use dipbench::overload::OverloadStats;
use dipbench::prelude::*;

const ENGINES: [EngineKind; 3] = [EngineKind::Federated, EngineKind::Mtm, EngineKind::Eai];

/// One zipf(1.0) open-loop cell at seed 7.
fn run(kind: EngineKind, rate: f64, capacity: usize, policy: AdmissionPolicy) -> CellRun {
    let base = BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform))
        .with_periods(1)
        .with_seed(7);
    let admission = AdmissionControl::bounded(capacity, policy);
    let (config, load) = overload_cell(base, Distribution::Zipf10, rate, admission);
    run_cell(kind, config, &load).unwrap()
}

fn stats(run: &CellRun) -> OverloadStats {
    match run.detail {
        Detail::Open(stats) => stats,
        other => panic!("an open load reports queueing stats, got {other:?}"),
    }
}

#[test]
fn same_seed_double_runs_are_byte_identical_for_every_engine() {
    for kind in ENGINES {
        let one = run(kind, 2.0, 4, AdmissionPolicy::Shed);
        let two = run(kind, 2.0, 4, AdmissionPolicy::Shed);
        let differs = one.fingerprint.diff(&two.fingerprint, true);
        assert!(differs.is_empty(), "{kind:?} diverged on {differs:?}");
        assert_eq!(stats(&one), stats(&two), "{kind:?} stats");
    }
}

#[test]
fn shed_extended_conservation_closes_at_double_rate_for_every_engine() {
    // capacity 2 at rate 2x forces real shedding on the zipf(1.0) bursts
    for kind in ENGINES {
        let exp = run(kind, 2.0, 2, AdmissionPolicy::Shed);
        let s = stats(&exp);
        assert!(s.shed > 0, "{kind:?}: expected shedding at 2x capacity 2");
        assert_eq!(s.admitted + s.shed, s.scheduled_messages, "{kind:?}");
        assert_eq!(exp.fingerprint.shed() as u64, s.shed, "{kind:?} DLQ");
        assert!(exp.fingerprint.verified, "{kind:?}:\n{}", exp.verification);
    }
}

#[test]
fn queue_depth_stays_within_capacity_as_rate_grows() {
    for rate in [1.0, 2.0, 4.0] {
        let exp = run(EngineKind::Federated, rate, 3, AdmissionPolicy::Shed);
        let depth = stats(&exp).max_depth;
        assert!(depth <= 3, "rate {rate}: depth {depth} breached capacity 3");
        assert!(
            exp.fingerprint.verified,
            "rate {rate}:\n{}",
            exp.verification
        );
    }
}

#[test]
fn shed_count_degrades_monotonically_with_rate() {
    let mut prev = 0u64;
    for rate in [1.0, 2.0, 4.0] {
        let shed = stats(&run(EngineKind::Federated, rate, 4, AdmissionPolicy::Shed)).shed;
        assert!(
            shed >= prev,
            "shed fell from {prev} to {shed} as rate rose to {rate}"
        );
        prev = shed;
    }
    assert!(prev > 0, "4x overload against capacity 4 never shed");
}

#[test]
fn block_policy_trades_stall_for_losslessness() {
    let exp = run(EngineKind::Federated, 4.0, 2, AdmissionPolicy::Block);
    let s = stats(&exp);
    assert_eq!(s.shed, 0, "Block must never shed");
    assert_eq!(s.admitted, s.scheduled_messages);
    assert_eq!(exp.fingerprint.shed(), 0);
    assert!(s.blocked_tu > 0.0, "4x overload must stall the producer");
    assert!(s.max_depth <= 2);
    assert!(exp.fingerprint.verified, "{}", exp.verification);
}

#[test]
fn degrade_policy_evicts_oldest_and_conserves() {
    let exp = run(EngineKind::Federated, 3.0, 2, AdmissionPolicy::Degrade);
    let s = stats(&exp);
    assert!(s.shed > 0 && s.degraded_evictions == s.shed);
    assert_eq!(s.admitted + s.shed, s.scheduled_messages);
    let letters = &exp.fingerprint.dead_letters;
    assert!(letters
        .iter()
        .filter(|l| l.shed)
        .all(|l| l.reason.contains("degrade")));
    assert!(exp.fingerprint.verified, "{}", exp.verification);
}
