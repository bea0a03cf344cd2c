//! Integration tests for the open-loop overload harness: admission
//! decisions are made in virtual time (a pure function of seed, scale and
//! rate), so same-seed runs must be byte-identical — the whole gate
//! fingerprint, every drained counter included, and the queueing stats —
//! the worker count must not change the data, and the E1 conservation
//! check must close even when admission control sheds messages
//! (`scheduled = integrated + dead-lettered + failed + shed`).

use dip_bench::gate::{crash_cell, overload_cell, run_cell, CellRun};
use dip_bench::EngineKind;
use dipbench::overload::OverloadStats;
use dipbench::prelude::*;
use std::collections::BTreeSet;

const ENGINES: [EngineKind; 3] = [EngineKind::Federated, EngineKind::Mtm, EngineKind::Eai];

/// One zipf(1.0) open-loop cell at d = 0.02, seed 7, on `workers` threads.
fn config_on(workers: usize, periods: u32, rate: f64, capacity: usize) -> BenchConfig {
    let base = BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform))
        .with_periods(periods)
        .with_seed(7)
        .with_workers(workers);
    overload_cell(base, Distribution::Zipf10, rate, capacity)
}

/// The one-period cell, run on `workers` threads.
fn run_on(kind: EngineKind, workers: usize, rate: f64, capacity: usize) -> CellRun {
    run_cell(kind, config_on(workers, 1, rate, capacity)).unwrap()
}

/// The same cell on one worker.
fn run(kind: EngineKind, rate: f64, capacity: usize) -> CellRun {
    run_on(kind, 1, rate, capacity)
}

fn stats(cell: &CellRun) -> OverloadStats {
    cell.run.stats
}

#[test]
fn same_seed_double_runs_are_byte_identical_for_every_engine() {
    for kind in ENGINES {
        let one = run(kind, 2.0, 4);
        let two = run(kind, 2.0, 4);
        let differs = one.fingerprint.diff(&two.fingerprint, true);
        assert!(differs.is_empty(), "{kind:?} diverged on {differs:?}");
        assert_eq!(stats(&one), stats(&two), "{kind:?} stats");
    }
}

#[test]
fn shed_extended_conservation_closes_at_double_rate_for_every_engine() {
    // capacity 2 at rate 2x forces real shedding on the zipf(1.0) bursts
    for kind in ENGINES {
        let exp = run(kind, 2.0, 2);
        let s = stats(&exp);
        assert!(s.shed > 0, "{kind:?}: expected shedding at 2x capacity 2");
        assert_eq!(s.admitted + s.shed, s.scheduled_messages, "{kind:?}");
        assert_eq!(exp.fingerprint.shed() as u64, s.shed, "{kind:?} DLQ");
        assert!(
            exp.fingerprint.verified,
            "{kind:?}:\n{}",
            exp.run.verification
        );
    }
}

#[test]
fn queue_depth_stays_within_capacity_as_rate_grows() {
    for rate in [1.0, 2.0, 4.0] {
        let exp = run(EngineKind::Federated, rate, 3);
        let depth = stats(&exp).max_depth;
        assert!(depth <= 3, "rate {rate}: depth {depth} breached capacity 3");
        assert!(
            exp.fingerprint.verified,
            "rate {rate}:\n{}",
            exp.run.verification
        );
    }
}

#[test]
fn shed_count_degrades_monotonically_with_rate() {
    let mut prev = 0u64;
    for rate in [1.0, 2.0, 4.0] {
        let shed = stats(&run(EngineKind::Federated, rate, 4)).shed;
        assert!(
            shed >= prev,
            "shed fell from {prev} to {shed} as rate rose to {rate}"
        );
        prev = shed;
    }
    assert!(prev > 0, "4x overload against capacity 4 never shed");
}

#[test]
fn the_worker_count_never_changes_what_an_overloaded_run_produces() {
    // A ∥ B runs on the client's pool at `config.workers`, shed events
    // skipped: the 2x capacity-2 cell must produce the same data, dead
    // letters, failures and instances at every worker count
    for kind in ENGINES {
        let one = run_on(kind, 1, 2.0, 2);
        assert!(
            one.fingerprint.verified,
            "{kind:?}:\n{}",
            one.run.verification
        );
        assert!(one.fingerprint.shed() > 0, "{kind:?}: nothing was shed");
        for workers in [2, 4] {
            let many = run_on(kind, workers, 2.0, 2);
            let differs = many.fingerprint.diff(&one.fingerprint, false);
            assert!(
                differs.is_empty(),
                "{kind:?} at {workers} workers: {differs:?}"
            );
            assert!(many.fingerprint.verified, "{kind:?} at {workers} workers");
        }
    }
}

/// A crash in an overloaded run — the `overload-fed` gate row's cell (fed,
/// 2x zipf(1.0) arrivals against capacity 2), killed at step 1 of a
/// period-0 instance and recovered — ends where the same run uncrashed
/// does: the same data, and the same dead letters, shed flags included. So
/// every shed message is dead-lettered once, never twice, and the restart
/// decides no fate again. (a) P09 dies in stream C, after A ∥ B has shed;
/// (b) P05 dies inside A ∥ B of a two-period run, whose sheds fall both
/// before and after the restart.
#[test]
fn a_crashed_overloaded_run_sheds_each_message_once() {
    for (periods, process) in [(1, "P09"), (2, "P05")] {
        let label = format!("{process} in {periods} period(s)");
        let config = config_on(1, periods, 2.0, 2);
        let uncrashed = run_cell(EngineKind::Federated, config).unwrap();
        let target = CrashTarget {
            process: process.to_string(),
            period: 0,
            seq: 0,
            step: 1,
        };
        let crashed = run_cell(EngineKind::Federated, crash_cell(config, &target));
        let crashed = crashed.unwrap_or_else(|e| panic!("{label}: recovery error {e}"));
        let run = &crashed.run;
        assert!(run.tripped, "{label}: the planned crash never fired");
        assert!(run.stats.shed > 0, "{label}: nothing was shed");
        let conservation = (run.verification.checks.iter())
            .find(|c| c.name == "e1_message_conservation")
            .is_some_and(|c| c.passed);
        assert!(conservation, "{label}:\n{}", run.verification);
        assert!(run.verification.passed(), "{label}:\n{}", run.verification);
        assert_eq!(run.digests, uncrashed.run.digests, "{label}: data");
        let letters = &run.outcome.dead_letters;
        assert_eq!(letters, &uncrashed.run.outcome.dead_letters, "{label}");
        assert_eq!(run.stats, uncrashed.run.stats, "{label}: queueing stats");
        let differs = crashed.fingerprint.diff(&uncrashed.fingerprint, false);
        assert!(differs.is_empty(), "{label}: diverged on {differs:?}");
        if periods == 2 {
            let shed_periods: BTreeSet<u32> = (letters.iter())
                .filter(|l| l.shed)
                .map(|l| l.period)
                .collect();
            assert_eq!(shed_periods, BTreeSet::from([0, 1]), "{label}");
        }
    }
}
