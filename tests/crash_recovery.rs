//! Crash-at-every-step recovery sweep — the Rust-side twin of the
//! `dipbench crash --sweep` CI gate.
//!
//! One representative process per group (Fig. 9's materialization
//! points): P02 (E1 message, single step), P05 (extraction, stream A),
//! P09 (consolidation, stream C), P13 (mart refresh, stream D). For
//! every materialization step k of each instance the system is killed at
//! step k, recovered from the checkpoint + journal, and the merged run
//! must pass E1 conservation and end byte-identical to an uncrashed
//! same-seed reference — including a deterministic mid-write dead-letter
//! (P04 aborts at its third step) whose partial writes only rollback
//! keeps out of the durable state. Last, executor-vs-oracle across a
//! crash-restart: `fed` killed inside P13 must recover to the bytes of
//! an uncrashed `fed-unopt` (reference interpreter) run.
//!
//! Everything lives in ONE test function: the crash and abort plans are
//! process-global, so concurrent test threads would corrupt each other.

use dip_feddbms::{FedDbms, FedOptions};
use dipbench::prelude::*;
use dipbench::recovery::{self, CrashTarget};
use dipbench::verify;
use std::sync::Arc;

fn mtm(env: &BenchEnvironment) -> Arc<dyn IntegrationSystem> {
    Arc::new(MtmSystem::new(env.world.clone()))
}

fn fed(env: &BenchEnvironment, optimize_relational: bool) -> Arc<dyn IntegrationSystem> {
    let opts = FedOptions {
        optimize_relational,
    };
    Arc::new(FedDbms::new(env.world.clone(), opts))
}

#[test]
fn crash_at_every_step_recovers_and_conserves() {
    let config =
        BenchConfig::new(ScaleFactors::new(0.01, 1.0, Distribution::Uniform)).with_periods(1);
    // deterministic mid-write dead-letter, armed for reference and
    // recovery runs alike (it is part of the workload)
    recovery::arm_abort("P04", 0, 0, 2);

    let (ref_digests, ref_dead_letters) = {
        let env = BenchEnvironment::new(config).unwrap();
        let system = mtm(&env);
        let client = Client::new(&env, system).unwrap();
        let outcome = client.run().unwrap();
        let report = verify::verify_outcome(&env, &outcome).unwrap();
        assert!(report.passed(), "reference run must verify:\n{report}");
        assert!(
            !outcome.dead_letters.is_empty(),
            "the armed P04 abort must dead-letter its message"
        );
        (
            recovery::digest_tables(&env.world).unwrap(),
            outcome.dead_letters,
        )
    };

    let mut crash_points = 0;
    for process in ["P02", "P05", "P09", "P13"] {
        let mut step = 0;
        loop {
            let target = CrashTarget {
                process: process.to_string(),
                period: 0,
                seq: 0,
                step,
            };
            let run = recovery::run_with_crash(config, &|e| mtm(e), &target, false)
                .unwrap_or_else(|e| panic!("{process} step {step}: recovery error {e}"));
            if !run.tripped {
                assert!(
                    step > 0,
                    "{process} executed no materialization steps at all"
                );
                break;
            }
            crash_points += 1;
            assert!(
                run.verification.passed(),
                "{process} step {step}: conservation failed after recovery:\n{}",
                run.verification
            );
            assert_eq!(
                run.digests, ref_digests,
                "{process} step {step}: recovered final state diverged from the uncrashed run"
            );
            assert_eq!(
                run.outcome.dead_letters, ref_dead_letters,
                "{process} step {step}: dead-letter queue diverged"
            );
            step += 1;
        }
    }
    assert!(
        crash_points >= 4,
        "the sweep exercised only {crash_points} crash points"
    );

    // Teeth: with rollback disabled until the crash, the dead-lettered
    // P04 instance leaks its partial writes — it is never replayed, so
    // the final state must demonstrably diverge.
    let target = CrashTarget {
        process: "P09".to_string(),
        period: 0,
        seq: 0,
        step: 1,
    };
    let run = recovery::run_with_crash(config, &|e| mtm(e), &target, true)
        .expect("no-rollback recovery run");
    assert!(run.tripped);
    assert_ne!(
        run.digests, ref_digests,
        "rollback disabled yet the final state matched — the gate has no teeth"
    );
    recovery::disarm_abort();

    // Executor vs oracle: kill `fed` at the first materialization step
    // of P13 (stream D — a join + grouped aggregate through the batch
    // executor), recover, and require the bytes of an uncrashed
    // `fed-unopt` run, whose local queries go through the oracle.
    let oracle_digests = {
        let env = BenchEnvironment::new(config).unwrap();
        let outcome = Client::new(&env, fed(&env, false)).unwrap().run().unwrap();
        assert!(outcome.failures.is_empty(), "{:#?}", outcome.failures);
        recovery::digest_tables(&env.world).unwrap()
    };
    let target = CrashTarget {
        process: "P13".to_string(),
        period: 0,
        seq: 0,
        step: 0,
    };
    let run = recovery::run_with_crash(config, &|e| fed(e, true), &target, false)
        .expect("fed recovery run");
    assert!(run.tripped, "the armed P13 crash never fired");
    assert!(
        run.verification.passed(),
        "conservation failed after fed recovery:\n{}",
        run.verification
    );
    assert_eq!(
        run.digests, oracle_digests,
        "recovered fed state diverged from the uncrashed fed-unopt run"
    );
}
