//! The gate runner's own teeth: the declared matrix is well-formed, each
//! check fails when it should (fabricated fingerprints, no benchmark
//! run), and one real row passes end to end through the binary.

use dip_bench::gate::{judge, Check, Fingerprint, GATES};
use dipbench::prelude::DeadLetter;
use std::collections::BTreeSet;
use std::process::Command;

fn fingerprint(orders_digest: u64, shed: usize) -> Fingerprint {
    let letter = |seq| DeadLetter {
        process: "P04".into(),
        period: 0,
        seq,
        reason: "overload admission: queue full (shed)".into(),
        payload: None,
        shed: true,
    };
    Fingerprint {
        digests: [("dwh.orders".to_string(), orders_digest)].into(),
        dead_letters: (0..shed as u32).map(letter).collect(),
        failures: "[]".into(),
        instances: vec![("P04".into(), 40, 0)],
        counters: vec![("tx.begin".into(), 10)],
        verified: true,
    }
}

#[test]
fn gate_names_are_unique_and_every_ci_gate_of_the_parent_is_a_row() {
    let names: BTreeSet<&str> = GATES.iter().map(|g| g.name).collect();
    assert_eq!(names.len(), GATES.len(), "duplicate gate names");
    for name in [
        "chaos-fed",
        "chaos-ivm",
        "chaos-w4",
        "overload-fed",
        "overload-mtm",
        "overload-eai",
        "crash-mtm",
        "crash-ivm",
        "crash-w4",
        "crash-teeth",
        "workers-fed",
    ] {
        assert!(names.contains(name), "no {name} row");
    }
}

#[test]
fn must_diverge_passes_only_on_divergence() {
    let reference = fingerprint(1, 0);
    let same = [reference.clone(), reference.clone(), reference.clone()];
    assert!(!judge(Check::MustDiverge, &same).pass);
    let leaked = [reference.clone(), reference.clone(), fingerprint(2, 0)];
    let verdict = judge(Check::MustDiverge, &leaked);
    assert!(verdict.pass);
    assert_eq!((verdict.identical, verdict.diverged), (1, 1));
    // a row with nothing to compare proves nothing
    assert!(!judge(Check::MustDiverge, &[reference]).pass);
}

#[test]
fn equals_reference_fails_on_any_perturbed_component() {
    let reference = fingerprint(1, 0);
    assert!(
        judge(
            Check::EqualsReference,
            &[reference.clone(), reference.clone()]
        )
        .pass
    );
    type Perturb = fn(&mut Fingerprint);
    let perturbations: [(Perturb, &str); 5] = [
        (
            |f| *f.digests.get_mut("dwh.orders").unwrap() ^= 1,
            "table dwh.orders",
        ),
        (
            |f| f.dead_letters = fingerprint(1, 1).dead_letters,
            "dead letters",
        ),
        (
            |f| f.failures = "[DispatchFailure]".into(),
            "dispatch failures",
        ),
        // one P04 instance failed instead of succeeding
        (|f| f.instances[0] = ("P04".into(), 39, 1), "instances"),
        (|f| f.verified = false, "verification"),
    ];
    for (perturb, component) in perturbations {
        let mut cell = reference.clone();
        perturb(&mut cell);
        let verdict = judge(Check::EqualsReference, &[reference.clone(), cell]);
        assert!(!verdict.pass && verdict.diverged == 1, "{verdict:?}");
        assert_eq!(
            verdict.notes,
            [format!("comparison 1: {component}")],
            "a divergence names its component"
        );
    }
    // another worker count counts different work on the way to the same
    // data: only a double run of the same cell compares counters
    let mut recounted = reference.clone();
    recounted.counters[0].1 += 1;
    let cells = [reference, recounted];
    assert!(judge(Check::EqualsReference, &cells).pass);
    assert!(!judge(Check::SameSeedTwice, &cells).pass);
}

#[test]
fn monotone_shed_fails_when_loss_falls_as_rate_rises() {
    let by_rate = |sheds: [usize; 3]| sheds.map(|n| fingerprint(1, n));
    assert!(judge(Check::MonotoneShed, &by_rate([0, 4, 9])).pass);
    assert!(judge(Check::MonotoneShed, &by_rate([0, 4, 4])).pass);
    let verdict = judge(Check::MonotoneShed, &by_rate([0, 4, 3]));
    assert!(!verdict.pass);
    assert!(
        verdict.notes[0].contains("shed fell from 4 to 3"),
        "{verdict:?}"
    );
}

#[test]
fn a_declared_row_passes_through_the_binary() {
    let out = Command::new(env!("CARGO_BIN_EXE_dipbench"))
        .args(["gate", "overload-eai"])
        .output()
        .expect("spawn dipbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let row = stdout.lines().find(|l| l.starts_with("overload-eai"));
    let row = row.expect("one line per row");
    assert!(
        row.contains("same-seed-twice") && row.ends_with("PASS"),
        "{row}"
    );
    assert_eq!(stdout.lines().count(), 2, "header + the one named row");
}
