//! Client behaviour tests: real-time pacing honours deadlines, and the
//! dispatched instance mix matches Table II exactly.

use dipbench::prelude::*;
use dipbench::schedule;
use std::sync::Arc;

#[test]
fn realtime_pacing_respects_deadlines() {
    // t = 100 → 1 tu = 10 µs; stream B's last fixed deadline is ~3130 tu
    // ≈ 31 ms, so the period must take at least that long in real time.
    let scale = ScaleFactors::new(0.02, 100.0, Distribution::Uniform);
    let config = BenchConfig::new(scale)
        .with_periods(1)
        .with_pacing(PacingMode::RealTime);
    let env = BenchEnvironment::new(config).unwrap();
    let system = Arc::new(MtmSystem::new(env.world.clone()));
    let client = Client::new(&env, system).unwrap();
    let start = std::time::Instant::now();
    let failures = client.run_period(0).unwrap();
    let elapsed = start.elapsed();
    assert!(failures.is_empty());
    let last_deadline_tu = 3000.0 + 2.5 * (schedule::p10_count(scale.datasize) - 1) as f64;
    let min_wall = scale.tu_to_duration(last_deadline_tu);
    assert!(
        elapsed >= min_wall,
        "period finished in {elapsed:?}, before the last deadline at {min_wall:?}"
    );
}

#[test]
fn eager_pacing_is_faster_than_realtime() {
    // t = 10 → 1 tu = 0.1 ms; stream B's last deadline (~3050 tu) forces a
    // real-time period to take ≥ ~305 ms, far above the eager work time
    let scale = ScaleFactors::new(0.02, 10.0, Distribution::Uniform);
    let run = |pacing| {
        let config = BenchConfig::new(scale).with_periods(1).with_pacing(pacing);
        let env = BenchEnvironment::new(config).unwrap();
        let system = Arc::new(MtmSystem::new(env.world.clone()));
        let client = Client::new(&env, system).unwrap();
        let start = std::time::Instant::now();
        client.run_period(0).unwrap();
        start.elapsed()
    };
    let eager = run(PacingMode::Eager);
    let realtime = run(PacingMode::RealTime);
    assert!(
        realtime > eager,
        "realtime ({realtime:?}) should outlast eager ({eager:?})"
    );
}

#[test]
fn dispatched_mix_matches_table_ii_per_period() {
    let scale = ScaleFactors::new(0.05, 1.0, Distribution::Uniform);
    let config = BenchConfig::new(scale).with_periods(2);
    let env = BenchEnvironment::new(config).unwrap();
    let system = Arc::new(MtmSystem::new(env.world.clone()));
    let client = Client::new(&env, system).unwrap();
    let outcome = client.run().unwrap();
    // count instances per (process, period) from the raw records
    let count = |process: &str, period: u32| {
        outcome
            .records
            .iter()
            .filter(|r| r.process == process && r.period == period)
            .count() as u32
    };
    for k in 0..2 {
        assert_eq!(
            count("P01", k),
            schedule::p01_count(k, scale.datasize),
            "P01 period {k}"
        );
        assert_eq!(
            count("P02", k),
            schedule::p02_count(k, scale.datasize),
            "P02 period {k}"
        );
        assert_eq!(count("P04", k), schedule::p04_count(scale.datasize));
        assert_eq!(count("P08", k), schedule::p08_count(scale.datasize));
        assert_eq!(count("P10", k), schedule::p10_count(scale.datasize));
        for p in [
            "P03", "P05", "P06", "P07", "P09", "P11", "P12", "P13", "P14", "P15",
        ] {
            assert_eq!(count(p, k), 1, "{p} period {k}");
        }
    }
    // P01 decreases across periods at a large enough datasize
    let scale_big = ScaleFactors::new(0.5, 1.0, Distribution::Uniform);
    assert!(
        schedule::p01_count(0, scale_big.datasize) > schedule::p01_count(99, scale_big.datasize)
    );
}

#[test]
fn streams_a_and_b_actually_overlap() {
    // with eager pacing, stream A and stream B instances should interleave
    // in wall time: some records of group A must start before the last
    // group B record ends and vice versa
    let config =
        BenchConfig::new(ScaleFactors::new(0.05, 1.0, Distribution::Uniform)).with_periods(1);
    let env = BenchEnvironment::new(config).unwrap();
    let system = Arc::new(MtmSystem::new(env.world.clone()));
    let client = Client::new(&env, system).unwrap();
    let outcome = client.run().unwrap();
    let a: Vec<_> = outcome
        .records
        .iter()
        .filter(|r| matches!(r.process.as_str(), "P01" | "P02" | "P03"))
        .collect();
    let b: Vec<_> = outcome
        .records
        .iter()
        .filter(|r| r.process == "P04")
        .collect();
    let a_start = a.iter().map(|r| r.start).min().unwrap();
    let a_end = a.iter().map(|r| r.end).max().unwrap();
    let b_start = b.iter().map(|r| r.start).min().unwrap();
    let b_end = b.iter().map(|r| r.end).max().unwrap();
    assert!(
        a_start < b_end && b_start < a_end,
        "streams did not overlap"
    );
    // and normalization noticed: some A/B instance has factor < 1
    assert!(
        outcome.normalized.iter().any(|n| n.factor < 0.999),
        "no concurrency was observed by the monitor"
    );
}

#[test]
fn late_dispatch_counts_one_run_not_the_clients_lifetime() {
    // t = 1e6 → 1 tu = 1 ns: the whole schedule is due within microseconds,
    // so practically every dispatch is behind its deadline. A client reused
    // for a second run (as benchmark/ reuses one across iterations) must
    // report that run's lag, not the sum of both.
    let scale = ScaleFactors::new(0.02, 1e6, Distribution::Uniform);
    let config = BenchConfig::new(scale)
        .with_periods(1)
        .with_pacing(PacingMode::RealTime);
    let env = BenchEnvironment::new(config).unwrap();
    let system = Arc::new(MtmSystem::new(env.world.clone()));
    let client = Client::new(&env, system).unwrap();
    let events = schedule::period_event_count(0, scale.datasize) as u64;
    let first = client.run().unwrap();
    let second = client.run().unwrap();
    assert!(
        first.late_dispatch > events / 2 && first.late_dispatch <= events,
        "{} of {events} dispatches late in the first run",
        first.late_dispatch
    );
    assert!(
        second.late_dispatch <= events,
        "second run reports {} late dispatches of {events} events (first: {})",
        second.late_dispatch,
        first.late_dispatch
    );
}
