//! Client behaviour tests: real-time pacing honours deadlines, and the
//! dispatched instance mix matches Table II exactly.

use dip_mtm::{CostRecorder, MtmResult, ProcessDef, Step};
use dipbench::prelude::*;
use dipbench::{client, schedule};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One run of `config` on the native MTM engine.
fn mtm(config: BenchConfig) -> Run {
    client::run(config, &|env| Arc::new(MtmSystem::new(env.world.clone()))).unwrap()
}

#[test]
fn realtime_pacing_respects_deadlines() {
    // t = 100 → 1 tu = 10 µs; stream B's last fixed deadline is ~3130 tu
    // ≈ 31 ms, so the period must take at least that long in real time.
    let scale = ScaleFactors::new(0.02, 100.0, Distribution::Uniform);
    let config = BenchConfig::new(scale)
        .with_periods(1)
        .with_pacing(PacingMode::RealTime);
    let outcome = mtm(config).outcome;
    let elapsed = outcome.wall_time;
    assert!(outcome.failures.is_empty());
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
        mtm(config).outcome.wall_time
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
    let outcome = mtm(BenchConfig::new(scale).with_periods(2)).outcome;
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

/// Two parties that each wait, once, for the other to arrive: the first
/// P01 (stream A) and the first P04 (stream B).
#[derive(Default)]
struct Meeting {
    arrived: Mutex<[bool; 2]>,
    met: Condvar,
    timed_out: AtomicBool,
}

impl Meeting {
    /// Long enough for any client that runs the streams concurrently;
    /// one that runs them one after the other waits it out.
    const TIMEOUT: Duration = Duration::from_secs(20);

    /// Party `me` arrives; its first arrival waits for the other's.
    fn arrive(&self, me: usize) {
        let mut arrived = self.arrived.lock().unwrap();
        if arrived[me] {
            return;
        }
        arrived[me] = true;
        self.met.notify_all();
        let (arrived, wait) = (self.met)
            .wait_timeout_while(arrived, Self::TIMEOUT, |a| !a[1 - me])
            .unwrap();
        drop(arrived);
        if wait.timed_out() {
            self.timed_out.store(true, Ordering::SeqCst);
        }
    }
}

/// The MTM system with a rendezvous step at the start of P01 and P04
/// (after P01's RECEIVE): their first instances each wait, inside the
/// instance, for the other to begin, so the two instances overlap in wall
/// time whenever the client runs the streams concurrently.
struct Rendezvous {
    inner: MtmSystem,
    meeting: Arc<Meeting>,
}

impl IntegrationSystem for Rendezvous {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn deploy(&self, mut defs: Vec<ProcessDef>) -> MtmResult<()> {
        for def in &mut defs {
            let Some(me) = ["P01", "P04"].iter().position(|p| *p == def.id) else {
                continue;
            };
            let meeting = self.meeting.clone();
            let at = usize::from(matches!(def.steps.first(), Some(Step::Receive { .. })));
            let meet = Step::Custom {
                name: "rendezvous".into(),
                reads: vec![],
                binds: vec![],
                f: Arc::new(move |_| {
                    meeting.arrive(me);
                    Ok(vec![])
                }),
            };
            def.steps.insert(at, meet);
        }
        self.inner.deploy(defs)
    }

    fn deliver(&self, event: Event) -> Delivery {
        self.inner.deliver(event)
    }

    fn recorder(&self) -> Arc<CostRecorder> {
        self.inner.recorder()
    }

    fn dead_letters(&self) -> Arc<DeadLetterQueue> {
        self.inner.dead_letters()
    }
}

#[test]
fn streams_a_and_b_actually_overlap() {
    // with eager pacing, stream A and stream B instances interleave in
    // wall time: some records of group A start before the last group B
    // record ends and vice versa. The rendezvous makes that independent
    // of thread start-up timing: the first P01 and the first P04 are open
    // at the same time unless the client serialized the streams.
    let config =
        BenchConfig::new(ScaleFactors::new(0.05, 1.0, Distribution::Uniform)).with_periods(1);
    let meeting = Arc::new(Meeting::default());
    let make_system = |env: &BenchEnvironment| {
        let inner = MtmSystem::new(env.world.clone());
        let meeting = meeting.clone();
        Arc::new(Rendezvous { inner, meeting }) as _
    };
    let outcome = client::run(config, &make_system).unwrap().outcome;
    assert!(
        !meeting.timed_out.load(Ordering::SeqCst),
        "the first P01 and the first P04 never ran at the same time: streams serialized"
    );
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
    let client = Client::new(&env, system.clone()).unwrap();
    let events = schedule::period_event_count(0, scale.datasize) as u64;
    let run = || {
        let start = std::time::Instant::now();
        let period = client
            .run_period_from(0, &ReplaySkip::none(), true)
            .unwrap();
        let records = system.recorder().drain();
        let dead_letters = system.dead_letters().drain();
        client.build_outcome(records, period.failures, dead_letters, start.elapsed())
    };
    let (first, second) = (run(), run());
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
