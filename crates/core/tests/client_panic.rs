//! Regression tests for panic handling in the client's dispatcher.
//!
//! A panicking process dispatch used to be swallowed by
//! `join().unwrap_or_default()` — the period reported zero failures and the
//! run looked clean. Worse, the sibling stream waited forever on an event
//! that would never complete. On the one dispatch path
//! (`sched::run_pool`, at every worker count) a panic stops the period —
//! the other threads finish their current task and dispatch nothing more —
//! and is re-raised on the caller.

use dip_mtm::cost::CostRecorder;
use dip_mtm::error::MtmResult;
use dip_mtm::process::ProcessDef;
use dipbench::prelude::*;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// A system whose P03 dispatch (a *timed* event on stream A, so stream B's
/// extracts are ordered after it) panics; everything else succeeds.
#[derive(Default)]
struct PanicOnP03 {
    recorder: Arc<CostRecorder>,
}

impl IntegrationSystem for PanicOnP03 {
    fn name(&self) -> &str {
        "panic-on-p03"
    }

    fn deploy(&self, _defs: Vec<ProcessDef>) -> MtmResult<()> {
        Ok(())
    }

    fn deliver(&self, event: Event) -> Delivery {
        if let Event::Timed { process, .. } = &event {
            if process == "P03" {
                panic!("injected P03 panic");
            }
        }
        Delivery::Completed
    }

    fn recorder(&self) -> Arc<CostRecorder> {
        self.recorder.clone()
    }
}

#[test]
fn dispatch_panic_propagates_and_does_not_deadlock() {
    for workers in [1, 4] {
        // run the period on a watchdog-guarded thread: the pre-fix failure
        // mode is the other threads waiting forever on the panicked task,
        // which would hang the test
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let config = BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform))
                .with_periods(1)
                .with_workers(workers);
            assert_eq!(config.pacing, PacingMode::Eager);
            let env = BenchEnvironment::new(config).unwrap();
            let client = Client::new(&env, Arc::new(PanicOnP03::default())).unwrap();
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| client.run_period(0)));
            tx.send(outcome).ok();
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("run_period deadlocked at {workers} workers"));

        // the panic must reach the caller, not be reported as a clean period
        let payload = outcome.expect_err("a panicking dispatch must not report success");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_default()
            .to_string();
        assert!(
            msg.contains("injected P03 panic"),
            "expected the dispatch's panic payload at {workers} workers, got: {msg:?}"
        );
    }
}
