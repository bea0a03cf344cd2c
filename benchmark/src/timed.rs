//! The `deliver` decorator: an [`IntegrationSystem`] owned by the benchmark
//! that forwards every call to the system under test and times `deliver`
//! from outside. It is the only place E1/E2 latencies are taken.

use dip_mtm::cost::CostRecorder;
use dip_mtm::error::MtmResult;
use dip_mtm::process::ProcessDef;
use dipbench::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed `deliver` call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Process number 1..=15 (`P07` → 7).
    pub process: u8,
    pub period: u32,
    /// E1 message (true) or E2 timed event (false).
    pub e1: bool,
    pub ok: bool,
    /// Completed only after transport retries.
    pub retried: bool,
    /// The benchmark's id of the delivering thread.
    pub thread: u64,
    /// Start on the decorator's epoch, nanoseconds.
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct TimedSystem {
    inner: Arc<dyn IntegrationSystem>,
    epoch: Instant,
    log: Mutex<Vec<Sample>>,
}

impl TimedSystem {
    /// `epoch` is shared with the benchmark's span recorder so samples and
    /// spans sit on one time base.
    pub fn new(inner: Arc<dyn IntegrationSystem>, epoch: Instant) -> TimedSystem {
        TimedSystem {
            inner,
            epoch,
            log: Mutex::new(Vec::new()),
        }
    }

    /// Take the samples recorded since the last call.
    pub fn take(&self) -> Vec<Sample> {
        std::mem::take(&mut *self.log.lock().expect("sample log lock"))
    }
}

/// `"P07"` → 7; 0 for anything that is not a process id.
fn process_number(process: &str) -> u8 {
    process
        .strip_prefix('P')
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

impl IntegrationSystem for TimedSystem {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn deploy(&self, defs: Vec<ProcessDef>) -> MtmResult<()> {
        self.inner.deploy(defs)
    }

    fn deliver(&self, event: Event) -> Delivery {
        let process = process_number(event.process());
        let period = event.period();
        let e1 = matches!(event, Event::Message { .. });
        let thread = crate::spans::thread_id();
        // mirrored into dip_trace (no-ops while it is off): the scope names
        // the process, the span is the engine boundary
        let _scope = dip_trace::instance_scope(event.process(), period, 0);
        let _span = dip_trace::span(dip_trace::Layer::Core, "bench|engine/deliver");
        let start = Instant::now();
        let delivery = self.inner.deliver(event);
        let dur = start.elapsed();
        self.log.lock().expect("sample log lock").push(Sample {
            process,
            period,
            e1,
            ok: delivery.is_ok(),
            retried: matches!(delivery, Delivery::Retried { .. }),
            thread,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        delivery
    }

    fn recorder(&self) -> Arc<CostRecorder> {
        self.inner.recorder()
    }

    fn dead_letters(&self) -> Arc<DeadLetterQueue> {
        self.inner.dead_letters()
    }
}
