//! An EAI-server-style system under test — the paper's future work
//! ("we currently realize experiments with EAI servers and ETL tools",
//! §VII).
//!
//! Unlike the synchronous MTM engine and the trigger-driven federated
//! DBMS, an EAI server is a *message broker*: an incoming message is
//! accepted at once and processed later. Here "later" is the next
//! barrier. [`IntegrationSystem::deliver`] appends a message to one FIFO
//! and answers [`Delivery::Completed`]; a time-driven event, like a real
//! broker's scheduled batch job, first drains the FIFO and then runs.
//! That preserves the benchmark's stream-completion semantics (`T1(P04)`
//! etc.) and therefore the integrated data.
//!
//! The broker has no threads of its own: a drain runs the queued messages
//! on the thread that calls it, one drain at a time, in acceptance order.
//! The client already orders every pair of conflicting messages before
//! handing them over (P02 → P04: [`crate::sched::PeriodPlan`] waits for
//! P02's `deliver` to return before it dispatches P04), and one FIFO keeps
//! that order; messages that do not conflict commute. So a run is a
//! function of its seed at any client worker count.
//!
//! A queued message that fails for good is kept by the drain and handed
//! to the client by [`IntegrationSystem::take_failures`]; one that panics
//! unwinds through the barrier that runs it, as on every other engine.
//!
//! The queue is unbounded: the broker accepts whatever the client paces.
//! Which messages a *bounded* queue would shed under overload (drop-tail)
//! is decided in virtual time by [`crate::overload`], the one admission
//! model, before any message reaches the broker.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::client::{self, DispatchFailure};
use crate::system::{DeadLetterQueue, Delivery, Event, IntegrationSystem, MtmSystem};
use dip_mtm::cost::CostRecorder;
use dip_mtm::error::MtmResult;
use dip_mtm::process::ProcessDef;
use dip_services::registry::ExternalWorld;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

#[derive(Default)]
struct Queue {
    /// Accepted E1 events, in acceptance order.
    events: VecDeque<Event>,
    /// The longest the queue has been.
    max_depth: u64,
}

/// The EAI-style asynchronous integration system: the MTM engine behind
/// a message queue.
pub struct EaiSystem {
    engine: MtmSystem,
    queue: Mutex<Queue>,
    /// Held for a whole drain, so a drain that finds the queue empty has
    /// also waited for the messages another drain popped. Keeps the hard
    /// failures of drained messages until the client takes them.
    drain: Mutex<Vec<DispatchFailure>>,
}

impl EaiSystem {
    /// Build the broker. `_workers` is unused: the broker runs queued
    /// messages on the caller's thread. It stays only because
    /// `benchmark/src/probes.rs` passes it.
    pub fn new(world: Arc<ExternalWorld>, _workers: usize) -> EaiSystem {
        EaiSystem {
            engine: MtmSystem::new(world),
            queue: Mutex::new(Queue::default()),
            drain: Mutex::new(Vec::new()),
        }
    }

    /// Run every queued message, in acceptance order, on this thread.
    pub fn drain(&self) {
        let mut failures = self.drain.lock();
        loop {
            // popped in a statement of its own: the queue is free to
            // accept while the message runs
            let next = self.queue.lock().events.pop_front();
            let Some(event) = next else { break };
            let (process, period, seq) = (event.process().to_string(), event.period(), event.seq());
            let outcome = client::outcome(self.engine.deliver(event));
            failures.extend(DispatchFailure::of(&process, period, seq, outcome));
        }
    }

    /// The longest the queue has been over the system's life. Not a trace
    /// counter: under two client threads it depends on their timing.
    pub fn max_queue_depth(&self) -> u64 {
        self.queue.lock().max_depth
    }
}

impl IntegrationSystem for EaiSystem {
    fn name(&self) -> &str {
        "eai-server"
    }

    fn deploy(&self, defs: Vec<ProcessDef>) -> MtmResult<()> {
        self.engine.deploy(defs)
    }

    /// A message is queued and `Completed` means "accepted"; a timed event
    /// drains the queue first and then runs.
    fn deliver(&self, event: Event) -> Delivery {
        if let Event::Message { .. } = event {
            let mut queue = self.queue.lock();
            queue.events.push_back(event);
            queue.max_depth = queue.max_depth.max(queue.events.len() as u64);
            return Delivery::Completed;
        }
        self.drain();
        self.engine.deliver(event)
    }

    fn recorder(&self) -> Arc<CostRecorder> {
        self.engine.recorder()
    }

    fn dead_letters(&self) -> Arc<DeadLetterQueue> {
        self.engine.dead_letters()
    }

    fn take_failures(&self) -> Vec<DispatchFailure> {
        std::mem::take(&mut *self.drain.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::run;
    use crate::prelude::*;

    fn config() -> BenchConfig {
        BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(1)
    }

    fn env() -> BenchEnvironment {
        BenchEnvironment::new(config()).unwrap()
    }

    #[test]
    fn eai_runs_the_benchmark_and_verifies() {
        let run = run(config(), &|env| {
            Arc::new(EaiSystem::new(env.world.clone(), 4))
        })
        .unwrap();
        let outcome = &run.outcome;
        // neither a dispatched event nor a queued message failed
        assert!(outcome.failures.is_empty(), "{:#?}", outcome.failures);
        assert_eq!(outcome.metrics.len(), 15);
        assert!(run.verification.passed(), "{}", run.verification);
    }

    #[test]
    fn eai_matches_mtm_integrated_data() {
        let a = run(config(), &|env| {
            Arc::new(EaiSystem::new(env.world.clone(), 3))
        })
        .unwrap();
        let b = run(config(), &|env| Arc::new(MtmSystem::new(env.world.clone()))).unwrap();
        let (a, b) = (a.env, b.env);
        for table in ["orders", "orderline", "customer", "product", "orders_mv"] {
            let mut x = a.db("dwh").table(table).unwrap().scan();
            let mut y = b.db("dwh").table(table).unwrap().scan();
            let keys: Vec<usize> = (0..x.schema.len()).collect();
            x.sort_by_columns(&keys);
            y.sort_by_columns(&keys);
            assert_eq!(x.rows, y.rows, "dwh.{table} differs between EAI and MTM");
        }
    }

    #[test]
    fn timed_events_barrier_on_queue() {
        // a timed event fired right after a burst of messages must observe
        // all of their effects
        let env = env();
        let system = Arc::new(EaiSystem::new(env.world.clone(), 4));
        system.deploy(crate::processes::all_processes()).unwrap();
        env.initialize_sources(0).unwrap();
        let n = crate::schedule::p04_count(0.02);
        for m in 0..n {
            let d = system.deliver(Event::message(
                "P04",
                0,
                m,
                env.generator.vienna_message(0, m),
            ));
            assert!(d.is_ok(), "{d:?}");
        }
        // P05 is timed: it must drain the broker first
        assert!(system.deliver(Event::timed("P05", 0, 0)).is_ok());
        assert_eq!(system.max_queue_depth(), u64::from(n));
        let staged = env
            .db("sales_cleaning")
            .table("orders_staging")
            .unwrap()
            .scan_where(
                &dip_relstore::expr::Expr::col(6).eq(dip_relstore::expr::Expr::lit("vienna")),
                None,
            )
            .unwrap();
        assert_eq!(staged.len() as u32, n);
    }

    /// Deploy `P90`, a message process whose one step is `step`, and
    /// `P91`, a timed process that does nothing.
    fn broker_with(env: &BenchEnvironment, step: fn() -> Result<(), String>) -> Arc<EaiSystem> {
        use dip_mtm::process::{EventType, Step};
        let system = Arc::new(EaiSystem::new(env.world.clone(), 1));
        let custom = |name: &str, f: fn() -> Result<(), String>| Step::Custom {
            name: name.into(),
            reads: Vec::new(),
            binds: Vec::new(),
            f: Arc::new(move |_| f().map(|()| Vec::new())),
        };
        let receive = Step::Receive { var: "m".into() };
        let steps = vec![receive, custom("step", step)];
        system
            .deploy(vec![
                ProcessDef::new("P90", "queued", 'A', EventType::Message, steps),
                ProcessDef::new(
                    "P91",
                    "barrier",
                    'A',
                    EventType::Timed,
                    vec![custom("noop", || Ok(()))],
                ),
            ])
            .unwrap();
        system
    }

    /// A queued message that fails for good is accepted, and its failure
    /// reaches the client once a barrier has run it.
    #[test]
    fn a_failed_queued_message_is_reported_after_the_barrier() {
        let env = env();
        let system = broker_with(&env, || Err("bad data".into()));
        let msg = env.generator.vienna_message(0, 0);
        assert!(matches!(
            system.deliver(Event::message("P90", 0, 3, msg)),
            Delivery::Completed
        ));
        assert!(
            system.take_failures().is_empty(),
            "not run before the barrier"
        );
        assert!(system.deliver(Event::timed("P91", 0, 0)).is_ok());
        let failures = system.take_failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        let failure = &failures[0];
        assert_eq!(
            (failure.process.as_str(), failure.period, failure.seq),
            ("P90", 0, 3)
        );
        assert!(failure.error.contains("bad data"), "{}", failure.error);
        assert!(system.take_failures().is_empty(), "taken once");
    }

    /// A queued message that panics unwinds through the barrier that runs
    /// it and reaches the caller, as on every engine
    /// (`tests/client_panic.rs`). The barrier runs on a thread of its own
    /// so that a broker that hangs fails the test instead of hanging it.
    #[test]
    fn a_panicking_queued_message_reaches_the_barriers_caller() {
        let env = env();
        let system = broker_with(&env, || panic!("boom"));
        let msg = env.generator.vienna_message(0, 0);
        assert!(system.deliver(Event::message("P90", 0, 0, msg)).is_ok());
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let broker = system.clone();
        let barrier = std::thread::spawn(move || {
            // dropped when the thread ends, by returning or by unwinding
            let _done = done;
            broker.deliver(Event::timed("P91", 0, 0)).is_ok()
        });
        let waited = finished.recv_timeout(std::time::Duration::from_secs(10));
        let ended = matches!(waited, Err(std::sync::mpsc::RecvTimeoutError::Disconnected));
        assert!(ended, "the barrier hung behind a panicking message");
        let payload = barrier
            .join()
            .expect_err("the panic must reach the barrier's caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom");
        // the broker is still usable: the queue is empty and a barrier runs
        assert!(system.deliver(Event::timed("P91", 0, 1)).is_ok());
    }
}
