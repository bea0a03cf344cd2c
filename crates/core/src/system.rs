//! The system-under-test abstraction and the fallible-delivery API.
//!
//! DIPBench is system-independent: the client only needs to deliver E1
//! messages and E2 scheduling events to *some* integration system and
//! collect cost records afterwards. Four implementations exist in this
//! workspace: [`MtmSystem`] (the native MTM engine, here), the
//! asynchronous [`crate::eai::EaiSystem`] broker, the federated-DBMS
//! reference implementation in `dip-feddbms`, and the incremental view
//! maintenance engine in `dip-ivm`.
//!
//! # The `deliver` API
//!
//! Delivery is *fallible by design*: the benchmark runs over an unreliable
//! wireless network, so the single entry point [`IntegrationSystem::
//! deliver`] takes an [`Event`] — the E1/E2 enum — and returns a typed
//! [`Delivery`] outcome instead of a bare `Result`:
//!
//! - [`Delivery::Completed`] — the event was processed (or, for an
//!   asynchronous broker's message, accepted: it runs at the next
//!   barrier) without transport retries.
//! - [`Delivery::Retried`] — processed after the resilience layer spent
//!   `attempts` transport retries on the instance's behalf.
//! - [`Delivery::DeadLettered`] — an E1 message whose transport retries
//!   were exhausted; the message was routed to the system's
//!   [`DeadLetterQueue`] and the instance recorded as failed. The run
//!   continues; the verifier accounts these in its conservation totals.
//! - [`Delivery::Failed`] — a non-transient processing failure (bad data,
//!   missing table, …) or a transient failure of a *timed* event, which
//!   has no message to dead-letter.
//!
//! A message the open-loop overload harness sheds ([`crate::overload`])
//! is never delivered at all: it goes straight to the dead-letter queue
//! with `shed = true`, and the client's dispatcher skips its event.
//!
//! Events carry their schedule sequence number (`seq`): together with
//! `(process, period)` it anchors the instance's position in the
//! deterministic fault schedule, which is what makes same-seed runs
//! produce identical retry counts and identical DLQ contents.
//!
//! Every engine in the workspace delivers through the one function
//! [`deliver`]: it captures the message for the dead-letter queue, runs
//! the engine's instance and turns the [`MtmError`] that comes back — the
//! one failure type of every engine — into a [`Delivery`].

use crate::client::DispatchFailure;
use dip_mtm::cost::CostRecorder;
use dip_mtm::engine::MtmEngine;
use dip_mtm::error::{MtmError, MtmResult};
use dip_mtm::process::ProcessDef;
use dip_services::registry::ExternalWorld;
use dip_xmlkit::node::Document;
use parking_lot::Mutex;
use std::sync::Arc;

/// A benchmark event addressed to a process type.
#[derive(Debug, Clone)]
pub enum Event {
    /// E1: an incoming message (P01, P02, P04, P08, P10).
    Message {
        process: String,
        period: u32,
        /// Position within the process type's per-period message series.
        seq: u32,
        msg: Document,
    },
    /// E2: a time-based scheduling event.
    Timed {
        process: String,
        period: u32,
        /// Position within the stream's schedule (0 for singleton events).
        seq: u32,
    },
}

impl Event {
    pub fn message(process: impl Into<String>, period: u32, seq: u32, msg: Document) -> Event {
        Event::Message {
            process: process.into(),
            period,
            seq,
            msg,
        }
    }

    pub fn timed(process: impl Into<String>, period: u32, seq: u32) -> Event {
        Event::Timed {
            process: process.into(),
            period,
            seq,
        }
    }

    pub fn process(&self) -> &str {
        match self {
            Event::Message { process, .. } | Event::Timed { process, .. } => process,
        }
    }

    pub fn period(&self) -> u32 {
        match self {
            Event::Message { period, .. } | Event::Timed { period, .. } => *period,
        }
    }

    pub fn seq(&self) -> u32 {
        match self {
            Event::Message { seq, .. } | Event::Timed { seq, .. } => *seq,
        }
    }
}

/// The typed outcome of delivering an [`Event`].
#[derive(Debug)]
pub enum Delivery {
    /// Processed cleanly, or, for an asynchronous broker's message,
    /// accepted: it runs at the next barrier, and a hard failure then
    /// reaches the client through [`IntegrationSystem::take_failures`].
    Completed,
    /// Processed after `attempts` transport retries.
    Retried { attempts: u32 },
    /// Transport retries exhausted; the E1 message went to the dead-letter
    /// queue and the instance was recorded as failed.
    DeadLettered { reason: String },
    /// Hard failure: non-transient error, or a transient failure of a
    /// timed event (which has no message to dead-letter).
    Failed { error: MtmError },
}

impl Delivery {
    /// Whether the event's processing made it into the integrated data.
    pub fn is_ok(&self) -> bool {
        matches!(self, Delivery::Completed | Delivery::Retried { .. })
    }
}

/// One dead-lettered E1 message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    pub process: String,
    pub period: u32,
    pub seq: u32,
    /// The exhausted transport fault, rendered.
    pub reason: String,
    /// Compact XML of the undeliverable message, when the system captured
    /// it (capture is skipped on unarmed runs, which cannot dead-letter).
    pub payload: Option<String>,
    /// `true` when the message was rejected by admission control (never
    /// executed), as opposed to failing in transport after admission.
    pub shed: bool,
}

/// A system's dead-letter queue: E1 messages whose transport retries were
/// exhausted, preserved for inspection and conservation accounting.
#[derive(Debug, Default)]
pub struct DeadLetterQueue {
    letters: Mutex<Vec<DeadLetter>>,
}

impl DeadLetterQueue {
    pub fn new() -> DeadLetterQueue {
        DeadLetterQueue::default()
    }

    pub fn push(&self, letter: DeadLetter) {
        dip_trace::count(
            if letter.shed {
                "overload.shed"
            } else {
                "resilience.dlq"
            },
            1,
        );
        self.letters.lock().push(letter);
    }

    pub fn len(&self) -> usize {
        self.letters.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.letters.lock().is_empty()
    }

    /// Copy the queue contents (kept in arrival order).
    pub fn snapshot(&self) -> Vec<DeadLetter> {
        self.letters.lock().clone()
    }

    /// Take the queue contents, leaving it empty.
    pub fn drain(&self) -> Vec<DeadLetter> {
        std::mem::take(&mut *self.letters.lock())
    }
}

/// Deliver `event` through `execute` — an engine's
/// `execute_event(process, period, seq, message)`, which returns the
/// transport retries the instance spent — and settle the outcome: a
/// transiently failed E1 event's message goes to `dlq`. The one delivery
/// path of every [`IntegrationSystem`] in the workspace.
pub fn deliver(
    world: &ExternalWorld,
    dlq: &DeadLetterQueue,
    event: Event,
    execute: impl FnOnce(&str, u32, u32, Option<Document>) -> MtmResult<u32>,
) -> Delivery {
    let (process, period, seq, msg) = match event {
        Event::Message {
            process,
            period,
            seq,
            msg,
        } => (process, period, seq, Some(msg)),
        Event::Timed {
            process,
            period,
            seq,
        } => (process, period, seq, None),
    };
    // captured only when the run can dead-letter: an armed retry loop or
    // a planned abort (else serializing every message is waste)
    let can_fail = world.attempts().is_some() || world.network.plan().abort.is_some();
    let payload = msg
        .as_ref()
        .filter(|_| can_fail)
        .map(dip_xmlkit::write_compact);
    let result = execute(&process, period, seq, msg);
    settle(dlq, &process, period, seq, payload, result)
}

/// Map an execution result to a [`Delivery`], dead-lettering the payload
/// of a transiently-failed E1 event (`payload: None` for timed events —
/// they have nothing to dead-letter).
fn settle(
    dlq: &DeadLetterQueue,
    process: &str,
    period: u32,
    seq: u32,
    payload: Option<String>,
    result: MtmResult<u32>,
) -> Delivery {
    match result {
        Ok(0) => Delivery::Completed,
        Ok(attempts) => Delivery::Retried { attempts },
        // transient E1 failure: the message is undeliverable through no
        // fault of its own — dead-letter it
        Err(error) if error.is_transient() && payload.is_some() => {
            let reason = error.to_string();
            dlq.push(DeadLetter {
                process: process.to_string(),
                period,
                seq,
                reason: reason.clone(),
                payload,
                shed: false,
            });
            Delivery::DeadLettered { reason }
        }
        Err(error) => Delivery::Failed { error },
    }
}

/// An integration system under test.
pub trait IntegrationSystem: Send + Sync {
    /// Display name (appears in reports).
    fn name(&self) -> &str;

    /// Deploy the benchmark's process definitions before the work phase.
    /// Deploying again replaces every definition: a redeployed system
    /// behaves exactly as if it had been deployed once (the benchmark
    /// harness deploys twice, through a throw-away client and then the
    /// measuring one).
    fn deploy(&self, defs: Vec<ProcessDef>) -> MtmResult<()>;

    /// Deliver one benchmark event; see the module docs for the outcome
    /// contract. Never panics on processing failures — the run continues.
    fn deliver(&self, event: Event) -> Delivery;

    /// The recorder collecting per-instance cost records.
    fn recorder(&self) -> Arc<CostRecorder>;

    /// The system's dead-letter queue. Default: a fresh empty queue, for
    /// systems that never dead-letter.
    fn dead_letters(&self) -> Arc<DeadLetterQueue> {
        Arc::new(DeadLetterQueue::new())
    }

    /// Take the hard failures of events that `deliver` accepted and a
    /// later barrier ran (an asynchronous broker's queued messages).
    /// Default: none, for systems that run every event inside `deliver`.
    fn take_failures(&self) -> Vec<DispatchFailure> {
        Vec::new()
    }
}

/// The native MTM engine as a system under test.
pub struct MtmSystem {
    engine: MtmEngine,
    dlq: Arc<DeadLetterQueue>,
}

impl MtmSystem {
    pub fn new(world: Arc<ExternalWorld>) -> MtmSystem {
        MtmSystem {
            engine: MtmEngine::new(world),
            dlq: Arc::new(DeadLetterQueue::new()),
        }
    }
}

impl IntegrationSystem for MtmSystem {
    fn name(&self) -> &str {
        "mtm-engine"
    }

    fn deploy(&self, defs: Vec<ProcessDef>) -> MtmResult<()> {
        for def in defs {
            self.engine.deploy(def)?;
        }
        Ok(())
    }

    fn deliver(&self, event: Event) -> Delivery {
        let engine = &self.engine;
        deliver(
            &engine.world,
            &self.dlq,
            event,
            |process, period, seq, msg| engine.execute_event(process, period, seq, msg),
        )
    }

    fn recorder(&self) -> Arc<CostRecorder> {
        self.engine.recorder()
    }

    fn dead_letters(&self) -> Arc<DeadLetterQueue> {
        self.dlq.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_netsim::{LatencyModel, LinkSpec, Network};
    use dip_relstore::prelude::{TransportFault, TransportKind};
    use dip_xmlkit::node::Element;

    fn transport_error() -> MtmError {
        MtmError::Transport(TransportFault {
            endpoint: "es.cdb".to_string(),
            kind: TransportKind::Drop,
            attempts: 4,
        })
    }

    /// A world whose run can dead-letter: resilience armed.
    fn armed_world() -> ExternalWorld {
        let link = LinkSpec::new(LatencyModel::Fixed { micros: 10 }, 1_000_000);
        let mut world = ExternalWorld::new(Arc::new(Network::new(link, 1)), "is");
        world.arm_resilience(dip_services::resilience::DEFAULT_ATTEMPTS);
        world
    }

    #[test]
    fn deliver_settles_every_outcome() {
        let (world, dlq) = (armed_world(), DeadLetterQueue::new());
        let msg = || Document::new(Element::new("m"));
        // the engine sees the event's identity and message, and returns
        // `result`
        let run = |event: Event, result: MtmResult<u32>| {
            let (process, period, seq) = (event.process().to_string(), event.period(), event.seq());
            let e1 = matches!(event, Event::Message { .. });
            deliver(&world, &dlq, event, |p, k, s, m| {
                assert_eq!((p, k, s, m.is_some()), (process.as_str(), period, seq, e1));
                result
            })
        };
        let timed = |seq| Event::timed("P05", 0, seq);
        assert!(matches!(run(timed(0), Ok(0)), Delivery::Completed));
        let retried = run(Event::message("P04", 0, 1, msg()), Ok(3));
        assert!(matches!(retried, Delivery::Retried { attempts: 3 }));
        // transient + message → dead-lettered with the message's payload
        let dead = run(Event::message("P04", 1, 2, msg()), Err(transport_error()));
        assert!(matches!(dead, Delivery::DeadLettered { .. }));
        assert_eq!(dlq.len(), 1);
        let letter = &dlq.snapshot()[0];
        assert_eq!(
            (letter.process.as_str(), letter.period, letter.seq),
            ("P04", 1, 2)
        );
        assert_eq!(letter.payload, Some(dip_xmlkit::write_compact(&msg())));
        // transient without a message (timed event) → hard failure
        let timed_failure = run(timed(1), Err(transport_error()));
        assert!(matches!(timed_failure, Delivery::Failed { .. }));
        // non-transient with a message → hard failure, not dead-lettered
        let bad_data = MtmError::Custom("bad data".to_string());
        let failed = run(Event::message("P04", 0, 3, msg()), Err(bad_data));
        assert!(matches!(failed, Delivery::Failed { .. }));
        assert_eq!(dlq.len(), 1);
    }
}
