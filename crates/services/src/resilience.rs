//! Resilience policy: per-endpoint timeouts, bounded exponential-backoff
//! retry, and a per-endpoint circuit breaker.
//!
//! The policy wraps the round trips of [`crate::registry::ExternalWorld`]
//! when the network carries an active fault plan. Design constraints:
//!
//! - **Zero-cost happy path.** When no fault plan is armed (or a call runs
//!   outside an instance fault scope, i.e. initialization/verification),
//!   the round trip takes the exact pre-resilience code path — no verdict
//!   evaluation, no clock reads, no breaker locks.
//! - **Fail before effect.** Both transfer legs' fault verdicts are
//!   evaluated *before* the remote side effect executes, so a retried
//!   attempt never duplicates an insert. This models request-level
//!   idempotency tokens; `docs/RESILIENCE.md` discusses the choice.
//! - **Virtual clock.** Timeout waits and backoff pauses advance a
//!   [`VirtualClock`] instantly, as transfers account their delay without
//!   blocking. The waited time is charged to communication cost `Cc` —
//!   waiting on a dead link is time spent on the network.
//! - **Deterministic breaker.** The breaker counts *exhausted operations*
//!   (all attempts failed), not individual attempt faults: at realistic
//!   drop rates with a few retries, exhaustion is rare enough that the
//!   breaker stays out of the schedule and determinism is preserved.
//!   Sustained drops are what trips it — at a high enough rate every
//!   attempt of one operation after another fails.

use dip_netsim::fault::{self, LinkFault, OpKey};
use dip_netsim::{Network, Verdict, VirtualClock};
use dip_relstore::error::{TransportFault, TransportKind};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Retry/timeout/breaker knobs, per benchmark run. `Copy` so it can ride
/// inside `BenchConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Total attempts per operation (1 = no retry).
    pub max_attempts: u32,
    /// First backoff pause; doubles per attempt.
    pub base_backoff_micros: u64,
    /// Backoff ceiling.
    pub max_backoff_micros: u64,
    /// Modeled time a caller waits before declaring a drop/stall lost.
    pub call_timeout_micros: u64,
    /// Consecutive exhausted operations that open an endpoint's breaker;
    /// 0 disables the breaker.
    pub breaker_threshold: u32,
    /// Open → half-open after this much clock time.
    pub breaker_cooldown_micros: u64,
}

impl ResiliencePolicy {
    /// The benchmark default: 4 attempts, 2 ms..16 ms backoff, 50 ms call
    /// timeout, breaker at 8 consecutive exhaustions with 200 ms cooldown.
    pub const DEFAULT: ResiliencePolicy = ResiliencePolicy {
        max_attempts: 4,
        base_backoff_micros: 2_000,
        max_backoff_micros: 16_000,
        call_timeout_micros: 50_000,
        breaker_threshold: 8,
        breaker_cooldown_micros: 200_000,
    };

    /// No retries, no breaker — every transport fault surfaces at once.
    pub const NO_RETRY: ResiliencePolicy = ResiliencePolicy {
        max_attempts: 1,
        base_backoff_micros: 0,
        max_backoff_micros: 0,
        call_timeout_micros: 50_000,
        breaker_threshold: 0,
        breaker_cooldown_micros: 0,
    };

    pub fn with_attempts(mut self, attempts: u32) -> ResiliencePolicy {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Backoff pause before retrying after `attempt` (0-based) failed.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base_backoff_micros.saturating_shl(attempt.min(16));
        Duration::from_micros(exp.min(self.max_backoff_micros))
    }

    pub fn call_timeout(&self) -> Duration {
        Duration::from_micros(self.call_timeout_micros)
    }
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy::DEFAULT
    }
}

/// Breaker states, exposed for tests and the `faults` CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

struct BreakerInner {
    consecutive_failures: u32,
    /// Clock time at which the breaker opened (None = closed/half-open).
    opened_at: Option<Duration>,
    half_open: bool,
}

/// A per-endpoint circuit breaker on a shared clock.
pub struct CircuitBreaker {
    policy: ResiliencePolicy,
    clock: Arc<VirtualClock>,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    pub fn new(policy: ResiliencePolicy, clock: Arc<VirtualClock>) -> CircuitBreaker {
        CircuitBreaker {
            policy,
            clock,
            inner: Mutex::new(BreakerInner {
                consecutive_failures: 0,
                opened_at: None,
                half_open: false,
            }),
        }
    }

    pub fn state(&self) -> BreakerState {
        let inner = self.inner.lock();
        if inner.half_open {
            BreakerState::HalfOpen
        } else if inner.opened_at.is_some() {
            BreakerState::Open
        } else {
            BreakerState::Closed
        }
    }

    /// May an operation proceed? Open breakers reject until the cooldown
    /// elapses, then admit a single half-open probe.
    pub fn admit(&self) -> bool {
        if self.policy.breaker_threshold == 0 {
            return true;
        }
        let mut inner = self.inner.lock();
        match inner.opened_at {
            None => true,
            Some(opened) => {
                let cooldown = Duration::from_micros(self.policy.breaker_cooldown_micros);
                if self.clock.now().saturating_sub(opened) >= cooldown {
                    // half-open: admit this probe; further calls keep being
                    // rejected until the probe reports back
                    inner.opened_at = None;
                    inner.half_open = true;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Report an operation that completed (any non-transport outcome).
    pub fn record_success(&self) {
        if self.policy.breaker_threshold == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.consecutive_failures = 0;
        inner.half_open = false;
        inner.opened_at = None;
    }

    /// Report an operation that exhausted its transport retries. Returns
    /// true if this report opened the breaker.
    pub fn record_exhausted(&self) -> bool {
        if self.policy.breaker_threshold == 0 {
            return false;
        }
        let mut inner = self.inner.lock();
        if inner.half_open {
            // failed probe: reopen immediately
            inner.half_open = false;
            inner.opened_at = Some(self.clock.now());
            return true;
        }
        inner.consecutive_failures += 1;
        if inner.consecutive_failures >= self.policy.breaker_threshold && inner.opened_at.is_none()
        {
            inner.opened_at = Some(self.clock.now());
            return true;
        }
        false
    }
}

/// The armed resilience layer: policy + clock + per-endpoint breakers.
pub struct Resilience {
    pub policy: ResiliencePolicy,
    clock: Arc<VirtualClock>,
    breakers: Mutex<HashMap<String, Arc<CircuitBreaker>>>,
}

impl std::fmt::Debug for Resilience {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resilience")
            .field("policy", &self.policy)
            .finish()
    }
}

/// What the retry loop decided for one operation.
pub enum Attempt {
    /// Deliver, after `wasted` of timeout/backoff waiting.
    Proceed { wasted: Duration },
    /// Retries exhausted (or breaker open); the typed fault to surface.
    Exhausted(TransportFault),
}

impl Resilience {
    pub fn new(policy: ResiliencePolicy, clock: Arc<VirtualClock>) -> Resilience {
        Resilience {
            policy,
            clock,
            breakers: Mutex::new(HashMap::new()),
        }
    }

    pub fn breaker(&self, endpoint: &str) -> Arc<CircuitBreaker> {
        self.breakers
            .lock()
            .entry(endpoint.to_string())
            .or_insert_with(|| Arc::new(CircuitBreaker::new(self.policy, self.clock.clone())))
            .clone()
    }

    /// Run the retry loop for one operation against `endpoint`: evaluate
    /// both legs' fault verdicts per attempt (failing *before* any remote
    /// side effect), waiting out timeouts and backoffs on the clock. The
    /// caller performs the actual transfers and side effect only when
    /// `Attempt::Proceed` is returned; the outcome is reported to the
    /// endpoint's breaker here ([`CircuitBreaker::record_success`] /
    /// [`CircuitBreaker::record_exhausted`]).
    pub fn decide(&self, network: &Network, from: &str, to: &str, op: &OpKey) -> Attempt {
        let breaker = self.breaker(to);
        let mut wasted = Duration::ZERO;
        let mut attempt = 0u32;
        loop {
            if !breaker.admit() {
                dip_trace::count("resilience.breaker_rejected", 1);
                return Attempt::Exhausted(TransportFault {
                    endpoint: to.to_string(),
                    kind: TransportKind::CircuitOpen,
                    attempts: attempt,
                });
            }
            let v_req = network.fault_verdict(from, to, op, attempt, 0);
            let v_resp = network.fault_verdict(to, from, op, attempt, 1);
            let link_fault = match (v_req, v_resp) {
                (Verdict::Deliver, Verdict::Deliver) => {
                    if attempt > 0 {
                        dip_trace::count("resilience.retries", attempt as u64);
                        fault::note_retries(attempt);
                    }
                    breaker.record_success();
                    return Attempt::Proceed { wasted };
                }
                (Verdict::Fault(f), _) | (_, Verdict::Fault(f)) => f,
            };
            // waiting out a lost or stalled message is communication time
            let wait = self.policy.call_timeout();
            self.clock.advance(wait);
            wasted += wait;
            attempt += 1;
            if attempt >= self.policy.max_attempts {
                dip_trace::count("resilience.retries", (attempt - 1) as u64);
                fault::note_retries(attempt - 1);
                if breaker.record_exhausted() {
                    dip_trace::count("resilience.breaker_open", 1);
                }
                return Attempt::Exhausted(TransportFault {
                    endpoint: to.to_string(),
                    kind: match link_fault {
                        LinkFault::Timeout => TransportKind::Timeout,
                        LinkFault::Drop => TransportKind::Drop,
                    },
                    attempts: attempt,
                });
            }
            let pause = self.policy.backoff(attempt - 1);
            self.clock.advance(pause);
            wasted += pause;
        }
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_netsim::virtual_clock;

    fn policy() -> ResiliencePolicy {
        ResiliencePolicy {
            breaker_threshold: 3,
            breaker_cooldown_micros: 1_000,
            ..ResiliencePolicy::DEFAULT
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = ResiliencePolicy::DEFAULT;
        assert_eq!(p.backoff(0), Duration::from_micros(2_000));
        assert_eq!(p.backoff(1), Duration::from_micros(4_000));
        assert_eq!(p.backoff(2), Duration::from_micros(8_000));
        assert_eq!(p.backoff(3), Duration::from_micros(16_000));
        assert_eq!(p.backoff(10), Duration::from_micros(16_000));
        assert_eq!(p.backoff(u32::MAX), Duration::from_micros(16_000));
    }

    #[test]
    fn breaker_opens_half_opens_and_closes_on_virtual_clock() {
        let clock = virtual_clock();
        let b = CircuitBreaker::new(policy(), clock.clone());
        assert_eq!(b.state(), BreakerState::Closed);
        // three consecutive exhaustions open it
        assert!(!b.record_exhausted());
        assert!(!b.record_exhausted());
        assert!(b.record_exhausted());
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(), "open breaker rejects");
        // cooldown elapses on the virtual clock → half-open probe admitted
        clock.advance(Duration::from_micros(1_000));
        assert!(b.admit());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // probe succeeds → closed again
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
    }

    #[test]
    fn failed_half_open_probe_reopens() {
        let clock = virtual_clock();
        let b = CircuitBreaker::new(policy(), clock.clone());
        for _ in 0..3 {
            b.record_exhausted();
        }
        clock.advance(Duration::from_micros(1_000));
        assert!(b.admit());
        assert!(b.record_exhausted(), "failed probe reopens");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit());
    }

    #[test]
    fn zero_threshold_disables_breaker() {
        let b = CircuitBreaker::new(ResiliencePolicy::NO_RETRY, virtual_clock());
        for _ in 0..100 {
            assert!(!b.record_exhausted());
        }
        assert!(b.admit());
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn virtual_clock_sleeps_do_not_block() {
        use dip_netsim::{LatencyModel, LinkSpec, Network};
        let clock = virtual_clock();
        let r = Resilience::new(ResiliencePolicy::DEFAULT, clock.clone());
        let mut net = Network::new(LinkSpec::new(LatencyModel::Fixed { micros: 10 }, 0), 3);
        net.set_default_fault_model(Some(dip_netsim::FaultModel::drops(1.0)));
        let op = OpKey::synthetic(1);
        let t = std::time::Instant::now();
        let out = r.decide(&net, "is", "es.x", &op);
        assert!(t.elapsed() < Duration::from_millis(50), "must not sleep");
        match out {
            Attempt::Exhausted(f) => {
                assert_eq!(f.kind, TransportKind::Drop);
                assert_eq!(f.attempts, 4);
            }
            Attempt::Proceed { .. } => panic!("100% drop cannot deliver"),
        }
        // 4 timeouts + 3 backoffs advanced the virtual clock
        assert!(clock.now() >= Duration::from_micros(4 * 50_000));
    }
}
