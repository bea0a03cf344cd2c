//! Resilience: bounded retry with a fixed call timeout and a fixed
//! exponential backoff.
//!
//! The retry loop wraps the round trips of
//! [`crate::registry::ExternalWorld`] when the network carries an active
//! fault plan. Its one setting is the attempt budget; the timeout and the
//! backoff are constants. Design constraints:
//!
//! - **Zero-cost happy path.** When no fault plan is armed (or a call runs
//!   outside an instance fault scope, i.e. initialization/verification),
//!   the round trip takes the exact pre-resilience code path — no verdict
//!   evaluation at all.
//! - **Fail before effect.** Both transfer legs' fault verdicts are
//!   evaluated *before* the remote side effect executes, so a retried
//!   attempt never duplicates an insert. This models request-level
//!   idempotency tokens; `docs/RESILIENCE.md` discusses the choice.
//! - **A pure function of the seed.** Every verdict is a hash of the seed,
//!   the link and the operation's identity, and the loop keeps no state
//!   between operations: what one operation decides never depends on which
//!   others ran before it, on any thread.
//! - **Waits are accounted, never slept.** Timeout waits and backoff
//!   pauses are summed into [`Attempt::Proceed`]'s `wasted` and charged to
//!   communication cost `Cc` — waiting on a dead link is time spent on the
//!   network.

use dip_netsim::fault::{self, OpKey};
use dip_netsim::{Network, Verdict};
use dip_relstore::error::{TransportFault, TransportKind};
use std::time::Duration;

/// Attempts per operation unless a run sets its own budget.
pub const DEFAULT_ATTEMPTS: u32 = 4;

/// Modeled time a caller waits before declaring a drop or stall lost.
const CALL_TIMEOUT: Duration = Duration::from_millis(50);

/// The first backoff pause; it doubles per failed attempt up to
/// [`MAX_BACKOFF`].
const BASE_BACKOFF: Duration = Duration::from_millis(2);

/// The backoff ceiling.
const MAX_BACKOFF: Duration = Duration::from_millis(16);

/// Backoff pause before retrying after `attempt` (0-based) failed.
fn backoff(attempt: u32) -> Duration {
    BASE_BACKOFF
        .saturating_mul(1 << attempt.min(16))
        .min(MAX_BACKOFF)
}

/// What the retry loop decided for one operation.
pub enum Attempt {
    /// Deliver, after `wasted` of timeout/backoff waiting.
    Proceed { wasted: Duration },
    /// Retries exhausted; the typed fault to surface.
    Exhausted(TransportFault),
}

/// Run the retry loop for one operation against `to`: evaluate both legs'
/// fault verdicts per attempt (failing *before* any remote side effect),
/// waiting out a timeout per failed attempt and a backoff before each
/// retry, for at most `max_attempts` attempts. The caller performs the
/// actual transfers and side effect only when `Attempt::Proceed` is
/// returned.
pub fn decide(network: &Network, from: &str, to: &str, op: &OpKey, max_attempts: u32) -> Attempt {
    let mut wasted = Duration::ZERO;
    let mut attempt = 0u32;
    loop {
        let v_req = network.fault_verdict(from, to, op, attempt, 0);
        let v_resp = network.fault_verdict(to, from, op, attempt, 1);
        if (v_req, v_resp) == (Verdict::Deliver, Verdict::Deliver) {
            if attempt > 0 {
                dip_trace::count("resilience.retries", attempt as u64);
                fault::note_retries(attempt);
            }
            return Attempt::Proceed { wasted };
        }
        // waiting out a lost message is communication time
        wasted += CALL_TIMEOUT;
        attempt += 1;
        if attempt >= max_attempts {
            dip_trace::count("resilience.retries", (attempt - 1) as u64);
            fault::note_retries(attempt - 1);
            return Attempt::Exhausted(TransportFault {
                endpoint: to.to_string(),
                kind: TransportKind::Drop,
                attempts: attempt,
            });
        }
        wasted += backoff(attempt - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_netsim::{FaultPlan, LatencyModel, LinkSpec};

    fn network(drop_rate: f64) -> Network {
        let mut net = Network::new(LinkSpec::new(LatencyModel::Fixed { micros: 10 }, 0), 3);
        net.set_plan(FaultPlan::drops(drop_rate));
        net
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let ms = Duration::from_millis;
        assert_eq!(backoff(0), ms(2));
        assert_eq!(backoff(1), ms(4));
        assert_eq!(backoff(2), ms(8));
        assert_eq!(backoff(3), ms(16));
        assert_eq!(backoff(10), ms(16));
        assert_eq!(backoff(u32::MAX), ms(16));
    }

    #[test]
    fn exhausted_operations_do_not_block() {
        let net = network(1.0);
        let t = std::time::Instant::now();
        let out = decide(&net, "is", "es.x", &OpKey::synthetic(1), DEFAULT_ATTEMPTS);
        assert!(t.elapsed() < Duration::from_millis(50), "must not sleep");
        match out {
            Attempt::Exhausted(f) => {
                assert_eq!(f.kind, TransportKind::Drop);
                assert_eq!(f.attempts, 4);
            }
            Attempt::Proceed { .. } => panic!("100% drop cannot deliver"),
        }
    }

    /// An operation that fails exactly `k` attempts before it delivers
    /// waits `k` call timeouts and the `k` backoffs 2, 4, … ms, and nothing
    /// else: the waited time every retried instance charges to `Cc`.
    #[test]
    fn waited_time_is_timeouts_plus_backoffs() {
        let net = network(0.5);
        let failures = |op: &OpKey| {
            (0..DEFAULT_ATTEMPTS)
                .take_while(|&a| {
                    net.fault_verdict("is", "es.x", op, a, 0) != Verdict::Deliver
                        || net.fault_verdict("es.x", "is", op, a, 1) != Verdict::Deliver
                })
                .count()
        };
        for (k, millis) in [(0, 0), (1, 52), (2, 106), (3, 164)] {
            let op = (0..)
                .map(OpKey::synthetic)
                .find(|op| failures(op) == k)
                .unwrap();
            match decide(&net, "is", "es.x", &op, DEFAULT_ATTEMPTS) {
                Attempt::Proceed { wasted } => {
                    assert_eq!(wasted, Duration::from_millis(millis), "k={k}")
                }
                Attempt::Exhausted(f) => panic!("k={k}: {f}"),
            }
        }
    }
}
