//! Seeded per-link fault models and the deterministic fault schedule.
//!
//! The paper's testbed is built on unreliable parts — a *wireless* network
//! between ES/IS/CS and a San Diego application it calls "very
//! error-prone" — yet only San Diego's payload errors were modelled until
//! now. This module adds the transport-fault axis: per-link models that
//! drop messages or stall them past a timeout.
//!
//! ## Determinism discipline
//!
//! Fault decisions must be reproducible under the client's A ∥ B stream
//! concurrency, where the *order* of transfers on a shared link is
//! scheduler-dependent. Drawing faults from the latency `StdRng` would tie
//! each message's fate to that order, so faults are instead a pure hash of
//! a **stable identity**: the seed, the link, the process instance
//! (process type, period, sequence number), the operation ordinal within
//! the instance, and the retry attempt. Two runs with the same seed
//! therefore produce the identical fault schedule — and the identical
//! dead-letter queue — regardless of thread interleaving. A fault-free
//! configuration consumes no randomness at all, leaving the latency RNG
//! stream byte-identical to a run without the fault subsystem.
//!
//! The stable identity travels in a thread-local [`instance_scope`]
//! established by the integration engines around each process instance
//! (and re-established inside FORK branches via [`snapshot`]/[`adopt`]).
//! Transfers outside any scope — environment initialization, verification
//! — are never faulted: the benchmark injects faults only into the
//! measured work phase.

use std::cell::RefCell;

/// One transport-level failure of a modeled message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The message vanished; the caller notices via its timeout.
    Drop,
    /// The link stalled past the caller's patience.
    Timeout,
}

/// Per-link fault behaviour. Rates are independent probabilities evaluated
/// per transfer leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Probability a message is silently lost.
    pub drop_rate: f64,
    /// Probability the link stalls past the caller's timeout.
    pub timeout_rate: f64,
}

impl FaultModel {
    /// A model that never faults (the implicit default everywhere).
    pub const NONE: FaultModel = FaultModel {
        drop_rate: 0.0,
        timeout_rate: 0.0,
    };

    /// Drop-only model, the common chaos-run shape.
    pub fn drops(rate: f64) -> FaultModel {
        FaultModel {
            drop_rate: rate,
            ..FaultModel::NONE
        }
    }

    /// Whether this model can ever produce a fault.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0 || self.timeout_rate > 0.0
    }

    /// Decide the fate of one transfer leg from its stable identity hash.
    pub fn verdict(&self, identity: u64) -> Verdict {
        if !self.is_active() {
            return Verdict::Deliver;
        }
        // map the identity hash to a uniform draw in [0, 1)
        let u = (splitmix64(identity) >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.drop_rate {
            Verdict::Fault(LinkFault::Drop)
        } else if u < self.drop_rate + self.timeout_rate {
            Verdict::Fault(LinkFault::Timeout)
        } else {
            Verdict::Deliver
        }
    }
}

/// The fate of one transfer leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Deliver,
    Fault(LinkFault),
}

/// Everything a run injects: the link `model` applied to every wireless
/// link (IS ↔ external systems; local ES-internal links never fault — they
/// model intra-machine traffic), scheduled from the run's seed, plus the
/// instance-level failures of the crash gate. A run is its config: the
/// plan travels inside it and [`crate::topology::apply_fault_plan`] hands
/// it to that run's [`crate::Network`], so runs in one process never see
/// each other's crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    pub model: FaultModel,
    /// Kill the system at this materialization step; recovery restarts it
    /// on a plan without one.
    pub crash: Option<CrashPlan>,
    /// Abort this instance at this step with a *transient*,
    /// retries-exhausted transport fault, so an E1 message dead-letters.
    /// Unlike a crash the system stays up: an abort is a deterministic
    /// piece of the workload and stays in the restarted run's plan, so
    /// replays make the same decision.
    pub abort: Option<CrashPlan>,
    /// The crash gate's "teeth" switch: instance rollback discards the undo
    /// log instead of applying it, so the partial writes of a failed
    /// instance survive. Never set outside that gate.
    pub leak_rollbacks: bool,
}

impl FaultPlan {
    /// Nothing injected — the default; costs nothing.
    pub const NONE: FaultPlan = FaultPlan {
        model: FaultModel::NONE,
        crash: None,
        abort: None,
        leak_rollbacks: false,
    };

    pub fn drops(rate: f64) -> FaultPlan {
        FaultPlan {
            model: FaultModel::drops(rate),
            ..FaultPlan::NONE
        }
    }

    /// Whether the link model can fault — what arms the resilience layer.
    /// A plan with only a crash, an abort or the leak set installs no link
    /// model and arms nothing.
    pub fn is_active(&self) -> bool {
        self.model.is_active()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// SplitMix64 — the identity mixer. Deterministic, stateless, and
/// well-distributed for sequential keys.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Combine two identity components.
pub fn mix(a: u64, b: u64) -> u64 {
    splitmix64(a ^ splitmix64(b))
}

/// FNV-1a over a string — stable process-type hashing.
pub fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The stable identity snapshot of the instance running on this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeState {
    /// Mixed (process, period, seq) identity.
    pub key: u64,
    /// The *root* instance identity — unchanged across FORK adoption, so
    /// crash plans aimed at an instance also cover its branches.
    pub root: u64,
}

struct ActiveScope {
    state: ScopeState,
    /// Ordinal of the next external operation within this instance.
    next_op: u32,
    /// Transport-level retries performed on behalf of this instance.
    retries: u32,
    /// Ordinal of the next *materialization step* (crash-point counter) —
    /// deliberately separate from `next_op` so arming a crash plan never
    /// perturbs the fault schedule.
    next_crash_step: u32,
}

thread_local! {
    static SCOPE: RefCell<Vec<ActiveScope>> = const { RefCell::new(Vec::new()) };
}

/// Guard for an established fault scope; pops it on drop.
pub struct ScopeGuard {
    _priv: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

fn push_scope(state: ScopeState) -> ScopeGuard {
    SCOPE.with(|s| {
        s.borrow_mut().push(ActiveScope {
            state,
            next_op: 0,
            retries: 0,
            next_crash_step: 0,
        })
    });
    ScopeGuard { _priv: () }
}

/// The stable identity key of a process instance — the same mixing the
/// fault scope uses, exposed so crash plans can address an instance.
pub fn instance_key(process: &str, period: u32, seq: u32) -> u64 {
    mix(hash_str(process), mix(period as u64, seq as u64))
}

/// Establish the fault identity of a process instance on this thread:
/// subsequent faultable transfers derive their schedule position from it.
/// Scopes nest (a subprocess inherits its own identity).
pub fn instance_scope(process: &str, period: u32, seq: u32) -> ScopeGuard {
    let key = instance_key(process, period, seq);
    push_scope(ScopeState { key, root: key })
}

/// Snapshot the current scope for crossing a thread boundary (FORK
/// branches run on their own threads and do not inherit thread-locals).
pub fn snapshot() -> Option<ScopeState> {
    SCOPE.with(|s| s.borrow().last().map(|a| a.state))
}

/// Re-establish a snapshotted scope on this thread, derived by `branch` so
/// parallel branches own disjoint regions of the fault schedule. The root
/// instance identity is inherited unchanged: crash plans keep matching.
pub fn adopt(state: ScopeState, branch: u32) -> ScopeGuard {
    push_scope(ScopeState {
        key: mix(state.key, 0x1000_0000 | branch as u64),
        root: state.root,
    })
}

/// The identity of one logical external operation (a remote call about to
/// be attempted, possibly several times).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpKey {
    key: u64,
}

impl OpKey {
    /// An operation identity built directly from a raw key — for tests and
    /// tools that probe the fault schedule outside an instance scope.
    pub fn synthetic(key: u64) -> OpKey {
        OpKey { key }
    }

    /// The identity of one transfer leg of one attempt of this operation.
    pub fn leg(&self, attempt: u32, leg: u32) -> u64 {
        mix(self.key, mix(attempt as u64, leg as u64))
    }
}

/// Claim the next operation ordinal of the current instance scope.
/// Returns `None` outside any scope (initialization/verification traffic
/// is never faulted).
pub fn begin_op() -> Option<OpKey> {
    SCOPE.with(|s| {
        let mut s = s.borrow_mut();
        let active = s.last_mut()?;
        let ordinal = active.next_op;
        active.next_op += 1;
        Some(OpKey {
            key: mix(active.state.key, ordinal as u64),
        })
    })
}

/// Record `n` transport retries against the current instance scope.
pub fn note_retries(n: u32) {
    SCOPE.with(|s| {
        if let Some(active) = s.borrow_mut().last_mut() {
            active.retries += n;
        }
    });
}

/// Transport retries recorded so far for the current instance scope.
pub fn scope_retries() -> u32 {
    SCOPE.with(|s| s.borrow().last().map_or(0, |a| a.retries))
}

// ---------------------------------------------------------------------------
// Deterministic crash injection
//
// A crash plan names one process instance (by its stable identity key) and
// one materialization-step ordinal within it. Every external round trip of
// an in-scope instance claims the next step ordinal; when the run's plan's
// (instance, step) comes up, the "system dies": the round trip fails with a
// crash fault, the engines suppress the instance, and the client stops the
// run so recovery can restart it from the last checkpoint. The step counter
// is per-scope and thread-local, so the schedule position is exactly as
// reproducible as the fault schedule itself. The plans and what they have
// done so far belong to the run's `Network` (`Network::step_point`).
// ---------------------------------------------------------------------------

/// A single planned crash (or abort) point: materialization step `step`
/// (0-based) of the instance identified by `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Root instance identity (see [`instance_key`]).
    pub key: u64,
    /// 0-based ordinal of the external operation to die at.
    pub step: u32,
}

impl CrashPlan {
    /// Step `step` of instance `(process, period, seq)`.
    pub fn at(process: &str, period: u32, seq: u32, step: u32) -> CrashPlan {
        CrashPlan {
            key: instance_key(process, period, seq),
            step,
        }
    }
}

/// What a run's plans decree for one materialization step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepVerdict {
    /// No plan fires; the round trip proceeds.
    Pass,
    /// The system dies: a non-transient crash fault; the run stops so
    /// recovery can restart from the last checkpoint.
    Crash,
    /// The instance aborts: a transient fault with retries exhausted; the
    /// engine rolls the instance back and the message dead-letters.
    Abort,
}

/// Claim the next materialization-step ordinal of the instance running on
/// this thread, if `planned` says a plan targets its root identity:
/// `(root, step)`. The counter advances whenever *any* plan targets the
/// instance, so the ordinal ↔ operation mapping is independent of the
/// chosen step. `None` outside any scope or inside an unplanned instance.
pub(crate) fn claim_step(planned: impl FnOnce(u64) -> bool) -> Option<(u64, u32)> {
    SCOPE.with(|s| {
        let mut s = s.borrow_mut();
        let active = s.last_mut()?;
        let root = active.state.root;
        if !planned(root) {
            return None;
        }
        let step = active.next_crash_step;
        active.next_crash_step += 1;
        Some((root, step))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_is_pure_and_seed_stable() {
        let m = FaultModel::drops(0.3);
        for key in 0..1000u64 {
            assert_eq!(m.verdict(key), m.verdict(key));
        }
    }

    #[test]
    fn zero_rate_never_faults() {
        let m = FaultModel::NONE;
        for key in 0..1000u64 {
            assert_eq!(m.verdict(key), Verdict::Deliver);
        }
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let m = FaultModel::drops(0.2);
        let n = 20_000u64;
        let dropped = (0..n)
            .filter(|&k| matches!(m.verdict(splitmix64(k)), Verdict::Fault(LinkFault::Drop)))
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((0.17..0.23).contains(&rate), "observed drop rate {rate}");
    }

    #[test]
    fn timeouts_follow_drops_on_the_draw() {
        let m = FaultModel {
            drop_rate: 0.1,
            timeout_rate: 0.2,
        };
        let n = 20_000u64;
        let timeouts = (0..n)
            .filter(|&k| m.verdict(splitmix64(k)) == Verdict::Fault(LinkFault::Timeout))
            .count();
        let rate = timeouts as f64 / n as f64;
        assert!((0.17..0.23).contains(&rate), "observed timeout rate {rate}");
    }

    #[test]
    fn scope_ordinals_advance_and_pop() {
        assert!(begin_op().is_none(), "no faults outside a scope");
        let g = instance_scope("P04", 0, 3);
        let a = begin_op().unwrap();
        let b = begin_op().unwrap();
        assert_ne!(a.leg(0, 0), b.leg(0, 0));
        assert_ne!(a.leg(0, 0), a.leg(1, 0), "attempts have distinct fates");
        assert_ne!(a.leg(0, 0), a.leg(0, 1), "legs have distinct fates");
        note_retries(2);
        assert_eq!(scope_retries(), 2);
        drop(g);
        assert!(begin_op().is_none());
    }

    #[test]
    fn same_identity_same_op_keys_across_threads() {
        let keys = |tag: u32| {
            std::thread::spawn(move || {
                let _g = instance_scope("P10", 1, tag);
                (begin_op().unwrap().leg(0, 0), begin_op().unwrap().leg(1, 1))
            })
            .join()
            .unwrap()
        };
        assert_eq!(keys(5), keys(5));
        assert_ne!(keys(5), keys(6));
    }

    #[test]
    fn fork_adoption_derives_disjoint_branches() {
        let _g = instance_scope("P03", 0, 0);
        let snap = snapshot().unwrap();
        let b0 = adopt(snap, 0);
        let k0 = begin_op().unwrap();
        drop(b0);
        let b1 = adopt(snap, 1);
        let k1 = begin_op().unwrap();
        drop(b1);
        assert_ne!(k0.leg(0, 0), k1.leg(0, 0));
    }
}
