//! The simulated network: endpoints, links, transfer-cost accounting.
//!
//! DIPBench measures *communication costs* `Cc(p)` — time spent waiting for
//! external systems — as an explicit cost category. The network computes a
//! deterministic per-message delay (link latency + payload/bandwidth) which
//! the integration engines charge to `Cc`. Nothing sleeps: the delay is an
//! accounted model quantity.

use crate::fault::{self, CrashPlan, FaultModel, FaultPlan, OpKey, StepVerdict, Verdict};
use crate::latency::LatencyModel;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Duration;

/// How transfers spend their modeled delay; the one mode accounts it
/// without blocking. A parameter of
/// [`crate::topology::dipbench_network`] only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Compute and account delays without sleeping (deterministic and
    /// fast).
    Accounted,
}

/// Per-link configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    pub latency: LatencyModel,
    /// Payload throughput in bytes per second.
    pub bandwidth_bps: u64,
}

impl LinkSpec {
    pub fn new(latency: LatencyModel, bandwidth_bps: u64) -> LinkSpec {
        LinkSpec {
            latency,
            bandwidth_bps,
        }
    }
}

/// Aggregate transfer statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    pub messages: u64,
    pub bytes: u64,
    pub total_delay: Duration,
}

/// Per-link settings, `from` → `to` → setting, so that a lookup borrows
/// both names and builds no key.
type PerLink<T> = HashMap<String, HashMap<String, T>>;

/// The simulated network.
pub struct Network {
    links: PerLink<LinkSpec>,
    default_link: LinkSpec,
    rng: Mutex<StdRng>,
    stats: Mutex<NetStats>,
    /// Per-link fault models, overriding the plan's model.
    fault_links: PerLink<FaultModel>,
    /// Seed component of every fault-identity hash. Kept separate from the
    /// latency RNG: fault evaluation never consumes latency randomness, so
    /// a fault-free plan leaves delay sequences byte-identical.
    fault_seed: u64,
    /// What the run injects: its model is every link's without an entry
    /// in `fault_links`, and the crash, the abort and the rollback-off
    /// switch are read from here.
    plan: FaultPlan,
    /// The only run-time state of crash injection: whether the planned
    /// crash has fired, and the high-water mark of step ordinals seen on
    /// the planned instance — lets a sweep driver detect it has stepped
    /// past the last real step.
    crash_tripped: AtomicBool,
    crash_steps_seen: AtomicU32,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("links", &self.links.len())
            .finish()
    }
}

impl Network {
    /// A network where every unspecified pair uses `default_link`.
    pub fn new(default_link: LinkSpec, seed: u64) -> Network {
        Network {
            links: HashMap::new(),
            default_link,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            stats: Mutex::new(NetStats::default()),
            fault_links: HashMap::new(),
            fault_seed: seed,
            plan: FaultPlan::NONE,
            crash_tripped: AtomicBool::new(false),
            crash_steps_seen: AtomicU32::new(0),
        }
    }

    /// Configure a directed link between two endpoints.
    pub fn set_link(&mut self, from: &str, to: &str, spec: LinkSpec) {
        let to_links = self.links.entry(from.to_string()).or_default();
        to_links.insert(to.to_string(), spec);
    }

    /// Configure the link in both directions.
    pub fn set_link_bidirectional(&mut self, a: &str, b: &str, spec: LinkSpec) {
        self.set_link(a, b, spec);
        self.set_link(b, a, spec);
    }

    fn link(&self, from: &str, to: &str) -> LinkSpec {
        let spec = self.links.get(from).and_then(|to_links| to_links.get(to));
        spec.copied().unwrap_or(self.default_link)
    }

    /// Set the fault model of a directed link, overriding the plan's.
    pub fn set_fault_model(&mut self, from: &str, to: &str, model: FaultModel) {
        let to_links = self.fault_links.entry(from.to_string()).or_default();
        to_links.insert(to.to_string(), model);
    }

    /// Whether any link of this network can fault. Callers use this to
    /// keep the happy path entirely outside the resilience machinery.
    pub fn has_faults(&self) -> bool {
        self.plan.model.is_active()
            || (self.fault_links.values())
                .flat_map(HashMap::values)
                .any(|m| m.is_active())
    }

    fn fault_model(&self, from: &str, to: &str) -> FaultModel {
        let model = self
            .fault_links
            .get(from)
            .and_then(|to_links| to_links.get(to));
        model.copied().unwrap_or(self.plan.model)
    }

    /// Decide the fate of one transfer leg of one attempt of operation
    /// `op`. Pure: derived entirely from the fault seed, the link, and the
    /// operation identity — never from RNG state or call order.
    pub fn fault_verdict(
        &self,
        from: &str,
        to: &str,
        op: &OpKey,
        attempt: u32,
        leg: u32,
    ) -> Verdict {
        let model = self.fault_model(from, to);
        if !model.is_active() {
            return Verdict::Deliver;
        }
        let link = fault::mix(fault::hash_str(from), fault::hash_str(to));
        let identity = fault::mix(self.fault_seed, fault::mix(link, op.leg(attempt, leg)));
        model.verdict(identity)
    }

    /// Give the network its run's plan; its model becomes the fault model
    /// of every link without one of its own.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// The plan of the run this network belongs to.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether the planned crash has fired: the system is dead.
    pub fn crash_tripped(&self) -> bool {
        self.crash_tripped.load(Ordering::SeqCst)
    }

    /// Materialization steps observed so far on the instance the crash
    /// plan targets.
    pub fn crash_steps_seen(&self) -> u32 {
        self.crash_steps_seen.load(Ordering::SeqCst)
    }

    /// Claim the next materialization-step ordinal of the instance running
    /// on this thread and report whether this run's crash or abort plan
    /// fires on it. `Pass` outside any scope, when nothing is planned, or
    /// when the scope belongs to an unplanned instance.
    pub fn step_point(&self) -> StepVerdict {
        let FaultPlan { crash, abort, .. } = self.plan;
        if crash.is_none() && abort.is_none() {
            return StepVerdict::Pass;
        }
        if self.crash_tripped() {
            // the system is already dead; fail every subsequent operation so
            // concurrent streams cannot keep materializing state
            return StepVerdict::Crash;
        }
        let aimed = |plan: Option<CrashPlan>, root: u64| plan.filter(|p| p.key == root);
        let planned = |root| aimed(crash, root).or(aimed(abort, root)).is_some();
        let Some((root, step)) = fault::claim_step(planned) else {
            return StepVerdict::Pass;
        };
        if let Some(plan) = aimed(crash, root) {
            self.crash_steps_seen.fetch_max(step + 1, Ordering::SeqCst);
            if step == plan.step {
                self.crash_tripped.store(true, Ordering::SeqCst);
                return StepVerdict::Crash;
            }
        }
        if aimed(abort, root).is_some_and(|p| p.step == step) {
            return StepVerdict::Abort;
        }
        StepVerdict::Pass
    }

    /// Model one message transfer of `bytes` from `from` to `to`; returns
    /// the delay charged to communication cost.
    pub fn transfer(&self, from: &str, to: &str, bytes: usize) -> Duration {
        let spec = self.link(from, to);
        let latency = spec.latency.sample(&mut self.rng.lock());
        let payload = if spec.bandwidth_bps == 0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(bytes as f64 / spec.bandwidth_bps as f64)
        };
        let delay = latency + payload;
        {
            let mut s = self.stats.lock();
            s.messages += 1;
            s.bytes += bytes as u64;
            s.total_delay += delay;
        }
        // The delay is a model quantity (nothing blocks), so it is
        // recorded as a modeled span rather than measured.
        dip_trace::record_modeled(
            dip_trace::Layer::Netsim,
            "transfer",
            Some(dip_trace::Category::Communication),
            delay,
        );
        dip_trace::count("netsim.messages", 1);
        dip_trace::count("netsim.bytes", bytes as u64);
        delay
    }

    pub fn stats(&self) -> NetStats {
        *self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        let default = LinkSpec::new(LatencyModel::Fixed { micros: 100 }, 1_000_000);
        Network::new(default, 7)
    }

    #[test]
    fn default_link_applies() {
        let n = net();
        // 100us latency + 1000 bytes at 1MB/s = 1000us
        let d = n.transfer("a", "b", 1000);
        assert_eq!(d, Duration::from_micros(1100));
    }

    #[test]
    fn specific_link_overrides() {
        let mut n = net();
        n.set_link(
            "a",
            "b",
            LinkSpec::new(LatencyModel::Fixed { micros: 5 }, 0),
        );
        assert_eq!(n.transfer("a", "b", 999), Duration::from_micros(5));
        // reverse direction still default
        assert_eq!(n.transfer("b", "a", 0), Duration::from_micros(100));
    }

    #[test]
    fn stats_accumulate() {
        let n = net();
        n.transfer("a", "b", 10);
        n.transfer("a", "b", 10);
        n.transfer("b", "a", 20);
        let s = n.stats();
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 40);
        assert!(s.total_delay > Duration::ZERO);
    }

    #[test]
    fn fault_verdicts_are_deterministic_per_link() {
        let mut n = net();
        n.set_plan(FaultPlan::drops(0.5));
        n.set_fault_model("a", "c", FaultModel::drops(0.0)); // overrides the plan's
        assert!(n.has_faults());
        let op = OpKey::synthetic(99);
        // a clean link never faults
        for attempt in 0..64 {
            assert_eq!(n.fault_verdict("a", "c", &op, attempt, 0), Verdict::Deliver);
        }
        // default link: the verdict is a pure function of identity
        let mut dropped = 0;
        for attempt in 0..64 {
            let v = n.fault_verdict("a", "b", &op, attempt, 0);
            assert_eq!(v, n.fault_verdict("a", "b", &op, attempt, 0));
            if v == Verdict::Drop {
                dropped += 1;
            }
        }
        assert!(dropped > 10, "half-rate drops should appear: {dropped}/64");
        // ...and evaluating verdicts never consumed latency randomness
        let clean = net();
        assert_eq!(n.transfer("a", "b", 0), clean.transfer("a", "b", 0));
    }

    /// A network whose plan kills P13 (period 0, seq 0) at `step`.
    fn crashing_at(step: u32) -> Network {
        let mut n = net();
        n.set_plan(FaultPlan {
            crash: Some(CrashPlan::at("P13", 0, 0, step)),
            ..FaultPlan::NONE
        });
        n
    }

    fn dies(n: &Network) -> bool {
        n.step_point() == StepVerdict::Crash
    }

    #[test]
    fn crash_fires_at_its_step_and_the_system_stays_dead() {
        let n = crashing_at(2);
        {
            let _g = fault::instance_scope("P13", 0, 0);
            assert!(!dies(&n), "step 0 survives");
            assert!(!dies(&n), "step 1 survives");
            assert!(dies(&n), "step 2 dies");
            assert!(n.crash_tripped());
            assert!(dies(&n), "system stays dead");
        }
        assert_eq!(n.crash_steps_seen(), 3);
        // the restarted system is another network, built without the plan
        assert!(!dies(&net()), "restarted system runs normally");
    }

    #[test]
    fn other_instances_never_consume_the_planned_instances_steps() {
        let n = crashing_at(0);
        {
            let _g = fault::instance_scope("P05", 0, 0);
            assert!(!dies(&n), "different instance is not the target");
        }
        assert!(!n.crash_tripped());
        assert_eq!(n.crash_steps_seen(), 0);
    }

    #[test]
    fn fork_branches_inherit_the_root_identity_and_stay_crashable() {
        let n = crashing_at(0);
        let _g = fault::instance_scope("P13", 0, 0);
        let snap = fault::snapshot().unwrap();
        let _b = fault::adopt(snap, 1);
        assert!(dies(&n), "branch op is step 0 of the root instance");
    }

    #[test]
    fn outside_any_scope_nothing_fires() {
        let n = crashing_at(0);
        assert!(!dies(&n));
        assert!(!n.crash_tripped());
    }

    /// Two networks in one process: each owns its plan and its trip.
    #[test]
    fn an_abort_fires_once_and_a_neighbour_network_sees_nothing() {
        let mut n = net();
        n.set_plan(FaultPlan {
            abort: Some(CrashPlan::at("P04", 0, 0, 1)),
            ..FaultPlan::NONE
        });
        let bystander = crashing_at(0);
        let _g = fault::instance_scope("P04", 0, 0);
        assert_eq!(n.step_point(), StepVerdict::Pass);
        assert_eq!(n.step_point(), StepVerdict::Abort);
        assert_eq!(n.step_point(), StepVerdict::Pass, "the system stays up");
        assert!(!n.crash_tripped() && !bystander.crash_tripped());
    }

    #[test]
    fn zero_bandwidth_means_latency_only() {
        let mut n = net();
        n.set_link(
            "x",
            "y",
            LinkSpec::new(LatencyModel::Fixed { micros: 42 }, 0),
        );
        assert_eq!(n.transfer("x", "y", 1_000_000), Duration::from_micros(42));
    }

    #[test]
    fn accounted_mode_does_not_block() {
        let spec = LinkSpec::new(LatencyModel::Fixed { micros: 50_000 }, 0);
        let n = Network::new(spec, 1);
        let t = std::time::Instant::now();
        let modeled = n.transfer("a", "b", 0);
        assert_eq!(modeled, Duration::from_millis(50));
        assert!(t.elapsed() < Duration::from_millis(20));
    }
}
