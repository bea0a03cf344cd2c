//! The dispatcher: one executor for every phase of a period.
//!
//! A phase of the schedule is a DAG of process instances ([`PeriodPlan`])
//! and [`run_pool`] drains it on `N` threads. The two orders the client
//! offers are two DAG builders, not two executors (`docs/SCHEDULER.md` is
//! the canonical description):
//!
//! * [`PeriodPlan::by_stream`] — the paper's order. Each stream is a
//!   serial chain; a *timed* event additionally waits for every
//!   virtually-earlier event of the other streams of the phase, message
//!   events flow without a cross-stream edge. A ∥ B at the default
//!   `workers = 1` (two threads, one per stream), and C and D as
//!   one-chain plans.
//! * [`PeriodPlan::concurrent_phase`] — `workers > 1`: independent
//!   process *instances* of A ∥ B run concurrently under a conflict DAG
//!   derived from each type's resource footprint.
//!
//! Same-seed runs are byte-identical under either builder at any thread
//! count, and it is the **DAG** that carries that, not the claim order:
//!
//! * **Virtual time.** Every event carries the logical timestamp
//!   `(deadline_tu, stream, index)`. Edges are defined against virtual
//!   time, never against wall-clock completion order, so the DAG is a
//!   pure function of the schedule.
//! * **Every conflicting pair is ordered.** Two tasks are unordered only
//!   if swapping them cannot change a byte (message series feeding
//!   distinct external systems under `by_stream`; compatible
//!   [`TypeProfile`]s under `concurrent_phase`). Which thread runs a
//!   task, and which of two ready tasks is claimed first, therefore
//!   never changes integrated data, fault verdicts (a pure hash of the
//!   instance's identity), dead letters or undo journals — the claim
//!   rule below is chosen for speed only.
//! * **Conflict DAG** (`concurrent_phase`). Each process *type* gets a
//!   statically derived [`TypeProfile`]: the external tables, databases
//!   and web services its step graph touches, each with an
//!   [`AccessKind`]. Two instances may run concurrently iff their types'
//!   profiles are compatible; instances of the same type always serialize
//!   (a message series is a serial sequence by the paper's stream
//!   definition). `InsertIgnore` staging loads from different catalogs
//!   (`Append`) commute — key-disjoint content, physical row order
//!   canonicalized by the CDB cleansing procedures — which is what lets
//!   the E1 message loaders and the cross-region extracts run in
//!   parallel; `docs/SCHEDULER.md` has the argument.
//!
//! Readiness is a set of per-ordinal done-counters (ordinal = process
//! type, or stream under `by_stream`). Tasks of one ordinal always
//! serialize, so only the earliest unclaimed task of each ordinal — its
//! *head* — can be ready: a claim looks at one head per ordinal, not at
//! every task. A thread first tries to continue the ordinal it just
//! completed and otherwise takes the virtually-earliest ready head.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::processes::catalog;
use crate::schedule::{is_message_process, ScheduledEvent, StreamId};
pub use dip_mtm::process::Resource;
use dip_mtm::process::{Access, LoadMode, ProcessDef, Step};
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::AssertUnwindSafe;

/// How a process type touches a shared resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// Observes content (queries, scans, web-service reads).
    Read,
    /// `InsertIgnore` load: content commutes with `Append`s of the same
    /// table from a *different* catalog (see module docs and
    /// `TypeProfile::catalog`).
    Append,
    /// Anything order-sensitive: plain inserts, upserts, deletes, stored
    /// procedures, web-service updates.
    Write,
}

impl AccessKind {
    /// Merge two accesses by the same type to one conservative kind.
    /// `Read`+`Append` escalates to `Write`, which has exactly the union
    /// of their conflict sets.
    fn merge(self, other: AccessKind) -> AccessKind {
        if self == other {
            self
        } else {
            AccessKind::Write
        }
    }
}

/// The statically derived resource footprint of one process type.
#[derive(Debug, Clone)]
pub struct TypeProfile {
    pub id: String,
    /// The staging key space this type's `Append`s draw on
    /// ([`catalog::ProcessInfo::staging`]; a type outside Table I has one
    /// of its own).
    catalog: String,
    accesses: BTreeMap<Resource, AccessKind>,
}

impl TypeProfile {
    /// Whether instances of `self` and `other` may interleave. Types with
    /// disjoint footprints (or only `Read`/`Read` overlaps, or
    /// `Append`/`Append` overlaps from different catalogs) are
    /// compatible.
    pub fn conflicts_with(&self, other: &TypeProfile) -> bool {
        self.accesses.iter().any(|(r, k)| {
            other.accesses.iter().any(|(s, l)| {
                r.overlaps(s)
                    && match (k, l) {
                        (AccessKind::Read, AccessKind::Read) => false,
                        (AccessKind::Append, AccessKind::Append) => self.catalog == other.catalog,
                        _ => true,
                    }
            })
        })
    }

    /// The derived accesses (inspection/tests).
    pub fn accesses(&self) -> impl Iterator<Item = (&Resource, AccessKind)> {
        self.accesses.iter().map(|(r, k)| (r, *k))
    }
}

/// Derive a process type's resource footprint from what its steps
/// declare they touch ([`Step::facts`]). Structured operators recurse into
/// every nested list (a `Switch` claims the union of its cases — which
/// case runs depends on message content, so the profile must cover all of
/// them).
pub fn derive_profile(def: &ProcessDef) -> TypeProfile {
    let mut accesses: BTreeMap<Resource, AccessKind> = BTreeMap::new();
    fn walk(steps: &[Step], accesses: &mut BTreeMap<Resource, AccessKind>) {
        for facts in steps.iter().map(Step::facts) {
            for (resource, access) in facts.touches {
                let kind = match access {
                    Access::Read => AccessKind::Read,
                    // first-wins InsertIgnore content commutes across types
                    // staging from different catalogs (module docs)
                    Access::Load(LoadMode::InsertIgnore) => AccessKind::Append,
                    Access::Load(LoadMode::Insert | LoadMode::Upsert) | Access::Write => {
                        AccessKind::Write
                    }
                };
                let merged = accesses.entry(resource).or_insert(kind);
                *merged = merged.merge(kind);
            }
            for list in facts.nested.iter().flat_map(|n| n.lists()) {
                walk(list, accesses);
            }
        }
    }
    walk(&def.steps, &mut accesses);
    let staging = catalog::process_type(&def.id).map_or(def.id.as_str(), |p| p.staging);
    TypeProfile {
        id: def.id.clone(),
        catalog: staging.to_string(),
        accesses,
    }
}

/// Profiles for a set of process definitions, keyed by id.
pub fn derive_profiles(defs: &[ProcessDef]) -> BTreeMap<String, TypeProfile> {
    defs.iter()
        .map(|d| (d.id.clone(), derive_profile(d)))
        .collect()
}

/// One schedulable instance of a phase.
#[derive(Debug)]
pub struct Task {
    /// Stream slot (A = 0 … D = 3).
    pub slot: usize,
    /// Index within the stream's event list.
    pub index: usize,
    pub process: &'static str,
    pub seq: u32,
    pub deadline_tu: f64,
    /// This task's ordinal in [`PeriodPlan::type_ids`].
    type_ord: usize,
    /// Readiness prerequisites: `(ordinal, completed instances
    /// required)` — the number of virtually-earlier instances of each
    /// ordinal this task is ordered after (its own included, which
    /// serializes the series).
    prereqs: Vec<(usize, usize)>,
}

/// What dispatching one task produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskOutcome {
    /// Not dispatched (crash upstream) — stays unsettled for recovery.
    Pending,
    /// Settled without a dispatch failure (includes replay-skipped tasks).
    Settled,
    /// Settled with a dispatch failure (the engine recorded the failed
    /// instance; the run continues).
    Failed(String),
    /// The injected crash killed this instance: its writes rolled back
    /// and it stays unsettled for recovery to replay.
    Crashed,
}

impl TaskOutcome {
    /// Whether the event's outcome is durable (never replayed).
    pub fn settled(&self) -> bool {
        matches!(self, TaskOutcome::Settled | TaskOutcome::Failed(_))
    }
}

/// One phase of a period, planned against virtual time.
pub struct PeriodPlan {
    /// Tasks in virtual-time order `(deadline_tu, slot, index)`.
    tasks: Vec<Task>,
    /// Ordinal names, indexed by `Task::type_ord`: process-type ids
    /// ([`PeriodPlan::concurrent_phase`]) or streams
    /// ([`PeriodPlan::by_stream`]).
    type_ids: Vec<String>,
    /// Per ordinal, its tasks' positions in `tasks` (ascending, so in
    /// virtual-time order).
    chains: Vec<Vec<usize>>,
}

impl PeriodPlan {
    /// The events of the streams in `slots`, as tasks in virtual-time
    /// order (deadline, then stream A before B, then schedule position).
    fn tasks_of(streams: &[(StreamId, Vec<ScheduledEvent>)], slots: Range<usize>) -> Vec<Task> {
        let mut tasks: Vec<Task> = Vec::new();
        for slot in slots {
            // index order must be deadline order: a stream is a chain
            debug_assert!(streams[slot]
                .1
                .is_sorted_by(|a, b| a.deadline_tu <= b.deadline_tu));
            for (index, event) in streams[slot].1.iter().enumerate() {
                tasks.push(Task {
                    slot,
                    index,
                    process: event.process,
                    seq: event.seq,
                    deadline_tu: event.deadline_tu,
                    type_ord: 0,
                    prereqs: Vec::new(),
                });
            }
        }
        tasks.sort_by(|a, b| {
            a.deadline_tu
                .total_cmp(&b.deadline_tu)
                .then(a.slot.cmp(&b.slot))
                .then(a.index.cmp(&b.index))
        });
        tasks
    }

    fn new(tasks: Vec<Task>, type_ids: Vec<String>) -> PeriodPlan {
        let mut chains = vec![Vec::new(); type_ids.len()];
        for (i, task) in tasks.iter().enumerate() {
            chains[task.type_ord].push(i);
        }
        PeriodPlan {
            tasks,
            type_ids,
            chains,
        }
    }

    /// The paper's order over the streams in `slots` (A ∥ B as `0..2`, a
    /// serialized stream as a one-slot range). Each stream is a chain —
    /// its events dispatch in schedule order — and a *timed* event
    /// (extract, consolidation, …) additionally waits until the other
    /// streams have completed everything virtually earlier (ties go to
    /// stream A). Message events get no cross-stream edge: each message
    /// series feeds a distinct external system, so cross-stream messages
    /// are conflict-free and leaving them unordered preserves the A ∥ B
    /// concurrency the benchmark prescribes. Without the timed edges,
    /// whether e.g. the P05 extract observes the P02 master-data updates
    /// (deadlines far earlier in the schedule) would depend on thread
    /// scheduling, and the integrated data would be nondeterministic.
    pub fn by_stream(
        streams: &[(StreamId, Vec<ScheduledEvent>)],
        slots: Range<usize>,
    ) -> PeriodPlan {
        let mut tasks = PeriodPlan::tasks_of(streams, slots.clone());
        // virtually-earlier events per stream, as the walk passes them
        let mut earlier = vec![0usize; slots.len()];
        for task in &mut tasks {
            let own = task.slot - slots.start;
            let timed = !is_message_process(task.process);
            task.type_ord = own;
            task.prereqs = (0..earlier.len())
                .filter(|&u| earlier[u] > 0 && (u == own || timed))
                .map(|u| (u, earlier[u]))
                .collect();
            earlier[own] += 1;
        }
        let names = streams[slots].iter().map(|(id, _)| format!("{id:?}"));
        PeriodPlan::new(tasks, names.collect())
    }

    /// The A ∥ B phase of a period as a conflict DAG over process
    /// instances (`workers > 1`).
    pub fn concurrent_phase(
        streams: &[(StreamId, Vec<ScheduledEvent>)],
        profiles: &BTreeMap<String, TypeProfile>,
    ) -> PeriodPlan {
        let mut tasks = PeriodPlan::tasks_of(streams, 0..2);
        let mut type_ids: Vec<String> = Vec::new();
        for task in &mut tasks {
            let ord = match type_ids.iter().position(|t| t == task.process) {
                Some(i) => i,
                None => {
                    type_ids.push(task.process.to_string());
                    type_ids.len() - 1
                }
            };
            task.type_ord = ord;
        }
        // type-level conflict matrix (same type always serializes)
        let n = type_ids.len();
        let mut conflict = vec![vec![false; n]; n];
        for (i, a) in type_ids.iter().enumerate() {
            for (j, b) in type_ids.iter().enumerate() {
                conflict[i][j] = i == j
                    || match (profiles.get(a), profiles.get(b)) {
                        (Some(pa), Some(pb)) => pa.conflicts_with(pb),
                        // unknown type: serialize against everything
                        _ => true,
                    };
            }
        }
        // prerequisites: instances of conflicting types that are earlier
        // in virtual time must all be done before this task starts
        let mut earlier = vec![0usize; n];
        for task in &mut tasks {
            let ty = task.type_ord;
            task.prereqs = (0..n)
                .filter(|&u| conflict[ty][u] && earlier[u] > 0)
                .map(|u| (u, earlier[u]))
                .collect();
            earlier[ty] += 1;
        }
        PeriodPlan::new(tasks, type_ids)
    }

    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    pub fn type_ids(&self) -> &[String] {
        &self.type_ids
    }
}

/// Result of draining one plan through the pool.
pub struct PoolRun {
    /// Per-task outcomes, parallel to [`PeriodPlan::tasks`].
    pub outcomes: Vec<TaskOutcome>,
    /// Whether an injected crash tripped during the phase.
    pub crashed: bool,
}

struct PoolState {
    /// Per ordinal: position in its chain of the earliest unclaimed task.
    head: Vec<usize>,
    outcomes: Vec<TaskOutcome>,
    /// Completed (settled) instances per ordinal.
    done: Vec<usize>,
    completed: usize,
    crashed: bool,
}

impl PoolState {
    /// Move `ord`'s head past the tasks a previous run already settled.
    fn pass_settled(&mut self, plan: &PeriodPlan, ord: usize) {
        while let Some(&i) = plan.chains[ord].get(self.head[ord]) {
            if self.outcomes[i] == TaskOutcome::Pending {
                break;
            }
            self.head[ord] += 1;
        }
    }

    /// The head of `ord`, if its prerequisites are met.
    fn ready_head(&self, plan: &PeriodPlan, ord: usize) -> Option<usize> {
        let i = *plan.chains[ord].get(self.head[ord])?;
        let ready = |&(u, c): &(usize, usize)| self.done[u] >= c;
        plan.tasks[i].prereqs.iter().all(ready).then_some(i)
    }

    /// The task a thread that last completed ordinal `last` runs next:
    /// that ordinal's head if it is ready — so a thread stays on its
    /// stream (or message series) instead of handing it to a sleeper that
    /// first has to wake while the series stalls — otherwise the
    /// virtually-earliest ready head.
    fn next_ready(&self, plan: &PeriodPlan, last: Option<usize>) -> Option<usize> {
        last.and_then(|ord| self.ready_head(plan, ord)).or_else(|| {
            (0..self.head.len())
                .filter_map(|ord| self.ready_head(plan, ord))
                .min()
        })
    }
}

/// Drain a plan with `workers` threads. `skip(slot, index)` marks events
/// a previous (crashed) run already settled: they complete instantly and
/// count toward the done-counters, so the DAG's readiness replays
/// exactly. Dispatching is the caller's
/// closure; it must be self-contained per calling thread (the engines
/// open their own fault scope and transaction per delivery).
///
/// An injected crash ([`TaskOutcome::Crashed`]) stops every thread after
/// its current task and leaves the rest `Pending`. A panic in `dispatch`
/// does the same and is re-raised on the caller once the threads have
/// stopped.
pub fn run_pool(
    plan: &PeriodPlan,
    workers: usize,
    skip: &(dyn Fn(usize, usize) -> bool + Sync),
    dispatch: &(dyn Fn(&Task) -> TaskOutcome + Sync),
) -> PoolRun {
    let n = plan.tasks.len();
    let ords = plan.type_ids.len();
    let mut state = PoolState {
        head: vec![0; ords],
        outcomes: vec![TaskOutcome::Pending; n],
        done: vec![0; ords],
        completed: 0,
        crashed: false,
    };
    for (i, task) in plan.tasks.iter().enumerate() {
        if skip(task.slot, task.index) {
            state.outcomes[i] = TaskOutcome::Settled;
            state.done[task.type_ord] += 1;
            state.completed += 1;
        }
    }
    for ord in 0..ords {
        state.pass_settled(plan, ord);
    }
    let state = Mutex::new(state);
    let ready = Condvar::new();
    // first panic of a dispatch, re-raised after the pool stops — the
    // panicked task never completes, so the other threads are released via
    // the crashed flag rather than left waiting on it
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let worker = || {
        let mut guard = state.lock();
        let mut last = None;
        loop {
            // a dead system dispatches nothing: leave the remaining tasks
            // unsettled for recovery to replay
            if guard.crashed || guard.completed == n {
                ready.notify_all();
                return;
            }
            let Some(i) = guard.next_ready(plan, last) else {
                // everything unclaimed is blocked on tasks in flight
                ready.wait(&mut guard);
                continue;
            };
            let task = &plan.tasks[i];
            guard.head[task.type_ord] += 1;
            guard.pass_settled(plan, task.type_ord);
            // a sleeper is woken only for a task this thread leaves behind
            if guard.next_ready(plan, None).is_some() {
                ready.notify_one();
            }
            drop(guard);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| dispatch(task)));
            guard = state.lock();
            match outcome {
                Ok(outcome) => {
                    if outcome.settled() {
                        guard.done[task.type_ord] += 1;
                    }
                    guard.crashed |= outcome == TaskOutcome::Crashed;
                    guard.outcomes[i] = outcome;
                    guard.completed += 1;
                    last = Some(task.type_ord);
                }
                Err(payload) => {
                    guard.crashed = true;
                    panicked.lock().get_or_insert(payload);
                }
            }
        }
    };
    // A one-thread phase runs on the caller. A wider one gets threads of
    // its own while the caller waits: with the caller as one of them, what
    // stream A leaves on its allocator arena made the caller's next
    // `initialize_sources` ≈ 0.3 ms slower per `fed_d05` period
    // (docs/PERFORMANCE.md, "One dispatcher").
    if workers <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker);
            }
        });
    }
    if let Some(payload) = panicked.into_inner() {
        std::panic::resume_unwind(payload);
    }

    let state = state.into_inner();
    PoolRun {
        crashed: state.crashed,
        outcomes: state.outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processes;
    use crate::schedule;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn profiles() -> BTreeMap<String, TypeProfile> {
        derive_profiles(&processes::all_processes())
    }

    #[test]
    fn cross_region_extracts_are_pairwise_compatible() {
        // extracts staging from disjoint catalogs (Europe vs Asia vs
        // America) only Read disjoint sources and Append key-disjoint
        // rows, so they parallelize
        let p = profiles();
        for (a, b) in [("P05", "P09"), ("P05", "P11"), ("P09", "P11")] {
            assert!(
                !p[a].conflicts_with(&p[b]),
                "{a} should be compatible with {b}"
            );
        }
    }

    #[test]
    fn shared_catalog_extracts_serialize() {
        // Berlin, Paris and Trondheim replicate one European product
        // catalog (`datagen::keys::PROD_EUROPE`): their staged product
        // rows collide on primary keys and first-wins depends on load
        // order, so the three European extracts must not interleave
        let p = profiles();
        for (a, b) in [("P05", "P06"), ("P05", "P07"), ("P06", "P07")] {
            assert!(p[a].conflicts_with(&p[b]), "{a} must conflict with {b}");
        }
    }

    #[test]
    fn group_a_chains_are_pairwise_compatible() {
        let p = profiles();
        for (a, b) in [("P01", "P02"), ("P01", "P03"), ("P02", "P03")] {
            assert!(!p[a].conflicts_with(&p[b]), "{a} vs {b}");
        }
    }

    #[test]
    fn declared_serializations_stay_conflicts() {
        let p = profiles();
        // C-group cleansing stages share the CDB; D-group loaders and
        // refreshes share the marts; extracts read what A writes
        for (a, b) in [
            ("P12", "P13"),
            ("P14", "P15"),
            ("P02", "P05"),
            ("P02", "P07"),
            ("P01", "P09"),
            ("P03", "P11"),
        ] {
            assert!(p[a].conflicts_with(&p[b]), "{a} must conflict with {b}");
        }
    }

    #[test]
    fn message_loaders_append_commute() {
        // the three E1 order-message types all InsertIgnore into the same
        // two staging tables — Append/Append, no conflict
        let p = profiles();
        for (a, b) in [("P04", "P08"), ("P04", "P10"), ("P08", "P10")] {
            assert!(!p[a].conflicts_with(&p[b]), "{a} vs {b}");
        }
    }

    /// Every type's staging catalog and sorted footprint, then the
    /// conflict matrix: the conflict DAG of `--workers N` is a function of
    /// exactly this, so a refactoring of how profiles are derived must
    /// reproduce the file byte for byte (written at PR 22's parent).
    #[test]
    fn profiles_and_conflicts_match_the_pr22_fixture() {
        let p = profiles();
        let mut out = String::new();
        for (id, profile) in &p {
            out += &format!("{id} catalog={}\n", profile.catalog);
            for (resource, kind) in profile.accesses() {
                out += &format!("  {resource:?} {kind:?}\n");
            }
        }
        for (a, pa) in &p {
            let row = p.values().map(|pb| u8::from(pa.conflicts_with(pb)));
            let row: Vec<String> = row.map(|c| c.to_string()).collect();
            out += &format!("{a} {}\n", row.join(" "));
        }
        assert_eq!(
            out,
            include_str!("../../../tests/fixtures/profiles_pr22.txt")
        );
    }

    fn plan_for(k: u32, d: f64) -> PeriodPlan {
        let streams = schedule::period_streams(k, d);
        PeriodPlan::concurrent_phase(&streams, &profiles())
    }

    #[test]
    fn plan_orders_tasks_by_virtual_time() {
        let plan = plan_for(0, 0.02);
        assert!(!plan.tasks().is_empty());
        for pair in plan.tasks().windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                (a.deadline_tu, a.slot, a.index) <= (b.deadline_tu, b.slot, b.index),
                "tasks out of virtual-time order"
            );
        }
    }

    #[test]
    fn prereqs_reference_only_earlier_virtual_time() {
        let plan = plan_for(0, 0.02);
        let mut earlier = vec![0usize; plan.type_ids().len()];
        for task in plan.tasks() {
            for &(u, c) in &task.prereqs {
                assert!(
                    c <= earlier[u],
                    "{}: requires {c} of {} but only {} are earlier",
                    task.process,
                    plan.type_ids()[u],
                    earlier[u]
                );
            }
            earlier[task.type_ord] += 1;
        }
    }

    /// The pool must drain every task exactly once, and same-type tasks
    /// must complete in schedule order, at any worker count.
    #[test]
    fn pool_drains_every_task_once_in_series_order() {
        let plan = plan_for(0, 0.02);
        for workers in [1, 2, 4, 8] {
            let log: Mutex<Vec<(&'static str, u32)>> = Mutex::new(Vec::new());
            let run = run_pool(&plan, workers, &|_, _| false, &|task| {
                log.lock().push((task.process, task.seq));
                TaskOutcome::Settled
            });
            assert!(!run.crashed);
            assert_eq!(run.outcomes.len(), plan.tasks().len());
            assert!(run.outcomes.iter().all(|o| *o == TaskOutcome::Settled));
            let log = log.into_inner();
            assert_eq!(log.len(), plan.tasks().len());
            for ty in plan.type_ids() {
                let seqs: Vec<u32> = log
                    .iter()
                    .filter(|(p, _)| p == ty)
                    .map(|(_, s)| *s)
                    .collect();
                let mut sorted = seqs.clone();
                sorted.sort_unstable();
                assert_eq!(seqs, sorted, "{ty} instances ran out of series order");
            }
        }
    }

    /// Replay-skipped tasks satisfy prerequisites without dispatching.
    #[test]
    fn skipped_tasks_count_toward_readiness() {
        let plan = plan_for(0, 0.02);
        let cut = plan.tasks().len() / 2;
        let skipped: Vec<(usize, usize)> = plan.tasks()[..cut]
            .iter()
            .map(|t| (t.slot, t.index))
            .collect();
        let dispatched = AtomicUsize::new(0);
        let run = run_pool(
            &plan,
            4,
            &|slot, index| skipped.contains(&(slot, index)),
            &|_| {
                dispatched.fetch_add(1, Ordering::SeqCst);
                TaskOutcome::Settled
            },
        );
        assert!(!run.crashed);
        assert_eq!(dispatched.load(Ordering::SeqCst), plan.tasks().len() - cut);
        assert!(run.outcomes.iter().all(|o| o.settled()));
    }

    /// A crashed dispatch stops the pool: later tasks stay `Pending`
    /// (unsettled), and independently-earlier completions are kept.
    #[test]
    fn crash_leaves_downstream_pending() {
        let plan = plan_for(0, 0.02);
        let crash_at = plan.tasks().len() / 3;
        let run = run_pool(&plan, 2, &|_, _| false, &|task| {
            let pos = plan
                .tasks()
                .iter()
                .position(|t| (t.slot, t.index) == (task.slot, task.index))
                .unwrap();
            if pos == crash_at {
                TaskOutcome::Crashed
            } else {
                TaskOutcome::Settled
            }
        });
        assert!(run.crashed);
        assert_eq!(run.outcomes[crash_at], TaskOutcome::Crashed);
        assert!(run.outcomes.contains(&TaskOutcome::Pending));
        let settled = run.outcomes.iter().filter(|o| o.settled()).count();
        assert!(settled < plan.tasks().len() - 1);
    }

    /// Failures settle the event (dead-letter semantics): downstream
    /// tasks still run.
    #[test]
    fn failures_do_not_block_the_dag() {
        let plan = plan_for(0, 0.02);
        let run = run_pool(&plan, 4, &|_, _| false, &|task| {
            if task.process == "P04" {
                TaskOutcome::Failed("injected".into())
            } else {
                TaskOutcome::Settled
            }
        });
        assert!(!run.crashed);
        assert!(run.outcomes.iter().all(|o| o.settled()));
        assert!(run
            .outcomes
            .iter()
            .any(|o| matches!(o, TaskOutcome::Failed(_))));
    }

    /// `by_stream` must state exactly the rule the classic two-thread
    /// client enforced with a condvar gate, written out here independently
    /// of the builder: an event waits for its own stream's earlier events;
    /// a timed event also waits for every sibling event with a smaller
    /// `(deadline, slot, index)`; a message event waits for nothing else.
    #[test]
    fn by_stream_prerequisites_are_the_gate_rule() {
        for k in [0, 50, 99] {
            for d in [0.02, 0.05, 0.2, 0.5] {
                let streams = schedule::period_streams(k, d);
                let plan = PeriodPlan::by_stream(&streams, 0..2);
                assert_eq!(plan.type_ids(), ["A", "B"]);
                assert_eq!(
                    plan.tasks().len(),
                    streams[0].1.len() + streams[1].1.len(),
                    "k={k} d={d}"
                );
                for task in plan.tasks() {
                    let sibling = 1 - task.slot;
                    let mut expected = Vec::new();
                    if task.index > 0 {
                        expected.push((task.slot, task.index));
                    }
                    if !is_message_process(task.process) {
                        let earlier = streams[sibling]
                            .1
                            .iter()
                            .filter(|e| {
                                e.deadline_tu < task.deadline_tu
                                    || (e.deadline_tu == task.deadline_tu && sibling < task.slot)
                            })
                            .count();
                        if earlier > 0 {
                            expected.push((sibling, earlier));
                        }
                    }
                    expected.sort_unstable();
                    let mut got = task.prereqs.clone();
                    got.sort_unstable();
                    assert_eq!(
                        got, expected,
                        "k={k} d={d}: {} #{} of stream {}",
                        task.process, task.index, task.slot
                    );
                }
                // a serialized stream is the chain alone
                let c = PeriodPlan::by_stream(&streams, 2..3);
                for task in c.tasks() {
                    assert_eq!(task.slot, 2);
                    let chain: Vec<_> = (task.index > 0)
                        .then_some((0, task.index))
                        .into_iter()
                        .collect();
                    assert_eq!(task.prereqs, chain);
                }
            }
        }
    }

    /// Drained by 1, 2 or 4 threads, a `by_stream` plan dispatches each
    /// stream in index order, and a timed event never starts before the
    /// sibling's virtually-earlier events completed.
    #[test]
    fn by_stream_plan_dispatches_each_stream_in_order() {
        let streams = schedule::period_streams(0, 0.05);
        let plan = PeriodPlan::by_stream(&streams, 0..2);
        for workers in [1, 2, 4] {
            let started: Mutex<[Vec<usize>; 2]> = Mutex::new(Default::default());
            let finished = [AtomicUsize::new(0), AtomicUsize::new(0)];
            let run = run_pool(&plan, workers, &|_, _| false, &|task| {
                started.lock()[task.slot].push(task.index);
                for &(ord, count) in &task.prereqs {
                    assert!(
                        finished[ord].load(Ordering::SeqCst) >= count,
                        "{} #{} started before its prerequisites finished",
                        task.process,
                        task.index
                    );
                }
                std::thread::yield_now();
                finished[task.slot].fetch_add(1, Ordering::SeqCst);
                TaskOutcome::Settled
            });
            assert!(run.outcomes.iter().all(|o| *o == TaskOutcome::Settled));
            for (slot, order) in started.into_inner().iter().enumerate() {
                let in_order: Vec<usize> = (0..streams[slot].1.len()).collect();
                assert_eq!(order, &in_order, "stream {slot} at {workers} threads");
            }
        }
    }

    /// The claim rule: a thread continues the ordinal it just completed
    /// when that head is ready, and otherwise takes the virtually-earliest
    /// ready head. (Without the preference the thread that ran stream B
    /// takes the newly ready P03 and B's chain stalls on a wake-up —
    /// docs/SCHEDULER.md, "The claim rule".)
    #[test]
    fn claim_prefers_the_ordinal_just_completed() {
        let streams = schedule::period_streams(0, 0.05);
        let plan = PeriodPlan::by_stream(&streams, 0..2);
        let state = PoolState {
            head: vec![0, 0],
            outcomes: vec![TaskOutcome::Pending; plan.tasks().len()],
            done: vec![0, 0],
            completed: 0,
            crashed: false,
        };
        // both streams open with a message at deadline 0: A's is earlier
        let first = |slot| {
            plan.tasks()
                .iter()
                .position(|t| t.slot == slot && t.index == 0)
        };
        assert_eq!(state.next_ready(&plan, None), first(0));
        assert_eq!(state.next_ready(&plan, Some(0)), first(0));
        assert_eq!(state.next_ready(&plan, Some(1)), first(1));
        // a preferred head that is not ready falls back to virtual time:
        // with stream A down to P03 (timed, waits for B), B's head is next
        let p03 = streams[0].1.len() - 1;
        let blocked = PoolState {
            head: vec![p03, 0],
            done: vec![p03, 0],
            ..state
        };
        assert_eq!(blocked.next_ready(&plan, Some(0)), first(1));
    }

    /// A worker panic mid-dispatch must not deadlock the pool and must
    /// resurface on the caller.
    #[test]
    fn worker_panic_propagates() {
        let plan = plan_for(0, 0.02);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pool(&plan, 4, &|_, _| false, &|task| {
                if task.seq == 1 && task.process == "P02" {
                    panic!("boom");
                }
                TaskOutcome::Settled
            })
        }));
        assert!(result.is_err(), "worker panic was swallowed");
    }
}
