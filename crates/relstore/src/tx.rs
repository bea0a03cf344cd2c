//! Undo-log write transactions: instance-level atomicity for the store.
//!
//! The paper's reference implementation runs every process instance inside
//! a federated-DBMS procedure, making it implicitly atomic — a failed
//! instance leaves no partial state behind. This module gives the
//! reproduction the same guarantee: [`begin`] opens a [`TxScope`] on the
//! current thread, and every mutation of a catalog-owned [`Table`] while
//! the scope is active appends a *physical undo record* to that table's
//! journal. `commit()` discards (or, for a nested scope, merges) the
//! records; dropping the scope without committing rolls every touched
//! table back to its pre-transaction state. Rows, slots, indexes, the live
//! count and the change-capture log are all restored byte-identically.
//!
//! Scopes are thread-local and nest: an inner scope (e.g. a materialized
//! view refresh guarding its own drain-and-apply) merges its undo records
//! into the enclosing transaction on commit, so an outer rollback still
//! undoes the inner work. Cross-thread branches (FORK steps, per-mart
//! loader threads) join the parent transaction via [`handle`]/[`adopt`].
//!
//! A scope opened with [`begin_leaking`] turns its rollback — and that of
//! every scope nested in it or adopted from it — into a no-op discard; the
//! crash-recovery CI gate uses it to prove that the byte-identity check
//! actually depends on rollback.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::table::Table;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

static NEXT_TX_ID: AtomicU64 = AtomicU64::new(1);

/// The shared core of one transaction: its id and the set of tables that
/// hold undo records for it. Tables register themselves on first touch.
pub struct TxShared {
    id: u64,
    tables: Mutex<Vec<Weak<Table>>>,
    /// Rollback discards the undo log instead of applying it
    /// ([`begin_leaking`]).
    leak: bool,
}

impl TxShared {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn register(&self, table: Weak<Table>) {
        self.tables.lock().push(table);
    }
}

thread_local! {
    static ACTIVE: RefCell<Vec<Arc<TxShared>>> = const { RefCell::new(Vec::new()) };
}

/// Open a transaction scope on this thread. Dropping the scope without
/// calling [`TxScope::commit`] rolls back — the RAII shape that makes
/// `?`-propagated errors atomic for free.
pub fn begin() -> TxScope {
    begin_leaking(false)
}

/// [`begin`] with the crash gate's "teeth" switch: when `leak` is set, or
/// the enclosing transaction leaks, a rollback silently discards the undo
/// log instead of applying it, so partial writes of a failed instance
/// survive. The switch belongs to the transaction, not the process: a
/// scope on a neighbouring thread rolls back as ever, and branches that
/// [`adopt`] this one journal into it and share its fate.
pub fn begin_leaking(leak: bool) -> TxScope {
    let parent = current();
    let shared = Arc::new(TxShared {
        id: NEXT_TX_ID.fetch_add(1, Ordering::Relaxed),
        tables: Mutex::new(Vec::new()),
        leak: leak || parent.as_ref().is_some_and(|p| p.leak),
    });
    ACTIVE.with(|a| a.borrow_mut().push(shared.clone()));
    dip_trace::count("tx.begin", 1);
    TxScope {
        shared,
        parent,
        done: false,
    }
}

/// The innermost transaction active on this thread, if any. Table mutators
/// journal their undo records against it.
pub(crate) fn current() -> Option<Arc<TxShared>> {
    ACTIVE.with(|a| a.borrow().last().cloned())
}

/// Whether any transaction is active on this thread — a cheap pre-check
/// before cloning state for the journal.
pub(crate) fn active() -> bool {
    ACTIVE.with(|a| !a.borrow().is_empty())
}

/// A cloneable reference to the innermost active transaction, for crossing
/// a thread boundary (forked branches do not inherit thread-locals).
#[derive(Clone)]
pub struct TxHandle {
    shared: Arc<TxShared>,
}

/// Snapshot the current transaction for a child thread; `None` outside any
/// scope.
pub fn handle() -> Option<TxHandle> {
    current().map(|shared| TxHandle { shared })
}

/// Join a snapshotted transaction on this thread: mutations journal into
/// the parent's undo log until the returned guard drops.
pub fn adopt(h: &TxHandle) -> TxAdoption {
    ACTIVE.with(|a| a.borrow_mut().push(h.shared.clone()));
    TxAdoption {
        shared: h.shared.clone(),
    }
}

/// Guard for an adopted transaction; detaches this thread on drop without
/// committing or rolling back (the owning scope decides).
pub struct TxAdoption {
    shared: Arc<TxShared>,
}

impl Drop for TxAdoption {
    fn drop(&mut self) {
        pop_shared(&self.shared);
    }
}

fn pop_shared(shared: &Arc<TxShared>) {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        if let Some(pos) = a.iter().rposition(|s| Arc::ptr_eq(s, shared)) {
            a.remove(pos);
        }
    });
}

/// An open transaction. Commit is a no-op on the data (the store mutates
/// in place); rollback restores the pre-transaction state of every touched
/// table.
pub struct TxScope {
    shared: Arc<TxShared>,
    parent: Option<Arc<TxShared>>,
    done: bool,
}

impl TxScope {
    /// Keep the transaction's effects. A top-level commit discards the undo
    /// records; a nested commit merges them into the enclosing transaction
    /// so an outer rollback still undoes this work.
    pub fn commit(mut self) {
        self.done = true;
        pop_shared(&self.shared);
        let tables = std::mem::take(&mut *self.shared.tables.lock());
        for t in tables {
            let Some(t) = t.upgrade() else { continue };
            match &self.parent {
                None => t.tx_discard(self.shared.id),
                Some(p) => t.tx_merge(self.shared.id, p),
            }
        }
        dip_trace::count("tx.commit", 1);
    }

    /// Explicitly undo the transaction (dropping the scope does the same).
    pub fn rollback(mut self) {
        self.done = true;
        pop_shared(&self.shared);
        do_rollback(&self.shared);
    }

    /// The transaction id (diagnostics and tests).
    pub fn id(&self) -> u64 {
        self.shared.id
    }
}

impl Drop for TxScope {
    fn drop(&mut self) {
        if !self.done {
            pop_shared(&self.shared);
            do_rollback(&self.shared);
        }
    }
}

fn do_rollback(shared: &TxShared) {
    let tables = std::mem::take(&mut *shared.tables.lock());
    if shared.leak {
        for t in tables {
            if let Some(t) = t.upgrade() {
                t.tx_discard(shared.id);
            }
        }
        dip_trace::count("tx.rollback_disabled", 1);
        return;
    }
    let mut records = 0u64;
    for t in tables {
        if let Some(t) = t.upgrade() {
            records += t.tx_rollback(shared.id);
        }
    }
    dip_trace::count("tx.rollback", 1);
    dip_trace::count("tx.rollback.records", records);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::schema::RelSchema;
    use crate::value::{SqlType, Value};

    fn table() -> Arc<Table> {
        let schema = RelSchema::of(&[("id", SqlType::Int), ("city", SqlType::Str)]).shared();
        Table::new("t", schema)
            .with_primary_key(&["id"])
            .unwrap()
            .with_index("by_city", &["city"])
            .unwrap()
            .into_shared()
    }

    fn row(i: i64, c: &str) -> Vec<Value> {
        vec![Value::Int(i), Value::str(c)]
    }

    #[test]
    fn rollback_restores_insert() {
        let t = table();
        t.insert(vec![row(1, "Berlin")]).unwrap();
        let before = t.state_dump();
        let tx = begin();
        t.insert(vec![row(2, "Paris"), row(3, "Rome")]).unwrap();
        assert_eq!(t.row_count(), 3);
        drop(tx);
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.state_dump(), before);
        // the rolled-back keys are reusable: indexes were cleaned up
        t.insert(vec![row(2, "Paris")]).unwrap();
    }

    #[test]
    fn commit_keeps_effects() {
        let t = table();
        let tx = begin();
        t.insert(vec![row(1, "Berlin")]).unwrap();
        tx.commit();
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn rollback_restores_delete_update_upsert() {
        let t = table();
        t.insert((1..=6).map(|i| row(i, "x")).collect::<Vec<_>>())
            .unwrap();
        let before = t.state_dump();
        let tx = begin();
        t.delete_where(&Expr::col(0).le(Expr::lit(2))).unwrap();
        t.update_where(&Expr::col(0).eq(Expr::lit(3)), &[(1, Expr::lit("y"))])
            .unwrap();
        t.upsert(vec![row(4, "z"), row(9, "new")]).unwrap();
        drop(tx);
        assert_eq!(t.state_dump(), before);
    }

    #[test]
    fn rollback_restores_full_wipe_and_truncate() {
        let t = table();
        t.insert((1..=4).map(|i| row(i, "x")).collect::<Vec<_>>())
            .unwrap();
        let before = t.state_dump();
        {
            let _tx = begin();
            // full-wipe fast path: predicate matches everything
            t.delete_where(&Expr::col(0).ge(Expr::lit(0))).unwrap();
            assert_eq!(t.row_count(), 0);
        }
        assert_eq!(t.state_dump(), before);
        {
            let _tx = begin();
            t.truncate();
        }
        assert_eq!(t.state_dump(), before);
    }

    #[test]
    fn partial_insert_ignore_is_undone() {
        let schema = RelSchema::of(&[("id", SqlType::Int)]).shared();
        let t = Table::new("n", schema)
            .with_primary_key(&["id"])
            .unwrap()
            .into_shared();
        let before = t.state_dump();
        let tx = begin();
        // second row violates NOT NULL via schema? use duplicate-free rows
        t.insert_ignore_duplicates(vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        drop(tx);
        assert_eq!(t.state_dump(), before);
    }

    #[test]
    fn change_capture_log_is_restored() {
        let schema = RelSchema::of(&[("id", SqlType::Int)]).shared();
        let t = Table::new("c", schema)
            .with_primary_key(&["id"])
            .unwrap()
            .with_change_capture()
            .into_shared();
        t.insert(vec![vec![Value::Int(1)]]).unwrap();
        let before = t.state_dump();
        let tx = begin();
        t.insert(vec![vec![Value::Int(2)]]).unwrap();
        let drained = t.drain_changes();
        assert_eq!(drained.len(), 2);
        drop(tx);
        // the pending change log is back, including the pre-tx entry
        assert_eq!(t.state_dump(), before);
        assert_eq!(t.drain_changes().len(), 1);
    }

    #[test]
    fn nested_commit_merges_into_parent() {
        let t = table();
        let before = t.state_dump();
        let outer = begin();
        t.insert(vec![row(1, "a")]).unwrap();
        let inner = begin();
        t.insert(vec![row(2, "b")]).unwrap();
        inner.commit();
        assert_eq!(t.row_count(), 2);
        drop(outer);
        // outer rollback undoes the inner committed work too
        assert_eq!(t.state_dump(), before);
    }

    #[test]
    fn adopted_thread_joins_parent_tx() {
        let t = table();
        let before = t.state_dump();
        let outer = begin();
        let h = handle().unwrap();
        let t2 = t.clone();
        std::thread::spawn(move || {
            let _g = adopt(&h);
            t2.insert(vec![row(7, "forked")]).unwrap();
        })
        .join()
        .unwrap();
        assert_eq!(t.row_count(), 1);
        drop(outer);
        assert_eq!(t.state_dump(), before);
    }

    /// Seeded-interleaving contention on the handle()/adopt() handoff:
    /// several threads adopt the same parent transaction and mutate one
    /// shared table concurrently, with per-thread seeded yield points
    /// perturbing the interleaving. Whatever order the undo journal
    /// accumulated in, rollback must restore the byte-exact pre-tx state,
    /// and a commit must keep every thread's writes.
    #[test]
    fn adopted_contention_rolls_back_and_commits_exactly() {
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let run = |seed: u64, commit: bool| {
            let t = table();
            t.insert((0..8).map(|i| row(i, "base")).collect::<Vec<_>>())
                .unwrap();
            let before = t.state_dump();
            let outer = begin();
            std::thread::scope(|scope| {
                for worker in 0..4u64 {
                    let h = handle().unwrap();
                    let t = t.clone();
                    scope.spawn(move || {
                        let _g = adopt(&h);
                        // disjoint key range per thread; ops and yield
                        // points drawn from the per-thread seed
                        let base = 100 + 20 * worker as i64;
                        for op in 0..12u64 {
                            let r = mix(seed ^ (worker << 32) ^ op);
                            for _ in 0..r % 4 {
                                std::thread::yield_now();
                            }
                            let key = base + (r % 20) as i64;
                            match r % 3 {
                                0 => drop(t.insert_ignore_duplicates(vec![row(key, "ins")])),
                                1 => drop(t.upsert(vec![row(key, "ups")])),
                                _ => drop(t.delete_where(&Expr::col(0).eq(Expr::lit(key)))),
                            }
                        }
                        // every thread also touches the shared pre-tx rows
                        t.update_where(
                            &Expr::col(0).eq(Expr::lit(worker as i64)),
                            &[(1, Expr::lit("touched"))],
                        )
                        .unwrap();
                    });
                }
            });
            if commit {
                outer.commit();
                for worker in 0..4i64 {
                    let r = t.get_by_pk(&[Value::Int(worker)]).unwrap();
                    assert_eq!(r[1], Value::str("touched"), "committed update lost");
                }
            } else {
                drop(outer);
                assert_eq!(
                    t.state_dump(),
                    before,
                    "seed {seed}: contended rollback diverged from the pre-tx state"
                );
            }
        };
        for seed in [1, 2, 0xD1B] {
            run(seed, false);
            run(seed, true);
        }
    }

    /// The teeth switch is the transaction's: a leaking scope discards —
    /// its nested scope and its adopted branch with it — while a sibling
    /// scope open on another thread at the same time still rolls back.
    #[test]
    fn leaking_scope_discards_while_a_concurrent_sibling_rolls_back() {
        let (leaky, sound) = (table(), table());
        // both scopes are open before either ends
        let both_open = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let tx = begin_leaking(true);
                leaky.insert(vec![row(1, "kept")]).unwrap();
                let nested = begin();
                leaky.insert(vec![row(2, "nested")]).unwrap();
                drop(nested);
                let h = handle().unwrap();
                std::thread::scope(|b| {
                    b.spawn(|| {
                        let _g = adopt(&h);
                        leaky.insert(vec![row(3, "branch")]).unwrap();
                    });
                });
                both_open.wait();
                drop(tx);
            });
            s.spawn(|| {
                let tx = begin();
                sound.insert(vec![row(1, "undone")]).unwrap();
                both_open.wait();
                drop(tx);
            });
        });
        assert_eq!(leaky.row_count(), 3, "a leaking scope keeps partial writes");
        assert_eq!(leaky.undo_footprint(), 0, "and discards its journal");
        assert_eq!(sound.row_count(), 0, "the sibling rolled back");
    }

    #[test]
    fn mutations_outside_any_tx_journal_nothing() {
        let t = table();
        t.insert(vec![row(1, "a")]).unwrap();
        assert_eq!(t.undo_footprint(), 0);
        let tx = begin();
        t.insert(vec![row(2, "b")]).unwrap();
        assert_eq!(t.undo_footprint(), 1);
        tx.commit();
        assert_eq!(t.undo_footprint(), 0, "commit discards the journal");
    }
}
