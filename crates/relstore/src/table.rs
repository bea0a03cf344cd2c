//! Heap tables with slot storage, primary/secondary indexes and change
//! capture.
//!
//! A [`Table`] owns its rows in a slotted vector (`Vec<Option<Row>>`); a
//! deleted row leaves a tombstone so slot numbers — which indexes reference —
//! stay stable. Tables are internally synchronized with a `parking_lot`
//! `RwLock`, so a shared `Arc<Table>` can be used from concurrent benchmark
//! streams.
//!
//! Triggers are *stored* here but *fired* by [`crate::catalog::Database`],
//! because a trigger body usually writes other tables and therefore needs
//! the whole database handle.
//!
//! Every mutator records an uncategorized `relstore/<op>` span (`insert`,
//! `upsert`, `delete`, `update`, `truncate`): the caller's enclosing span
//! knows the cost category, this one books the self time to the store.

use crate::error::{StoreError, StoreResult};
use crate::expr::Expr;
use crate::index::{key_of, Index, IndexKind};
use crate::row::{Relation, Row};
use crate::schema::SchemaRef;
use crate::tx::TxShared;
use crate::value::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};

/// A captured mutation, consumed by incremental materialized-view refresh.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    Insert(Row),
    Delete(Row),
}

/// One physical undo step of an open transaction (see [`crate::tx`]).
/// Records are applied in reverse order on rollback.
#[derive(Debug)]
enum UndoOp {
    /// Rows were appended contiguously at the tail.
    Appended { first_slot: usize, count: usize },
    /// A row was replaced in place (upsert hit, update).
    Replaced { slot: usize, old: Row },
    /// A row was tombstoned (per-victim delete).
    Deleted { slot: usize, old: Row },
    /// The whole slot vector was wiped (full-wipe delete or truncate);
    /// `restore_changes` carries the change log when the wipe cleared it.
    Wiped {
        slots: Vec<Option<Row>>,
        live: usize,
        restore_changes: Option<Vec<Change>>,
    },
    /// The change-capture log was drained (mview refresh).
    Drained { changes: Vec<Change> },
}

#[derive(Debug)]
struct UndoRecord {
    /// Change-log length before this op, for capture tables: rollback
    /// truncates the log back to it after undoing the data mutation.
    changes_len: Option<usize>,
    op: UndoOp,
}

#[derive(Debug, Default)]
struct TableInner {
    slots: Vec<Option<Row>>,
    live: usize,
    primary: Option<Index>,
    secondary: Vec<Index>,
    capture: bool,
    changes: Vec<Change>,
    /// Monotonic counter bumped on every mutation batch.
    generation: u64,
    /// Per-transaction undo journals, keyed by transaction id.
    undo: HashMap<u64, Vec<UndoRecord>>,
}

/// An in-memory heap table.
pub struct Table {
    pub name: String,
    pub schema: SchemaRef,
    inner: RwLock<TableInner>,
    /// Weak self-pointer, set when the table becomes shared (catalog
    /// registration or [`Table::into_shared`]); transactions use it to
    /// find the table again at rollback time. Tables that never become
    /// shared cannot participate in transactions.
    self_ref: OnceLock<Weak<Table>>,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("rows", &self.row_count())
            .finish()
    }
}

impl Table {
    pub fn new(name: impl Into<String>, schema: SchemaRef) -> Table {
        Table {
            name: name.into(),
            schema,
            inner: RwLock::new(TableInner::default()),
            self_ref: OnceLock::new(),
        }
    }

    /// Wrap the table in an `Arc` and arm its transaction machinery (the
    /// undo journal needs a weak self-pointer so rollback can reach the
    /// table). [`crate::catalog::Database::create_table`] does this for
    /// every catalog table.
    pub fn into_shared(self) -> Arc<Table> {
        let t = Arc::new(self);
        let _ = t.self_ref.set(Arc::downgrade(&t));
        t
    }

    /// Append an undo record for the innermost active transaction, if any.
    /// Registers the table with the transaction on first touch (under the
    /// table write lock, so exactly one thread registers).
    fn journal(&self, inner: &mut TableInner, changes_len: Option<usize>, op: UndoOp) {
        let Some(tx) = crate::tx::current() else {
            return;
        };
        let Some(weak) = self.self_ref.get() else {
            return;
        };
        let rec = UndoRecord { changes_len, op };
        match inner.undo.entry(tx.id()) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(rec),
            std::collections::hash_map::Entry::Vacant(e) => {
                tx.register(weak.clone());
                e.insert(vec![rec]);
            }
        }
    }

    /// Whether a mutation right now would be journaled — gates the extra
    /// clones some undo records need.
    fn journaling(&self) -> bool {
        self.self_ref.get().is_some() && crate::tx::active()
    }

    /// Discard the undo journal of a committed transaction.
    pub(crate) fn tx_discard(&self, txid: u64) {
        self.inner.write().undo.remove(&txid);
    }

    /// Re-key a nested transaction's undo records onto its parent, so an
    /// outer rollback still undoes the inner (committed) work.
    pub(crate) fn tx_merge(&self, child: u64, parent: &Arc<TxShared>) {
        let mut inner = self.inner.write();
        let Some(mut recs) = inner.undo.remove(&child) else {
            return;
        };
        match inner.undo.entry(parent.id()) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().append(&mut recs),
            std::collections::hash_map::Entry::Vacant(e) => {
                if let Some(weak) = self.self_ref.get() {
                    parent.register(weak.clone());
                }
                e.insert(recs);
            }
        }
    }

    /// Apply a transaction's undo journal in reverse, restoring the
    /// pre-transaction state; returns the number of records applied. The
    /// generation still advances — rolled-back state must never satisfy a
    /// generation-keyed cache.
    pub(crate) fn tx_rollback(&self, txid: u64) -> u64 {
        let mut inner = self.inner.write();
        let Some(records) = inner.undo.remove(&txid) else {
            return 0;
        };
        let n = records.len() as u64;
        for rec in records.into_iter().rev() {
            apply_undo(&mut inner, rec);
        }
        inner.generation += 1;
        n
    }

    /// Number of open transaction journals on this table (tests).
    pub fn undo_footprint(&self) -> usize {
        self.inner.read().undo.len()
    }

    /// Replace the pending change-capture log wholesale — recovery-only:
    /// a checkpoint restore re-seeds the log a crashed run had pending.
    pub fn seed_changes(&self, changes: Vec<Change>) {
        self.inner.write().changes = changes;
    }

    /// Snapshot the pending change-capture log without draining it
    /// (checkpointing needs to persist undelivered deltas).
    pub fn peek_changes(&self) -> Vec<Change> {
        self.inner.read().changes.clone()
    }

    /// Render the table's full physical state — slots (tombstones
    /// included), live count, every index's postings, and the change log —
    /// for byte-identity assertions in rollback tests. The generation
    /// counter is deliberately excluded: it advances on rollback.
    pub fn state_dump(&self) -> String {
        use std::fmt::Write;
        let inner = self.inner.read();
        let mut out = String::new();
        let _ = writeln!(out, "table {} live={}", self.name, inner.live);
        for (slot, row) in inner.slots.iter().enumerate() {
            let _ = writeln!(out, "  slot {slot}: {row:?}");
        }
        for ix in inner.primary.iter().chain(inner.secondary.iter()) {
            let _ = writeln!(out, "  index {}:", ix.name);
            for (key, slots) in ix.entries() {
                let _ = writeln!(out, "    {key:?} -> {slots:?}");
            }
        }
        let _ = writeln!(out, "  changes: {:?}", inner.changes);
        out
    }

    /// Declare the primary key over the named columns (hash-unique).
    pub fn with_primary_key(self, cols: &[&str]) -> StoreResult<Table> {
        let idxs = self.schema.indices_of(cols)?;
        {
            let mut inner = self.inner.write();
            inner.primary = Some(Index::new(
                format!("{}_pk", self.name),
                idxs,
                true,
                IndexKind::Hash,
            ));
        }
        Ok(self)
    }

    /// Add a secondary index.
    pub fn with_index(
        self,
        name: &str,
        cols: &[&str],
        unique: bool,
        kind: IndexKind,
    ) -> StoreResult<Table> {
        let idxs = self.schema.indices_of(cols)?;
        {
            let mut inner = self.inner.write();
            inner.secondary.push(Index::new(name, idxs, unique, kind));
        }
        Ok(self)
    }

    /// Enable change capture (for incremental MV refresh).
    pub fn with_change_capture(self) -> Table {
        self.inner.write().capture = true;
        self
    }

    /// Enable change capture on an already-shared table — the runtime
    /// counterpart of [`Table::with_change_capture`], used by engines that
    /// attach a change-data consumer to tables they did not create (e.g.
    /// incremental view maintenance over a remote system's base tables).
    /// Idempotent; rows inserted before enablement are not back-captured.
    pub fn enable_change_capture(&self) {
        self.inner.write().capture = true;
    }

    pub fn row_count(&self) -> usize {
        self.inner.read().live
    }

    pub fn generation(&self) -> u64 {
        self.inner.read().generation
    }

    /// Number of distinct keys of the primary index, if any — a planner
    /// statistic.
    pub fn pk_cardinality(&self) -> Option<usize> {
        self.inner
            .read()
            .primary
            .as_ref()
            .map(|p| p.distinct_keys())
    }

    /// Column positions of the primary key, if declared.
    pub fn primary_key_columns(&self) -> Option<Vec<usize>> {
        self.inner
            .read()
            .primary
            .as_ref()
            .map(|p| p.columns.clone())
    }

    /// Insert a batch of rows. All rows are validated and checked against
    /// unique indexes *before* any row is applied, so a failed batch leaves
    /// the table unchanged (statement-level atomicity).
    pub fn insert(&self, rows: Vec<Row>) -> StoreResult<usize> {
        if rows.is_empty() {
            return Ok(0);
        }
        let _span = dip_trace::span(dip_trace::Layer::Relstore, "insert");
        for r in &rows {
            self.schema.check_row(r)?;
        }
        let mut inner = self.inner.write();
        // Uniqueness pre-check, including duplicates inside the batch
        // itself. Each key tuple is computed once: the existing index and
        // the in-batch set are both probed by reference, and the key moves
        // into the set only after both probes clear.
        if let Some(pk) = &inner.primary {
            let mut batch_keys = std::collections::HashSet::new();
            for r in &rows {
                let key = key_of(r, &pk.columns);
                if crate::index::key_has_null(&key) {
                    return Err(StoreError::Constraint(format!(
                        "NULL in primary key of {}",
                        self.name
                    )));
                }
                if pk.contains_key(&key) || batch_keys.contains(&key) {
                    return Err(StoreError::DuplicateKey {
                        table: self.name.clone(),
                        key: format!("{key:?}"),
                    });
                }
                batch_keys.insert(key);
            }
        }
        for ix in &inner.secondary {
            if ix.unique {
                let mut batch_keys = std::collections::HashSet::new();
                for r in &rows {
                    let key = key_of(r, &ix.columns);
                    if crate::index::key_has_null(&key) {
                        continue;
                    }
                    if ix.contains_key(&key) || batch_keys.contains(&key) {
                        return Err(StoreError::DuplicateKey {
                            table: self.name.clone(),
                            key: ix.name.clone(),
                        });
                    }
                    batch_keys.insert(key);
                }
            }
        }
        let n = rows.len();
        let changes_len = inner.capture.then(|| inner.changes.len());
        let first_slot = inner.slots.len();
        self.journal(
            &mut inner,
            changes_len,
            UndoOp::Appended {
                first_slot,
                count: n,
            },
        );
        for r in rows {
            let slot = inner.slots.len();
            if let Some(pk) = &mut inner.primary {
                pk.insert(&r, slot);
            }
            for ix in &mut inner.secondary {
                ix.insert(&r, slot);
            }
            if inner.capture {
                inner.changes.push(Change::Insert(r.clone()));
            }
            inner.slots.push(Some(r));
            inner.live += 1;
        }
        inner.generation += 1;
        Ok(n)
    }

    /// Insert rows, silently skipping those whose primary key already
    /// exists — the "merge" flavour used by replication-style processes.
    pub fn insert_ignore_duplicates(&self, rows: Vec<Row>) -> StoreResult<usize> {
        let _span = dip_trace::span(dip_trace::Layer::Relstore, "insert");
        let mut inner = self.inner.write();
        // This path validates per row *inside* the loop, so it can error
        // after appending a prefix of the batch — journal whatever actually
        // landed (appends are contiguous: skipped duplicates append nothing)
        // so an enclosing transaction can undo the partial write.
        let first_slot = inner.slots.len();
        let changes_len = inner.capture.then(|| inner.changes.len());
        let result = Self::insert_ignore_inner(&self.schema, &mut inner, rows);
        let appended = inner.slots.len() - first_slot;
        if appended > 0 {
            self.journal(
                &mut inner,
                changes_len,
                UndoOp::Appended {
                    first_slot,
                    count: appended,
                },
            );
            inner.generation += 1;
        }
        result
    }

    fn insert_ignore_inner(
        schema: &SchemaRef,
        inner: &mut TableInner,
        rows: Vec<Row>,
    ) -> StoreResult<usize> {
        let mut inserted = 0;
        for r in rows {
            schema.check_row(&r)?;
            // Extract the primary key once; the uniqueness probe and the
            // index registration below share the tuple.
            let pk_key = inner
                .primary
                .as_ref()
                .map(|pk| key_of(&r, &pk.columns))
                .filter(|k| !crate::index::key_has_null(k));
            if let (Some(pk), Some(key)) = (&inner.primary, &pk_key) {
                if pk.unique && pk.contains_key(key) {
                    continue;
                }
            }
            let slot = inner.slots.len();
            if let Some(pk) = &mut inner.primary {
                if let Some(key) = pk_key {
                    pk.insert_key(key, slot);
                }
            }
            for ix in &mut inner.secondary {
                ix.insert(&r, slot);
            }
            if inner.capture {
                inner.changes.push(Change::Insert(r.clone()));
            }
            inner.slots.push(Some(r));
            inner.live += 1;
            inserted += 1;
        }
        Ok(inserted)
    }

    /// Insert-or-replace by primary key (upsert). Requires a primary key.
    pub fn upsert(&self, rows: Vec<Row>) -> StoreResult<usize> {
        let _span = dip_trace::span(dip_trace::Layer::Relstore, "upsert");
        let mut inner = self.inner.write();
        if inner.primary.is_none() {
            return Err(StoreError::Invalid(format!(
                "upsert into {} requires a primary key",
                self.name
            )));
        }
        let journaling = self.journaling();
        let mut n = 0;
        for r in rows {
            self.schema.check_row(&r)?;
            let pk_cols = inner.primary.as_ref().unwrap().columns.clone();
            let key = key_of(&r, &pk_cols);
            let existing = inner.primary.as_ref().unwrap().lookup(&key);
            let changes_len = inner.capture.then(|| inner.changes.len());
            if let Some(&slot) = existing.first() {
                let old = inner.slots[slot].take().expect("live slot");
                if let Some(pk) = &mut inner.primary {
                    pk.remove(&old, slot);
                }
                for ix in &mut inner.secondary {
                    ix.remove(&old, slot);
                }
                if let Some(pk) = &mut inner.primary {
                    pk.insert(&r, slot);
                }
                for ix in &mut inner.secondary {
                    ix.insert(&r, slot);
                }
                if inner.capture {
                    inner.changes.push(Change::Delete(old.clone()));
                    inner.changes.push(Change::Insert(r.clone()));
                }
                inner.slots[slot] = Some(r);
                if journaling {
                    self.journal(&mut inner, changes_len, UndoOp::Replaced { slot, old });
                }
            } else {
                let slot = inner.slots.len();
                if let Some(pk) = &mut inner.primary {
                    pk.insert(&r, slot);
                }
                for ix in &mut inner.secondary {
                    ix.insert(&r, slot);
                }
                if inner.capture {
                    inner.changes.push(Change::Insert(r.clone()));
                }
                inner.slots.push(Some(r));
                inner.live += 1;
                if journaling {
                    self.journal(
                        &mut inner,
                        changes_len,
                        UndoOp::Appended {
                            first_slot: slot,
                            count: 1,
                        },
                    );
                }
            }
            n += 1;
        }
        inner.generation += 1;
        Ok(n)
    }

    /// Delete all rows matching `pred`; returns the number deleted.
    pub fn delete_where(&self, pred: &Expr) -> StoreResult<usize> {
        let _span = dip_trace::span(dip_trace::Layer::Relstore, "delete");
        let mut inner = self.inner.write();
        let mut victims = Vec::new();
        for (slot, r) in inner.slots.iter().enumerate() {
            if let Some(row) = r {
                if pred.matches(row)? {
                    victims.push(slot);
                }
            }
        }
        let n = victims.len();
        if n == 0 {
            return Ok(0);
        }
        let journaling = self.journaling();
        if n == inner.live {
            // Full wipe (e.g. staging flush with a `true` predicate): clear
            // indexes wholesale instead of removing every key one by one.
            // All slots are gone afterwards, so no index entry can dangle.
            let changes_len = inner.capture.then(|| inner.changes.len());
            let slots = std::mem::take(&mut inner.slots);
            if inner.capture {
                for row in slots.iter().flatten() {
                    inner.changes.push(Change::Delete(row.clone()));
                }
            }
            if let Some(pk) = &mut inner.primary {
                pk.clear();
            }
            for ix in &mut inner.secondary {
                ix.clear();
            }
            let live = inner.live;
            inner.live = 0;
            inner.generation += 1;
            if journaling {
                self.journal(
                    &mut inner,
                    changes_len,
                    UndoOp::Wiped {
                        slots,
                        live,
                        restore_changes: None,
                    },
                );
            }
            return Ok(n);
        }
        for slot in &victims {
            let changes_len = inner.capture.then(|| inner.changes.len());
            let old = inner.slots[*slot].take().expect("live slot");
            if let Some(pk) = &mut inner.primary {
                pk.remove(&old, *slot);
            }
            for ix in &mut inner.secondary {
                ix.remove(&old, *slot);
            }
            if inner.capture {
                inner.changes.push(Change::Delete(old.clone()));
            }
            inner.live -= 1;
            if journaling {
                self.journal(
                    &mut inner,
                    changes_len,
                    UndoOp::Deleted { slot: *slot, old },
                );
            }
        }
        inner.generation += 1;
        Ok(n)
    }

    /// Update matching rows: each assignment is `(column position, expr
    /// evaluated over the old row)`. Returns the number updated.
    pub fn update_where(&self, pred: &Expr, assignments: &[(usize, Expr)]) -> StoreResult<usize> {
        let _span = dip_trace::span(dip_trace::Layer::Relstore, "update");
        let mut inner = self.inner.write();
        let mut updates: Vec<(usize, Row)> = Vec::new();
        for (slot, r) in inner.slots.iter().enumerate() {
            if let Some(row) = r {
                if pred.matches(row)? {
                    let mut new = row.clone();
                    for (col, e) in assignments {
                        new[*col] = e.eval(row)?;
                    }
                    self.schema.check_row(&new)?;
                    updates.push((slot, new));
                }
            }
        }
        let n = updates.len();
        let journaling = self.journaling();
        for (slot, new) in updates {
            let changes_len = inner.capture.then(|| inner.changes.len());
            let old = inner.slots[slot].take().expect("live slot");
            if let Some(pk) = &mut inner.primary {
                pk.remove(&old, slot);
                pk.insert(&new, slot);
            }
            for ix in &mut inner.secondary {
                ix.remove(&old, slot);
                ix.insert(&new, slot);
            }
            if inner.capture {
                inner.changes.push(Change::Delete(old.clone()));
                inner.changes.push(Change::Insert(new.clone()));
            }
            inner.slots[slot] = Some(new);
            if journaling {
                self.journal(&mut inner, changes_len, UndoOp::Replaced { slot, old });
            }
        }
        if n > 0 {
            inner.generation += 1;
        }
        Ok(n)
    }

    /// Remove all rows (and reset indexes and the change log).
    pub fn truncate(&self) {
        let _span = dip_trace::span(dip_trace::Layer::Relstore, "truncate");
        let mut inner = self.inner.write();
        let slots = std::mem::take(&mut inner.slots);
        let changes = std::mem::take(&mut inner.changes);
        let live = inner.live;
        inner.live = 0;
        if let Some(pk) = &mut inner.primary {
            pk.clear();
        }
        for ix in &mut inner.secondary {
            ix.clear();
        }
        inner.generation += 1;
        if self.journaling() {
            self.journal(
                &mut inner,
                None,
                UndoOp::Wiped {
                    slots,
                    live,
                    restore_changes: Some(changes),
                },
            );
        }
    }

    /// Materialize the whole table.
    pub fn scan(&self) -> Relation {
        let inner = self.inner.read();
        let rows: Vec<Row> = inner.slots.iter().filter_map(|s| s.clone()).collect();
        Relation::new(self.schema.clone(), rows)
    }

    /// Materialize rows matching `pred`, optionally projecting columns.
    /// Uses the primary key or a secondary index when `pred` is a simple
    /// equality on indexed columns (`col = literal`).
    pub fn scan_where(&self, pred: &Expr, projection: Option<&[usize]>) -> StoreResult<Relation> {
        let mut rows = Vec::new();
        self.stream_rows(Some(pred), &mut |row| {
            rows.push(match projection {
                Some(p) => p.iter().map(|&i| row[i].clone()).collect(),
                None => row.to_vec(),
            });
            Ok(true)
        })?;
        let schema = match projection {
            Some(p) => self.schema.project(p).shared(),
            None => self.schema.clone(),
        };
        Ok(Relation::new(schema, rows))
    }

    /// Stream live rows matching `pred` (all rows when `None`) to `f`
    /// without materializing anything; `f` returning `false` stops the
    /// scan. Uses the same index probes as [`Table::scan_where`]. Returns
    /// `Ok(false)` iff the scan was stopped early.
    pub fn stream_rows(
        &self,
        pred: Option<&Expr>,
        f: &mut dyn FnMut(&[Value]) -> StoreResult<bool>,
    ) -> StoreResult<bool> {
        let inner = self.inner.read();
        let candidate_slots: Option<Vec<usize>> = pred.and_then(|p| index_probe(&inner, p));
        match candidate_slots {
            Some(slots) => {
                let p = pred.expect("probe implies predicate");
                for s in slots {
                    if let Some(Some(row)) = inner.slots.get(s) {
                        if p.matches(row)? && !f(row)? {
                            return Ok(false);
                        }
                    }
                }
            }
            None => {
                for row in inner.slots.iter().flatten() {
                    let keep = match pred {
                        Some(p) => p.matches(row)?,
                        None => true,
                    };
                    if keep && !f(row)? {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Whether the primary key or a secondary index covers exactly the
    /// given column set (in any order) — the planner's test for eligibility
    /// of an index-nested-loop join.
    pub fn covering_index(&self, cols: &[usize]) -> bool {
        let inner = self.inner.read();
        inner
            .primary
            .iter()
            .chain(inner.secondary.iter())
            .any(|ix| covers(&ix.columns, cols))
    }

    /// Open an index-probe session over exactly the given key columns.
    /// The session holds the table read lock, so repeated lookups (one per
    /// probe-side row of an index join) pay no per-lookup locking.
    pub fn probe_on(&self, cols: &[usize]) -> Option<TableProbe<'_>> {
        let inner = self.inner.read();
        let find = |ix: &Index| -> Option<Vec<usize>> {
            if !covers(&ix.columns, cols) {
                return None;
            }
            // perm[i] = where index column i sits in the caller's key tuple
            ix.columns
                .iter()
                .map(|c| cols.iter().position(|k| k == c))
                .collect()
        };
        let (which, perm) = {
            let mut found = None;
            if let Some(pk) = &inner.primary {
                if let Some(perm) = find(pk) {
                    found = Some((ProbeIndex::Primary, perm));
                }
            }
            if found.is_none() {
                for (i, ix) in inner.secondary.iter().enumerate() {
                    if let Some(perm) = find(ix) {
                        found = Some((ProbeIndex::Secondary(i), perm));
                        break;
                    }
                }
            }
            found?
        };
        // identity permutation → probe with the caller's key untouched
        let perm = (!perm.iter().enumerate().all(|(i, &p)| i == p)).then_some(perm);
        Some(TableProbe {
            inner,
            which,
            perm,
            scratch: std::cell::RefCell::new(Vec::new()),
        })
    }

    /// Point lookup by primary key.
    pub fn get_by_pk(&self, key: &[Value]) -> Option<Row> {
        let inner = self.inner.read();
        let pk = inner.primary.as_ref()?;
        let slot = *pk.lookup_ref(key).first()?;
        inner.slots.get(slot)?.clone()
    }

    /// Visit every live row without materializing the table.
    pub fn for_each<E>(&self, mut f: impl FnMut(&Row) -> Result<(), E>) -> Result<(), E> {
        let inner = self.inner.read();
        for r in inner.slots.iter().flatten() {
            f(r)?;
        }
        Ok(())
    }

    /// Drain captured changes since the last drain.
    pub fn drain_changes(&self) -> Vec<Change> {
        let mut inner = self.inner.write();
        let drained = std::mem::take(&mut inner.changes);
        if !drained.is_empty() && self.journaling() {
            self.journal(
                &mut inner,
                None,
                UndoOp::Drained {
                    changes: drained.clone(),
                },
            );
        }
        drained
    }

    /// Whether change capture is enabled.
    pub fn captures_changes(&self) -> bool {
        self.inner.read().capture
    }
}

/// Undo one journal record (see [`UndoOp`] for the forward ops).
fn apply_undo(inner: &mut TableInner, rec: UndoRecord) {
    match rec.op {
        UndoOp::Appended { first_slot, count } => {
            for slot in first_slot..first_slot + count {
                if let Some(row) = inner.slots[slot].take() {
                    if let Some(pk) = &mut inner.primary {
                        pk.remove(&row, slot);
                    }
                    for ix in &mut inner.secondary {
                        ix.remove(&row, slot);
                    }
                    inner.live -= 1;
                }
            }
            // restore the exact slot-vector length when nothing was
            // appended after us; otherwise the tombstones must stay
            if inner.slots.len() == first_slot + count {
                inner.slots.truncate(first_slot);
            }
        }
        UndoOp::Replaced { slot, old } => {
            if let Some(new) = inner.slots[slot].take() {
                if let Some(pk) = &mut inner.primary {
                    pk.remove(&new, slot);
                }
                for ix in &mut inner.secondary {
                    ix.remove(&new, slot);
                }
            }
            if let Some(pk) = &mut inner.primary {
                pk.insert(&old, slot);
            }
            for ix in &mut inner.secondary {
                ix.insert(&old, slot);
            }
            inner.slots[slot] = Some(old);
        }
        UndoOp::Deleted { slot, old } => {
            if let Some(pk) = &mut inner.primary {
                pk.insert(&old, slot);
            }
            for ix in &mut inner.secondary {
                ix.insert(&old, slot);
            }
            inner.slots[slot] = Some(old);
            inner.live += 1;
        }
        UndoOp::Wiped {
            slots,
            live,
            restore_changes,
        } => {
            inner.slots = slots;
            inner.live = live;
            let TableInner {
                ref slots,
                ref mut primary,
                ref mut secondary,
                ..
            } = *inner;
            if let Some(pk) = primary.as_mut() {
                pk.clear();
            }
            for ix in secondary.iter_mut() {
                ix.clear();
            }
            for (slot, row) in slots.iter().enumerate() {
                if let Some(row) = row {
                    if let Some(pk) = primary.as_mut() {
                        pk.insert(row, slot);
                    }
                    for ix in secondary.iter_mut() {
                        ix.insert(row, slot);
                    }
                }
            }
            if let Some(c) = restore_changes {
                inner.changes = c;
            }
        }
        UndoOp::Drained { changes } => {
            inner.changes = changes;
        }
    }
    if let Some(len) = rec.changes_len {
        inner.changes.truncate(len);
    }
}

/// True if index columns are exactly the queried columns, in any order.
fn covers(index_cols: &[usize], cols: &[usize]) -> bool {
    index_cols.len() == cols.len() && index_cols.iter().all(|c| cols.contains(c))
}

/// Which index a [`TableProbe`] session resolved to.
enum ProbeIndex {
    Primary,
    Secondary(usize),
}

/// An open index-probe session (see [`Table::probe_on`]). Holds the table
/// read lock for its lifetime; do not probe a table that an enclosing
/// operation is writing.
pub struct TableProbe<'a> {
    inner: parking_lot::RwLockReadGuard<'a, TableInner>,
    which: ProbeIndex,
    /// Reorders the caller's key tuple into index column order; `None`
    /// when the orders already agree (the common case), so probes borrow
    /// the caller's key directly.
    perm: Option<Vec<usize>>,
    /// Reused key buffer for permuted probes — one allocation per probe
    /// session instead of one per probe-side row.
    scratch: std::cell::RefCell<Vec<Value>>,
}

impl TableProbe<'_> {
    /// Visit every live row whose indexed key equals `key` (given in the
    /// column order passed to [`Table::probe_on`]); `f` returning `false`
    /// stops the iteration. Returns `Ok(false)` iff stopped early.
    pub fn lookup_each(
        &self,
        key: &[Value],
        f: &mut dyn FnMut(&[Value]) -> StoreResult<bool>,
    ) -> StoreResult<bool> {
        let ix = match self.which {
            ProbeIndex::Primary => self.inner.primary.as_ref().expect("probe index"),
            ProbeIndex::Secondary(i) => &self.inner.secondary[i],
        };
        let mut scratch;
        let ordered: &[Value] = match &self.perm {
            None => key,
            Some(perm) => {
                scratch = self.scratch.borrow_mut();
                scratch.clear();
                scratch.extend(perm.iter().map(|&i| key[i].clone()));
                scratch.as_slice()
            }
        };
        for &slot in ix.lookup_ref(ordered) {
            if let Some(Some(row)) = self.inner.slots.get(slot) {
                if !f(row)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

/// If `pred` contains a conjunct `col = literal` covering an index prefix,
/// return the candidate slots from that index; failing that, use a
/// single-column B-tree index for a `col >=/<=/>/< literal` range conjunct.
fn index_probe(inner: &TableInner, pred: &Expr) -> Option<Vec<usize>> {
    let mut eqs: Vec<(usize, Value)> = Vec::new();
    let mut ranges: Vec<(usize, Bound)> = Vec::new();
    collect_conjuncts(pred, &mut eqs, &mut ranges);
    let try_index = |ix: &Index| -> Option<Vec<usize>> {
        let key: Option<Vec<Value>> = ix
            .columns
            .iter()
            .map(|c| eqs.iter().find(|(col, _)| col == c).map(|(_, v)| v.clone()))
            .collect();
        key.map(|k| ix.lookup(&k))
    };
    if !eqs.is_empty() {
        if let Some(pk) = &inner.primary {
            if let Some(slots) = try_index(pk) {
                return Some(slots);
            }
        }
        for ix in &inner.secondary {
            if let Some(slots) = try_index(ix) {
                return Some(slots);
            }
        }
    }
    // range probe: only B-tree indexes give ordered access
    for ix in &inner.secondary {
        if ix.kind() != IndexKind::BTree || ix.columns.len() != 1 {
            continue;
        }
        let col = ix.columns[0];
        let mut lo: Option<Value> = None;
        let mut hi: Option<Value> = None;
        for (c, b) in &ranges {
            if *c != col {
                continue;
            }
            match b {
                Bound::Lower(v) => {
                    if lo.as_ref().is_none_or(|cur| v > cur) {
                        lo = Some(v.clone());
                    }
                }
                Bound::Upper(v) => {
                    if hi.as_ref().is_none_or(|cur| v < cur) {
                        hi = Some(v.clone());
                    }
                }
            }
        }
        if lo.is_some() || hi.is_some() {
            let lo = lo.unwrap_or(Value::Null); // Null sorts first: open lower bound
            let hi = hi.unwrap_or_else(max_sentinel);
            // the residual predicate re-checks strictness; the index only
            // needs to be a superset
            return Some(ix.range(&[lo], &[hi]));
        }
    }
    None
}

/// A one-sided range bound (inclusive superset — strict comparisons are
/// re-checked by the residual predicate).
enum Bound {
    Lower(Value),
    Upper(Value),
}

/// A value above every ordinary value in the total order (dates rank last).
fn max_sentinel() -> Value {
    Value::Date(i32::MAX)
}

/// Collect `col = literal` and `col </<=/>/>= literal` conjuncts from an
/// AND tree.
fn collect_conjuncts(e: &Expr, eqs: &mut Vec<(usize, Value)>, ranges: &mut Vec<(usize, Bound)>) {
    use crate::expr::CmpOp;
    match e {
        Expr::And(a, b) => {
            collect_conjuncts(a, eqs, ranges);
            collect_conjuncts(b, eqs, ranges);
        }
        Expr::Cmp(op, a, b) => {
            let (col, v, op) = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) => (*c, v.clone(), *op),
                // literal on the left: mirror the comparison
                (Expr::Lit(v), Expr::Col(c)) => {
                    let mirrored = match op {
                        CmpOp::Lt => CmpOp::Gt,
                        CmpOp::Le => CmpOp::Ge,
                        CmpOp::Gt => CmpOp::Lt,
                        CmpOp::Ge => CmpOp::Le,
                        other => *other,
                    };
                    (*c, v.clone(), mirrored)
                }
                _ => return,
            };
            match op {
                CmpOp::Eq => eqs.push((col, v)),
                CmpOp::Ge | CmpOp::Gt => ranges.push((col, Bound::Lower(v))),
                CmpOp::Le | CmpOp::Lt => ranges.push((col, Bound::Upper(v))),
                CmpOp::Ne => {}
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, RelSchema};
    use crate::value::SqlType;

    fn customers() -> Table {
        let schema = RelSchema::new(vec![
            Column::not_null("custkey", SqlType::Int),
            Column::new("name", SqlType::Str),
            Column::new("city", SqlType::Str),
        ])
        .shared();
        Table::new("customer", schema)
            .with_primary_key(&["custkey"])
            .unwrap()
            .with_index("by_city", &["city"], false, IndexKind::Hash)
            .unwrap()
    }

    fn row(k: i64, n: &str, c: &str) -> Row {
        vec![Value::Int(k), Value::str(n), Value::str(c)]
    }

    #[test]
    fn insert_and_pk_conflict() {
        let t = customers();
        assert_eq!(
            t.insert(vec![row(1, "a", "Berlin"), row(2, "b", "Paris")])
                .unwrap(),
            2
        );
        let err = t.insert(vec![row(2, "dup", "Paris")]).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey { .. }));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn failed_batch_is_atomic() {
        let t = customers();
        t.insert(vec![row(1, "a", "Berlin")]).unwrap();
        // second row of this batch conflicts; first row must not be applied
        let err = t.insert(vec![row(5, "x", "Rome"), row(1, "dup", "Berlin")]);
        assert!(err.is_err());
        assert_eq!(t.row_count(), 1);
        assert!(t.get_by_pk(&[Value::Int(5)]).is_none());
    }

    #[test]
    fn batch_internal_duplicates_rejected() {
        let t = customers();
        assert!(t.insert(vec![row(7, "a", "x"), row(7, "b", "y")]).is_err());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn insert_ignore_duplicates_merges() {
        let t = customers();
        t.insert(vec![row(1, "a", "Berlin")]).unwrap();
        let n = t
            .insert_ignore_duplicates(vec![row(1, "dup", "x"), row(2, "b", "y")])
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.get_by_pk(&[Value::Int(1)]).unwrap()[1], Value::str("a"));
    }

    #[test]
    fn upsert_replaces() {
        let t = customers();
        t.insert(vec![row(1, "a", "Berlin")]).unwrap();
        t.upsert(vec![row(1, "a2", "Paris"), row(2, "b", "Rome")])
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.get_by_pk(&[Value::Int(1)]).unwrap()[1], Value::str("a2"));
        // secondary index reflects the move Berlin -> Paris
        let rel = t
            .scan_where(&Expr::col(2).eq(Expr::lit("Berlin")), None)
            .unwrap();
        assert_eq!(rel.len(), 0);
    }

    #[test]
    fn delete_and_update() {
        let t = customers();
        t.insert(
            (1..=10)
                .map(|i| row(i, "n", if i % 2 == 0 { "even" } else { "odd" }))
                .collect(),
        )
        .unwrap();
        let n = t.delete_where(&Expr::col(2).eq(Expr::lit("even"))).unwrap();
        assert_eq!(n, 5);
        assert_eq!(t.row_count(), 5);
        let n = t
            .update_where(&Expr::col(0).le(Expr::lit(5)), &[(1, Expr::lit("renamed"))])
            .unwrap();
        assert_eq!(n, 3); // keys 1,3,5 remain and are <= 5
        assert_eq!(
            t.get_by_pk(&[Value::Int(3)]).unwrap()[1],
            Value::str("renamed")
        );
    }

    #[test]
    fn indexed_scan_where() {
        let t = customers();
        t.insert(
            (0..100)
                .map(|i| row(i, "n", if i < 50 { "Berlin" } else { "Paris" }))
                .collect(),
        )
        .unwrap();
        let rel = t
            .scan_where(&Expr::col(2).eq(Expr::lit("Berlin")), Some(&[0]))
            .unwrap();
        assert_eq!(rel.len(), 50);
        assert_eq!(rel.schema.names(), vec!["custkey"]);
        // pk probe
        let rel = t.scan_where(&Expr::col(0).eq(Expr::lit(42)), None).unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn btree_range_probe_matches_full_scan() {
        let schema = RelSchema::new(vec![
            Column::not_null("custkey", SqlType::Int),
            Column::new("bal", SqlType::Float),
        ])
        .shared();
        let t = Table::new("c", schema)
            .with_primary_key(&["custkey"])
            .unwrap()
            .with_index("by_bal", &["bal"], false, IndexKind::BTree)
            .unwrap();
        t.insert(
            (0..200)
                .map(|i| vec![Value::Int(i), Value::Float((i % 37) as f64)])
                .collect(),
        )
        .unwrap();
        for pred in [
            Expr::col(1)
                .ge(Expr::lit(10.0))
                .and(Expr::col(1).lt(Expr::lit(20.0))),
            Expr::col(1).gt(Expr::lit(30.0)),
            Expr::lit(5.0).gt(Expr::col(1)), // literal on the left
        ] {
            let probed = t.scan_where(&pred, None).unwrap();
            // reference: evaluate the predicate over a full scan
            let mut expected = 0;
            t.for_each(|r| {
                if pred.matches(r).unwrap() {
                    expected += 1;
                }
                Ok::<(), StoreError>(())
            })
            .unwrap();
            assert_eq!(probed.len(), expected, "{pred:?}");
        }
    }

    #[test]
    fn change_capture() {
        let t = customers().with_change_capture();
        t.insert(vec![row(1, "a", "x")]).unwrap();
        t.delete_where(&Expr::col(0).eq(Expr::lit(1))).unwrap();
        let ch = t.drain_changes();
        assert_eq!(ch.len(), 2);
        assert!(matches!(ch[0], Change::Insert(_)));
        assert!(matches!(ch[1], Change::Delete(_)));
        assert!(t.drain_changes().is_empty());
    }

    #[test]
    fn truncate_resets() {
        let t = customers();
        t.insert(vec![row(1, "a", "x")]).unwrap();
        t.truncate();
        assert_eq!(t.row_count(), 0);
        // pk is cleared too: same key insert succeeds
        t.insert(vec![row(1, "a", "x")]).unwrap();
    }
}
