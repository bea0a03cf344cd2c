//! Heap tables with slot storage, primary/secondary indexes and change
//! capture.
//!
//! A [`Table`] owns its rows in a slotted vector (`Vec<Option<Row>>`); a
//! deleted row leaves a tombstone so slot numbers — which indexes reference —
//! stay stable. Tables are internally synchronized with a `parking_lot`
//! `RwLock`, so a shared `Arc<Table>` can be used from concurrent benchmark
//! streams.
//!
//! The indexes ([`crate::index`]) hold slot numbers only, chained per key
//! hash, and compare probes against the rows stored here — which is why
//! every index call below is handed the slot vector. Each write flavour
//! hashes a row's primary key once and shares the hash between the
//! uniqueness probe and the registration.
//!
//! Triggers are *stored* here but *fired* by [`crate::catalog::Database`],
//! because a trigger body usually writes other tables and therefore needs
//! the whole database handle.
//!
//! Every mutator records an uncategorized `relstore/<op>` span (`insert`,
//! `upsert`, `delete`, `update`, `truncate`): the caller's enclosing span
//! knows the cost category, this one books the self time to the store.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::error::{StoreError, StoreResult};
use crate::expr::{CmpOp, Expr};
use crate::hashkey::KeyIndex;
use crate::index::{key_of, slot_id, Index};
use crate::row::{Relation, Row};
use crate::schema::SchemaRef;
use crate::tx::TxShared;
use crate::value::Value;
use dip_trace::Layer;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};

/// A captured mutation, consumed by a change-data pull
/// ([`Table::drain_changes`] — the `dip-ivm` engine's standing queries).
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
    /// The change-capture log was drained (a change-data pull).
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
    /// The one unique index: writers probe it before they register.
    primary: Option<Index>,
    secondary: Vec<Index>,
    capture: bool,
    changes: Vec<Change>,
    /// Per-transaction undo journals, keyed by transaction id.
    undo: HashMap<u64, Vec<UndoRecord>>,
}

impl TableInner {
    /// The primary index first, then the secondary ones in declaration
    /// order — the order probes prefer them in.
    fn indexes(&self) -> impl Iterator<Item = &Index> {
        self.primary.iter().chain(&self.secondary)
    }

    fn indexes_mut(&mut self) -> impl Iterator<Item = &mut Index> {
        self.primary.iter_mut().chain(&mut self.secondary)
    }

    fn index_row(&mut self, row: &[Value], slot: usize) -> StoreResult<()> {
        self.indexes_mut().try_for_each(|ix| ix.insert(row, slot))
    }

    fn unindex_row(&mut self, row: &[Value], slot: usize) {
        self.indexes_mut().for_each(|ix| ix.remove(row, slot));
    }

    /// Tombstone `slot` and hand back its row; `Invalid` if it holds none.
    fn take_row(&mut self, slot: usize) -> StoreResult<Row> {
        self.slots
            .get_mut(slot)
            .and_then(Option::take)
            .ok_or_else(|| StoreError::Invalid(format!("slot {slot} holds no live row")))
    }

    /// `row`'s primary-key hash (`None` without a primary key or with a
    /// NULL key part) and the slot of the stored row that has its key.
    fn pk_probe(&self, row: &[Value]) -> (Option<u64>, Option<usize>) {
        let Some(pk) = &self.primary else {
            return (None, None);
        };
        let h = pk.hash_row(row);
        let hit = h.and_then(|h| pk.matches(&self.slots, h, pk.key_in(row)).next());
        (h, hit.map(|(slot, _)| slot))
    }

    /// Append a checked row whose primary-key hash the caller already has.
    fn append(&mut self, row: Row, pk_hash: Option<u64>) -> StoreResult<()> {
        let slot = self.slots.len();
        if let (Some(pk), Some(h)) = (&mut self.primary, pk_hash) {
            pk.link(h, slot)?;
        }
        for ix in &mut self.secondary {
            ix.insert(&row, slot)?;
        }
        if self.capture {
            self.changes.push(Change::Insert(row.clone()));
        }
        self.slots.push(Some(row));
        self.live += 1;
        Ok(())
    }

    /// Replace the live row at `slot` and hand back the old one. The row
    /// re-registers in every secondary index (moving to its chain's tail),
    /// and in the primary one only when `rekey` says its key may differ.
    fn replace(&mut self, slot: usize, new: Row, rekey: bool) -> StoreResult<Row> {
        let old = self.take_row(slot)?;
        let keyed = self.primary.iter_mut().filter(|_| rekey);
        for ix in keyed.chain(&mut self.secondary) {
            ix.remove(&old, slot);
            ix.insert(&new, slot)?;
        }
        if self.capture {
            self.changes.push(Change::Delete(old.clone()));
            self.changes.push(Change::Insert(new.clone()));
        }
        if let Some(s) = self.slots.get_mut(slot) {
            *s = Some(new);
        }
        Ok(old)
    }
}

/// The uniqueness check of one statement: each new primary key is probed
/// against the stored rows and against the keys the statement claimed
/// before it, so a batch is refused as a whole before any of it applies.
struct Claims<'a> {
    pk: &'a Index,
    slots: &'a [Option<Row>],
    /// Positions in `claimed`, chained by key hash.
    seen: KeyIndex,
    claimed: Vec<&'a [Value]>,
}

impl<'a> Claims<'a> {
    fn new(pk: &'a Index, slots: &'a [Option<Row>], rows: usize) -> Claims<'a> {
        Claims {
            pk,
            slots,
            seen: KeyIndex::with_capacity(rows),
            claimed: Vec::with_capacity(rows),
        }
    }

    /// Claim `row`'s key (hash `h`). `false` if a stored row holds it —
    /// other than at a slot the statement is `leaving` — or an earlier
    /// claim does.
    fn claim(&mut self, h: u64, row: &'a [Value], leaving: impl Fn(usize) -> bool) -> bool {
        let pk = self.pk;
        let stored = pk
            .matches(self.slots, h, pk.key_in(row))
            .any(|(slot, _)| !leaving(slot));
        let claimed = self.seen.candidates(h).any(|p| {
            let earlier = self.claimed.get(p as usize);
            earlier.is_some_and(|e| pk.columns.iter().all(|&c| e.get(c) == row.get(c)))
        });
        if stored || claimed {
            return false;
        }
        self.seen.push(h);
        self.claimed.push(row);
        true
    }
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
    /// pre-transaction state; returns the number of records applied.
    pub(crate) fn tx_rollback(&self, txid: u64) -> u64 {
        let mut inner = self.inner.write();
        let Some(records) = inner.undo.remove(&txid) else {
            return 0;
        };
        let n = records.len() as u64;
        for rec in records.into_iter().rev() {
            apply_undo(&mut inner, rec);
        }
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
    /// included), live count, every index's slots per key, and the change
    /// log — for byte-identity assertions in rollback tests.
    pub fn state_dump(&self) -> String {
        use std::fmt::Write;
        let inner = self.inner.read();
        let mut out = String::new();
        let _ = writeln!(out, "table {} live={}", self.name, inner.live);
        for (slot, row) in inner.slots.iter().enumerate() {
            let _ = writeln!(out, "  slot {slot}: {row:?}");
        }
        for ix in inner.indexes() {
            let _ = writeln!(out, "  index {}:", ix.name);
            for (key, slots) in ix.entries(&inner.slots) {
                let _ = writeln!(out, "    {key:?} -> {slots:?}");
            }
        }
        let _ = writeln!(out, "  changes: {:?}", inner.changes);
        out
    }

    /// Declare the primary key over the named columns: the table's one
    /// unique index.
    pub fn with_primary_key(self, cols: &[&str]) -> StoreResult<Table> {
        let idxs = self.schema.indices_of(cols)?;
        self.inner.write().primary = Some(Index::new(format!("{}_pk", self.name), idxs));
        Ok(self)
    }

    /// Add a (non-unique) secondary index.
    pub fn with_index(self, name: &str, cols: &[&str]) -> StoreResult<Table> {
        let idxs = self.schema.indices_of(cols)?;
        self.inner.write().secondary.push(Index::new(name, idxs));
        Ok(self)
    }

    /// Fold every index's hashes into four chains (collision tests).
    #[cfg(test)]
    fn with_degenerate_hash(self) -> Table {
        {
            let mut inner = self.inner.write();
            inner.primary = inner.primary.take().map(Index::degenerate);
            inner.secondary = std::mem::take(&mut inner.secondary)
                .into_iter()
                .map(Index::degenerate)
                .collect();
        }
        self
    }

    /// Enable change capture from the first row on.
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

    /// Number of distinct keys of the primary index, if any — a planner
    /// statistic.
    pub fn pk_cardinality(&self) -> Option<usize> {
        self.inner.read().primary.as_ref().map(Index::len)
    }

    fn duplicate_key(&self, pk: &Index, row: &[Value]) -> StoreError {
        StoreError::DuplicateKey {
            table: self.name.clone(),
            key: format!("{:?}", key_of(row, &pk.columns)),
        }
    }

    /// Insert a batch of rows. All rows are validated and checked against
    /// the primary key *before* any row is applied, so a failed batch
    /// leaves the table unchanged (statement-level atomicity).
    pub fn insert(&self, rows: Vec<Row>) -> StoreResult<usize> {
        if rows.is_empty() {
            return Ok(0);
        }
        let _span = dip_trace::span(Layer::Relstore, "insert");
        for r in &rows {
            self.schema.check_row(r)?;
        }
        let mut inner = self.inner.write();
        let n = rows.len();
        let first_slot = inner.slots.len();
        // the last slot must fit an index chain link: refuse here, not
        // halfway through the batch
        slot_id(first_slot + n - 1)?;
        // Uniqueness pre-check, including duplicates inside the batch
        // itself; the hashes it computes register the rows below.
        let mut pk_hashes = Vec::new();
        if let Some(pk) = &inner.primary {
            pk_hashes.reserve(n);
            let mut claims = Claims::new(pk, &inner.slots, n);
            for r in &rows {
                let Some(h) = pk.hash_row(r) else {
                    return Err(StoreError::Constraint(format!(
                        "NULL in primary key of {}",
                        self.name
                    )));
                };
                if !claims.claim(h, r, |_| false) {
                    return Err(self.duplicate_key(pk, r));
                }
                pk_hashes.push(h);
            }
        }
        let changes_len = inner.capture.then(|| inner.changes.len());
        self.journal(
            &mut inner,
            changes_len,
            UndoOp::Appended {
                first_slot,
                count: n,
            },
        );
        let mut pk_hashes = pk_hashes.into_iter();
        for r in rows {
            inner.append(r, pk_hashes.next())?;
        }
        Ok(n)
    }

    /// Insert rows, silently skipping those whose primary key already
    /// exists — the "merge" flavour used by replication-style processes.
    pub fn insert_ignore_duplicates(&self, rows: Vec<Row>) -> StoreResult<usize> {
        let _span = dip_trace::span(Layer::Relstore, "insert");
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
            let (pk_hash, hit) = inner.pk_probe(&r);
            if hit.is_none() {
                inner.append(r, pk_hash)?;
                inserted += 1;
            }
        }
        Ok(inserted)
    }

    /// Insert-or-replace by primary key (upsert). Requires a primary key.
    pub fn upsert(&self, rows: Vec<Row>) -> StoreResult<usize> {
        let _span = dip_trace::span(Layer::Relstore, "upsert");
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
            let changes_len = inner.capture.then(|| inner.changes.len());
            let (pk_hash, hit) = inner.pk_probe(&r);
            let op = match hit {
                // the key is the stored row's: the primary chain stands
                Some(slot) => UndoOp::Replaced {
                    slot,
                    old: inner.replace(slot, r, false)?,
                },
                None => {
                    let first_slot = inner.slots.len();
                    inner.append(r, pk_hash)?;
                    UndoOp::Appended {
                        first_slot,
                        count: 1,
                    }
                }
            };
            if journaling {
                self.journal(&mut inner, changes_len, op);
            }
            n += 1;
        }
        Ok(n)
    }

    /// Drop every row and index entry. Under a transaction the slots move
    /// into the undo record; otherwise they are cleared in place, so the
    /// slot vector and the index tables keep their capacity for the reload
    /// that follows a wipe.
    fn wipe(
        &self,
        inner: &mut TableInner,
        changes_len: Option<usize>,
        restore_changes: Option<Vec<Change>>,
    ) {
        let live = std::mem::take(&mut inner.live);
        inner.indexes_mut().for_each(Index::clear);
        if self.journaling() {
            let slots = std::mem::take(&mut inner.slots);
            self.journal(
                inner,
                changes_len,
                UndoOp::Wiped {
                    slots,
                    live,
                    restore_changes,
                },
            );
        } else {
            inner.slots.clear();
        }
    }

    /// Delete all rows matching `pred`; returns the number deleted.
    pub fn delete_where(&self, pred: &Expr) -> StoreResult<usize> {
        let _span = dip_trace::span(Layer::Relstore, "delete");
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
        if n == inner.live {
            // Full wipe (e.g. staging flush with a `true` predicate): clear
            // indexes wholesale instead of removing every key one by one.
            // All slots are gone afterwards, so no index entry can dangle.
            let changes_len = inner.capture.then(|| inner.changes.len());
            if inner.capture {
                let TableInner { slots, changes, .. } = &mut *inner;
                changes.extend(slots.iter().flatten().cloned().map(Change::Delete));
            }
            self.wipe(&mut inner, changes_len, None);
            return Ok(n);
        }
        let journaling = self.journaling();
        for slot in victims {
            let changes_len = inner.capture.then(|| inner.changes.len());
            let old = inner.take_row(slot)?;
            inner.unindex_row(&old, slot);
            if inner.capture {
                inner.changes.push(Change::Delete(old.clone()));
            }
            inner.live -= 1;
            if journaling {
                self.journal(&mut inner, changes_len, UndoOp::Deleted { slot, old });
            }
        }
        Ok(n)
    }

    /// Update matching rows: each assignment is `(column position, expr
    /// evaluated over the old row)`. Returns the number updated. A
    /// statement that assigns a primary-key column is checked like an
    /// insert batch — the new keys against the rows that stay as they are
    /// and against each other — and refused with the table unchanged.
    pub fn update_where(&self, pred: &Expr, assignments: &[(usize, Expr)]) -> StoreResult<usize> {
        let _span = dip_trace::span(Layer::Relstore, "update");
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
        let rekey = match &inner.primary {
            Some(pk) if assignments.iter().any(|(c, _)| pk.columns.contains(c)) => {
                let mut claims = Claims::new(pk, &inner.slots, updates.len());
                for (_, new) in &updates {
                    // a NULL key part (nullable key column) is not indexed
                    let Some(h) = pk.hash_row(new) else { continue };
                    let leaving = |slot| updates.binary_search_by_key(&slot, |u| u.0).is_ok();
                    if !claims.claim(h, new, leaving) {
                        return Err(self.duplicate_key(pk, new));
                    }
                }
                true
            }
            _ => false,
        };
        let n = updates.len();
        let journaling = self.journaling();
        for (slot, new) in updates {
            let changes_len = inner.capture.then(|| inner.changes.len());
            let old = inner.replace(slot, new, rekey)?;
            if journaling {
                self.journal(&mut inner, changes_len, UndoOp::Replaced { slot, old });
            }
        }
        Ok(n)
    }

    /// Remove all rows (and reset indexes and the change log).
    pub fn truncate(&self) {
        let _span = dip_trace::span(Layer::Relstore, "truncate");
        let mut inner = self.inner.write();
        let changes = std::mem::take(&mut inner.changes);
        self.wipe(&mut inner, None, Some(changes));
    }

    /// Materialize the whole table.
    pub fn scan(&self) -> Relation {
        let inner = self.inner.read();
        let rows: Vec<Row> = inner.slots.iter().filter_map(|s| s.clone()).collect();
        Relation::new(self.schema.clone(), rows)
    }

    /// Materialize rows matching `pred`, optionally projecting columns.
    /// Uses the primary key or a secondary index when `pred` is a simple
    /// equality on indexed columns (`col = literal`). A projected column
    /// outside the schema is [`StoreError::Eval`], before any row is read.
    pub fn scan_where(&self, pred: &Expr, projection: Option<&[usize]>) -> StoreResult<Relation> {
        let width = self.schema.len();
        if let Some(c) = (projection.into_iter().flatten()).find(|&&c| c >= width) {
            return Err(StoreError::Eval(format!("column index {c} out of range")));
        }
        let session = self.rows();
        let slots = session.slots();
        let mut rows = Vec::new();
        session.matching(Some(pred), usize::MAX, &mut |ids| {
            let live = (ids.iter()).filter_map(|&id| slots.get(id as usize)?.as_ref());
            rows.extend(live.map(|row| match projection {
                Some(p) => p.iter().filter_map(|&i| row.get(i).cloned()).collect(),
                None => row.clone(),
            }));
            Ok(())
        })?;
        let schema =
            projection.map_or_else(|| self.schema.clone(), |p| self.schema.project(p).shared());
        Ok(Relation::new(schema, rows))
    }

    /// Open a read session over the table's row slots (see [`TableRows`]).
    pub(crate) fn rows(&self) -> TableRows<'_> {
        TableRows {
            inner: self.inner.read(),
        }
    }

    /// Whether the primary key or a secondary index covers exactly the
    /// given column set (in any order) — the planner's test for eligibility
    /// of an index-nested-loop join.
    pub fn covering_index(&self, cols: &[usize]) -> bool {
        self.inner
            .read()
            .indexes()
            .any(|ix| covers(&ix.columns, cols))
    }

    /// Open an index-probe session over exactly the given key columns.
    /// The session holds the table read lock, so repeated lookups (one per
    /// probe-side row of an index join) pay no per-lookup locking.
    pub(crate) fn probe_on(&self, cols: &[usize]) -> Option<TableProbe<'_>> {
        let rows = self.rows();
        let (which, perm) = rows.inner.indexes().enumerate().find_map(|(n, ix)| {
            if !covers(&ix.columns, cols) {
                return None;
            }
            // perm[i] = where index column i sits in the caller's key tuple
            let perm: Option<Vec<usize>> = ix
                .columns
                .iter()
                .map(|c| cols.iter().position(|k| k == c))
                .collect();
            Some((n, perm?))
        })?;
        Some(TableProbe { rows, which, perm })
    }

    /// Point lookup by primary key.
    pub fn get_by_pk(&self, key: &[Value]) -> Option<Row> {
        let inner = self.inner.read();
        let pk = inner.primary.as_ref()?;
        if key.len() != pk.columns.len() {
            return None;
        }
        let at = |i: usize| key.get(i);
        let mut hits = pk.matches(&inner.slots, pk.hash_with(at)?, at);
        hits.next().map(|(_, row)| row.clone())
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
}

/// Undo one journal record (see [`UndoOp`] for the forward ops).
fn apply_undo(inner: &mut TableInner, rec: UndoRecord) {
    // Re-registering cannot fail here: every slot restored below was
    // registered before, so it fits a chain link.
    let restore = |inner: &mut TableInner, slot: usize, old: Row| {
        let _ = inner.index_row(&old, slot);
        if let Some(s) = inner.slots.get_mut(slot) {
            *s = Some(old);
        }
    };
    match rec.op {
        UndoOp::Appended { first_slot, count } => {
            for slot in first_slot..first_slot + count {
                if let Ok(row) = inner.take_row(slot) {
                    inner.unindex_row(&row, slot);
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
            if let Ok(new) = inner.take_row(slot) {
                inner.unindex_row(&new, slot);
            }
            restore(inner, slot, old);
        }
        UndoOp::Deleted { slot, old } => {
            restore(inner, slot, old);
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
                slots,
                primary,
                secondary,
                ..
            } = &mut *inner;
            for ix in primary.iter_mut().chain(secondary) {
                ix.clear();
                for (slot, row) in slots.iter().enumerate() {
                    if let Some(row) = row {
                        let _ = ix.insert(row, slot);
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

/// A read session over a table's row slots (see [`Table::rows`]): a scan
/// reads its rows through one, in place, and an index join's
/// [`TableProbe`] is one. It holds the table read lock for its lifetime;
/// do not open one on a table that an enclosing operation is writing.
pub(crate) struct TableRows<'a> {
    inner: parking_lot::RwLockReadGuard<'a, TableInner>,
}

impl TableRows<'_> {
    /// The table's row slots, unchanging while the session holds the read
    /// lock (tombstones are `None`).
    pub(crate) fn slots(&self) -> &[Option<Row>] {
        &self.inner.slots
    }

    /// Hand `f` the slots of the live rows matching `pred` (every live row
    /// when `None`), in order, at most `max` at a time; no call when none
    /// matches. A `col = literal` conjunct an index covers walks that
    /// index's chain, otherwise every slot is read; either way `pred` is
    /// evaluated on each candidate row in place.
    pub(crate) fn matching(
        &self,
        pred: Option<&Expr>,
        max: usize,
        f: &mut dyn FnMut(Vec<u32>) -> StoreResult<()>,
    ) -> StoreResult<()> {
        // Starts empty and grows: most scans the E1 processes issue match a
        // handful of rows. After a full batch more is probably coming, so
        // the next one is pre-sized.
        let mut ids: Vec<u32> = Vec::new();
        let mut keep = |slot: usize, row: &Row| -> StoreResult<()> {
            if pred.map_or(Ok(true), |p| p.matches(row))? {
                ids.push(slot_id(slot)?);
                if ids.len() >= max {
                    f(std::mem::replace(&mut ids, Vec::with_capacity(max)))?;
                }
            }
            Ok(())
        };
        let slots = &self.inner.slots;
        match pred.and_then(|p| index_probe(&self.inner, p)) {
            Some((ix, key)) => {
                let at = |i: usize| key.get(i).copied();
                // a NULL literal equals nothing
                let hits = (ix.hash_with(at).into_iter()).flat_map(|h| ix.matches(slots, h, at));
                for (slot, row) in hits {
                    keep(slot, row)?;
                }
            }
            None => {
                for (slot, row) in slots.iter().enumerate() {
                    if let Some(row) = row {
                        keep(slot, row)?;
                    }
                }
            }
        }
        if !ids.is_empty() {
            f(ids)?;
        }
        Ok(())
    }
}

/// An open index-probe session (see [`Table::probe_on`]): a [`TableRows`]
/// session and the index it probes. Like any read session, do not open
/// one on a table that an enclosing operation is writing.
pub(crate) struct TableProbe<'a> {
    pub(crate) rows: TableRows<'a>,
    /// Position of the resolved index in [`TableInner::indexes`].
    which: usize,
    /// `perm[i]` = where index column `i` sits in the caller's key tuple,
    /// so a probe reads the caller's key in place, whatever its order.
    perm: Vec<usize>,
}

impl TableProbe<'_> {
    /// Visit every live row whose indexed key equals `key` (given in the
    /// column order passed to [`Table::probe_on`]) with its slot: the row
    /// is entry `slot` of [`TableRows::slots`].
    pub(crate) fn lookup(
        &self,
        key: &[Value],
        f: &mut dyn FnMut(u32, &[Value]) -> StoreResult<()>,
    ) -> StoreResult<()> {
        let inner = &self.rows.inner;
        let Some(ix) = inner.indexes().nth(self.which) else {
            return Err(StoreError::Invalid("probe session lost its index".into()));
        };
        if key.len() != self.perm.len() {
            return Ok(());
        }
        let at = |i: usize| key.get(*self.perm.get(i)?);
        // a key with a NULL part equals nothing
        let Some(h) = ix.hash_with(at) else {
            return Ok(());
        };
        for (slot, row) in ix.matches(&inner.slots, h, at) {
            f(slot_id(slot)?, row)?;
        }
        Ok(())
    }
}

/// If `pred`'s `col = literal` conjuncts cover every column of an index,
/// that index (the primary key first) and the literals in its column order.
fn index_probe<'a>(inner: &'a TableInner, pred: &'a Expr) -> Option<(&'a Index, Vec<&'a Value>)> {
    let mut eqs: Vec<(usize, &Value)> = Vec::new();
    collect_eqs(pred, &mut eqs);
    if eqs.is_empty() {
        return None;
    }
    inner.indexes().find_map(|ix| {
        let key: Option<Vec<&Value>> = ix
            .columns
            .iter()
            .map(|c| eqs.iter().find(|(col, _)| col == c).map(|(_, v)| *v))
            .collect();
        Some((ix, key?))
    })
}

/// Collect the `col = literal` conjuncts (either operand order) of an AND
/// tree.
fn collect_eqs<'a>(e: &'a Expr, eqs: &mut Vec<(usize, &'a Value)>) {
    match e {
        Expr::And(a, b) => {
            collect_eqs(a, eqs);
            collect_eqs(b, eqs);
        }
        Expr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(c)) => eqs.push((*c, v)),
            _ => {}
        },
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
            .with_index("by_city", &["city"])
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
        // pk probe, literal on either side
        let rel = t.scan_where(&Expr::col(0).eq(Expr::lit(42)), None).unwrap();
        assert_eq!(rel.len(), 1);
        let rel = t.scan_where(&Expr::lit(42).eq(Expr::col(0)), None).unwrap();
        assert_eq!(rel.rows, vec![row(42, "n", "Berlin")]);
    }

    /// Regression: a projected column outside the schema panicked —
    /// indexing the first matching row, or projecting the schema when no
    /// row matched — instead of failing as the executor does.
    #[test]
    fn scan_where_refuses_an_out_of_range_projection() {
        let schema = RelSchema::of(&[("a", SqlType::Int), ("b", SqlType::Int)]).shared();
        let t = Table::new("two", schema).with_primary_key(&["a"]).unwrap();
        t.insert(vec![vec![Value::Int(1), Value::Int(10)]]).unwrap();
        for key in [1, 2] {
            let pred = Expr::col(0).eq(Expr::lit(key));
            let err = t.scan_where(&pred, Some(&[1, 5])).unwrap_err();
            assert_eq!(
                err,
                StoreError::Eval("column index 5 out of range".into()),
                "key {key}"
            );
        }
        let rel = t.scan_where(&Expr::lit(true), Some(&[1])).unwrap();
        assert_eq!(rel.rows, vec![vec![Value::Int(10)]]);
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
        assert_eq!(t.pk_cardinality(), Some(0));
        // pk is cleared too: same key insert succeeds
        t.insert(vec![row(1, "a", "x")]).unwrap();
    }

    /// Regression: `update_where` used to re-register the new key without
    /// probing, leaving two live rows under one primary key.
    #[test]
    fn update_where_refuses_a_duplicate_primary_key() {
        let t = customers().into_shared();
        t.insert(vec![row(1, "a", "x"), row(2, "b", "x"), row(3, "c", "y")])
            .unwrap();
        let before = t.state_dump();
        // onto a row that stays as it is
        let err = t
            .update_where(&Expr::col(0).eq(Expr::lit(2)), &[(0, Expr::lit(1))])
            .unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey { .. }), "{err:?}");
        // two updated rows onto one new key
        let err = t
            .update_where(&Expr::col(2).eq(Expr::lit("x")), &[(0, Expr::lit(9))])
            .unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey { .. }), "{err:?}");
        // NULL stays the schema's constraint violation
        let err = t
            .update_where(
                &Expr::col(0).eq(Expr::lit(2)),
                &[(0, Expr::lit(Value::Null))],
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Constraint(_)), "{err:?}");
        assert_eq!(t.state_dump(), before, "a refused update changes nothing");
        assert_eq!(t.pk_cardinality(), Some(3));

        // keys may move onto keys the same statement vacates: 1,2,3 -> 2,3,4
        let n = t
            .update_where(&Expr::lit(true), &[(0, Expr::col(0).add(Expr::lit(1)))])
            .unwrap();
        assert_eq!(n, 3);
        assert!(t.get_by_pk(&[Value::Int(1)]).is_none());
        for (k, name) in [(2, "a"), (3, "b"), (4, "c")] {
            assert_eq!(t.get_by_pk(&[Value::Int(k)]).unwrap()[1], Value::str(name));
        }
        assert_eq!(t.pk_cardinality(), Some(3));
        // and the move rolls back byte-identically
        let before = t.state_dump();
        let tx = crate::tx::begin();
        t.update_where(&Expr::lit(true), &[(0, Expr::col(0).add(Expr::lit(10)))])
            .unwrap();
        assert!(t.get_by_pk(&[Value::Int(12)]).is_some());
        drop(tx);
        assert_eq!(t.state_dump(), before);
    }

    #[test]
    fn int_and_float_are_one_primary_key() {
        let schema = RelSchema::new(vec![
            Column::not_null("k", SqlType::Float),
            Column::new("v", SqlType::Str),
        ])
        .shared();
        let t = Table::new("f", schema).with_primary_key(&["k"]).unwrap();
        t.insert(vec![vec![Value::Int(3), Value::str("int")]])
            .unwrap();
        let float = || vec![Value::Float(3.0), Value::str("float")];
        let err = t.insert(vec![float()]).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey { .. }));
        let err = t
            .insert(vec![
                vec![Value::Int(4), Value::Null],
                vec![Value::Float(4.0), Value::Null],
            ])
            .unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey { .. }));
        assert_eq!(t.insert_ignore_duplicates(vec![float()]).unwrap(), 0);
        for probe in [Value::Int(3), Value::Float(3.0)] {
            assert_eq!(
                t.get_by_pk(std::slice::from_ref(&probe)).unwrap()[1],
                Value::str("int")
            );
            let rel = t.scan_where(&Expr::col(0).eq(Expr::lit(probe)), None);
            assert_eq!(rel.unwrap().len(), 1);
        }
        t.upsert(vec![float()]).unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(
            t.get_by_pk(&[Value::Int(3)]).unwrap()[1],
            Value::str("float")
        );
    }

    #[test]
    fn null_key_parts_are_not_indexed_and_never_conflict() {
        // a nullable key column: `insert` refuses NULL, the merge flavours
        // store the row unindexed, as many times as it comes
        let schema = RelSchema::of(&[("k", SqlType::Int), ("city", SqlType::Str)]).shared();
        let t = Table::new("n", schema)
            .with_primary_key(&["k"])
            .unwrap()
            .with_index("by_city", &["city"])
            .unwrap();
        let err = t
            .insert(vec![vec![Value::Null, Value::str("x")]])
            .unwrap_err();
        assert!(matches!(err, StoreError::Constraint(_)));
        for _ in 0..2 {
            let n = t.insert_ignore_duplicates(vec![vec![Value::Null, Value::Null]]);
            assert_eq!(n.unwrap(), 1);
            t.upsert(vec![vec![Value::Null, Value::str("x")]]).unwrap();
        }
        t.insert(vec![vec![Value::Int(1), Value::Null]]).unwrap();
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.pk_cardinality(), Some(1));
        assert!(t.get_by_pk(&[Value::Null]).is_none());
        let dump = t.state_dump();
        assert!(dump.contains("[Str(\"x\")] -> [1, 3]"), "{dump}");
        assert!(!dump.contains("[Null]"), "{dump}");
        // `city = NULL` is not true of any row, indexed or not
        let rel = t.scan_where(&Expr::col(1).eq(Expr::lit(Value::Null)), None);
        assert_eq!(rel.unwrap().len(), 0);
        // the unindexed rows delete and wipe like any other
        let n = t.delete_where(&Expr::col(1).eq(Expr::lit("x"))).unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.delete_where(&Expr::lit(true)).unwrap(), 3);
        assert_eq!(t.pk_cardinality(), Some(0));
    }

    #[test]
    fn probe_session_takes_the_key_in_the_callers_column_order() {
        let schema = RelSchema::of(&[
            ("a", SqlType::Int),
            ("b", SqlType::Str),
            ("v", SqlType::Int),
        ])
        .shared();
        let t = Table::new("c", schema)
            .with_index("by_ab", &["a", "b"])
            .unwrap();
        t.insert(
            (0..12)
                .map(|i| {
                    vec![
                        Value::Int(i % 3),
                        Value::str(["x", "y"][i as usize % 2]),
                        Value::Int(i),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let collect = |cols: &[usize], key: &[Value]| -> Vec<i64> {
            let mut out = Vec::new();
            let session = t.probe_on(cols).unwrap();
            session
                .lookup(key, &mut |slot, r| {
                    assert_eq!(session.rows.slots()[slot as usize].as_deref(), Some(r));
                    out.push(r[2].to_int().unwrap());
                    Ok(())
                })
                .unwrap();
            out
        };
        // (a, b) = (1, "y"): rows 1 and 7, in insertion order
        assert_eq!(
            collect(&[0, 1], &[Value::Int(1), Value::str("y")]),
            vec![1, 7]
        );
        assert_eq!(
            collect(&[1, 0], &[Value::str("y"), Value::Int(1)]),
            vec![1, 7]
        );
        // the un-permuted key under the permuted session matches nothing
        assert!(collect(&[1, 0], &[Value::Int(1), Value::str("y")]).is_empty());
        assert!(collect(&[1, 0], &[Value::str("y"), Value::Null]).is_empty());
        assert!(collect(&[1, 0], &[Value::str("y")]).is_empty());
        assert!(t.probe_on(&[0]).is_none());
    }

    /// Every write flavour, under transactions that commit or roll back, on
    /// a table whose hashes fold into four chains (every chain mixes keys)
    /// must leave exactly the state, and answer probes in exactly the row
    /// order, of the same table under the real hash.
    #[test]
    fn colliding_hashes_change_nothing_observable() {
        let plain = customers().with_change_capture().into_shared();
        let folded = customers()
            .with_change_capture()
            .with_degenerate_hash()
            .into_shared();
        let cities = ["Berlin", "Paris", "Rome"];
        let mut state = 0x5EEDu64;
        let mut draw = |n: u64| {
            state = crate::hashkey::splitmix64(state);
            (state % n) as i64
        };
        for step in 0..600 {
            let batch: Vec<Row> = (0..1 + draw(6))
                .map(|_| row(draw(60), "n", cities[draw(3) as usize]))
                .collect();
            let key = draw(60);
            let city = cities[draw(3) as usize];
            let (op, in_tx, commit) = (draw(20), draw(3) == 0, draw(2) == 0);
            let apply = |t: &Arc<Table>| -> String {
                let tx = in_tx.then(crate::tx::begin);
                let by_key = Expr::col(0).eq(Expr::lit(key));
                let by_city = Expr::col(2).eq(Expr::lit(city));
                let outcome = match op {
                    0..=3 => t.insert(batch.clone()),
                    4..=7 => t.insert_ignore_duplicates(batch.clone()),
                    8..=10 => t.upsert(batch.clone()),
                    11..=12 => t.delete_where(&by_key),
                    13 => t.delete_where(&by_city),
                    14..=15 => {
                        t.update_where(&Expr::col(0).lt(Expr::lit(key)), &[(2, Expr::lit(city))])
                    }
                    // moves primary keys; refused when they would collide
                    16..=17 => t.update_where(&by_city, &[(0, Expr::col(0).add(Expr::lit(key)))]),
                    18 => t.delete_where(&Expr::lit(true)),
                    _ => {
                        t.truncate();
                        Ok(0)
                    }
                };
                match tx {
                    Some(tx) if commit => tx.commit(),
                    Some(tx) => tx.rollback(),
                    None => {}
                }
                format!("{outcome:?}")
            };
            assert_eq!(apply(&plain), apply(&folded), "step {step} op {op}");
            assert_eq!(
                plain.state_dump(),
                folded.state_dump(),
                "step {step} op {op}"
            );
            assert_eq!(plain.pk_cardinality(), Some(plain.row_count()));
            for c in cities {
                let p = Expr::col(2).eq(Expr::lit(c));
                assert_eq!(
                    plain.scan_where(&p, None).unwrap().rows,
                    folded.scan_where(&p, None).unwrap().rows,
                    "step {step} op {op} city {c}"
                );
            }
            let k = [Value::Int(key)];
            assert_eq!(plain.get_by_pk(&k), folded.get_by_pk(&k));
        }
    }
}
