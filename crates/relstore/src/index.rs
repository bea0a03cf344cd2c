//! Hash-first slot-chain indexes over table slots.
//!
//! An `Index` stores **no key tuples**. It hashes the indexed columns of
//! a row with `crate::hashkey` (the hash the batch executor's joins and
//! distinct sets use) and keeps, per hash, a linked chain of the slot
//! numbers registered under it: `heads` maps the hash to the chain's first
//! and last slot, `links[slot]` names the slots before and after `slot`.
//! A probe walks the chain and compares the candidates' *stored rows*
//! column by column against the probe key, so neither a hit nor a miss
//! materializes anything; registering a row is an O(1) tail append that
//! allocates nothing (amortized growth of `links` aside); unregistering
//! unlinks the slot number in O(1) without comparing keys or walking —
//! the back links are there for exactly that: under a low-cardinality key
//! (a boolean flag over thousands of rows) a rollback unlinks from the
//! tail and an upsert from anywhere; `clear` frees nothing per key.
//!
//! Two guarantees callers build on:
//!
//! * **Chains only ever contain live slots whose key hashes to the
//!   chain.** The table registers a row before storing it and unregisters
//!   it (with the row it stored) before tombstoning or replacing it, so a
//!   chain walk never meets a stale row. Different keys may share a chain
//!   (a hash collision); `Index::matches` tells them apart by comparison.
//! * **Chains yield slots in registration order.** `scan_where` and
//!   index-join output order — and with them the committed table digests —
//!   depend on it: a replaced row re-registers and moves to the tail.
//!
//! Keys containing `Null` are not indexed (SQL unique semantics: NULLs
//! never collide). Whether keys must be unique is the table's business:
//! its primary key is the one unique index, and it probes before it
//! registers.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::error::{StoreError, StoreResult};
use crate::hashkey::{combine, hash_value, PreMixed, KEY_SEED};
use crate::row::Row;
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// A key tuple extracted from a row.
pub type KeyTuple = Vec<Value>;

/// Extract the key tuple for `cols` from a row.
pub fn key_of(row: &[Value], cols: &[usize]) -> KeyTuple {
    cols.iter().map(|&c| row[c].clone()).collect()
}

/// "No slot" in a chain link; also why slot numbers stop below it.
const NIL: u32 = u32::MAX;

/// The chain neighbours of one slot.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// The link of a slot that is not registered (or is alone in its chain).
const UNLINKED: Link = Link {
    prev: NIL,
    next: NIL,
};

/// A slot number as a chain link. Slots beyond `u32` are refused rather
/// than wrapped.
pub(crate) fn slot_id(slot: usize) -> StoreResult<u32> {
    u32::try_from(slot)
        .ok()
        .filter(|&id| id != NIL)
        .ok_or_else(|| StoreError::Invalid(format!("slot {slot} exceeds the index slot range")))
}

/// A primary or secondary index over a table (see the module docs).
#[derive(Debug)]
pub(crate) struct Index {
    pub(crate) name: String,
    pub(crate) columns: Vec<usize>,
    /// key hash → (first, last) slot of its chain.
    heads: HashMap<u64, (u32, u32), BuildHasherDefault<PreMixed>>,
    /// slot → the slots registered before and after it under the same
    /// hash ([`NIL`] at the chain's ends, and for unregistered slots).
    links: Vec<Link>,
    /// Registered slots.
    len: usize,
    /// Fold every hash into four chains, so tests walk chains that mix
    /// different keys.
    #[cfg(test)]
    degenerate: bool,
}

impl Index {
    pub(crate) fn new(name: impl Into<String>, columns: Vec<usize>) -> Index {
        Index {
            name: name.into(),
            columns,
            heads: HashMap::default(),
            links: Vec::new(),
            len: 0,
            #[cfg(test)]
            degenerate: false,
        }
    }

    #[cfg(test)]
    pub(crate) fn degenerate(mut self) -> Index {
        self.degenerate = true;
        self
    }

    /// Hash of the key whose `i`-th component, in index column order, is
    /// `key(i)`; `None` when a component is NULL or missing — such keys are
    /// neither indexed nor found.
    pub(crate) fn hash_with<'k>(&self, key: impl Fn(usize) -> Option<&'k Value>) -> Option<u64> {
        let mut h = KEY_SEED;
        for i in 0..self.columns.len() {
            let v = key(i)?;
            if v.is_null() {
                return None;
            }
            h = combine(h, hash_value(v));
        }
        #[cfg(test)]
        if self.degenerate {
            return Some(h % 4);
        }
        Some(h)
    }

    /// The key accessor of a full-width row, for [`Index::hash_with`] and
    /// [`Index::matches`].
    pub(crate) fn key_in<'r>(&'r self, row: &'r [Value]) -> impl Fn(usize) -> Option<&'r Value> {
        move |i| row.get(*self.columns.get(i)?)
    }

    /// Hash of `row`'s indexed columns (`None`: a NULL key part).
    pub(crate) fn hash_row(&self, row: &[Value]) -> Option<u64> {
        self.hash_with(self.key_in(row))
    }

    /// The live rows registered under `h` whose indexed columns equal the
    /// probe key (`key(i)` as in [`Index::hash_with`]), in registration
    /// order, with their slots.
    pub(crate) fn matches<'a>(
        &'a self,
        slots: &'a [Option<Row>],
        h: u64,
        key: impl Fn(usize) -> Option<&'a Value> + 'a,
    ) -> impl Iterator<Item = (usize, &'a Row)> + 'a {
        self.chain(self.heads.get(&h).map_or(NIL, |&(first, _)| first))
            .filter_map(move |slot| {
                let row = slots.get(slot)?.as_ref()?;
                let equal = self
                    .columns
                    .iter()
                    .enumerate()
                    .all(|(i, &c)| row.get(c) == key(i));
                equal.then_some((slot, row))
            })
    }

    /// Register `slot` at the tail of the chain of `h`.
    pub(crate) fn link(&mut self, h: u64, slot: usize) -> StoreResult<()> {
        let id = slot_id(slot)?;
        if self.links.len() <= slot {
            self.links.resize(slot + 1, UNLINKED);
        }
        let prev = match self.heads.entry(h) {
            Entry::Occupied(mut e) => {
                let (_, last) = e.get_mut();
                std::mem::replace(last, id)
            }
            Entry::Vacant(e) => {
                e.insert((id, id));
                NIL
            }
        };
        self.set_link(prev, |l| l.next = id);
        self.set_link(id, |l| *l = Link { prev, next: NIL });
        self.len += 1;
        Ok(())
    }

    /// Register a row about to be stored at `slot` (no-op for a NULL key).
    pub(crate) fn insert(&mut self, row: &[Value], slot: usize) -> StoreResult<()> {
        match self.hash_row(row) {
            Some(h) => self.link(h, slot),
            None => Ok(()),
        }
    }

    fn set_link(&mut self, slot: u32, set: impl FnOnce(&mut Link)) {
        if let Some(link) = self.links.get_mut(slot as usize) {
            set(link);
        }
    }

    /// Unregister `slot`, which holds (or held) `row` — the row only names
    /// the chain; the slot is unlinked from its neighbours by number.
    pub(crate) fn remove(&mut self, row: &[Value], slot: usize) {
        let (Some(h), Ok(id)) = (self.hash_row(row), slot_id(slot)) else {
            return;
        };
        let Entry::Occupied(mut head) = self.heads.entry(h) else {
            return;
        };
        let (first, last) = *head.get();
        let Link { prev, next } = self.links.get(slot).copied().unwrap_or(UNLINKED);
        // a slot without a neighbour on one side is that end of its chain,
        // or it is not registered
        if (prev == NIL && first != id) || (next == NIL && last != id) {
            return;
        }
        match (prev == NIL, next == NIL) {
            (true, true) => {
                head.remove();
            }
            (true, false) => *head.get_mut() = (next, last),
            (false, true) => *head.get_mut() = (first, prev),
            (false, false) => {}
        }
        self.set_link(prev, |l| l.next = next);
        self.set_link(next, |l| l.prev = prev);
        self.set_link(id, |l| *l = UNLINKED);
        self.len -= 1;
    }

    fn chain(&self, first: u32) -> Chain<'_> {
        Chain {
            links: &self.links,
            cur: first,
        }
    }

    /// Every (key, slots) pair in a deterministic order (keys sorted by
    /// their debug rendering, slots numerically) — the byte-identity dump
    /// used by transaction-rollback tests. Read off the chains, not the
    /// slot vector, so a missing or dangling registration shows (the
    /// latter under an empty key).
    pub(crate) fn entries(&self, slots: &[Option<Row>]) -> Vec<(KeyTuple, Vec<usize>)> {
        let mut out: Vec<(KeyTuple, Vec<usize>)> = Vec::new();
        for &(first, _) in self.heads.values() {
            let chain_start = out.len();
            for slot in self.chain(first) {
                let key = match slots.get(slot) {
                    Some(Some(row)) => key_of(row, &self.columns),
                    _ => KeyTuple::new(),
                };
                match out[chain_start..].iter_mut().find(|(k, _)| *k == key) {
                    Some((_, group)) => group.push(slot),
                    None => out.push((key, vec![slot])),
                }
            }
        }
        for (_, group) in &mut out {
            group.sort_unstable();
        }
        out.sort_by_cached_key(|(key, _)| format!("{key:?}"));
        out
    }

    /// Number of registered slots — for the primary key, whose keys are
    /// unique, the number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Forget every registration, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.heads.clear();
        self.links.clear();
        self.len = 0;
    }
}

/// Iterator over the slots of one hash chain, in registration order.
struct Chain<'a> {
    links: &'a [Link],
    cur: u32,
}

impl Iterator for Chain<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.cur == NIL {
            return None;
        }
        let slot = self.cur as usize;
        self.cur = self.links.get(slot).map_or(NIL, |l| l.next);
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64, s: &str) -> Row {
        vec![Value::Int(i), Value::str(s)]
    }

    /// A slot vector and an index over column `col` kept in step, the way
    /// the table does it.
    struct Fixture {
        slots: Vec<Option<Row>>,
        ix: Index,
    }

    impl Fixture {
        fn new(ix: Index) -> Fixture {
            Fixture {
                slots: Vec::new(),
                ix,
            }
        }

        fn push(&mut self, r: Row) -> usize {
            let slot = self.slots.len();
            self.ix.insert(&r, slot).unwrap();
            self.slots.push(Some(r));
            slot
        }

        fn delete(&mut self, slot: usize) {
            let old = self.slots[slot].take().unwrap();
            self.ix.remove(&old, slot);
        }

        fn replace(&mut self, slot: usize, r: Row) {
            self.delete(slot);
            self.ix.insert(&r, slot).unwrap();
            self.slots[slot] = Some(r);
        }

        /// Slots whose key is that of the full-width `row`.
        fn find_row(&self, row: &[Value]) -> Vec<usize> {
            match self.ix.hash_row(row) {
                Some(h) => self
                    .ix
                    .matches(&self.slots, h, self.ix.key_in(row))
                    .map(|(slot, _)| slot)
                    .collect(),
                None => Vec::new(),
            }
        }

        /// Slots whose key is `key`, given in index column order.
        fn find(&self, key: &[Value]) -> Vec<usize> {
            let at = |i: usize| key.get(i);
            match self.ix.hash_with(at) {
                Some(h) => self
                    .ix
                    .matches(&self.slots, h, at)
                    .map(|(slot, _)| slot)
                    .collect(),
                None => Vec::new(),
            }
        }
    }

    #[test]
    fn unique_hash_index() {
        let mut f = Fixture::new(Index::new("pk", vec![0]));
        f.push(row(1, "a"));
        f.push(row(2, "b"));
        assert_eq!(f.find_row(&row(1, "zzz")), vec![0]);
        assert!(f.find_row(&row(3, "c")).is_empty());
        assert_eq!(f.find(&[Value::Int(2)]), vec![1]);
        f.delete(1);
        assert!(f.find(&[Value::Int(2)]).is_empty());
        assert_eq!(f.ix.len(), 1);
    }

    #[test]
    fn null_keys_never_conflict() {
        let mut f = Fixture::new(Index::new("u", vec![1]));
        f.push(vec![Value::Int(1), Value::Null]);
        assert_eq!(f.ix.hash_row(&[Value::Int(2), Value::Null]), None);
        assert_eq!(f.ix.len(), 0);
        assert!(f.find(&[Value::Null]).is_empty());
        assert!(f.ix.entries(&f.slots).is_empty());
        // removing the unindexed row is a no-op
        f.delete(0);
        assert_eq!(f.ix.len(), 0);
    }

    #[test]
    fn int_and_float_are_one_key() {
        let mut f = Fixture::new(Index::new("pk", vec![0]));
        f.push(vec![Value::Int(3), Value::str("int")]);
        f.push(vec![Value::Float(3.0), Value::str("float")]);
        assert_eq!(f.find(&[Value::Int(3)]), vec![0, 1]);
        assert_eq!(f.find(&[Value::Float(3.0)]), vec![0, 1]);
        assert_eq!(f.find_row(&[Value::Float(3.0), Value::Null]), vec![0, 1]);
    }

    /// Slots under one key come back in registration order, and a
    /// replaced row moves to the tail.
    #[test]
    fn non_unique_postings() {
        let mut f = Fixture::new(Index::new("n", vec![1]));
        for i in 0..5 {
            f.push(row(i, "a"));
        }
        assert_eq!(f.find(&[Value::str("a")]), vec![0, 1, 2, 3, 4]);
        f.replace(1, row(10, "a"));
        assert_eq!(f.find(&[Value::str("a")]), vec![0, 2, 3, 4, 1]);
        f.replace(0, row(11, "b"));
        assert_eq!(f.find(&[Value::str("a")]), vec![2, 3, 4, 1]);
        assert_eq!(f.find(&[Value::str("b")]), vec![0]);
        assert_eq!(
            f.ix.entries(&f.slots),
            vec![
                (vec![Value::str("a")], vec![1, 2, 3, 4]),
                (vec![Value::str("b")], vec![0]),
            ]
        );
    }

    /// With every hash folded into four chains, a chain mixes different
    /// keys: probes must tell them apart by comparison and every unlink
    /// position must leave the neighbours reachable.
    #[test]
    fn colliding_chains_survive_every_unlink_position() {
        let mut f = Fixture::new(Index::new("pk", vec![0]).degenerate());
        for i in 0..40 {
            f.push(row(i, "x"));
        }
        assert!(f.ix.heads.len() <= 4, "the degenerate hash has four chains");
        let present = |f: &Fixture| -> Vec<i64> {
            (0..40)
                .filter(|&i| match f.find(&[Value::Int(i)]).as_slice() {
                    [] => false,
                    [slot] => {
                        assert_eq!(f.slots[*slot].as_ref().unwrap()[0], Value::Int(i));
                        true
                    }
                    many => panic!("key {i} found at {many:?}"),
                })
                .collect()
        };
        assert_eq!(present(&f), (0..40).collect::<Vec<_>>());

        // head, tail and a middle entry of the longest chain
        let (chain, last) = (f.ix.heads.values())
            .map(|&(first, last)| (f.ix.chain(first).collect::<Vec<usize>>(), last))
            .max_by_key(|(chain, _)| chain.len())
            .unwrap();
        assert!(chain.len() >= 10);
        assert_eq!(*chain.last().unwrap(), last as usize);
        let mut gone = vec![chain[0], chain[chain.len() / 2], chain[chain.len() - 1]];
        for &slot in &gone {
            f.delete(slot);
        }
        let rest: Vec<usize> = chain
            .iter()
            .copied()
            .filter(|s| !gone.contains(s))
            .collect();
        let h = f.ix.hash_row(&row(rest[0] as i64, "x")).unwrap();
        let (first, last) = f.ix.heads[&h];
        assert_eq!(f.ix.chain(first).collect::<Vec<_>>(), rest);
        assert_eq!(last as usize, *rest.last().unwrap());
        gone.sort_unstable();
        let expect: Vec<i64> = (0..40).filter(|i| !gone.contains(&(*i as usize))).collect();
        assert_eq!(present(&f), expect);
        assert_eq!(f.ix.len(), 37);

        // re-registering a removed slot appends at the tail
        f.ix.insert(&row(gone[0] as i64, "x"), gone[0]).unwrap();
        f.slots[gone[0]] = Some(row(gone[0] as i64, "x"));
        let (first, last) = f.ix.heads[&h];
        assert_eq!(last as usize, gone[0]);
        assert_eq!(f.ix.chain(first).count(), rest.len() + 1);

        // emptying a chain drops its head; the others are untouched
        let chain: Vec<usize> = f.ix.chain(first).collect();
        for &slot in &chain {
            f.delete(slot);
        }
        assert!(!f.ix.heads.contains_key(&h));
        assert_eq!(f.ix.len(), 38 - chain.len());
        assert_eq!(present(&f).len(), 38 - chain.len());

        f.ix.clear();
        f.slots.clear();
        assert_eq!(f.ix.len(), 0);
        assert!(f.find(&[Value::Int(1)]).is_empty());
        f.push(row(1, "again"));
        assert_eq!(f.find(&[Value::Int(1)]), vec![0]);
    }

    #[test]
    fn unlinking_a_slot_that_is_not_registered_changes_nothing() {
        let mut f = Fixture::new(Index::new("n", vec![1]));
        f.push(row(1, "a"));
        f.push(row(2, "a"));
        f.ix.remove(&row(9, "a"), 7);
        f.ix.remove(&row(9, "other chain"), 0);
        assert_eq!(f.ix.len(), 2);
        assert_eq!(f.find(&[Value::str("a")]), vec![0, 1]);
    }

    #[test]
    fn slots_beyond_u32_are_refused() {
        let mut ix = Index::new("pk", vec![0]);
        for slot in [u32::MAX as usize, u32::MAX as usize + 1] {
            let err = ix.link(7, slot).unwrap_err();
            assert!(matches!(err, StoreError::Invalid(_)), "{err:?}");
        }
        assert_eq!(ix.len(), 0);
        assert!(
            ix.links.is_empty(),
            "nothing was sized for the refused slot"
        );
    }
}
