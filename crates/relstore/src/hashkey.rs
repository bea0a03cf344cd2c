//! Key hashing and hash-first key tables, shared by the batch executor
//! and the table indexes.
//!
//! The batch executor keys its hash joins, hash aggregates and distinct
//! unions through this module instead of allocating a `Vec<Value>` per
//! row, and [`crate::index::Index`] chains table slots under the same
//! hash:
//!
//! * [`hash_value`] / [`combine`] produce one splitmix-mixed `u64` per
//!   key, built column-by-column from [`KEY_SEED`] (the executor hashes a
//!   whole key column per chunk in one pass);
//! * [`KeyIndex`] is the executor's append-only chained hash table
//!   mapping those `u64`s to dense row/group ids. Probes compare candidate
//!   entries against the *stored* rows (hash-first comparison), so a key
//!   is only ever materialized when it is inserted — never on a lookup
//!   hit. A table index needs unlinking and insertion-order chains, so it
//!   shares the hash functions and [`PreMixed`], not this type.
//!
//! The hash must be consistent with [`Value`]'s equality (`total_cmp`):
//! `Int(3)` and `Float(3.0)` compare equal, so both numeric variants hash
//! their `f64` bit pattern — the same equivalence `Value`'s `Hash` impl
//! encodes. Collisions are resolved by full value comparison, so hash
//! quality only affects speed, never results.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::value::Value;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Seed every multi-column key hash starts from (an arbitrary odd
/// constant; distinct from [`NULL_HASH`] so a zero-column key is stable).
pub(crate) const KEY_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The hash of SQL NULL. NULL keys never *join*, but they are legitimate
/// group-by / distinct keys, so they need a stable hash like any value.
pub(crate) const NULL_HASH: u64 = 0x517C_C1B7_2722_0A95;

/// Finalizer from the splitmix64 generator: cheap, and good enough
/// avalanche that the chained table can use the output bits directly.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash one numeric value through its `f64` bit pattern — the equivalence
/// class `total_cmp` uses for cross-type numeric equality.
#[inline]
pub(crate) fn hash_num(f: f64) -> u64 {
    splitmix64(0x2000_0000_0000_0000 ^ f.to_bits())
}

/// Hash string contents (FNV-1a folded through the splitmix finalizer).
#[inline]
pub(crate) fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(0x3000_0000_0000_0000 ^ h)
}

/// Hash of one key component. Equal values (under [`Value::total_cmp`])
/// hash equally; in particular `Int(i)` hashes as `Float(i as f64)` does.
#[inline]
pub(crate) fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Null => NULL_HASH,
        Value::Bool(b) => splitmix64(0x1000_0000_0000_0000 | *b as u64),
        Value::Int(i) => hash_num(*i as f64),
        Value::Float(f) => hash_num(*f),
        Value::Str(s) => hash_str(s),
        Value::Date(d) => splitmix64(0x4000_0000_0000_0000 ^ (*d as u32 as u64)),
    }
}

/// Fold one column's hash into a multi-column key hash. Order-sensitive,
/// so `(a, b)` and `(b, a)` keys rarely collide (collisions are still
/// resolved by comparison).
#[inline]
pub(crate) fn combine(acc: u64, h: u64) -> u64 {
    splitmix64(acc.rotate_left(29) ^ h)
}

/// Identity hasher for keys that are already splitmix-mixed `u64`s —
/// avoids re-hashing through SipHash in the [`KeyIndex`] head map.
#[derive(Default)]
pub(crate) struct PreMixed(u64);

impl Hasher for PreMixed {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn write(&mut self, bytes: &[u8]) {
        // only u64 keys are expected; fold bytes defensively
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }
}

/// A chained hash-first key table: maps a precomputed `u64` key hash to
/// the dense ids of all entries sharing it. The caller owns the entry
/// payloads (build rows, group keys, distinct rows) and resolves hash
/// collisions by comparing against them — entries here are just ids.
///
/// Chains yield ids in **reverse insertion order**; callers that need
/// matches in insertion order (hash-join build sides, where output order
/// is probe × build insertion) insert ids in descending order so the
/// chain walks ascending.
pub(crate) struct KeyIndex {
    /// hash → 1 + id of the chain head (0 = empty, so the map stays dense).
    heads: HashMap<u64, u32, BuildHasherDefault<PreMixed>>,
    /// id → 1 + id of the next chain entry (0 = end of chain).
    next: Vec<u32>,
}

impl KeyIndex {
    pub(crate) fn with_capacity(n: usize) -> KeyIndex {
        KeyIndex {
            heads: HashMap::with_capacity_and_hasher(n, BuildHasherDefault::default()),
            next: Vec::with_capacity(n),
        }
    }

    /// Append the next sequential entry (id = number of entries so far)
    /// under `h` and return its id. Used by aggregates and distinct sets,
    /// where at most one chain entry ever compares equal to a probe.
    pub(crate) fn push(&mut self, h: u64) -> u32 {
        let id = self.next.len() as u32;
        let prev = self.heads.insert(h, id + 1).unwrap_or(0);
        self.next.push(prev);
        id
    }

    /// Insert an entry with a caller-chosen id (growing the chain table as
    /// needed). Joins insert build rows in *descending* id order so
    /// [`KeyIndex::candidates`] yields them ascending.
    pub(crate) fn insert_at(&mut self, h: u64, id: u32) {
        let slot = id as usize;
        if self.next.len() <= slot {
            self.next.resize(slot + 1, 0);
        }
        let prev = self.heads.insert(h, id + 1).unwrap_or(0);
        if let Some(n) = self.next.get_mut(slot) {
            *n = prev;
        }
    }

    /// All entry ids whose key hashed to `h` (possibly differing keys —
    /// the caller compares against its stored payloads).
    pub(crate) fn candidates(&self, h: u64) -> Candidates<'_> {
        Candidates {
            next: &self.next,
            cur: self.heads.get(&h).copied().unwrap_or(0),
        }
    }
}

/// Iterator over one hash chain of a [`KeyIndex`].
pub(crate) struct Candidates<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.cur == 0 {
            return None;
        }
        let id = self.cur - 1;
        self.cur = self.next.get(id as usize).copied().unwrap_or(0);
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_float_hash_equally() {
        assert_eq!(hash_value(&Value::Int(3)), hash_value(&Value::Float(3.0)));
        assert_eq!(hash_value(&Value::Int(-7)), hash_value(&Value::Float(-7.0)));
        // equal strings across allocations hash equally
        assert_eq!(
            hash_value(&Value::str("abc")),
            hash_value(&Value::str("abc"))
        );
        // distinct types with equal payload bits do not collide trivially
        assert_ne!(hash_value(&Value::Bool(true)), hash_value(&Value::Int(1)));
        assert_ne!(hash_value(&Value::Date(5)), hash_value(&Value::Int(5)));
    }

    #[test]
    fn key_index_chains_ascending_when_inserted_descending() {
        let mut ix = KeyIndex::with_capacity(4);
        let h = 42u64;
        for id in (0..4u32).rev() {
            ix.insert_at(h, id);
        }
        let got: Vec<u32> = ix.candidates(h).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(ix.candidates(7).count(), 0);
    }

    #[test]
    fn key_index_push_assigns_sequential_ids() {
        let mut ix = KeyIndex::with_capacity(2);
        assert_eq!(ix.push(1), 0);
        assert_eq!(ix.push(2), 1);
        assert_eq!(ix.push(1), 2);
        let got: Vec<u32> = ix.candidates(1).collect();
        assert_eq!(got, vec![2, 0]); // newest first — fine for unique keys
    }
}
