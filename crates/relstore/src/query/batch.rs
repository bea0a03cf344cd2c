//! Columnar batch executor — the one optimized execution path.
//!
//! Plans run batch-at-a-time over [`Chunk`]s of ~[`CHUNK_ROWS`] rows. A
//! chunk is a vector of [`Col`]umns plus an optional *selection vector* of
//! surviving row indices. Columns come in three representations:
//!
//! * `Dense` — owned values, one per physical row (scan/aggregate output);
//! * `Shared` — the same, behind an `Arc` (a column forwarded untouched);
//! * `Gather` — a shared source column plus a shared index vector: the
//!   value at row `i` is `src[idx[i]]`.
//!
//! Column *storage* ([`ColData`]) is type-specialized: scans derive the
//! layout from the catalog schema, so an `INT` column is a `Vec<i64>`, a
//! `FLOAT` column a `Vec<f64>` and a `STR` column a `Vec<Arc<str>>`, each
//! with an optional validity bitmap ([`NullMask`]) for NULLs. Aggregate
//! accumulators and key hashing then run over unboxed primitive slices.
//! Because the storage layer accepts *widened* values (an `Int` is legal
//! in a `FLOAT` column, a `Bool` in an `INT` column) and those values must
//! re-emit byte-identically, the builders are adaptive: a value the typed
//! layout cannot represent demotes the column to boxed `Vec<Value>`
//! storage for that chunk ([`ColBuilder`]).
//!
//! `Gather` is the late-materialization trick that makes join chains
//! linear: a join emits its probe-side columns as gathers over the probe
//! chunk (one `Arc<Vec<u32>>` shared by every probe column) instead of
//! re-copying the accumulated prefix into fresh columns at every level.
//! Chained joins *compose* index vectors — u32 arithmetic, no `Value`
//! clones — and a hash join's build side is columnarized once and gathered
//! the same way. Values are cloned exactly once, at the final
//! chunk-to-rows boundary. Filters and distinct-unions never copy either —
//! they narrow the selection vector and pass the columns through.
//!
//! Hash joins, hash aggregates and distinct unions key through
//! `crate::hashkey`: whole key columns are hashed per chunk into a
//! `Vec<u64>` (one pass per key column, splitmix-mixed), and probes walk a
//! chained [`KeyIndex`] comparing candidates against the *stored* build
//! rows / group keys — a key tuple is only materialized when it is first
//! inserted, never per probe row.
//!
//! Emission order is part of the contract — first-seen dedup, `LIMIT` and
//! top-K ties turn it into content, and the committed parent digests
//! (`tests/fixtures/digests_pr11.json`) pin it:
//!
//! * hash joins emit probe order × build insertion order (build ids are
//!   inserted into the [`KeyIndex`] in descending order so chains walk
//!   ascending), build on the estimated-smaller side (LEFT builds right),
//!   NULL keys never join, LEFT pads with build-width NULLs;
//! * aggregates emit groups in first-seen order and a global aggregate
//!   over zero rows still yields one row;
//! * `UnionDistinct` keeps first occurrences; `TopK` breaks ties by input
//!   sequence ([`TopKEntry`]);
//! * all aggregate arithmetic goes through the shared [`AggState`]
//!   (exact-`i64` SUM with overflow fallback, compensated float sums);
//!   float MIN/MAX stay per-element — NaN makes "strictly less wins"
//!   non-transitive, so chunk-local reductions could change results.
//!
//! Hash and group tables are pre-sized from planner cardinality estimates
//! (table live counts at the leaves); aggregate inputs that are bare
//! column references skip expression dispatch; computed aggregate inputs
//! are evaluated column-at-a-time once per chunk through an [`EvalView`]
//! (typed columns materialize to `Value`s once per chunk for the shared
//! expression evaluator, boxed columns are borrowed in place).
//!
//! Each node publishes `relstore.batch.chunks.<op>` and
//! `relstore.batch.rows.<op>` counters next to the shared
//! `relstore.rows_out.<op>`; chunk fill rate is
//! `batch.rows / (batch.chunks × 1024)`. Join output chunks follow probe
//! chunk boundaries, so a high-fan-out join can emit chunks taller than
//! [`CHUNK_ROWS`]; consumers size off [`Chunk::live`], never the constant.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::catalog::Database;
use crate::error::{StoreError, StoreResult};
use crate::expr::{Expr, RowAccess};
use crate::hashkey::{combine, hash_num, hash_str, hash_value, KeyIndex, KEY_SEED, NULL_HASH};
use crate::query::exec::{index_join_equivalent, plan_op, rows_counter, AggState, TopKEntry};
use crate::query::plan::{AggFunc, JoinKind, Plan};
use crate::row::{sort_rows_by_columns, Relation, Row};
use crate::value::{SqlType, Value};
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// Target rows per [`Chunk`]. Large enough to amortize per-chunk operator
/// overhead, small enough that a chunk's columns stay cache-resident.
pub(crate) const CHUNK_ROWS: usize = 1024;

fn oob(c: usize) -> StoreError {
    StoreError::Eval(format!("column index {c} out of range"))
}

/// Validity bitmap for typed column storage: bit set = NULL at that row.
/// Absent (`None` in the column) means "no NULLs", so the all-valid fast
/// paths never touch it.
#[derive(Clone, Debug, Default)]
struct NullMask {
    words: Vec<u64>,
}

impl NullMask {
    fn set(&mut self, i: usize) {
        let w = i / 64;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        if let Some(word) = self.words.get_mut(w) {
            *word |= 1u64 << (i % 64);
        }
    }

    fn is_null(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of NULLs among rows `0..n` (popcount — the COUNT fast path).
    fn count_nulls(&self, n: usize) -> usize {
        let mut total = 0usize;
        for (w, word) in self.words.iter().enumerate() {
            let lo = w * 64;
            if lo >= n {
                break;
            }
            let bits = n - lo;
            let masked = if bits >= 64 {
                *word
            } else {
                word & ((1u64 << bits) - 1)
            };
            total += masked.count_ones() as usize;
        }
        total
    }

    fn truncate(&mut self, n: usize) {
        self.words.truncate(n.div_ceil(64));
        if !n.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (n % 64)) - 1;
            }
        }
    }
}

/// The shared empty string typed NULL slots point at (never observable —
/// the mask shadows it).
fn empty_str() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from("")).clone()
}

/// Physical storage of one column: boxed `Value`s, or an unboxed typed
/// vector plus a NULL bitmap. Typed layouts hold exactly one `Value`
/// variant (plus NULL); anything else lives in `Boxed` (see
/// [`ColBuilder`]'s demotion rule).
enum ColData {
    Boxed(Vec<Value>),
    I64(Vec<i64>, Option<NullMask>),
    F64(Vec<f64>, Option<NullMask>),
    Str(Vec<Arc<str>>, Option<NullMask>),
}

impl ColData {
    /// The value at row `i` (owned — typed layouts construct it), if in
    /// range. A masked row yields `Some(Value::Null)`.
    fn value(&self, i: usize) -> Option<Value> {
        match self {
            ColData::Boxed(v) => v.get(i).cloned(),
            ColData::I64(v, m) => v.get(i).map(|&x| {
                if masked(m, i) {
                    Value::Null
                } else {
                    Value::Int(x)
                }
            }),
            ColData::F64(v, m) => v.get(i).map(|&x| {
                if masked(m, i) {
                    Value::Null
                } else {
                    Value::Float(x)
                }
            }),
            ColData::Str(v, m) => v.get(i).map(|s| {
                if masked(m, i) {
                    Value::Null
                } else {
                    Value::Str(s.clone())
                }
            }),
        }
    }

    /// Does row `i` equal `v` under `Value` equality (`total_cmp`)? Typed
    /// rows compare through a stack-constructed `Value` so cross-type
    /// numeric equality (`Int(3) == Float(3.0)`) behaves identically to
    /// boxed storage.
    fn eq_value(&self, i: usize, v: &Value) -> bool {
        match self {
            ColData::Boxed(vals) => vals.get(i).is_some_and(|x| x == v),
            ColData::I64(vals, m) => vals.get(i).is_some_and(|&x| {
                if masked(m, i) {
                    v.is_null()
                } else {
                    Value::Int(x) == *v
                }
            }),
            ColData::F64(vals, m) => vals.get(i).is_some_and(|&x| {
                if masked(m, i) {
                    v.is_null()
                } else {
                    Value::Float(x) == *v
                }
            }),
            ColData::Str(vals, m) => vals.get(i).is_some_and(|s| {
                if masked(m, i) {
                    v.is_null()
                } else {
                    matches!(v, Value::Str(t) if **t == **s)
                }
            }),
        }
    }

    /// `(key hash, is_null)` of row `i` — out-of-range rows hash as NULL
    /// (they can never be emitted, so the flag only suppresses joins).
    fn hash_at(&self, i: usize) -> (u64, bool) {
        match self {
            ColData::Boxed(v) => match v.get(i) {
                Some(x) => (hash_value(x), x.is_null()),
                None => (NULL_HASH, true),
            },
            ColData::I64(v, m) => match v.get(i) {
                Some(&x) if !masked(m, i) => (hash_num(x as f64), false),
                _ => (NULL_HASH, true),
            },
            ColData::F64(v, m) => match v.get(i) {
                Some(&x) if !masked(m, i) => (hash_num(x), false),
                _ => (NULL_HASH, true),
            },
            ColData::Str(v, m) => match v.get(i) {
                Some(s) if !masked(m, i) => (hash_str(s), false),
                _ => (NULL_HASH, true),
            },
        }
    }

    /// Fold this column's hashes into `acc` (one slot per row, dense
    /// unselected chunks only) — the vectorized one-pass-per-key-column
    /// form of [`ColData::hash_at`]. `nulls[i]` is OR-set where row `i`
    /// is NULL.
    fn hash_into(&self, acc: &mut [u64], nulls: Option<&mut [bool]>) {
        match self {
            ColData::Boxed(vals) => match nulls {
                None => {
                    for (slot, v) in acc.iter_mut().zip(vals) {
                        *slot = combine(*slot, hash_value(v));
                    }
                }
                Some(flags) => {
                    for ((slot, flag), v) in acc.iter_mut().zip(flags.iter_mut()).zip(vals) {
                        *slot = combine(*slot, hash_value(v));
                        *flag |= v.is_null();
                    }
                }
            },
            ColData::I64(vals, m) => {
                hash_dense(vals, m.as_ref(), acc, nulls, |&x| hash_num(x as f64))
            }
            ColData::F64(vals, m) => hash_dense(vals, m.as_ref(), acc, nulls, |&x| hash_num(x)),
            ColData::Str(vals, m) => hash_dense(vals, m.as_ref(), acc, nulls, |s| hash_str(s)),
        }
    }

    /// Rebuild the column as owned `Value`s (the chunk-to-rows boundary).
    fn into_values(self) -> Vec<Value> {
        match self {
            ColData::Boxed(v) => v,
            ColData::I64(v, m) => v
                .into_iter()
                .enumerate()
                .map(|(i, x)| {
                    if masked(&m, i) {
                        Value::Null
                    } else {
                        Value::Int(x)
                    }
                })
                .collect(),
            ColData::F64(v, m) => v
                .into_iter()
                .enumerate()
                .map(|(i, x)| {
                    if masked(&m, i) {
                        Value::Null
                    } else {
                        Value::Float(x)
                    }
                })
                .collect(),
            ColData::Str(v, m) => v
                .into_iter()
                .enumerate()
                .map(|(i, s)| {
                    if masked(&m, i) {
                        Value::Null
                    } else {
                        Value::Str(s)
                    }
                })
                .collect(),
        }
    }

    /// Move the value at row `i` out (boxed storage leaves `Null` behind;
    /// typed storage copies — same cost either way). Used by the selective
    /// chunk-to-rows path, where the remainder is never read again.
    fn take(&mut self, i: usize) -> Option<Value> {
        match self {
            ColData::Boxed(v) => v
                .get_mut(i)
                .map(|slot| std::mem::replace(slot, Value::Null)),
            other => other.value(i),
        }
    }

    fn truncate(&mut self, n: usize) {
        match self {
            ColData::Boxed(v) => v.truncate(n),
            ColData::I64(v, m) => {
                v.truncate(n);
                if let Some(m) = m {
                    m.truncate(n);
                }
            }
            ColData::F64(v, m) => {
                v.truncate(n);
                if let Some(m) = m {
                    m.truncate(n);
                }
            }
            ColData::Str(v, m) => {
                v.truncate(n);
                if let Some(m) = m {
                    m.truncate(n);
                }
            }
        }
    }
}

/// One pass of vectorized key hashing over a typed dense column.
fn hash_dense<T>(
    vals: &[T],
    mask: Option<&NullMask>,
    acc: &mut [u64],
    nulls: Option<&mut [bool]>,
    hash_one: impl Fn(&T) -> u64,
) {
    match mask {
        None => {
            for (slot, v) in acc.iter_mut().zip(vals) {
                *slot = combine(*slot, hash_one(v));
            }
        }
        Some(m) => {
            for (i, (slot, v)) in acc.iter_mut().zip(vals).enumerate() {
                let h = if m.is_null(i) { NULL_HASH } else { hash_one(v) };
                *slot = combine(*slot, h);
            }
            if let Some(flags) = nulls {
                for (i, flag) in flags.iter_mut().enumerate() {
                    *flag |= m.is_null(i);
                }
            }
        }
    }
}

/// Adaptive column builder: starts in the layout the schema type names
/// and **demotes to boxed storage** the moment a value arrives that the
/// typed layout cannot re-emit byte-identically (a widened `Int` in a
/// `FLOAT` column, a `Bool` in an `INT` column). Demotion reconstructs the
/// exact `Value` sequence pushed so far, so output bytes never depend on
/// which layout a chunk ended up in.
enum ColBuilder {
    Boxed(Vec<Value>),
    I64(Vec<i64>, Option<NullMask>),
    F64(Vec<f64>, Option<NullMask>),
    Str(Vec<Arc<str>>, Option<NullMask>),
}

impl ColBuilder {
    fn for_type(ty: Option<SqlType>, cap: usize) -> ColBuilder {
        match ty {
            Some(SqlType::Int) => ColBuilder::I64(Vec::with_capacity(cap), None),
            Some(SqlType::Float) => ColBuilder::F64(Vec::with_capacity(cap), None),
            Some(SqlType::Str) => ColBuilder::Str(Vec::with_capacity(cap), None),
            _ => ColBuilder::Boxed(Vec::with_capacity(cap)),
        }
    }

    fn len(&self) -> usize {
        match self {
            ColBuilder::Boxed(v) => v.len(),
            ColBuilder::I64(v, _) => v.len(),
            ColBuilder::F64(v, _) => v.len(),
            ColBuilder::Str(v, _) => v.len(),
        }
    }

    /// Push `v` if the current layout represents it exactly.
    fn try_push(&mut self, v: &Value) -> bool {
        let n = self.len();
        match self {
            ColBuilder::Boxed(vals) => {
                vals.push(v.clone());
                true
            }
            ColBuilder::I64(vals, mask) => match v {
                Value::Int(x) => {
                    vals.push(*x);
                    true
                }
                Value::Null => {
                    vals.push(0);
                    mask.get_or_insert_with(NullMask::default).set(n);
                    true
                }
                _ => false,
            },
            ColBuilder::F64(vals, mask) => match v {
                Value::Float(x) => {
                    vals.push(*x);
                    true
                }
                Value::Null => {
                    vals.push(0.0);
                    mask.get_or_insert_with(NullMask::default).set(n);
                    true
                }
                _ => false,
            },
            ColBuilder::Str(vals, mask) => match v {
                Value::Str(s) => {
                    vals.push(s.clone());
                    true
                }
                Value::Null => {
                    vals.push(empty_str());
                    mask.get_or_insert_with(NullMask::default).set(n);
                    true
                }
                _ => false,
            },
        }
    }

    fn push(&mut self, v: &Value) {
        if !self.try_push(v) {
            self.demote();
            if let ColBuilder::Boxed(vals) = self {
                vals.push(v.clone());
            }
        }
    }

    fn push_owned(&mut self, v: Value) {
        if let ColBuilder::Boxed(vals) = self {
            vals.push(v);
            return;
        }
        if !self.try_push(&v) {
            self.demote();
            if let ColBuilder::Boxed(vals) = self {
                vals.push(v);
            }
        }
    }

    /// Fall back to boxed storage, reconstructing the values pushed so far
    /// position-for-position.
    fn demote(&mut self) {
        let data = std::mem::replace(self, ColBuilder::Boxed(Vec::new())).finish();
        *self = ColBuilder::Boxed(data.into_values());
    }

    fn finish(self) -> ColData {
        match self {
            ColBuilder::Boxed(v) => ColData::Boxed(v),
            ColBuilder::I64(v, m) => ColData::I64(v, m),
            ColBuilder::F64(v, m) => ColData::F64(v, m),
            ColBuilder::Str(v, m) => ColData::Str(v, m),
        }
    }
}

/// One column of a chunk (see the module docs for the representations).
enum Col {
    /// Owned storage, one entry per physical row.
    Dense(ColData),
    /// Storage shared with other chunks (pass-through / join source).
    Shared(Arc<ColData>),
    /// Lazily gathered: the value at row `i` is `src[idx[i]]`.
    Gather {
        src: Arc<ColData>,
        idx: Arc<Vec<u32>>,
    },
}

impl Col {
    /// Resolve physical row `i` to `(storage, storage row)`.
    fn at(&self, i: usize) -> Option<(&ColData, usize)> {
        match self {
            Col::Dense(d) => Some((d, i)),
            Col::Shared(d) => Some((d.as_ref(), i)),
            Col::Gather { src, idx } => idx.get(i).map(|&j| (src.as_ref(), j as usize)),
        }
    }

    /// The value at physical row `i`, if in range (owned — typed storage
    /// constructs it, boxed storage clones).
    fn value(&self, i: usize) -> Option<Value> {
        self.at(i).and_then(|(d, j)| d.value(j))
    }

    fn eq_value(&self, i: usize, v: &Value) -> bool {
        self.at(i).is_some_and(|(d, j)| d.eq_value(j, v))
    }

    fn hash_at(&self, i: usize) -> (u64, bool) {
        match self.at(i) {
            Some((d, j)) => d.hash_at(j),
            None => (NULL_HASH, true),
        }
    }

    /// Convert to a shareable source column, cloning no values, and
    /// return the backing storage (for `Gather` the *source* — callers
    /// pair it with the composed index).
    fn into_shared(self) -> SharedCol {
        match self {
            Col::Dense(d) => (Arc::new(d), None),
            Col::Shared(d) => (d, None),
            Col::Gather { src, idx } => (src, Some(idx)),
        }
    }
}

/// A column converted to shareable form by [`Col::into_shared`]: the
/// backing storage plus the gather index when the column was gathered.
type SharedCol = (Arc<ColData>, Option<Arc<Vec<u32>>>);

/// A batch of rows in columnar layout. `sel` — when present — lists the
/// surviving *physical* row indices in order; operators that drop rows
/// (filter, distinct, limit over shared columns) narrow it instead of
/// compacting the columns.
pub(crate) struct Chunk {
    cols: Vec<Col>,
    /// Physical row count (columns may be empty when the row type has no
    /// columns, so this is tracked explicitly).
    height: usize,
    /// Surviving row indices in ascending order; `None` = all rows live.
    sel: Option<Vec<u32>>,
}

impl Chunk {
    /// Number of selected (live) rows.
    fn live(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.height,
        }
    }

    /// Physical index of the `k`-th selected row (`k < self.live()`).
    fn idx(&self, k: usize) -> usize {
        match &self.sel {
            Some(s) => s.get(k).copied().unwrap_or_default() as usize,
            None => k,
        }
    }

    /// The value at (physical row `i`, column `c`), if both are in range.
    fn col_value(&self, c: usize, i: usize) -> Option<Value> {
        self.cols.get(c).and_then(|col| col.value(i))
    }

    /// Does the value at (physical row `i`, column `c`) equal `v`?
    fn eq_at(&self, c: usize, i: usize, v: &Value) -> bool {
        self.cols.get(c).is_some_and(|col| col.eq_value(i, v))
    }

    /// Gather physical row `i` into an owned row.
    fn row_at(&self, i: usize) -> Row {
        self.cols.iter().filter_map(|c| c.value(i)).collect()
    }

    /// Append every selected row, in order, onto `out` — the chunk is
    /// spent. Fully dense owned chunks transpose by moving the values;
    /// shared or gathered columns clone each value exactly once.
    fn into_rows(mut self, out: &mut Vec<Row>) {
        out.reserve(self.live());
        let all_dense = self.cols.iter().all(|c| matches!(c, Col::Dense(_)));
        if all_dense && self.sel.is_none() {
            let mut its: Vec<std::vec::IntoIter<Value>> = self
                .cols
                .into_iter()
                .map(|c| match c {
                    Col::Dense(d) => d.into_values().into_iter(),
                    _ => Vec::new().into_iter(),
                })
                .collect();
            for _ in 0..self.height {
                let mut row = Vec::with_capacity(its.len());
                for it in &mut its {
                    if let Some(v) = it.next() {
                        row.push(v);
                    }
                }
                out.push(row);
            }
            return;
        }
        if all_dense {
            // selected rows are taken out of the owned columns in place
            // (the dropped remainder is never read again) — no re-clone
            if let Some(sel) = self.sel.take() {
                for i in sel {
                    let i = i as usize;
                    let mut row = Vec::with_capacity(self.cols.len());
                    for col in &mut self.cols {
                        if let Col::Dense(d) = col {
                            if let Some(v) = d.take(i) {
                                row.push(v);
                            }
                        }
                    }
                    out.push(row);
                }
            }
            return;
        }
        for k in 0..self.live() {
            out.push(self.row_at(self.idx(k)));
        }
    }

    /// Keep only the first `n` selected rows.
    fn truncate_live(&mut self, n: usize) {
        match &mut self.sel {
            Some(s) => s.truncate(n),
            None => {
                if n >= self.height {
                    return;
                }
                if self.cols.iter().all(|c| matches!(c, Col::Dense(_))) {
                    for col in &mut self.cols {
                        if let Col::Dense(d) = col {
                            d.truncate(n);
                        }
                    }
                    self.height = n;
                } else {
                    // shared storage cannot be truncated — select a prefix
                    self.sel = Some((0..n as u32).collect());
                }
            }
        }
    }

    /// Build a per-chunk view of the `needed` columns for the shared
    /// expression evaluator (whose `RowAccess` hands out `&Value`): boxed
    /// columns are borrowed in place (keeping their gather index), typed
    /// columns are materialized to `Value`s once, indexed by physical row.
    fn eval_view(&self, needed: &[usize]) -> EvalView<'_> {
        let mut cols: Vec<EvalCol<'_>> = (0..self.cols.len()).map(|_| EvalCol::Absent).collect();
        for &c in needed {
            let Some(col) = self.cols.get(c) else {
                continue;
            };
            let built = match col {
                Col::Dense(ColData::Boxed(v)) => EvalCol::Borrowed(v, None),
                Col::Dense(other) => EvalCol::Owned(
                    (0..self.height)
                        .map(|i| other.value(i).unwrap_or(Value::Null))
                        .collect(),
                ),
                Col::Shared(d) => match d.as_ref() {
                    ColData::Boxed(v) => EvalCol::Borrowed(v, None),
                    other => EvalCol::Owned(
                        (0..self.height)
                            .map(|i| other.value(i).unwrap_or(Value::Null))
                            .collect(),
                    ),
                },
                Col::Gather { src, idx } => match src.as_ref() {
                    ColData::Boxed(v) => EvalCol::Borrowed(v, Some(idx.as_slice())),
                    other => EvalCol::Owned(
                        idx.iter()
                            .map(|&j| other.value(j as usize).unwrap_or(Value::Null))
                            .collect(),
                    ),
                },
            };
            if let Some(slot) = cols.get_mut(c) {
                *slot = built;
            }
        }
        EvalView { cols }
    }
}

/// One column of an [`EvalView`] (see [`Chunk::eval_view`]).
enum EvalCol<'a> {
    /// Not referenced by the expressions this view serves.
    Absent,
    /// Borrowed boxed storage, with the gather index when indirected.
    Borrowed(&'a [Value], Option<&'a [u32]>),
    /// Typed storage materialized to values, indexed by physical row.
    Owned(Vec<Value>),
}

/// Borrow-friendly chunk view for expression evaluation.
struct EvalView<'a> {
    cols: Vec<EvalCol<'a>>,
}

/// One physical row of an [`EvalView`], readable through the shared
/// expression evaluator ([`Expr::eval_on`] / [`Expr::matches_on`]).
struct EvalRow<'a, 'b> {
    view: &'a EvalView<'b>,
    row: usize,
}

impl RowAccess for EvalRow<'_, '_> {
    fn value_at(&self, i: usize) -> Option<&Value> {
        match self.view.cols.get(i)? {
            EvalCol::Absent => None,
            EvalCol::Borrowed(vals, None) => vals.get(self.row),
            EvalCol::Borrowed(vals, Some(idx)) => {
                idx.get(self.row).and_then(|&j| vals.get(j as usize))
            }
            EvalCol::Owned(vals) => vals.get(self.row),
        }
    }
}

/// The consumer side of a chunked operator: return `false` to stop the
/// producer (early termination), `true` to keep receiving chunks.
type ChunkSink<'s> = dyn FnMut(Chunk) -> StoreResult<bool> + 's;

/// Accumulates emitted rows column-wise and flushes a dense chunk into the
/// downstream sink every [`CHUNK_ROWS`] rows (plus a final partial flush).
/// Scans and values build **typed** columns from the catalog schema;
/// aggregate/sort/top-k output stays boxed (mixed accumulator types).
struct Emitter<'a, 'b> {
    types: Vec<Option<SqlType>>,
    cols: Vec<ColBuilder>,
    height: usize,
    sink: &'a mut ChunkSink<'b>,
}

impl<'a, 'b> Emitter<'a, 'b> {
    /// An emitter with schema-typed column layouts (`None` = boxed).
    fn typed(types: Vec<Option<SqlType>>, sink: &'a mut ChunkSink<'b>) -> Emitter<'a, 'b> {
        // Columns start empty and grow geometrically: most queries the E1
        // processes issue emit a handful of rows, and pre-reserving
        // CHUNK_ROWS per column would make the allocation dominate them.
        // Once a full chunk has been flushed the stream is known to be
        // large and the replacement columns are pre-sized (see `flush`).
        Emitter {
            cols: types.iter().map(|&t| ColBuilder::for_type(t, 0)).collect(),
            types,
            height: 0,
            sink,
        }
    }

    /// An emitter producing boxed `Value` columns throughout.
    fn boxed(width: usize, sink: &'a mut ChunkSink<'b>) -> Emitter<'a, 'b> {
        Emitter::typed(vec![None; width], sink)
    }

    /// Push the concatenation of `parts` as one row.
    fn push_concat(&mut self, parts: &[&[Value]]) -> StoreResult<bool> {
        let mut cols = self.cols.iter_mut();
        for part in parts {
            for v in *part {
                if let Some(col) = cols.next() {
                    col.push(v);
                }
            }
        }
        self.bump()
    }

    /// Push `proj`-selected columns of `row` as one row.
    fn push_projected(&mut self, row: &[Value], proj: &[usize]) -> StoreResult<bool> {
        for (col, &src) in self.cols.iter_mut().zip(proj) {
            if let Some(v) = row.get(src) {
                col.push(v);
            }
        }
        self.bump()
    }

    /// Push an owned row (aggregate/sort/top-k output).
    fn push_owned(&mut self, row: Row) -> StoreResult<bool> {
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push_owned(v);
        }
        self.bump()
    }

    fn bump(&mut self) -> StoreResult<bool> {
        self.height += 1;
        if self.height >= CHUNK_ROWS {
            self.flush()
        } else {
            Ok(true)
        }
    }

    /// Send the buffered rows downstream (no-op when empty). Returns the
    /// sink's verdict: `Ok(false)` = stop producing.
    fn flush(&mut self) -> StoreResult<bool> {
        if self.height == 0 {
            return Ok(true);
        }
        // a full chunk means more is probably coming — pre-size the next one
        let cap = if self.height >= CHUNK_ROWS {
            CHUNK_ROWS
        } else {
            0
        };
        let builders = std::mem::replace(
            &mut self.cols,
            self.types
                .iter()
                .map(|&t| ColBuilder::for_type(t, cap))
                .collect(),
        );
        let chunk = Chunk {
            cols: builders
                .into_iter()
                .map(|b| Col::Dense(b.finish()))
                .collect(),
            height: self.height,
            sel: None,
        };
        self.height = 0;
        (self.sink)(chunk)
    }
}

/// Turn a spent probe chunk into gather columns over `probe_idx` (the
/// physical probe row index of each output row). Every `Dense`/`Shared`
/// probe column shares one index `Arc`; `Gather` probe columns compose
/// their existing index with it — u32 reads, no `Value` clones. The memo
/// reuses one composition per distinct source index vector (columns
/// emitted by the same upstream join all share one).
fn gather_probe_cols(probe: Chunk, probe_idx: &Arc<Vec<u32>>) -> Vec<Col> {
    let mut memo: Vec<(*const Vec<u32>, Arc<Vec<u32>>)> = Vec::new();
    probe
        .cols
        .into_iter()
        .map(|col| {
            let (src, old_idx) = col.into_shared();
            let idx = match old_idx {
                None => probe_idx.clone(),
                Some(old) => {
                    let key = Arc::as_ptr(&old);
                    match memo.iter().find(|(p, _)| *p == key) {
                        Some((_, composed)) => composed.clone(),
                        None => {
                            let composed: Arc<Vec<u32>> = Arc::new(
                                probe_idx
                                    .iter()
                                    .map(|&k| old.get(k as usize).copied().unwrap_or_default())
                                    .collect(),
                            );
                            memo.push((key, composed.clone()));
                            composed
                        }
                    }
                }
            };
            Col::Gather { src, idx }
        })
        .collect()
}

/// Assemble one join output chunk: gathered probe columns and the inner
/// half, probe half first iff `probe_first`.
fn join_chunk(probe: Chunk, probe_idx: Vec<u32>, inner: Vec<Col>, probe_first: bool) -> Chunk {
    let height = probe_idx.len();
    let probe_idx = Arc::new(probe_idx);
    let probe_cols = gather_probe_cols(probe, &probe_idx);
    let mut cols = Vec::with_capacity(probe_cols.len() + inner.len());
    if probe_first {
        cols.extend(probe_cols);
        cols.extend(inner);
    } else {
        cols.extend(inner);
        cols.extend(probe_cols);
    }
    Chunk {
        cols,
        height,
        sel: None,
    }
}

/// Run a plan through the chunked executor, collecting into a relation —
/// what [`execute`](crate::query::execute) runs after optimizing.
pub(crate) fn materialize_chunked(plan: &Plan, db: &Database) -> StoreResult<Relation> {
    let schema = plan.schema(db)?;
    let mut rows: Vec<Row> = Vec::new();
    drive(plan, db, &mut |c: Chunk| {
        c.into_rows(&mut rows);
        Ok(true)
    })?;
    Ok(Relation::new(schema, rows))
}

/// `dip-trace` counter name for a node's emitted chunk count.
fn chunks_counter(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan { .. } => "relstore.batch.chunks.scan",
        Plan::Values(_) => "relstore.batch.chunks.values",
        Plan::Filter { .. } => "relstore.batch.chunks.filter",
        Plan::Project { .. } => "relstore.batch.chunks.project",
        Plan::HashJoin { .. } => "relstore.batch.chunks.hash_join",
        Plan::IndexJoin { .. } => "relstore.batch.chunks.index_join",
        Plan::UnionAll(_) => "relstore.batch.chunks.union_all",
        Plan::UnionDistinct { .. } => "relstore.batch.chunks.union_distinct",
        Plan::Aggregate { .. } => "relstore.batch.chunks.aggregate",
        Plan::Sort { .. } => "relstore.batch.chunks.sort",
        Plan::Limit { .. } => "relstore.batch.chunks.limit",
        Plan::TopK { .. } => "relstore.batch.chunks.top_k",
    }
}

/// `dip-trace` counter name for a node's emitted (selected) row count —
/// `batch.rows / (batch.chunks × 1024)` is the node's chunk fill rate.
fn batch_rows_counter(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan { .. } => "relstore.batch.rows.scan",
        Plan::Values(_) => "relstore.batch.rows.values",
        Plan::Filter { .. } => "relstore.batch.rows.filter",
        Plan::Project { .. } => "relstore.batch.rows.project",
        Plan::HashJoin { .. } => "relstore.batch.rows.hash_join",
        Plan::IndexJoin { .. } => "relstore.batch.rows.index_join",
        Plan::UnionAll(_) => "relstore.batch.rows.union_all",
        Plan::UnionDistinct { .. } => "relstore.batch.rows.union_distinct",
        Plan::Aggregate { .. } => "relstore.batch.rows.aggregate",
        Plan::Sort { .. } => "relstore.batch.rows.sort",
        Plan::Limit { .. } => "relstore.batch.rows.limit",
        Plan::TopK { .. } => "relstore.batch.rows.top_k",
    }
}

/// Drive a node's chunk output into `sink`, publishing the per-node span
/// and counters. Returns `Ok(false)` iff `sink` requested termination.
fn drive(plan: &Plan, db: &Database, sink: &mut ChunkSink) -> StoreResult<bool> {
    let _span = dip_trace::span_cat(
        dip_trace::Layer::Relstore,
        plan_op(plan),
        dip_trace::Category::Processing,
    );
    let mut chunks: u64 = 0;
    let mut rows: u64 = 0;
    let result = exec_chunks(plan, db, &mut |c| {
        chunks += 1;
        rows += c.live() as u64;
        sink(c)
    });
    // chunks/rows add the batching view next to rows_out (skipped for
    // empty streams so tiny point queries stay cheap).
    dip_trace::count(rows_counter(plan), rows);
    if chunks > 0 {
        dip_trace::count(chunks_counter(plan), chunks);
        dip_trace::count(batch_rows_counter(plan), rows);
    }
    result
}

/// Extract the join/group key columns of one selected chunk row into `buf`.
fn gather_key(chunk: &Chunk, row: usize, cols: &[usize], buf: &mut Vec<Value>) -> StoreResult<()> {
    buf.clear();
    for &c in cols {
        match chunk.col_value(c, row) {
            Some(v) => buf.push(v),
            None => return Err(oob(c)),
        }
    }
    Ok(())
}

/// Compute the combined key hash of every *selected* row of `c`, one pass
/// per key column — the vectorized replacement for materializing and
/// hashing a `Vec<Value>` key per row. On return `hashes[k]` is the key
/// hash of the `k`-th selected row; when `nulls` is given, `nulls[k]` is
/// set iff any key column is NULL there (joins skip those rows).
fn chunk_key_hashes(
    c: &Chunk,
    cols: &[usize],
    hashes: &mut Vec<u64>,
    mut nulls: Option<&mut Vec<bool>>,
) -> StoreResult<()> {
    let live = c.live();
    hashes.clear();
    hashes.resize(live, KEY_SEED);
    if let Some(n) = nulls.as_deref_mut() {
        n.clear();
        n.resize(live, false);
    }
    for &cx in cols {
        let col = c.cols.get(cx).ok_or_else(|| oob(cx))?;
        match (&c.sel, col) {
            (None, Col::Dense(d)) => d.hash_into(hashes, nulls.as_mut().map(|v| v.as_mut_slice())),
            (None, Col::Shared(d)) => d.hash_into(hashes, nulls.as_mut().map(|v| v.as_mut_slice())),
            _ => {
                for k in 0..live {
                    let (h, isnull) = col.hash_at(c.idx(k));
                    if let Some(slot) = hashes.get_mut(k) {
                        *slot = combine(*slot, h);
                    }
                    if isnull {
                        if let Some(n) = nulls.as_deref_mut() {
                            if let Some(flag) = n.get_mut(k) {
                                *flag = true;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Per-chunk source of one aggregate's input values: a borrowed chunk
/// column (bare `Expr::Col` inputs — no expression dispatch per row), a
/// dense pre-evaluated vector in selection order, or nothing (`COUNT(*)`).
enum AggSrc<'a> {
    Col(&'a Col),
    Computed(Vec<Value>),
    Star,
}

/// Apply one input value to an aggregate state — the by-reference mirror of
/// [`AggState::update`]'s `Some(v)` path.
fn apply_agg(st: &mut AggState, v: &Value) {
    match st.func() {
        AggFunc::Count => st.count_value(v),
        AggFunc::Sum | AggFunc::Avg => st.add_value(v),
        AggFunc::Min => st.min_value(v),
        AggFunc::Max => st.max_value(v),
    }
}

/// The dense storage behind a column, when it has one (gathers fall back
/// to per-row access).
fn dense_data(col: &Col) -> Option<&ColData> {
    match col {
        Col::Dense(d) => Some(d),
        Col::Shared(d) => Some(d.as_ref()),
        Col::Gather { .. } => None,
    }
}

/// Fold all `n` rows of a dense unselected column into one aggregate
/// state — the type-specialized global-aggregate fast path. Typed columns
/// run over primitive slices (COUNT is a bitmap popcount); float MIN/MAX
/// stay per-element because NaN makes chunk-local reduction unsound.
fn agg_dense(st: &mut AggState, d: &ColData, n: usize) {
    match st.func() {
        AggFunc::Count => match d {
            ColData::Boxed(vals) => {
                for v in vals.iter().take(n) {
                    st.count_value(v);
                }
            }
            ColData::I64(_, m) | ColData::F64(_, m) | ColData::Str(_, m) => {
                let nulls = m.as_ref().map_or(0, |m| m.count_nulls(n));
                st.count_n((n - nulls) as u64);
            }
        },
        AggFunc::Sum | AggFunc::Avg => match d {
            ColData::Boxed(vals) => {
                for v in vals.iter().take(n) {
                    st.add_value(v);
                }
            }
            ColData::I64(vals, None) => {
                for &x in vals.iter().take(n) {
                    st.add_int(x);
                }
            }
            ColData::I64(vals, Some(m)) => {
                for (i, &x) in vals.iter().take(n).enumerate() {
                    if !m.is_null(i) {
                        st.add_int(x);
                    }
                }
            }
            ColData::F64(vals, None) => {
                for &x in vals.iter().take(n) {
                    st.add_float(x);
                }
            }
            ColData::F64(vals, Some(m)) => {
                for (i, &x) in vals.iter().take(n).enumerate() {
                    if !m.is_null(i) {
                        st.add_float(x);
                    }
                }
            }
            ColData::Str(vals, m) => {
                // SUM over strings parses each value (oracle semantics)
                for (i, s) in vals.iter().take(n).enumerate() {
                    if !masked(m, i) {
                        st.add_value(&Value::Str(s.clone()));
                    }
                }
            }
        },
        AggFunc::Min => match d {
            ColData::Boxed(vals) => {
                for v in vals.iter().take(n) {
                    st.min_value(v);
                }
            }
            ColData::I64(vals, m) => {
                for (i, &x) in vals.iter().take(n).enumerate() {
                    if !masked(m, i) {
                        st.min_value(&Value::Int(x));
                    }
                }
            }
            ColData::F64(vals, m) => {
                for (i, &x) in vals.iter().take(n).enumerate() {
                    if !masked(m, i) {
                        st.min_value(&Value::Float(x));
                    }
                }
            }
            ColData::Str(vals, m) => {
                for (i, s) in vals.iter().take(n).enumerate() {
                    if !masked(m, i) {
                        st.min_value(&Value::Str(s.clone()));
                    }
                }
            }
        },
        AggFunc::Max => match d {
            ColData::Boxed(vals) => {
                for v in vals.iter().take(n) {
                    st.max_value(v);
                }
            }
            ColData::I64(vals, m) => {
                for (i, &x) in vals.iter().take(n).enumerate() {
                    if !masked(m, i) {
                        st.max_value(&Value::Int(x));
                    }
                }
            }
            ColData::F64(vals, m) => {
                for (i, &x) in vals.iter().take(n).enumerate() {
                    if !masked(m, i) {
                        st.max_value(&Value::Float(x));
                    }
                }
            }
            ColData::Str(vals, m) => {
                for (i, s) in vals.iter().take(n).enumerate() {
                    if !masked(m, i) {
                        st.max_value(&Value::Str(s.clone()));
                    }
                }
            }
        },
    }
}

fn masked(m: &Option<NullMask>, i: usize) -> bool {
    m.as_ref().is_some_and(|m| m.is_null(i))
}

fn exec_chunks(plan: &Plan, db: &Database, sink: &mut ChunkSink) -> StoreResult<bool> {
    match plan {
        Plan::Scan {
            table,
            predicate,
            projection,
        } => {
            let t = db.table(table)?;
            // typed column layouts come straight from the catalog schema
            let types: Vec<Option<SqlType>> = match projection {
                Some(p) => p
                    .iter()
                    .map(|&i| t.schema.columns().get(i).map(|c| c.ty))
                    .collect(),
                None => t.schema.columns().iter().map(|c| Some(c.ty)).collect(),
            };
            let mut em = Emitter::typed(types, sink);
            let keep_going = match projection {
                None => t.stream_rows(predicate.as_ref(), &mut |row| em.push_concat(&[row]))?,
                Some(p) => {
                    t.stream_rows(predicate.as_ref(), &mut |row| em.push_projected(row, p))?
                }
            };
            if !keep_going {
                return Ok(false);
            }
            em.flush()
        }
        Plan::Values(rel) => {
            let types: Vec<Option<SqlType>> =
                rel.schema.columns().iter().map(|c| Some(c.ty)).collect();
            let mut em = Emitter::typed(types, sink);
            for r in &rel.rows {
                if !em.push_concat(&[r.as_slice()])? {
                    return Ok(false);
                }
            }
            em.flush()
        }
        Plan::Filter { input, predicate } => {
            let mut needed: Vec<usize> = Vec::new();
            predicate.referenced_columns(&mut needed);
            needed.sort_unstable();
            needed.dedup();
            drive(input, db, &mut |c: Chunk| {
                let mut sel: Vec<u32> = Vec::with_capacity(c.live());
                {
                    let view = c.eval_view(&needed);
                    for k in 0..c.live() {
                        let i = c.idx(k);
                        if predicate.matches_on(&EvalRow {
                            view: &view,
                            row: i,
                        })? {
                            sel.push(i as u32);
                        }
                    }
                }
                if sel.is_empty() {
                    return Ok(true);
                }
                let Chunk { cols, height, .. } = c;
                sink(Chunk {
                    cols,
                    height,
                    sel: Some(sel),
                })
            })
        }
        Plan::Project { input, exprs } => {
            let mut needed: Vec<usize> = Vec::new();
            let mut has_computed = false;
            for p in exprs {
                if !matches!(p.expr, Expr::Col(_)) {
                    has_computed = true;
                    p.expr.referenced_columns(&mut needed);
                }
            }
            needed.sort_unstable();
            needed.dedup();
            drive(input, db, &mut |c: Chunk| {
                let live = c.live();
                if live == 0 {
                    return Ok(true);
                }
                // Computed expressions evaluate column-at-a-time first,
                // through an eval view over the original chunk (typed
                // columns materialize once). Bare-column projections then
                // forward the input storage: without a selection it is
                // shared as-is, with one it becomes a gather over the
                // selection — no values move either way.
                let mut computed: Vec<Option<Vec<Value>>> = Vec::with_capacity(exprs.len());
                {
                    let view = if has_computed {
                        Some(c.eval_view(&needed))
                    } else {
                        None
                    };
                    for p in exprs {
                        match (&p.expr, &view) {
                            (Expr::Col(_), _) | (_, None) => computed.push(None),
                            (e, Some(view)) => {
                                let mut vals = Vec::with_capacity(live);
                                for k in 0..live {
                                    vals.push(e.eval_on(&EvalRow {
                                        view,
                                        row: c.idx(k),
                                    })?);
                                }
                                computed.push(Some(vals));
                            }
                        }
                    }
                }
                let sel_idx: Option<Arc<Vec<u32>>> = c.sel.clone().map(Arc::new);
                let mut shared: Vec<SharedCol> = Vec::with_capacity(c.cols.len());
                for col in c.cols {
                    shared.push(col.into_shared());
                }
                let mut memo: Vec<(*const Vec<u32>, Arc<Vec<u32>>)> = Vec::new();
                let mut out_cols: Vec<Col> = Vec::with_capacity(exprs.len());
                for (p, pre) in exprs.iter().zip(computed) {
                    if let Some(vals) = pre {
                        out_cols.push(Col::Dense(ColData::Boxed(vals)));
                        continue;
                    }
                    let Expr::Col(j) = &p.expr else {
                        return Err(StoreError::Eval(
                            "projection expression was not evaluated".into(),
                        ));
                    };
                    let (src, old_idx) = shared.get(*j).cloned().ok_or_else(|| oob(*j))?;
                    let idx = match (&sel_idx, old_idx) {
                        (None, None) => None,
                        (None, Some(old)) => Some(old),
                        (Some(sel), None) => Some(sel.clone()),
                        (Some(sel), Some(old)) => {
                            let key = Arc::as_ptr(&old);
                            Some(match memo.iter().find(|(k, _)| *k == key) {
                                Some((_, composed)) => composed.clone(),
                                None => {
                                    let composed: Arc<Vec<u32>> = Arc::new(
                                        sel.iter()
                                            .map(|&k| {
                                                old.get(k as usize).copied().unwrap_or_default()
                                            })
                                            .collect(),
                                    );
                                    memo.push((key, composed.clone()));
                                    composed
                                }
                            })
                        }
                    };
                    out_cols.push(match idx {
                        None => Col::Shared(src),
                        Some(idx) => Col::Gather { src, idx },
                    });
                }
                // Every output column now addresses 0..live in selection
                // order: with a selection present, bare columns composed it
                // into their gather index and computed columns evaluated the
                // selected rows; without one, live == physical height.
                sink(Chunk {
                    cols: out_cols,
                    height: live,
                    sel: None,
                })
            })
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            kind,
        } => {
            if left_keys.len() != right_keys.len() {
                return Err(StoreError::Invalid("join key arity mismatch".into()));
            }
            // Build on the estimated-smaller side; LEFT joins must build on
            // the right so unmatched left rows can be emitted while probing.
            let build_right =
                *kind == JoinKind::Left || right.estimate_rows(db) <= left.estimate_rows(db);
            let (build_plan, probe_plan, build_keys, probe_keys, probe_is_left) = if build_right {
                (&**right, &**left, right_keys, left_keys, true)
            } else {
                (&**left, &**right, left_keys, right_keys, false)
            };
            // Pre-size from the planner's cardinality estimate (table live
            // counts at the leaves), then exactly once the build is in hand.
            let mut build_rows: Vec<Row> = Vec::with_capacity(build_plan.estimate_rows(db));
            drive(build_plan, db, &mut |c: Chunk| {
                c.into_rows(&mut build_rows);
                Ok(true)
            })?;
            let build_len = build_rows.len();
            // Hash every build key once, then fill the hash-first index in
            // *descending* id order: chains walk ascending, so output is
            // probe order × build insertion order. NULL keys never join,
            // so they are never inserted.
            let mut bh: Vec<u64> = Vec::with_capacity(build_len);
            let mut bnull: Vec<bool> = Vec::with_capacity(build_len);
            for r in &build_rows {
                let mut h = KEY_SEED;
                let mut isnull = false;
                for &k in build_keys {
                    match r.get(k) {
                        Some(v) => {
                            h = combine(h, hash_value(v));
                            isnull |= v.is_null();
                        }
                        None => isnull = true,
                    }
                }
                bh.push(h);
                bnull.push(isnull);
            }
            let mut table = KeyIndex::with_capacity(build_len);
            for i in (0..build_len).rev() {
                if !bnull.get(i).copied().unwrap_or(true) {
                    if let Some(&h) = bh.get(i) {
                        table.insert_at(h, i as u32);
                    }
                }
            }
            drop(bh);
            drop(bnull);
            let left_pad = *kind == JoinKind::Left && probe_is_left;
            // Columnarize the build side once into schema-typed storage
            // (values move, not clone) and append one all-NULL row at index
            // `build_len`: LEFT-join pad emissions gather it like any real
            // match.
            let build_schema = build_plan.schema(db)?;
            let btypes: Vec<Option<SqlType>> =
                build_schema.columns().iter().map(|c| Some(c.ty)).collect();
            let mut builders: Vec<ColBuilder> = btypes
                .iter()
                .map(|&t| ColBuilder::for_type(t, build_len + 1))
                .collect();
            for row in build_rows.drain(..) {
                for (b, v) in builders.iter_mut().zip(row) {
                    b.push_owned(v);
                }
            }
            let bcols: Vec<Arc<ColData>> = builders
                .into_iter()
                .map(|mut b| {
                    b.push(&Value::Null);
                    Arc::new(b.finish())
                })
                .collect();
            let mut ph: Vec<u64> = Vec::new();
            let mut pnull: Vec<bool> = Vec::new();
            drive(probe_plan, db, &mut |c: Chunk| {
                // probe keys are hashed per chunk, one pass per key column;
                // candidates are compared hash-first against the stored
                // build columns — no per-row key materialization
                chunk_key_hashes(&c, probe_keys, &mut ph, Some(&mut pnull))?;
                let mut probe_idx: Vec<u32> = Vec::new();
                let mut build_idx: Vec<u32> = Vec::new();
                for k in 0..c.live() {
                    let i = c.idx(k);
                    if pnull.get(k).copied().unwrap_or(true) {
                        if left_pad {
                            probe_idx.push(i as u32);
                            build_idx.push(build_len as u32);
                        }
                        continue;
                    }
                    let h = ph.get(k).copied().unwrap_or(KEY_SEED);
                    let before = probe_idx.len();
                    for cand in table.candidates(h) {
                        let b = cand as usize;
                        let eq = probe_keys.iter().zip(build_keys).all(|(&pk, &bk)| {
                            match c.col_value(pk, i) {
                                Some(v) => bcols.get(bk).is_some_and(|bc| bc.eq_value(b, &v)),
                                None => false,
                            }
                        });
                        if eq {
                            probe_idx.push(i as u32);
                            build_idx.push(cand);
                        }
                    }
                    if probe_idx.len() == before && left_pad {
                        probe_idx.push(i as u32);
                        build_idx.push(build_len as u32);
                    }
                }
                if probe_idx.is_empty() {
                    return Ok(true);
                }
                let build_idx = Arc::new(build_idx);
                let inner: Vec<Col> = bcols
                    .iter()
                    .map(|src| Col::Gather {
                        src: src.clone(),
                        idx: build_idx.clone(),
                    })
                    .collect();
                sink(join_chunk(c, probe_idx, inner, probe_is_left))
            })
        }
        Plan::IndexJoin {
            probe,
            table,
            probe_keys,
            inner_keys,
            predicate,
            projection,
            kind,
            probe_is_left,
        } => {
            let t = db.table(table)?;
            let Some(session) = t.probe_on(inner_keys) else {
                // index dropped since planning: degrade to the equivalent
                // hash join rather than failing the query
                return exec_chunks(&index_join_equivalent(plan)?, db, sink);
            };
            let inner_width = match projection {
                Some(p) => p.len(),
                None => t.schema.len(),
            };
            // the planner only selects LEFT index joins with probe = left
            let left_pad = *kind == JoinKind::Left && *probe_is_left;
            let probe_first = *probe_is_left;
            let mut key: Vec<Value> = Vec::with_capacity(probe_keys.len());
            drive(probe, db, &mut |c: Chunk| {
                // probe columns are gathered (no clones); matched inner
                // rows are cloned once into dense output columns
                let mut probe_idx: Vec<u32> = Vec::new();
                let mut icols: Vec<Vec<Value>> = (0..inner_width).map(|_| Vec::new()).collect();
                for k in 0..c.live() {
                    let i = c.idx(k);
                    gather_key(&c, i, probe_keys, &mut key)?;
                    if key.iter().any(|v| v.is_null()) {
                        // NULL keys never join; LEFT probes still emit padded
                        if left_pad {
                            probe_idx.push(i as u32);
                            for col in &mut icols {
                                col.push(Value::Null);
                            }
                        }
                        continue;
                    }
                    let mut matched = false;
                    session.lookup_each(&key, &mut |ir| {
                        let keep = match predicate {
                            Some(p) => p.matches_on(ir)?,
                            None => true,
                        };
                        if !keep {
                            return Ok(true);
                        }
                        matched = true;
                        probe_idx.push(i as u32);
                        match projection {
                            Some(p) => {
                                for (col, &x) in icols.iter_mut().zip(p) {
                                    col.push(ir.get(x).cloned().unwrap_or(Value::Null));
                                }
                            }
                            None => {
                                for (col, v) in icols.iter_mut().zip(ir) {
                                    col.push(v.clone());
                                }
                            }
                        }
                        Ok(true)
                    })?;
                    if !matched && left_pad {
                        probe_idx.push(i as u32);
                        for col in &mut icols {
                            col.push(Value::Null);
                        }
                    }
                }
                if probe_idx.is_empty() {
                    return Ok(true);
                }
                let inner: Vec<Col> = icols
                    .into_iter()
                    .map(|v| Col::Dense(ColData::Boxed(v)))
                    .collect();
                sink(join_chunk(c, probe_idx, inner, probe_first))
            })
        }
        Plan::UnionAll(inputs) => {
            let width = plan.schema(db)?.len();
            for i in inputs {
                let w = i.schema(db)?.len();
                if w != width {
                    return Err(StoreError::Invalid(format!(
                        "union arity mismatch: {w} vs {width}"
                    )));
                }
            }
            for i in inputs {
                if !drive(i, db, sink)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Plan::UnionDistinct { inputs, key } => {
            let width = plan.schema(db)?.len();
            for i in inputs {
                if i.schema(db)?.len() != width {
                    return Err(StoreError::Invalid("union arity mismatch".into()));
                }
            }
            // First-seen dedup through the hash-first index: chunk key
            // hashes are computed per column, candidates compare against
            // the *stored* first occurrence, and a key tuple (or whole
            // row) is only materialized when it is new.
            let all_cols: Vec<usize>;
            let kcols: &[usize] = match key {
                Some(cols) => cols,
                None => {
                    all_cols = (0..width).collect();
                    &all_cols
                }
            };
            let mut ix = KeyIndex::with_capacity(plan.estimate_rows(db));
            let mut seen: Vec<Row> = Vec::new();
            let mut hashes: Vec<u64> = Vec::new();
            for inp in inputs {
                let keep_going = drive(inp, db, &mut |c: Chunk| {
                    chunk_key_hashes(&c, kcols, &mut hashes, None)?;
                    let mut sel: Vec<u32> = Vec::with_capacity(c.live());
                    for k in 0..c.live() {
                        let i = c.idx(k);
                        let h = hashes.get(k).copied().unwrap_or(KEY_SEED);
                        let mut dup = false;
                        for cand in ix.candidates(h) {
                            if let Some(stored) = seen.get(cand as usize) {
                                if kcols.iter().zip(stored).all(|(&cx, v)| c.eq_at(cx, i, v)) {
                                    dup = true;
                                    break;
                                }
                            }
                        }
                        if !dup {
                            let mut kv = Vec::with_capacity(kcols.len());
                            for &cx in kcols {
                                kv.push(c.col_value(cx, i).ok_or_else(|| oob(cx))?);
                            }
                            ix.push(h);
                            seen.push(kv);
                            sel.push(i as u32);
                        }
                    }
                    if sel.is_empty() {
                        return Ok(true);
                    }
                    let Chunk { cols, height, .. } = c;
                    sink(Chunk {
                        cols,
                        height,
                        sel: Some(sel),
                    })
                })?;
                if !keep_going {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // Group keys live in first-seen order in `order` (emission
            // order), with states parallel to it; the hash-first index
            // maps key hashes to group ids, so existing groups (the common
            // case) never materialize a key.
            let est = plan.estimate_rows(db).max(1);
            let mut ix = KeyIndex::with_capacity(est);
            let mut order: Vec<Row> = Vec::new();
            let mut states: Vec<Vec<AggState>> = Vec::new();
            let mut ghash: Vec<u64> = Vec::new();
            drive(input, db, &mut |c: Chunk| {
                let live = c.live();
                // Resolve each aggregate's input source once per chunk:
                // bare columns are read in place, computed expressions are
                // evaluated column-at-a-time into a dense vector.
                let mut eval_cols: Vec<usize> = Vec::new();
                let mut any_computed = false;
                for a in aggs {
                    if let Some(e) = &a.input {
                        if !matches!(e, Expr::Col(_)) {
                            any_computed = true;
                            e.referenced_columns(&mut eval_cols);
                        }
                    }
                }
                let view = if any_computed {
                    eval_cols.sort_unstable();
                    eval_cols.dedup();
                    Some(c.eval_view(&eval_cols))
                } else {
                    None
                };
                let mut srcs: Vec<AggSrc> = Vec::with_capacity(aggs.len());
                for a in aggs {
                    let src = match &a.input {
                        None => AggSrc::Star,
                        Some(Expr::Col(j)) => AggSrc::Col(c.cols.get(*j).ok_or_else(|| oob(*j))?),
                        Some(e) => {
                            let Some(view) = &view else {
                                return Err(StoreError::Eval(
                                    "aggregate input was not evaluated".into(),
                                ));
                            };
                            let mut vals = Vec::with_capacity(live);
                            for k in 0..live {
                                vals.push(e.eval_on(&EvalRow {
                                    view,
                                    row: c.idx(k),
                                })?);
                            }
                            AggSrc::Computed(vals)
                        }
                    };
                    srcs.push(src);
                }
                if group_by.is_empty() {
                    // Global aggregate: one state vector, tight per-column
                    // loops over typed storage — the specialized fast path.
                    if states.is_empty() {
                        order.push(Vec::new());
                        states.push(aggs.iter().map(|a| AggState::new(a.func)).collect());
                    }
                    let Some(sts) = states.first_mut() else {
                        return Ok(true);
                    };
                    for (st, src) in sts.iter_mut().zip(&srcs) {
                        match src {
                            AggSrc::Star => {
                                // mirrors `update(None)`: only COUNT reacts
                                if st.func() == AggFunc::Count {
                                    st.count_n(live as u64);
                                }
                            }
                            AggSrc::Col(col) => {
                                let dense = if c.sel.is_none() {
                                    dense_data(col)
                                } else {
                                    None
                                };
                                match dense {
                                    Some(d) => agg_dense(st, d, c.height),
                                    None => {
                                        for k in 0..live {
                                            if let Some(v) = col.value(c.idx(k)) {
                                                apply_agg(st, &v);
                                            }
                                        }
                                    }
                                }
                            }
                            AggSrc::Computed(vals) => {
                                for v in vals {
                                    apply_agg(st, v);
                                }
                            }
                        }
                    }
                } else {
                    chunk_key_hashes(&c, group_by, &mut ghash, None)?;
                    for k in 0..live {
                        let i = c.idx(k);
                        let h = ghash.get(k).copied().unwrap_or(KEY_SEED);
                        let mut gid: Option<usize> = None;
                        for cand in ix.candidates(h) {
                            let g = cand as usize;
                            if order.get(g).is_some_and(|stored| {
                                group_by
                                    .iter()
                                    .zip(stored)
                                    .all(|(&cx, v)| c.eq_at(cx, i, v))
                            }) {
                                gid = Some(g);
                                break;
                            }
                        }
                        let g = match gid {
                            Some(g) => g,
                            None => {
                                let mut kv = Vec::with_capacity(group_by.len());
                                for &cx in group_by {
                                    kv.push(c.col_value(cx, i).ok_or_else(|| oob(cx))?);
                                }
                                let g = ix.push(h) as usize;
                                order.push(kv);
                                states.push(aggs.iter().map(|a| AggState::new(a.func)).collect());
                                g
                            }
                        };
                        let Some(sts) = states.get_mut(g) else {
                            continue;
                        };
                        for (st, src) in sts.iter_mut().zip(&srcs) {
                            match src {
                                AggSrc::Star => {
                                    if st.func() == AggFunc::Count {
                                        st.count_row();
                                    }
                                }
                                AggSrc::Col(col) => {
                                    if let Some(v) = col.value(i) {
                                        apply_agg(st, &v);
                                    }
                                }
                                AggSrc::Computed(vals) => {
                                    if let Some(v) = vals.get(k) {
                                        apply_agg(st, v);
                                    }
                                }
                            }
                        }
                    }
                }
                Ok(true)
            })?;
            // Global aggregate over zero rows still yields one row.
            if states.is_empty() && group_by.is_empty() {
                order.push(vec![]);
                states.push(aggs.iter().map(|a| AggState::new(a.func)).collect());
            }
            let mut em = Emitter::boxed(group_by.len() + aggs.len(), sink);
            for (key, sts) in order.into_iter().zip(states) {
                let mut row = key;
                for st in sts {
                    row.push(st.finish());
                }
                if !em.push_owned(row)? {
                    return Ok(false);
                }
            }
            em.flush()
        }
        Plan::Sort { input, keys } => {
            let mut rows: Vec<Row> = Vec::new();
            drive(input, db, &mut |c: Chunk| {
                c.into_rows(&mut rows);
                Ok(true)
            })?;
            sort_rows_by_columns(&mut rows, keys);
            let width = plan.schema(db)?.len();
            let mut em = Emitter::boxed(width, sink);
            for row in rows {
                if !em.push_owned(row)? {
                    return Ok(false);
                }
            }
            em.flush()
        }
        Plan::Limit { input, n } => {
            let mut remaining = *n;
            if remaining == 0 {
                return Ok(true);
            }
            let mut downstream_stop = false;
            drive(input, db, &mut |mut c: Chunk| {
                if c.live() > remaining {
                    c.truncate_live(remaining);
                }
                remaining -= c.live();
                if !sink(c)? {
                    downstream_stop = true;
                    return Ok(false);
                }
                Ok(remaining > 0)
            })?;
            Ok(!downstream_stop)
        }
        Plan::TopK { input, keys, n } => {
            let n = *n;
            if n == 0 {
                return Ok(true);
            }
            // Max-heap over (sort key, input sequence): the root is the
            // worst of the current best-n, so the survivors are exactly
            // the first n rows of the stable sorted order.
            let mut heap: BinaryHeap<TopKEntry> = BinaryHeap::with_capacity(n + 1);
            let mut seq = 0usize;
            let mut kbuf: Vec<Value> = Vec::with_capacity(keys.len());
            drive(input, db, &mut |c: Chunk| {
                for k in 0..c.live() {
                    let i = c.idx(k);
                    gather_key(&c, i, keys, &mut kbuf)?;
                    if heap.len() >= n {
                        // a row entering now carries the largest seq, so on
                        // a key tie it sorts after the current worst and
                        // cannot displace it — only a strictly smaller key
                        // wins, and everything else skips materialization
                        let displaces = heap
                            .peek()
                            .is_some_and(|worst| kbuf.as_slice() < worst.key.as_slice());
                        seq += 1;
                        if !displaces {
                            continue;
                        }
                        heap.pop();
                        heap.push(TopKEntry {
                            key: std::mem::take(&mut kbuf),
                            seq: seq - 1,
                            row: c.row_at(i),
                        });
                    } else {
                        heap.push(TopKEntry {
                            key: std::mem::take(&mut kbuf),
                            seq,
                            row: c.row_at(i),
                        });
                        seq += 1;
                    }
                }
                Ok(true)
            })?;
            let width = plan.schema(db)?.len();
            let mut em = Emitter::boxed(width, sink);
            for e in heap.into_sorted_vec() {
                if !em.push_owned(e.row)? {
                    return Ok(false);
                }
            }
            em.flush()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_mask_set_count_truncate() {
        let mut m = NullMask::default();
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(130);
        assert!(m.is_null(0) && m.is_null(63) && m.is_null(64) && m.is_null(130));
        assert!(!m.is_null(1) && !m.is_null(129) && !m.is_null(4096));
        assert_eq!(m.count_nulls(131), 4);
        assert_eq!(m.count_nulls(130), 3); // bit 130 past the logical end
        assert_eq!(m.count_nulls(64), 2);
        m.truncate(64);
        assert!(!m.is_null(64) && !m.is_null(130));
        assert_eq!(m.count_nulls(131), 2);
    }

    #[test]
    fn builder_keeps_typed_values_and_masks_nulls() {
        let mut b = ColBuilder::for_type(Some(SqlType::Int), 0);
        for v in [Value::Int(5), Value::Null, Value::Int(-9)] {
            b.push(&v);
        }
        let d = b.finish();
        assert!(matches!(d, ColData::I64(..)));
        assert_eq!(d.value(0), Some(Value::Int(5)));
        assert_eq!(d.value(1), Some(Value::Null));
        assert_eq!(d.value(2), Some(Value::Int(-9)));
        assert_eq!(d.value(3), None);
    }

    #[test]
    fn builder_demotes_on_widened_variants() {
        // Int is legal in a Float column (check_row widening) and must
        // come back out as Int, not Float — the builder demotes to Boxed.
        let seq = [
            Value::Float(1.5),
            Value::Null,
            Value::Int(2),
            Value::Float(3.0),
        ];
        let mut b = ColBuilder::for_type(Some(SqlType::Float), 0);
        for v in &seq {
            b.push(v);
        }
        let d = b.finish();
        assert!(matches!(d, ColData::Boxed(_)));
        for (i, v) in seq.iter().enumerate() {
            assert_eq!(d.value(i).as_ref(), Some(v));
        }
        // Bool in an Int column likewise
        let mut b = ColBuilder::for_type(Some(SqlType::Int), 0);
        b.push(&Value::Int(1));
        b.push(&Value::Bool(true));
        let d = b.finish();
        assert_eq!(d.value(0), Some(Value::Int(1)));
        assert_eq!(d.value(1), Some(Value::Bool(true)));
    }

    #[test]
    fn eq_value_and_hash_agree_across_numeric_types() {
        let mut b = ColBuilder::for_type(Some(SqlType::Int), 0);
        b.push(&Value::Int(3));
        let d = b.finish();
        // Int(3) ≡ Float(3.0) under total_cmp: typed storage must agree
        assert!(d.eq_value(0, &Value::Float(3.0)));
        assert!(d.eq_value(0, &Value::Int(3)));
        assert!(!d.eq_value(0, &Value::Int(4)));
        let (h, isnull) = d.hash_at(0);
        assert!(!isnull);
        assert_eq!(h, hash_value(&Value::Float(3.0)));
        assert_eq!(h, hash_value(&Value::Int(3)));
    }

    #[test]
    fn typed_hash_into_matches_per_value_hashing() {
        let vals = [
            Value::str("x"),
            Value::Null,
            Value::str("long enough to matter"),
        ];
        let mut b = ColBuilder::for_type(Some(SqlType::Str), 0);
        for v in &vals {
            b.push(v);
        }
        let d = b.finish();
        let mut acc = vec![KEY_SEED; vals.len()];
        let mut nulls = vec![false; vals.len()];
        d.hash_into(&mut acc, Some(&mut nulls));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(acc[i], combine(KEY_SEED, hash_value(v)), "row {i}");
        }
        assert_eq!(nulls, vec![false, true, false]);
    }
}
