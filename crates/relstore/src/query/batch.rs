//! Columnar batch executor — the one optimized execution path.
//!
//! Plans run batch-at-a-time over [`Chunk`]s of ~[`CHUNK_ROWS`] rows. A
//! chunk is a vector of [`Col`]umns plus an optional *selection vector* of
//! surviving row indices. Columns come in three representations:
//!
//! * `Dense` — owned values, one per physical row: a computed projection
//!   expression's output, and nothing else;
//! * `Shared` — the same, behind an `Arc` (a column forwarded untouched);
//! * `Gather` — a source plus a shared index vector: the value at row `i`
//!   is entry `idx[i]` of the source — a shared column, one column of a
//!   table's row slots (scans, index joins) or one column of a row slice
//!   (a `Values` leaf's rows, an aggregate's finished groups).
//!
//! Column *storage* is one layout, a `Vec<Value>`, whatever the schema
//! type: the storage layer accepts *widened* values (an `Int` is legal in
//! a `FLOAT` column, a `Bool` in an `INT` column) and a column holds and
//! re-emits each value as it arrived. Operators compare and hash `&Value`
//! in place.
//!
//! `Gather` is the late-materialization trick that makes join chains
//! linear: a join emits its probe-side columns as gathers over the probe
//! chunk (one `Arc<Vec<u32>>` shared by every probe column) instead of
//! re-copying the accumulated prefix into fresh columns at every level.
//! Chained joins *compose* index vectors — u32 arithmetic, no `Value`
//! clones. A hash join's build side is columnarized once and gathered the
//! same way. Every leaf chunk is a gather too, so no operator copies a
//! row to start a chunk. A scan reads its table in place: one vector of
//! matched slot ids per chunk, shared by every column and read under the
//! read lock its session (`table::TableRows`) holds until the scan has
//! handed on its last chunk — the borrow a chunk's lifetime parameter
//! names. An index join gathers its inner half from the table the same
//! way, through its probe session. A `Values` leaf and an aggregate's
//! finished groups are row slices read through one identity index
//! ([`emit_rows`]). Values are cloned exactly once, at the final
//! chunk-to-rows boundary. Filters and distinct-unions never copy either
//! — they narrow the selection vector and pass the columns through.
//!
//! Hash joins, hash aggregates and distinct unions key through
//! `crate::hashkey`: whole key columns are hashed per chunk into a
//! `Vec<u64>` (one pass per key column, splitmix-mixed), and probes walk a
//! chained [`KeyIndex`] comparing candidates against the *stored* build
//! rows / group keys — a key tuple is only materialized when it is first
//! inserted, never per probe row.
//!
//! Emission order is part of the contract — first-seen dedup turns it into
//! content, and the committed parent digests
//! (`tests/fixtures/digests_pr11.json`) pin it:
//!
//! * hash joins emit probe order × build insertion order (build ids are
//!   inserted into the [`KeyIndex`] in descending order so chains walk
//!   ascending), build on the estimated-smaller side, NULL keys never
//!   join;
//! * aggregates emit groups in first-seen order and a global aggregate
//!   over zero rows still yields one row;
//! * `UnionDistinct` keeps first occurrences;
//! * all aggregate arithmetic goes through the shared [`AggState`]
//!   (exact-`i64` SUM with overflow fallback, compensated float sums),
//!   one value at a time.
//!
//! Hash and group tables are pre-sized from planner cardinality estimates
//! (table live counts at the leaves); aggregate inputs that are bare
//! column references skip expression dispatch; computed aggregate inputs
//! are evaluated column-at-a-time once per chunk. The shared expression
//! evaluator reads a chunk row through [`EvalRow`], which borrows the
//! columns in place.
//!
//! Each node publishes a `relstore.batch.chunks.<op>` counter next to the
//! shared `relstore.rows_out.<op>`; chunk fill rate is
//! `rows_out / (batch.chunks × 1024)`. Join output chunks follow probe
//! chunk boundaries, so a high-fan-out join can emit chunks taller than
//! [`CHUNK_ROWS`]; consumers size off [`Chunk::live`], never the constant.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::catalog::Database;
use crate::error::{StoreError, StoreResult};
use crate::expr::{Expr, RowAccess};
use crate::hashkey::{combine, hash_value, KeyIndex, KEY_SEED, NULL_HASH};
use crate::query::exec::{checked_values, index_join_equivalent, node_names, AggState};
use crate::query::plan::{AggOp, Plan};
use crate::row::{Relation, Row};
use crate::table::Table;
use crate::value::Value;
use std::sync::Arc;

/// Target rows per [`Chunk`]. Large enough to amortize per-chunk operator
/// overhead, small enough that a chunk's columns stay cache-resident.
pub(crate) const CHUNK_ROWS: usize = 1024;

fn oob(c: usize) -> StoreError {
    StoreError::Eval(format!("column index {c} out of range"))
}

/// What a gather reads through its index.
#[derive(Clone)]
enum Src<'t> {
    /// A shared column: entry `k` is the value of row `k`.
    Col(Arc<Vec<Value>>),
    /// Column `col` of a table's row slots, read in place: entry `k` is
    /// slot `k`'s value. The borrow is a scan's or an index join's read
    /// session, which holds the table's read lock until the operator has
    /// handed its last chunk on.
    Rows {
        slots: &'t [Option<Row>],
        col: usize,
    },
    /// Column `col` of a row slice, read in place: entry `k` is row `k`'s
    /// value. The borrow is the plan's (a `Values` leaf) or the
    /// aggregate's (its finished groups).
    Values { rows: &'t [Row], col: usize },
}

impl Src<'_> {
    fn get(&self, k: u32) -> Option<&Value> {
        match self {
            Src::Col(v) => v.get(k as usize),
            Src::Rows { slots, col } => slots.get(k as usize)?.as_ref()?.get(*col),
            Src::Values { rows, col } => rows.get(k as usize)?.get(*col),
        }
    }
}

/// One column of a chunk (see the module docs for the representations).
/// Cloning a `Dense` column copies its values; the other two clone `Arc`s.
#[derive(Clone)]
enum Col<'t> {
    /// Owned storage, one entry per physical row (computed projections).
    Dense(Vec<Value>),
    /// Storage shared with other chunks (pass-through / join source).
    Shared(Arc<Vec<Value>>),
    /// Lazily gathered: the value at row `i` is `src[idx[i]]`.
    Gather { src: Src<'t>, idx: Arc<Vec<u32>> },
}

impl<'t> Col<'t> {
    /// The value at physical row `i`, if in range.
    fn value(&self, i: usize) -> Option<&Value> {
        match self {
            Col::Dense(v) => v.get(i),
            Col::Shared(v) => v.get(i),
            Col::Gather { src, idx } => src.get(*idx.get(i)?),
        }
    }

    /// The storage itself when physical row `i` is entry `i` of it
    /// (gathers fall back to per-row access).
    fn direct(&self) -> Option<&[Value]> {
        match self {
            Col::Dense(v) => Some(v),
            Col::Shared(v) => Some(v),
            Col::Gather { .. } => None,
        }
    }

    /// The same column in a form that clones without copying values.
    fn into_shared(self) -> Col<'t> {
        match self {
            Col::Dense(v) => Col::Shared(Arc::new(v)),
            shared => shared,
        }
    }

    /// The column gathered through `outer`: row `k` of the result is row
    /// `outer[k]` of this one. A gathered column composes its index
    /// ([`compose`]); no value is cloned either way.
    fn gathered(self, outer: &Arc<Vec<u32>>, memo: &mut ComposeMemo) -> Col<'t> {
        match self {
            Col::Dense(v) => Col::Gather {
                src: Src::Col(Arc::new(v)),
                idx: outer.clone(),
            },
            Col::Shared(v) => Col::Gather {
                src: Src::Col(v),
                idx: outer.clone(),
            },
            Col::Gather { src, idx } => Col::Gather {
                src,
                idx: compose(outer, idx, memo),
            },
        }
    }
}

/// A batch of rows in columnar layout. `sel` — when present — lists the
/// surviving *physical* row indices in order; operators that drop rows
/// (filter, distinct) narrow it instead of compacting the columns.
pub(crate) struct Chunk<'t> {
    cols: Vec<Col<'t>>,
    /// Physical row count (columns may be empty when the row type has no
    /// columns, so this is tracked explicitly).
    height: usize,
    /// Surviving row indices in ascending order; `None` = all rows live.
    sel: Option<Vec<u32>>,
}

impl Chunk<'_> {
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
    fn col_value(&self, c: usize, i: usize) -> Option<&Value> {
        self.cols.get(c).and_then(|col| col.value(i))
    }

    /// Does the value at (physical row `i`, column `c`) equal `v` under
    /// `Value` equality (`total_cmp`: `Int(3)` equals `Float(3.0)`)?
    fn eq_at(&self, c: usize, i: usize, v: &Value) -> bool {
        self.col_value(c, i) == Some(v)
    }

    /// Clone the `cols` cells of physical row `i` into `buf` (an index
    /// probe's key). A `match`, not
    /// `.cloned().ok_or_else(..)?`: that form moves every cell through a
    /// `Result<Value, StoreError>` and measured +12 % on the index-join
    /// cells of `benches/batch_aggregate.rs`.
    fn key_into(&self, i: usize, cols: &[usize], buf: &mut Vec<Value>) -> StoreResult<()> {
        buf.clear();
        for &c in cols {
            match self.col_value(c, i) {
                Some(v) => buf.push(v.clone()),
                None => return Err(oob(c)),
            }
        }
        Ok(())
    }

    /// The same as an owned tuple — a group or distinct key at the moment
    /// it is first stored.
    fn key_at(&self, i: usize, cols: &[usize]) -> StoreResult<Vec<Value>> {
        let mut key = Vec::with_capacity(cols.len());
        self.key_into(i, cols, &mut key)?;
        Ok(key)
    }

    /// Gather physical row `i` into an owned row, allocated at its width.
    fn row_at(&self, i: usize) -> Row {
        let mut row = Vec::with_capacity(self.cols.len());
        for c in &self.cols {
            if let Some(v) = c.value(i) {
                row.push(v.clone());
            }
        }
        row
    }

    /// Append every selected row, in order, onto `out`, cloning each value
    /// exactly once.
    fn into_rows(self, out: &mut Vec<Row>) {
        out.reserve(self.live());
        for k in 0..self.live() {
            out.push(self.row_at(self.idx(k)));
        }
    }
}

/// One physical row of a chunk, readable through the shared expression
/// evaluator ([`Expr::eval_on`] / [`Expr::matches_on`]); values are
/// borrowed from the columns in place, through the gather index where
/// there is one.
struct EvalRow<'a, 't> {
    chunk: &'a Chunk<'t>,
    row: usize,
}

impl RowAccess for EvalRow<'_, '_> {
    fn value_at(&self, i: usize) -> Option<&Value> {
        self.chunk.col_value(i, self.row)
    }
}

/// The consumer side of a chunked operator: receives every chunk the
/// producer emits, in order. A chunk may borrow what its producer holds
/// (an index join's table rows), so a consumer finishes with it inside
/// the call: whatever it keeps, it clones.
type ChunkSink<'s> = dyn for<'t> FnMut(Chunk<'t>) -> StoreResult<()> + 's;

/// Hand `rows` on in chunks of at most [`CHUNK_ROWS`], read in place: every
/// column of every chunk gathers through one identity index.
fn emit_rows(rows: &[Row], width: usize, sink: &mut ChunkSink) -> StoreResult<()> {
    let idx = Arc::new((0..rows.len().min(CHUNK_ROWS) as u32).collect::<Vec<_>>());
    for rows in rows.chunks(CHUNK_ROWS) {
        let cols = (0..width).map(|col| Col::Gather {
            src: Src::Values { rows, col },
            idx: idx.clone(),
        });
        sink(Chunk {
            cols: cols.collect(),
            height: rows.len(),
            sel: None,
        })?;
    }
    Ok(())
}

/// The columns of table `t` a scan or an index join's inner half emits.
fn table_cols(t: &Table, projection: &Option<Vec<usize>>) -> Vec<usize> {
    match projection {
        Some(p) => p.clone(),
        None => (0..t.schema.len()).collect(),
    }
}

/// Gathers of columns `cols` of table row slots, all through `idx`.
fn slot_cols<'t>(slots: &'t [Option<Row>], cols: &[usize], idx: Vec<u32>) -> Vec<Col<'t>> {
    let idx = Arc::new(idx);
    (cols.iter())
        .map(|&col| Col::Gather {
            src: Src::Rows { slots, col },
            idx: idx.clone(),
        })
        .collect()
}

/// The compositions [`compose`] has made: `(old, composed)` pairs.
type ComposeMemo = Vec<(Arc<Vec<u32>>, Arc<Vec<u32>>)>;

/// The gather index `outer` composed over a column's own gather index
/// `old`: entry `k` is `old[outer[k]]` — u32 reads, no `Value` clones.
/// `memo` keeps one composition per
/// distinct `old` (columns emitted by the same upstream join all share
/// one).
fn compose(outer: &Arc<Vec<u32>>, old: Arc<Vec<u32>>, memo: &mut ComposeMemo) -> Arc<Vec<u32>> {
    if let Some((_, composed)) = memo.iter().find(|(seen, _)| Arc::ptr_eq(seen, &old)) {
        return composed.clone();
    }
    let composed: Arc<Vec<u32>> = Arc::new(
        (outer.iter())
            .map(|&k| old.get(k as usize).copied().unwrap_or_default())
            .collect(),
    );
    memo.push((old, composed.clone()));
    composed
}

/// Assemble one join output chunk: the probe columns gathered over
/// `probe_idx` (the physical probe row of each output row) and the inner
/// half, probe half first iff `probe_first`.
fn join_chunk<'t>(
    probe: Chunk<'t>,
    probe_idx: Vec<u32>,
    inner: Vec<Col<'t>>,
    probe_first: bool,
) -> Chunk<'t> {
    let height = probe_idx.len();
    let probe_idx = Arc::new(probe_idx);
    let mut cols = Vec::with_capacity(probe.cols.len() + inner.len());
    let mut memo = Vec::new();
    let probe_cols = (probe.cols.into_iter()).map(|col| col.gathered(&probe_idx, &mut memo));
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
        Ok(())
    })?;
    Ok(Relation::new(schema, rows))
}

/// Drive `input`'s chunks into `consume`, the chunk-consuming body of
/// `consumer`. Each hand-over runs under one span named by the consumer,
/// so what the consumer does with a chunk is its own self time, not the
/// producer's, whose span is still open around it.
fn feed(consumer: &Plan, input: &Plan, db: &Database, consume: &mut ChunkSink) -> StoreResult<()> {
    let op = node_names(consumer).0;
    drive(input, db, &mut |c: Chunk| {
        let _span = dip_trace::span_cat(
            dip_trace::Layer::Relstore,
            op,
            dip_trace::Category::Processing,
        );
        consume(c)
    })
}

/// Drive a node's chunk output into `sink`, publishing the per-node span
/// and counters.
fn drive(plan: &Plan, db: &Database, sink: &mut ChunkSink) -> StoreResult<()> {
    let (op, rows_out, chunks_out) = node_names(plan);
    let _span = dip_trace::span_cat(
        dip_trace::Layer::Relstore,
        op,
        dip_trace::Category::Processing,
    );
    let mut chunks: u64 = 0;
    let mut rows: u64 = 0;
    let result = exec_chunks(plan, db, &mut |c| {
        chunks += 1;
        rows += c.live() as u64;
        sink(c)
    });
    // the chunk count adds the batching view next to rows_out (skipped
    // for empty streams so tiny point queries stay cheap).
    dip_trace::count(rows_out, rows);
    if chunks > 0 {
        dip_trace::count(chunks_out, chunks);
    }
    result
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
        // an unselected, ungathered column is walked as a slice
        let direct = if c.sel.is_none() { col.direct() } else { None };
        for (k, slot) in hashes.iter_mut().enumerate() {
            let v = match direct {
                Some(vals) => vals.get(k),
                None => col.value(c.idx(k)),
            };
            // an out-of-range row hashes as NULL: it can never be emitted,
            // so the flag only suppresses joins
            let (h, is_null) = v.map_or((NULL_HASH, true), |v| (hash_value(v), v.is_null()));
            *slot = combine(*slot, h);
            if is_null {
                if let Some(flag) = nulls.as_deref_mut().and_then(|n| n.get_mut(k)) {
                    *flag = true;
                }
            }
        }
    }
    Ok(())
}

/// Per-chunk source of one aggregate's input values: a borrowed chunk
/// column (bare `Expr::Col` inputs — no expression dispatch per row), a
/// dense pre-evaluated vector in selection order, or nothing (`COUNT(*)`).
enum AggSrc<'a, 't> {
    Col(&'a Col<'t>),
    Computed(Vec<Value>),
    Star,
}

/// Evaluate `e` on every selected row of `c`, in selection order.
fn eval_column(e: &Expr, c: &Chunk) -> StoreResult<Vec<Value>> {
    (0..c.live())
        .map(|k| {
            e.eval_on(&EvalRow {
                chunk: c,
                row: c.idx(k),
            })
        })
        .collect()
}

fn exec_chunks(plan: &Plan, db: &Database, sink: &mut ChunkSink) -> StoreResult<()> {
    match plan {
        Plan::Scan {
            table,
            predicate,
            projection,
        } => {
            // each chunk reads the matched rows in place, under the
            // session's read lock, every column through one slot vector
            let t = db.table(table)?;
            let cols = table_cols(&t, projection);
            let rows = t.rows();
            let slots = rows.slots();
            rows.matching(predicate.as_ref(), CHUNK_ROWS, &mut |idx| {
                sink(Chunk {
                    height: idx.len(),
                    cols: slot_cols(slots, &cols, idx),
                    sel: None,
                })
            })
        }
        Plan::Values(rel) => emit_rows(&checked_values(rel)?.rows, rel.schema.len(), sink),
        Plan::Filter { input, predicate } => feed(plan, input, db, &mut |c: Chunk| {
            let mut sel: Vec<u32> = Vec::with_capacity(c.live());
            for k in 0..c.live() {
                let row = c.idx(k);
                if predicate.matches_on(&EvalRow { chunk: &c, row })? {
                    sel.push(row as u32);
                }
            }
            if sel.is_empty() {
                return Ok(());
            }
            sink(Chunk {
                sel: Some(sel),
                ..c
            })
        }),
        Plan::Project { input, exprs } => {
            feed(plan, input, db, &mut |c: Chunk| {
                let live = c.live();
                if live == 0 {
                    return Ok(());
                }
                // Computed expressions evaluate column-at-a-time first,
                // over the original chunk. Bare-column projections then
                // forward the input storage: without a selection it is
                // shared as-is, with one it becomes a gather over the
                // selection — no values move either way.
                let mut computed: Vec<Option<Vec<Value>>> = Vec::with_capacity(exprs.len());
                for p in exprs {
                    computed.push(match &p.expr {
                        Expr::Col(_) => None,
                        e => Some(eval_column(e, &c)?),
                    });
                }
                let sel_idx: Option<Arc<Vec<u32>>> = c.sel.clone().map(Arc::new);
                let shared: Vec<Col> = c.cols.into_iter().map(Col::into_shared).collect();
                let mut memo = Vec::new();
                let mut out_cols: Vec<Col> = Vec::with_capacity(exprs.len());
                for (p, pre) in exprs.iter().zip(computed) {
                    if let Some(vals) = pre {
                        out_cols.push(Col::Dense(vals));
                        continue;
                    }
                    let Expr::Col(j) = &p.expr else {
                        return Err(StoreError::Eval(
                            "projection expression was not evaluated".into(),
                        ));
                    };
                    let col = shared.get(*j).cloned().ok_or_else(|| oob(*j))?;
                    out_cols.push(match &sel_idx {
                        None => col,
                        Some(sel) => col.gathered(sel, &mut memo),
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
        } => {
            // Build on the estimated-smaller side.
            let build_right = right.estimate_rows(db) <= left.estimate_rows(db);
            let (build_plan, probe_plan, build_keys, probe_keys, probe_is_left) = if build_right {
                (&**right, &**left, right_keys, left_keys, true)
            } else {
                (&**left, &**right, left_keys, right_keys, false)
            };
            // Pre-size from the planner's cardinality estimate (table live
            // counts at the leaves), then exactly once the build is in hand.
            let mut build_rows: Vec<Row> = Vec::with_capacity(build_plan.estimate_rows(db));
            feed(plan, build_plan, db, &mut |c: Chunk| {
                c.into_rows(&mut build_rows);
                Ok(())
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
            // Columnarize the build side once (values move, not clone).
            let build_width = build_plan.schema(db)?.len();
            let mut bcols: Vec<Vec<Value>> = (0..build_width)
                .map(|_| Vec::with_capacity(build_len))
                .collect();
            for row in build_rows {
                for (col, v) in bcols.iter_mut().zip(row) {
                    col.push(v);
                }
            }
            let bcols: Vec<Arc<Vec<Value>>> = bcols.into_iter().map(Arc::new).collect();
            let mut ph: Vec<u64> = Vec::new();
            let mut pnull: Vec<bool> = Vec::new();
            feed(plan, probe_plan, db, &mut |c: Chunk| {
                // probe keys are hashed per chunk, one pass per key column;
                // candidates are compared hash-first against the stored
                // build columns — no per-row key materialization
                chunk_key_hashes(&c, probe_keys, &mut ph, Some(&mut pnull))?;
                let mut probe_idx: Vec<u32> = Vec::new();
                let mut build_idx: Vec<u32> = Vec::new();
                for k in 0..c.live() {
                    let i = c.idx(k);
                    if pnull.get(k).copied().unwrap_or(true) {
                        continue;
                    }
                    let h = ph.get(k).copied().unwrap_or(KEY_SEED);
                    for cand in table.candidates(h) {
                        let b = cand as usize;
                        let eq = probe_keys.iter().zip(build_keys).all(|(&pk, &bk)| {
                            let stored = bcols.get(bk).and_then(|bc| bc.get(b));
                            stored.is_some_and(|v| c.eq_at(pk, i, v))
                        });
                        if eq {
                            probe_idx.push(i as u32);
                            build_idx.push(cand);
                        }
                    }
                }
                if probe_idx.is_empty() {
                    return Ok(());
                }
                let build_idx = Arc::new(build_idx);
                let inner: Vec<Col> = bcols
                    .iter()
                    .map(|src| Col::Gather {
                        src: Src::Col(src.clone()),
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
            probe_is_left,
        } => {
            let t = db.table(table)?;
            let Some(session) = t.probe_on(inner_keys) else {
                // index dropped since planning: degrade to the equivalent
                // hash join rather than failing the query
                return exec_chunks(&index_join_equivalent(plan)?, db, sink);
            };
            // inner output column `x` reads column `inner_cols[x]` of the
            // matched table row
            let inner_cols = table_cols(&t, projection);
            let mut key: Vec<Value> = Vec::with_capacity(probe_keys.len());
            feed(plan, probe, db, &mut |c: Chunk| {
                // both halves are gathered, no value is cloned: the probe
                // columns over the probe chunk, the inner columns over the
                // table's row slots, read in place under the session's lock
                let mut probe_idx: Vec<u32> = Vec::new();
                let mut slot_idx: Vec<u32> = Vec::new();
                for k in 0..c.live() {
                    let i = c.idx(k);
                    c.key_into(i, probe_keys, &mut key)?;
                    if key.iter().any(|v| v.is_null()) {
                        continue; // NULL keys never join
                    }
                    session.lookup(&key, &mut |slot, ir| {
                        if let Some(p) = predicate {
                            if !p.matches_on(ir)? {
                                return Ok(());
                            }
                        }
                        probe_idx.push(i as u32);
                        slot_idx.push(slot);
                        Ok(())
                    })?;
                }
                if probe_idx.is_empty() {
                    return Ok(());
                }
                let inner = slot_cols(session.rows.slots(), &inner_cols, slot_idx);
                sink(join_chunk(c, probe_idx, inner, *probe_is_left))
            })
        }
        Plan::UnionDistinct { inputs, key } => {
            // First-seen dedup through the hash-first index: chunk key
            // hashes are computed per column, candidates compare against
            // the *stored* first occurrence, and a key tuple (or whole
            // row) is only materialized when it is new.
            let all_cols: Vec<usize>;
            let kcols: &[usize] = match key {
                Some(cols) => cols,
                None => {
                    all_cols = (0..plan.schema(db)?.len()).collect();
                    &all_cols
                }
            };
            let mut ix = KeyIndex::with_capacity(plan.estimate_rows(db));
            let mut seen: Vec<Row> = Vec::new();
            let mut hashes: Vec<u64> = Vec::new();
            for inp in inputs {
                feed(plan, inp, db, &mut |c: Chunk| {
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
                            ix.push(h);
                            seen.push(c.key_at(i, kcols)?);
                            sel.push(i as u32);
                        }
                    }
                    if sel.is_empty() {
                        return Ok(());
                    }
                    sink(Chunk {
                        sel: Some(sel),
                        ..c
                    })
                })?;
            }
            Ok(())
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // Group keys live in first-seen order in `order` (emission
            // order), with states parallel to it; the hash-first index
            // maps key hashes to group ids, so existing groups (the common
            // case) never materialize a key. A global aggregate is the
            // zero-column key: every row hashes to `KEY_SEED` and finds
            // group 0.
            let est = plan.estimate_rows(db).max(1);
            let mut ix = KeyIndex::with_capacity(est);
            let mut order: Vec<Row> = Vec::new();
            let mut states: Vec<Vec<AggState>> = Vec::new();
            let mut ghash: Vec<u64> = Vec::new();
            feed(plan, input, db, &mut |c: Chunk| {
                // Resolve each aggregate's input source once per chunk:
                // bare columns are read in place, computed expressions are
                // evaluated column-at-a-time into a dense vector.
                let mut srcs: Vec<AggSrc> = Vec::with_capacity(aggs.len());
                for a in aggs {
                    srcs.push(match &a.op {
                        AggOp::CountStar => AggSrc::Star,
                        AggOp::Sum(Expr::Col(j)) => {
                            AggSrc::Col(c.cols.get(*j).ok_or_else(|| oob(*j))?)
                        }
                        AggOp::Sum(e) => AggSrc::Computed(eval_column(e, &c)?),
                    });
                }
                chunk_key_hashes(&c, group_by, &mut ghash, None)?;
                for k in 0..c.live() {
                    let i = c.idx(k);
                    let h = ghash.get(k).copied().unwrap_or(KEY_SEED);
                    let known = ix.candidates(h).map(|cand| cand as usize).find(|&g| {
                        order.get(g).is_some_and(|stored| {
                            group_by
                                .iter()
                                .zip(stored)
                                .all(|(&cx, v)| c.eq_at(cx, i, v))
                        })
                    });
                    let g = match known {
                        Some(g) => g,
                        None => {
                            order.push(c.key_at(i, group_by)?);
                            states.push(vec![AggState::default(); aggs.len()]);
                            ix.push(h) as usize
                        }
                    };
                    let Some(sts) = states.get_mut(g) else {
                        continue;
                    };
                    for (st, src) in sts.iter_mut().zip(&srcs) {
                        match src {
                            AggSrc::Star => st.count_row(),
                            AggSrc::Col(col) => {
                                if let Some(v) = col.value(i) {
                                    st.add_value(v);
                                }
                            }
                            AggSrc::Computed(vals) => {
                                if let Some(v) = vals.get(k) {
                                    st.add_value(v);
                                }
                            }
                        }
                    }
                }
                Ok(())
            })?;
            // Global aggregate over zero rows still yields one row.
            if states.is_empty() && group_by.is_empty() {
                order.push(vec![]);
                states.push(vec![AggState::default(); aggs.len()]);
            }
            let rows: Vec<Row> = (order.into_iter().zip(states))
                .map(|(mut row, sts)| {
                    row.extend(sts.into_iter().zip(aggs).map(|(st, a)| st.finish(&a.op)));
                    row
                })
                .collect();
            emit_rows(&rows, group_by.len() + aggs.len(), sink)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::plan::{AggExpr, ProjExpr};
    use crate::schema::RelSchema;
    use crate::value::SqlType;

    /// A scan hands on full chunks of matched rows, then the rest, and
    /// nothing for no match; an aggregate's groups chunk the same way.
    /// These are the boundaries the `batch.chunks` counters count.
    #[test]
    fn leaf_chunks_are_full_until_the_last() {
        let db = Database::new("chunks");
        let schema = RelSchema::of(&[("k", SqlType::Int), ("g", SqlType::Int)]).shared();
        let t = Table::new("t", schema).with_primary_key(&["k"]).unwrap();
        let row = |k: i64| vec![Value::Int(k), Value::Int(k % 1500)];
        t.insert((0..2500).map(row).collect()).unwrap();
        // 400 tombstones ahead of 2 100 live rows
        t.delete_where(&Expr::col(0).lt(Expr::lit(400))).unwrap();
        db.create_table(t);
        let heights = |plan: &Plan| {
            let mut out = Vec::new();
            let mut sink = |c: Chunk| {
                out.push(c.height);
                Ok(())
            };
            exec_chunks(plan, &db, &mut sink).unwrap();
            out
        };
        assert_eq!(heights(&Plan::scan("t")), [1024, 1024, 52]);
        let no_match = Plan::Scan {
            table: "t".into(),
            predicate: Some(Expr::col(0).eq(Expr::lit(7))),
            projection: None,
        };
        assert!(heights(&no_match).is_empty());
        let groups = Plan::scan("t").aggregate(vec![1], vec![AggExpr::count_star("n")]);
        assert_eq!(heights(&groups), [1024, 476]);
    }

    /// The two-column relation every shape stands for (rows of it).
    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(3), Value::str("x")],
            vec![Value::Null, Value::str("long enough to matter")],
            vec![Value::Float(3.0), Value::Null],
            vec![Value::Bool(true), Value::str("")],
            vec![Value::Float(-0.5), Value::str("x")],
        ]
    }

    /// A table's row slots holding `rows()` out of order, with a tombstone.
    fn table_slots() -> Vec<Option<Row>> {
        let rows = rows();
        [Some(3), None, Some(0), Some(4), Some(2), Some(1)]
            .iter()
            .map(|at| at.map(|i: usize| rows[i].clone()))
            .collect()
    }

    /// A `Values` leaf's rows: a full chunk of filler, then `rows()`.
    fn values_leaf() -> Vec<Row> {
        let filler = (0..CHUNK_ROWS as i64).map(|i| vec![Value::Int(i), Value::Null]);
        filler.chain(rows()).collect()
    }

    /// Rows of `rows()` as a dense chunk, a selected chunk over shared
    /// columns, a gathered chunk under a selection, an index join's gather
    /// over `slots` (`table_slots()`), a scan's chunk over
    /// the same slots and the partial tail chunk a `Values` leaf over
    /// `values` (`values_leaf()`) emits, each with the rows it stands for.
    fn shapes<'t>(slots: &'t [Option<Row>], values: &'t [Row]) -> Vec<(Chunk<'t>, Vec<Row>)> {
        let rows = rows();
        let col = |c: usize| -> Vec<Value> { rows.iter().map(|r| r[c].clone()).collect() };
        let pick = |at: &[usize]| -> Vec<Row> { at.iter().map(|&i| rows[i].clone()).collect() };
        let dense = Chunk {
            cols: vec![Col::Dense(col(0)), Col::Dense(col(1))],
            height: 5,
            sel: None,
        };
        let selected = Chunk {
            cols: vec![Col::Shared(Arc::new(col(0))), Col::Shared(Arc::new(col(1)))],
            height: 5,
            sel: Some(vec![0, 2, 4]),
        };
        let idx = Arc::new(vec![4u32, 1, 0, 0, 2]);
        let gather = |c: usize| Col::Gather {
            src: Src::Col(Arc::new(col(c))),
            idx: idx.clone(),
        };
        let gathered = Chunk {
            cols: vec![gather(0), gather(1)],
            height: 5,
            sel: Some(vec![1, 2, 4]),
        };
        // slots 2, 2, 4, 0, 3 hold rows 0, 0, 2, 3, 4
        let slot_idx = Arc::new(vec![2u32, 2, 4, 0, 3]);
        let row_gather = |col: usize| Col::Gather {
            src: Src::Rows { slots, col },
            idx: slot_idx.clone(),
        };
        let table_rows = Chunk {
            cols: vec![row_gather(0), row_gather(1)],
            height: 5,
            sel: Some(vec![0, 1, 3]),
        };
        // as a scan emits it: the live slots in order, past the tombstone
        let scanned = Chunk {
            cols: slot_cols(slots, &[0, 1], vec![0, 2, 3, 4, 5]),
            height: 5,
            sel: None,
        };
        // as `exec_chunks` emits it: the last five rows, read through the
        // identity index every chunk of the leaf shares
        let identity = Arc::new((0..CHUNK_ROWS as u32).collect::<Vec<_>>());
        let values_gather = |col: usize| Col::Gather {
            src: Src::Values {
                rows: &values[CHUNK_ROWS..],
                col,
            },
            idx: identity.clone(),
        };
        let values_tail = Chunk {
            cols: vec![values_gather(0), values_gather(1)],
            height: 5,
            sel: None,
        };
        vec![
            (dense, rows.clone()),
            (selected, pick(&[0, 2, 4])),
            (gathered, pick(&[1, 0, 2])),
            (table_rows, pick(&[0, 0, 3])),
            (scanned, pick(&[3, 0, 4, 2, 1])),
            (values_tail, rows.clone()),
        ]
    }

    #[test]
    fn chunk_key_hashes_match_per_value_hashing() {
        let (slots, values) = (table_slots(), values_leaf());
        for (n, (chunk, rows)) in shapes(&slots, &values).into_iter().enumerate() {
            let (mut hashes, mut nulls) = (Vec::new(), Vec::new());
            chunk_key_hashes(&chunk, &[0, 1], &mut hashes, Some(&mut nulls)).unwrap();
            let folded: Vec<u64> = (rows.iter())
                .map(|r| r.iter().fold(KEY_SEED, |h, v| combine(h, hash_value(v))))
                .collect();
            assert_eq!(hashes, folded, "shape {n}");
            let any_null: Vec<bool> = (rows.iter())
                .map(|r| r.iter().any(|v| v.is_null()))
                .collect();
            assert_eq!(nulls, any_null, "shape {n}");
            // the chunk hands the same rows on, in the same order, each
            // allocated at its width
            let mut out = Vec::new();
            chunk.into_rows(&mut out);
            assert_eq!(out, rows, "shape {n}");
            assert!(out.iter().all(|r| r.capacity() == 2), "shape {n}");
        }
    }

    #[test]
    fn eq_and_hash_agree_across_numeric_types() {
        // Int(3) ≡ Float(3.0) under total_cmp, wherever the cell sits
        let (slots, values) = (table_slots(), values_leaf());
        for (n, (chunk, rows)) in shapes(&slots, &values).into_iter().enumerate() {
            let mut hashes = Vec::new();
            chunk_key_hashes(&chunk, &[0], &mut hashes, None).unwrap();
            for (k, row) in rows.iter().enumerate() {
                let i = chunk.idx(k);
                assert!(chunk.eq_at(0, i, &row[0]), "shape {n} row {k}");
                let three = match row[0] {
                    Value::Int(x) => x == 3,
                    Value::Float(x) => x == 3.0,
                    _ => false,
                };
                assert_eq!(chunk.eq_at(0, i, &Value::Float(3.0)), three);
                assert_eq!(chunk.eq_at(0, i, &Value::Int(3)), three);
                assert!(!chunk.eq_at(0, i, &Value::Int(4)));
                let h = combine(KEY_SEED, hash_value(&Value::Float(3.0)));
                assert_eq!(hashes[k] == h, three, "shape {n} row {k}");
            }
            assert!(!chunk.eq_at(0, chunk.height, &Value::Null), "out of range");
        }
        assert_eq!(hash_value(&Value::Int(3)), hash_value(&Value::Float(3.0)));
        // … so Int(3) joins Float(3.0), and both come out as they went in
        let side = |v: Value| {
            let schema = RelSchema::of(&[("k", SqlType::Float)]).shared();
            Plan::Values(Relation::new(schema, vec![vec![v]]).into())
        };
        let plan = side(Value::Int(3)).hash_join(side(Value::Float(3.0)), vec![0], vec![0]);
        let out = materialize_chunked(&plan, &Database::new("scratch")).unwrap();
        assert!(matches!(out.rows[0][..], [Value::Int(3), Value::Float(f)] if f == 3.0));
        assert_eq!(out.rows.len(), 1);
    }

    /// A `Values` leaf of 2 500 rows — two full chunks and a partial one,
    /// NULL keys, `Int` and `Float` keys that are equal — read in place
    /// through a filter, a projection of bare and computed columns and a
    /// keyed distinct union: each answers as the oracle, in its order.
    #[test]
    fn values_leaf_over_chunks_agrees_with_the_oracle() {
        let schema = RelSchema::of(&[("k", SqlType::Float), ("s", SqlType::Str)]).shared();
        let row = |i: i64| {
            let k = match i % 5 {
                0 => Value::Null,
                1 => Value::Int(i % 40),
                _ => Value::Float((i % 40) as f64),
            };
            vec![k, Value::str(format!("s{}", i % 3))]
        };
        let values = Plan::Values(Relation::new(schema, (0..2500).map(row).collect()).into());
        let high = values.clone().filter(Expr::col(0).gt(Expr::lit(20)));
        let plans = [
            high.clone(),
            values.clone().project(vec![
                ProjExpr::new(Expr::col(1), "s", SqlType::Str),
                ProjExpr::new(Expr::col(0).add(Expr::lit(1)), "k1", SqlType::Float),
                ProjExpr::new(Expr::col(0), "k", SqlType::Float),
            ]),
            Plan::UnionDistinct {
                inputs: vec![high, values],
                key: Some(vec![0]),
            },
        ];
        let db = Database::new("values");
        for (n, plan) in plans.iter().enumerate() {
            let out = materialize_chunked(plan, &db).unwrap();
            assert_eq!(out, plan.run_oracle(&db).unwrap(), "plan {n}");
            assert!(out.len() > 10, "plan {n}");
        }
    }
}
