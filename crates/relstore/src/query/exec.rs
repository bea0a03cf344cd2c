//! Plan execution: the one entry point, the reference interpreter, and
//! the semantics both share.
//!
//! * [`execute`] optimizes a plan and runs it through the columnar batch
//!   executor (`query::batch`) — the only optimized path, batch-at-a-time
//!   over ~1024-row chunks.
//! * [`execute_oracle`] is the naive interpreter: every node materializes
//!   a full [`Relation`] from the *unoptimized* plan. It is the semantics
//!   reference — `core::verify`'s recomputation, the FedDBMS
//!   `optimize_relational: false` ablation, and the oracle of the
//!   executor differential tests.
//!
//! Both share `AggState`, so aggregate semantics (exact-`i64` SUM with
//! overflow fallback, compensated float summation, NULL handling,
//! first-seen group order) are identical by construction, and both share
//! `index_join_equivalent` for an index join whose index is gone.
//!
//! The batch executor publishes per-node output row counts to `dip-trace`
//! as `relstore.rows_out.<op>` counters and per-node chunk counts as
//! `relstore.batch.chunks.<op>` (no-ops when tracing is disabled).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::catalog::Database;
use crate::error::{StoreError, StoreResult};
use crate::index::key_of;
use crate::query::plan::{AggOp, Plan};
use crate::row::{try_row, Relation, SharedRow};
use crate::value::Value;
use std::collections::{HashMap, HashSet};

/// Execute `plan` against `db`: optimize, then run the batch executor —
/// the single query entry point ([`Plan::run`] is the method form).
pub fn execute(plan: &Plan, db: &Database) -> StoreResult<Relation> {
    let optimized = crate::query::planner::optimize(plan.clone(), db)?;
    super::batch::materialize_chunked(&optimized, db)
}

/// Trace names of a plan node, written once: the span label (one span
/// per executed node) and the `dip-trace` counters for its output rows
/// and output chunks.
pub(crate) fn node_names(plan: &Plan) -> (&'static str, &'static str, &'static str) {
    macro_rules! names {
        ($op:literal) => {
            (
                $op,
                concat!("relstore.rows_out.", $op),
                concat!("relstore.batch.chunks.", $op),
            )
        };
    }
    match plan {
        Plan::Scan { .. } => names!("scan"),
        Plan::Values(_) => names!("values"),
        Plan::Filter { .. } => names!("filter"),
        Plan::Project { .. } => names!("project"),
        Plan::HashJoin { .. } => names!("hash_join"),
        Plan::IndexJoin { .. } => names!("index_join"),
        Plan::UnionDistinct { .. } => names!("union_distinct"),
        Plan::Aggregate { .. } => names!("aggregate"),
    }
}

/// The hash join a [`Plan::IndexJoin`] stands for, `HashJoin(probe,
/// Scan(table))` — the executor's fallback when the covering index has
/// vanished between planning and execution, and the oracle's semantics.
pub(crate) fn index_join_equivalent(
    probe: &Plan,
    table: &str,
    probe_keys: &[usize],
    inner_keys: &[usize],
) -> Plan {
    probe
        .clone()
        .hash_join(Plan::scan(table), probe_keys.to_vec(), inner_keys.to_vec())
}

/// A [`Plan::Values`] leaf's relation, checked before either path reads a
/// row: a row narrower or wider than the schema is [`StoreError::Invalid`].
pub(crate) fn checked_values(rel: &Relation) -> StoreResult<&Relation> {
    let width = rel.schema.len();
    match rel.rows.iter().position(|r| r.len() != width) {
        Some(i) => Err(StoreError::Invalid(format!(
            "values row {i} is not {width} columns wide"
        ))),
        None => Ok(rel),
    }
}

/// Execute `plan` as written through the naive materializing interpreter —
/// the semantics reference ([`Plan::run_oracle`] is the method form).
pub fn execute_oracle(plan: &Plan, db: &Database) -> StoreResult<Relation> {
    // the whole plan's column references are checked before a row is read
    plan.schema(db)?;
    oracle(plan, db)
}

fn oracle(plan: &Plan, db: &Database) -> StoreResult<Relation> {
    let _span = dip_trace::span_cat(
        dip_trace::Layer::Relstore,
        node_names(plan).0,
        dip_trace::Category::Processing,
    );
    match plan {
        Plan::Scan {
            table,
            predicate,
            projection,
        } => {
            let t = db.table(table)?;
            match predicate {
                Some(p) => t.scan_where(p, projection.as_deref()),
                None => match projection {
                    Some(proj) => {
                        let mut rows = Vec::with_capacity(t.row_count());
                        t.for_each(|r| {
                            let row = proj
                                .iter()
                                .map(|&i| r.get(i).cloned().unwrap_or(Value::Null));
                            rows.push(row.collect::<SharedRow>());
                            Ok::<(), StoreError>(())
                        })?;
                        Ok(Relation::new(t.schema.project(proj).shared(), rows))
                    }
                    None => Ok(t.scan()),
                },
            }
        }
        Plan::Values(rel) => Ok(checked_values(rel)?.clone()),
        Plan::Filter { input, predicate } => {
            let rel = oracle(input, db)?;
            let mut rows = Vec::new();
            for r in rel.rows {
                if predicate.matches(&r)? {
                    rows.push(r);
                }
            }
            Ok(Relation::new(rel.schema, rows))
        }
        Plan::Project { input, exprs } => {
            let rel = oracle(input, db)?;
            let schema = plan.schema(db)?;
            let mut rows = Vec::with_capacity(rel.rows.len());
            for r in &rel.rows {
                rows.push(try_row(exprs.iter().map(|p| p.expr.eval(r)))?);
            }
            Ok(Relation::new(schema, rows))
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let l = oracle(left, db)?;
            let r = oracle(right, db)?;
            hash_join(db, plan, l, r, left_keys, right_keys)
        }
        Plan::IndexJoin {
            probe,
            table,
            probe_keys,
            inner_keys,
        } => oracle(
            &index_join_equivalent(probe, table, probe_keys, inner_keys),
            db,
        ),
        Plan::UnionDistinct { inputs, key } => {
            let schema = plan.schema(db)?;
            let mut seen: HashSet<SharedRow> = HashSet::new();
            let mut rows: Vec<SharedRow> = Vec::new();
            for i in inputs {
                for r in oracle(i, db)?.rows {
                    let k = match key {
                        Some(cols) => key_of(&r, cols).into(),
                        None => r.clone(),
                    };
                    if seen.insert(k) {
                        rows.push(r);
                    }
                }
            }
            Ok(Relation::new(schema, rows))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let rel = oracle(input, db)?;
            let schema = plan.schema(db)?;
            let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
            let mut order: Vec<Vec<Value>> = Vec::new();
            for r in &rel.rows {
                let key = key_of(r, group_by);
                let states = match groups.get_mut(&key) {
                    Some(s) => s,
                    None => {
                        order.push(key.clone());
                        groups
                            .entry(key.clone())
                            .or_insert_with(|| vec![AggState::default(); aggs.len()])
                    }
                };
                for (st, a) in states.iter_mut().zip(aggs) {
                    match a.op {
                        AggOp::CountStar => st.count_row(),
                        AggOp::Sum(i) => {
                            if let Some(v) = r.get(i) {
                                st.add_value(v);
                            }
                        }
                    }
                }
            }
            // Global aggregate over zero rows still yields one row.
            if groups.is_empty() && group_by.is_empty() {
                order.push(vec![]);
                groups.insert(vec![], vec![AggState::default(); aggs.len()]);
            }
            let mut rows = Vec::with_capacity(order.len());
            for key in order {
                let Some(states) = groups.remove(&key) else {
                    continue;
                };
                let finished = states.into_iter().zip(aggs).map(|(st, a)| st.finish(&a.op));
                rows.push(key.into_iter().chain(finished).collect::<SharedRow>());
            }
            Ok(Relation::new(schema, rows))
        }
    }
}

fn hash_join(
    db: &Database,
    plan: &Plan,
    left: Relation,
    right: Relation,
    left_keys: &[usize],
    right_keys: &[usize],
) -> StoreResult<Relation> {
    let schema = plan.schema(db)?;
    // Build on the smaller side.
    let build_right = right.len() <= left.len();
    let (build, probe, build_keys, probe_keys, probe_is_left) = if build_right {
        (&right, &left, right_keys, left_keys, true)
    } else {
        (&left, &right, left_keys, right_keys, false)
    };
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(build.len());
    for (i, r) in build.rows.iter().enumerate() {
        let key = key_of(r, build_keys);
        if key.iter().any(|v| v.is_null()) {
            continue; // NULL keys never join
        }
        table.entry(key).or_default().push(i);
    }
    let mut rows = Vec::new();
    for pr in &probe.rows {
        // a NULL probe key finds nothing: no NULL key was inserted
        for &s in table.get(&key_of(pr, probe_keys)).into_iter().flatten() {
            let br = &build.rows[s];
            let row: SharedRow = if probe_is_left {
                pr.iter().chain(br.iter()).cloned().collect()
            } else {
                br.iter().chain(pr.iter()).cloned().collect()
            };
            rows.push(row);
        }
    }
    Ok(Relation::new(schema, rows))
}

/// Compensated (Kahan–Babuška/Neumaier) float accumulator. Every float
/// `SUM` in the executor and the oracle routes through this one type,
/// so the summation error — and therefore the emitted bytes — do not depend
/// on which operator ordering fed the aggregate. For inputs whose exact sum
/// is representable the result is also order-independent, which is what the
/// oracle/cross-worker byte-identity gates rely on.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Kahan {
    sum: f64,
    comp: f64,
}

impl Kahan {
    pub(crate) fn seeded(v: f64) -> Kahan {
        Kahan { sum: v, comp: 0.0 }
    }

    pub(crate) fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    pub(crate) fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

/// Numeric accumulator for `SUM`: exact `i64` arithmetic while every
/// input is an integer, widening to compensated `f64` on the first
/// non-integer input or on overflow.
#[derive(Debug, Clone, Copy)]
enum NumAcc {
    Int(i64),
    Float(Kahan),
}

/// Aggregate state shared by the oracle and the batch executor — one
/// implementation so the two cannot drift. `count` is the rows of a
/// `COUNT(*)`, or the numeric inputs of a `SUM`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AggState {
    count: u64,
    sum: NumAcc,
}

impl Default for AggState {
    fn default() -> AggState {
        AggState {
            count: 0,
            sum: NumAcc::Int(0),
        }
    }
}

impl AggState {
    /// Count one row for `COUNT(*)`.
    pub(crate) fn count_row(&mut self) {
        self.count += 1;
    }

    /// Add one integer to a `SUM` (exact while it fits in `i64`,
    /// compensated-float after overflow or a prior float input).
    fn add_int(&mut self, i: i64) {
        match &mut self.sum {
            NumAcc::Int(s) => {
                self.sum = match s.checked_add(i) {
                    Some(t) => NumAcc::Int(t),
                    None => {
                        let mut k = Kahan::seeded(*s as f64);
                        k.add(i as f64);
                        NumAcc::Float(k)
                    }
                };
            }
            NumAcc::Float(k) => k.add(i as f64),
        }
        self.count += 1;
    }

    /// Add one float to a `SUM` through the shared compensated
    /// accumulator (widening an integer prefix first).
    fn add_float(&mut self, f: f64) {
        match &mut self.sum {
            NumAcc::Int(s) => {
                let mut k = Kahan::seeded(*s as f64);
                k.add(f);
                self.sum = NumAcc::Float(k);
            }
            NumAcc::Float(k) => k.add(f),
        }
        self.count += 1;
    }

    /// Add one input value to a `SUM`; NULLs and non-numeric values are
    /// skipped.
    pub(crate) fn add_value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => self.add_int(*i),
            other => {
                if let Some(f) = other.to_float() {
                    self.add_float(f);
                }
            }
        }
    }

    /// The value of aggregate `op` for this state.
    pub(crate) fn finish(self, op: &AggOp) -> Value {
        match (op, self.sum) {
            (AggOp::CountStar, _) => Value::Int(self.count as i64),
            (AggOp::Sum(_), _) if self.count == 0 => Value::Null,
            (AggOp::Sum(_), NumAcc::Int(s)) => Value::Int(s),
            (AggOp::Sum(_), NumAcc::Float(k)) => Value::Float(k.value()),
        }
    }
}
