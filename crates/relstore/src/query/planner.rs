//! Rule-based plan optimizer.
//!
//! Three rewrites, applied bottom-up:
//!
//! 1. **Predicate pushdown** — `Filter` over `Scan` merges into the scan's
//!    predicate (enabling index probes inside the table); `Filter` over
//!    `Filter` merges into a conjunction; filters over joins are split into
//!    left-only / right-only / residual conjuncts and pushed to the inputs.
//! 2. **Projection pushdown** — `Project` consisting purely of column
//!    references over a `Scan` becomes the scan's projection list.
//! 3. **Index-join selection** — a `HashJoin` whose one side is a base-table
//!    scan with an index covering its join keys becomes an `IndexJoin`: the
//!    other side streams through index probes and the scanned side is never
//!    materialized.
//!
//! The FedDBMS reference implementation runs all relational work through
//! this planner; the `bench_ablation` benchmark measures its effect (the
//! paper attributes part of System A's behaviour to relational operators
//! being "well-optimized" while XML functions were not).

use crate::catalog::Database;
use crate::error::StoreResult;
use crate::expr::Expr;
use crate::query::plan::Plan;

/// Optimize a plan. `db` is used for schema/arity information only.
pub fn optimize(plan: Plan, db: &Database) -> StoreResult<Plan> {
    rewrite(plan, db)
}

fn rewrite(plan: Plan, db: &Database) -> StoreResult<Plan> {
    // Recurse first (bottom-up).
    let plan = match plan {
        Plan::Filter { input, predicate } => {
            let input = rewrite(*input, db)?;
            push_filter(input, predicate, db)?
        }
        Plan::Project { input, exprs } => {
            let input = rewrite(*input, db)?;
            push_project(input, exprs, db)?
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let left = rewrite(*left, db)?;
            let right = rewrite(*right, db)?;
            select_index_join(left, right, left_keys, right_keys, db)?
        }
        Plan::IndexJoin {
            probe,
            table,
            probe_keys,
            inner_keys,
            predicate,
            projection,
            probe_is_left,
        } => Plan::IndexJoin {
            probe: Box::new(rewrite(*probe, db)?),
            table,
            probe_keys,
            inner_keys,
            predicate,
            projection,
            probe_is_left,
        },
        Plan::UnionDistinct { inputs, key } => Plan::UnionDistinct {
            inputs: inputs
                .into_iter()
                .map(|i| rewrite(i, db))
                .collect::<StoreResult<Vec<_>>>()?,
            key,
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => Plan::Aggregate {
            input: Box::new(rewrite(*input, db)?),
            group_by,
            aggs,
        },
        leaf => leaf,
    };
    Ok(plan)
}

/// Push a filter predicate into `input` where possible.
fn push_filter(input: Plan, predicate: Expr, db: &Database) -> StoreResult<Plan> {
    match input {
        Plan::Scan {
            table,
            predicate: existing,
            projection,
        } => {
            let merged = match existing {
                Some(e) => e.and(predicate),
                None => predicate,
            };
            Ok(Plan::Scan {
                table,
                predicate: Some(merged),
                projection,
            })
        }
        Plan::Filter {
            input,
            predicate: inner,
        } => {
            // merge and retry pushdown on the combined predicate
            push_filter(*input, inner.and(predicate), db)
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let left_width = left.schema(db)?.len();
            let conjuncts = split_conjuncts(predicate);
            let mut left_preds = Vec::new();
            let mut right_preds = Vec::new();
            let mut residual = Vec::new();
            for c in conjuncts {
                let mut cols = Vec::new();
                c.referenced_columns(&mut cols);
                if cols.iter().all(|&i| i < left_width) {
                    left_preds.push(c);
                } else if cols.iter().all(|&i| i >= left_width) {
                    right_preds.push(c.remap_columns(&|i| i - left_width));
                } else {
                    residual.push(c);
                }
            }
            let mut l = *left;
            if let Some(p) = conjoin(left_preds) {
                l = push_filter(l, p, db)?;
            }
            let mut r = *right;
            if let Some(p) = conjoin(right_preds) {
                r = push_filter(r, p, db)?;
            }
            let join = Plan::HashJoin {
                left: Box::new(l),
                right: Box::new(r),
                left_keys,
                right_keys,
            };
            Ok(match conjoin(residual) {
                Some(p) => Plan::Filter {
                    input: Box::new(join),
                    predicate: p,
                },
                None => join,
            })
        }
        Plan::IndexJoin {
            probe,
            table,
            probe_keys,
            inner_keys,
            predicate: inner_pred,
            projection,
            probe_is_left,
        } => {
            // mirror the HashJoin split: probe-only conjuncts push into the
            // probe input, inner-only conjuncts merge into the join's
            // residual predicate, the rest stays above
            let probe_w = probe.schema(db)?.len();
            let inner_w = match &projection {
                Some(p) => p.len(),
                None => db.table(&table)?.schema.len(),
            };
            let (probe_lo, inner_lo) = if probe_is_left {
                (0, probe_w)
            } else {
                (inner_w, 0)
            };
            let mut probe_preds = Vec::new();
            let mut inner_preds = Vec::new();
            let mut residual = Vec::new();
            for c in split_conjuncts(predicate) {
                let mut cols = Vec::new();
                c.referenced_columns(&mut cols);
                if cols
                    .iter()
                    .all(|&i| i >= probe_lo && i < probe_lo + probe_w)
                {
                    probe_preds.push(c.remap_columns(&|i| i - probe_lo));
                } else if cols
                    .iter()
                    .all(|&i| i >= inner_lo && i < inner_lo + inner_w)
                {
                    // the join evaluates its residual on the *base* row
                    // before the scan projection applies, so remap output
                    // positions back through the projection
                    inner_preds.push(c.remap_columns(&|i| match &projection {
                        Some(p) => p[i - inner_lo],
                        None => i - inner_lo,
                    }));
                } else {
                    residual.push(c);
                }
            }
            let mut p = *probe;
            if let Some(pred) = conjoin(probe_preds) {
                p = push_filter(p, pred, db)?;
            }
            let merged = match (inner_pred, conjoin(inner_preds)) {
                (Some(a), Some(b)) => Some(a.and(b)),
                (a, b) => a.or(b),
            };
            let join = Plan::IndexJoin {
                probe: Box::new(p),
                table,
                probe_keys,
                inner_keys,
                predicate: merged,
                projection,
                probe_is_left,
            };
            Ok(match conjoin(residual) {
                Some(r) => Plan::Filter {
                    input: Box::new(join),
                    predicate: r,
                },
                None => join,
            })
        }
        other => Ok(Plan::Filter {
            input: Box::new(other),
            predicate,
        }),
    }
}

/// Push a pure-column projection into a scan. Only fires when every output
/// is a bare column reference that keeps its input name — a rename must stay
/// in a `Project` node because scan projections carry base-table column
/// metadata. The table scan evaluates its predicate on the *full* row before
/// projecting, so dropping predicate columns from the output is safe.
fn push_project(
    input: Plan,
    exprs: Vec<crate::query::plan::ProjExpr>,
    db: &Database,
) -> StoreResult<Plan> {
    if let Plan::Scan {
        table,
        predicate,
        projection: None,
    } = &input
    {
        let schema = db.table(table)?.schema.clone();
        let pure: Option<Vec<usize>> = exprs
            .iter()
            .map(|p| match p.expr {
                Expr::Col(i)
                    if schema
                        .columns()
                        .get(i)
                        .is_some_and(|c| c.name == p.column.name) =>
                {
                    Some(i)
                }
                _ => None,
            })
            .collect();
        if let Some(cols) = pure {
            return Ok(Plan::Scan {
                table: table.clone(),
                predicate: predicate.clone(),
                projection: Some(cols),
            });
        }
    }
    Ok(Plan::Project {
        input: Box::new(input),
        exprs,
    })
}

/// Replace a hash join with an index-nested-loop join when one side is a
/// base-table scan whose join keys are covered by an index on that table.
/// The scan's predicate/projection travel into the join as a residual
/// filter / output projection applied per probed row, so the indexed side
/// is never materialized. The right side is tried first.
fn select_index_join(
    left: Plan,
    right: Plan,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    db: &Database,
) -> StoreResult<Plan> {
    if let Some(inner_keys) = index_candidate(&right, &right_keys, &left, db)? {
        let Plan::Scan {
            table,
            predicate,
            projection,
        } = right
        else {
            unreachable!("candidate is a scan");
        };
        return Ok(Plan::IndexJoin {
            probe: Box::new(left),
            table,
            probe_keys: left_keys,
            inner_keys,
            predicate,
            projection,
            probe_is_left: true,
        });
    }
    if let Some(inner_keys) = index_candidate(&left, &left_keys, &right, db)? {
        let Plan::Scan {
            table,
            predicate,
            projection,
        } = left
        else {
            unreachable!("candidate is a scan");
        };
        return Ok(Plan::IndexJoin {
            probe: Box::new(right),
            table,
            probe_keys: right_keys,
            inner_keys,
            predicate,
            projection,
            probe_is_left: false,
        });
    }
    Ok(Plan::HashJoin {
        left: Box::new(left),
        right: Box::new(right),
        left_keys,
        right_keys,
    })
}

/// Check whether `inner` qualifies as the indexed side of an index join:
/// a base-table scan whose join keys (mapped through its projection back to
/// base-table positions) are covered by an index. Returns the base-table
/// key positions. Refused when the probe side also reads the same table —
/// the probe phase holds the inner table's read lock for its whole
/// duration, and re-entrant read locks can deadlock against a writer.
fn index_candidate(
    inner: &Plan,
    keys: &[usize],
    probe: &Plan,
    db: &Database,
) -> StoreResult<Option<Vec<usize>>> {
    let Plan::Scan {
        table, projection, ..
    } = inner
    else {
        return Ok(None);
    };
    let base_keys: Vec<usize> = match projection {
        Some(p) => {
            let mut v = Vec::with_capacity(keys.len());
            for &k in keys {
                match p.get(k) {
                    Some(&c) => v.push(c),
                    None => return Ok(None),
                }
            }
            v
        }
        None => keys.to_vec(),
    };
    if base_keys.is_empty() || !db.table(table)?.covering_index(&base_keys) {
        return Ok(None);
    }
    let mut probe_tables = Vec::new();
    collect_base_tables(probe, &mut probe_tables);
    if probe_tables.iter().any(|t| t == table) {
        return Ok(None);
    }
    Ok(Some(base_keys))
}

/// Collect the names of every base table a plan reads.
fn collect_base_tables(plan: &Plan, out: &mut Vec<String>) {
    match plan {
        Plan::Scan { table, .. } => out.push(table.clone()),
        Plan::IndexJoin { probe, table, .. } => {
            out.push(table.clone());
            collect_base_tables(probe, out);
        }
        Plan::Values(_) => {}
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. } => collect_base_tables(input, out),
        Plan::HashJoin { left, right, .. } => {
            collect_base_tables(left, out);
            collect_base_tables(right, out);
        }
        Plan::UnionDistinct { inputs, .. } => {
            for i in inputs {
                collect_base_tables(i, out);
            }
        }
    }
}

/// Split an AND tree into its conjuncts.
fn split_conjuncts(e: Expr) -> Vec<Expr> {
    match e {
        Expr::And(a, b) => {
            let mut v = split_conjuncts(*a);
            v.extend(split_conjuncts(*b));
            v
        }
        other => vec![other],
    }
}

/// Rebuild a conjunction from parts.
fn conjoin(mut parts: Vec<Expr>) -> Option<Expr> {
    let first = if parts.is_empty() {
        return None;
    } else {
        parts.remove(0)
    };
    Some(parts.into_iter().fold(first, |acc, p| acc.and(p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::plan::ProjExpr;
    use crate::schema::RelSchema;
    use crate::table::Table;
    use crate::value::SqlType;

    fn db() -> Database {
        let db = Database::new("t");
        let s = RelSchema::of(&[("a", SqlType::Int), ("b", SqlType::Int)]).shared();
        db.create_table(Table::new("x", s.clone()));
        db.create_table(Table::new("y", s));
        db
    }

    #[test]
    fn filter_merges_into_scan() {
        let db = db();
        let plan = Plan::scan("x").filter(Expr::col(0).gt(Expr::lit(1)));
        let opt = optimize(plan, &db).unwrap();
        match opt {
            Plan::Scan {
                predicate: Some(_), ..
            } => {}
            other => panic!("expected pushed scan, got {other:?}"),
        }
    }

    #[test]
    fn stacked_filters_merge() {
        let db = db();
        let plan = Plan::scan("x")
            .filter(Expr::col(0).gt(Expr::lit(1)))
            .filter(Expr::col(1).lt(Expr::lit(9)));
        let opt = optimize(plan, &db).unwrap();
        assert!(matches!(
            opt,
            Plan::Scan {
                predicate: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn join_filter_splits() {
        let db = db();
        // x(a,b) join y(a,b): filter on x.a AND y.b AND cross-condition
        let pred = Expr::col(0)
            .gt(Expr::lit(1)) // left-only
            .and(Expr::col(3).lt(Expr::lit(5))) // right-only (col 3 = y.b)
            .and(Expr::col(0).eq(Expr::col(2))); // residual
        let plan = Plan::scan("x")
            .hash_join(Plan::scan("y"), vec![0], vec![0])
            .filter(pred);
        let opt = optimize(plan, &db).unwrap();
        // expect Filter(residual) over Join(Scan(pred), Scan(pred))
        match opt {
            Plan::Filter { input, .. } => match *input {
                Plan::HashJoin { left, right, .. } => {
                    assert!(matches!(
                        *left,
                        Plan::Scan {
                            predicate: Some(_),
                            ..
                        }
                    ));
                    assert!(matches!(
                        *right,
                        Plan::Scan {
                            predicate: Some(_),
                            ..
                        }
                    ));
                }
                other => panic!("expected join, got {other:?}"),
            },
            other => panic!("expected residual filter, got {other:?}"),
        }
    }

    #[test]
    fn projection_pushes_into_scan() {
        let db = db();
        let schema = db.table("x").unwrap().schema.clone();
        let plan =
            Plan::scan("x").project(vec![ProjExpr::passthrough(&schema, "b", None).unwrap()]);
        let opt = optimize(plan, &db).unwrap();
        assert!(matches!(
            opt,
            Plan::Scan {
                projection: Some(_),
                ..
            }
        ));
    }
}
