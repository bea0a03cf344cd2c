//! Rule-based plan optimizer.
//!
//! Three rewrites, applied bottom-up — the ones the benchmark's processes
//! build plans for:
//!
//! 1. **Filter into scan** — a `Filter` over a `Scan` merges into the
//!    scan's predicate, ANDed with any predicate already there (which
//!    enables index probes inside the table). Stacked filters over a scan
//!    merge one at a time, innermost first.
//! 2. **Projection into scan** — a `Project` consisting purely of column
//!    references over a `Scan` becomes the scan's projection list.
//! 3. **Index-join selection** — `HashJoin(X, Scan)` whose right-hand input
//!    is a bare base-table scan (no predicate, no projection) with an index
//!    covering its join keys becomes an `IndexJoin`: `X` streams through
//!    index probes and the table is never materialized.
//!
//! Every other shape stays as written: a filter over anything but a scan,
//! a join whose indexed input is the left-hand one, and a join over a
//! filtered or projected scan. None of the benchmark's processes builds
//! such a plan (docs/PERFORMANCE.md, "The planner census").
//!
//! The FedDBMS reference implementation runs all relational work through
//! this planner; the `bench_ablation` benchmark measures its effect (the
//! paper attributes part of System A's behaviour to relational operators
//! being "well-optimized" while XML functions were not).

use crate::catalog::Database;
use crate::error::StoreResult;
use crate::expr::Expr;
use crate::query::plan::{Plan, ProjExpr};

/// Optimize a plan. `db` is used for schema and index information only.
pub fn optimize(plan: Plan, db: &Database) -> StoreResult<Plan> {
    // bottom-up: the inputs first
    Ok(match plan {
        Plan::Filter { input, predicate } => match optimize(*input, db)? {
            Plan::Scan {
                table,
                predicate: existing,
                projection,
            } => Plan::Scan {
                table,
                predicate: Some(match existing {
                    Some(e) => e.and(predicate),
                    None => predicate,
                }),
                projection,
            },
            input => input.filter(predicate),
        },
        Plan::Project { input, exprs } => push_project(optimize(*input, db)?, exprs, db)?,
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let left = optimize(*left, db)?;
            let right = optimize(*right, db)?;
            select_index_join(left, right, left_keys, right_keys, db)?
        }
        Plan::IndexJoin {
            probe,
            table,
            probe_keys,
            inner_keys,
        } => Plan::IndexJoin {
            probe: Box::new(optimize(*probe, db)?),
            table,
            probe_keys,
            inner_keys,
        },
        Plan::UnionDistinct { inputs, key } => Plan::UnionDistinct {
            inputs: inputs
                .into_iter()
                .map(|i| optimize(i, db))
                .collect::<StoreResult<Vec<_>>>()?,
            key,
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => optimize(*input, db)?.aggregate(group_by, aggs),
        leaf => leaf,
    })
}

/// Push a pure-column projection into a scan. Only fires when every output
/// is a bare column reference that keeps its input name — a rename must stay
/// in a `Project` node because scan projections carry base-table column
/// metadata. The table scan evaluates its predicate on the *full* row before
/// projecting, so dropping predicate columns from the output is safe.
fn push_project(input: Plan, exprs: Vec<ProjExpr>, db: &Database) -> StoreResult<Plan> {
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
    Ok(input.project(exprs))
}

/// Replace `HashJoin(left, Scan(table))` with an index-nested-loop join
/// when the right-hand input is a bare scan whose join keys an index on
/// `table` covers. Refused when `left` reads `table` too: the probe phase
/// holds the table's read lock for its whole duration, and re-entrant read
/// locks can deadlock against a writer.
fn select_index_join(
    left: Plan,
    right: Plan,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    db: &Database,
) -> StoreResult<Plan> {
    if let Plan::Scan {
        table,
        predicate: None,
        projection: None,
    } = &right
    {
        if !right_keys.is_empty()
            && db.table(table)?.covering_index(&right_keys)
            && !reads_table(&left, table)
        {
            return Ok(Plan::IndexJoin {
                probe: Box::new(left),
                table: table.clone(),
                probe_keys: left_keys,
                inner_keys: right_keys,
            });
        }
    }
    Ok(left.hash_join(right, left_keys, right_keys))
}

/// Whether `plan` reads base table `table`.
fn reads_table(plan: &Plan, table: &str) -> bool {
    match plan {
        Plan::Scan { table: t, .. } => t == table,
        Plan::IndexJoin {
            probe, table: t, ..
        } => t == table || reads_table(probe, table),
        Plan::Values(_) => false,
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. } => reads_table(input, table),
        Plan::HashJoin { left, right, .. } => reads_table(left, table) || reads_table(right, table),
        Plan::UnionDistinct { inputs, .. } => inputs.iter().any(|i| reads_table(i, table)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;
    use crate::table::Table;
    use crate::value::SqlType;

    fn db() -> Database {
        let db = Database::new("t");
        let s = RelSchema::of(&[("a", SqlType::Int), ("b", SqlType::Int)]).shared();
        let x = Table::new("x", s.clone()).with_primary_key(&["a"]).unwrap();
        db.create_table(x);
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

    /// Only a bare scan on the right-hand side becomes an index join: `x`
    /// is keyed on `a`, and a filtered or projected `x` on the right, or a
    /// bare `x` on the left, stays under a hash join.
    #[test]
    fn only_a_bare_right_hand_scan_becomes_an_index_join() {
        let db = db();
        let schema = db.table("x").unwrap().schema.clone();
        let joined = |left: Plan, right: Plan| {
            let plan = left.hash_join(right, vec![0], vec![0]);
            optimize(plan, &db).unwrap()
        };
        let opt = joined(Plan::scan("y"), Plan::scan("x"));
        assert!(matches!(opt, Plan::IndexJoin { .. }), "{opt:?}");
        let filtered = Plan::scan("x").filter(Expr::col(1).gt(Expr::lit(1)));
        let projected =
            Plan::scan("x").project(vec![ProjExpr::passthrough(&schema, "a", None).unwrap()]);
        for right in [filtered, projected] {
            let opt = joined(Plan::scan("y"), right);
            assert!(
                matches!(&opt, Plan::HashJoin { right, .. } if matches!(**right, Plan::Scan { .. })),
                "{opt:?}"
            );
        }
        let opt = joined(Plan::scan("x"), Plan::scan("y"));
        assert!(matches!(opt, Plan::HashJoin { .. }), "{opt:?}");
    }
}
