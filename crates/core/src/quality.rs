//! Data-quality metrics — the paper's stated future-work extension
//! ("we want to enhance the benchmark by integrating quality and semantic
//! issues", §VII), grounded in its own layer model: "during this staging
//! process, the data quality increases and the accuracy decreases"
//! (§III-A).
//!
//! Three dimensions, each in `[0, 1]`, measured per layer:
//!
//! * **completeness** — fraction of non-null values over the required
//!   attribute positions of the layer's tables;
//! * **consistency** — fraction of rows satisfying referential and
//!   vocabulary constraints;
//! * **accuracy** — fraction of the *freshest* source facts still exactly
//!   represented; in this staged architecture downstream layers hold
//!   consolidated (cleansed, deduplicated) data, so accuracy can only
//!   decrease along the pipeline while quality increases.

use crate::env::BenchEnvironment;
use crate::schema::vocab;
use dip_relstore::prelude::*;
use std::collections::HashSet;
use std::fmt;

/// A quality score per dimension for one pipeline layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerQuality {
    pub completeness: f64,
    pub consistency: f64,
    /// Row retention vs. the upstream layer (the accuracy proxy).
    pub retention: f64,
    /// Rows inspected.
    pub rows: usize,
}

/// Quality profile across the staging pipeline.
#[derive(Debug, Clone)]
pub struct QualityReport {
    /// CDB staging area (raw consolidated data).
    pub staging: LayerQuality,
    /// CDB clean tables / DWH (post-cleansing).
    pub warehouse: LayerQuality,
    /// Data marts.
    pub marts: LayerQuality,
}

impl QualityReport {
    /// The paper's §III-A claim: quality increases along the pipeline.
    pub fn quality_increases(&self) -> bool {
        let q = |l: &LayerQuality| (l.completeness + l.consistency) / 2.0;
        q(&self.staging) <= q(&self.warehouse) + 1e-9
    }
}

impl fmt::Display for QualityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>12} {:>12} {:>11} {:>8}",
            "layer", "completeness", "consistency", "retention", "rows"
        )?;
        for (name, l) in [
            ("staging", &self.staging),
            ("warehouse", &self.warehouse),
            ("marts", &self.marts),
        ] {
            writeln!(
                f,
                "{:<12} {:>12.4} {:>12.4} {:>11.4} {:>8}",
                name, l.completeness, l.consistency, l.retention, l.rows
            )?;
        }
        Ok(())
    }
}

/// Completeness of a table over the given required column positions.
fn completeness(
    db: &Database,
    table: &str,
    required: &[usize],
) -> StoreResult<(usize, usize, usize)> {
    let t = db.table(table)?;
    let mut present = 0usize;
    let mut total = 0usize;
    let mut rows = 0usize;
    t.for_each(|r| {
        rows += 1;
        for &c in required {
            total += 1;
            if !r[c].is_null() {
                present += 1;
            }
        }
        Ok::<(), StoreError>(())
    })?;
    Ok((present, total, rows))
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Measure the pipeline's quality profile from the environment's final
/// state.
pub fn measure(env: &BenchEnvironment) -> StoreResult<QualityReport> {
    let cdb = env.db(crate::schema::cdb::CDB);
    let dwh = env.db(crate::schema::dwh::DWH);

    // --- staging layer: raw master data as it arrived from the sources ---
    let (p1, t1, r1) = completeness(&cdb, "customer_staging", &[1, 3, 5, 7])?;
    let (p2, t2, r2) = completeness(&cdb, "product_staging", &[1, 2, 4])?;
    let staging_rows = r1 + r2;
    // staging consistency: known city + non-empty name + sane balance
    let city_names: HashSet<String> = env
        .generator
        .refdata
        .cities
        .iter()
        .map(|c| c.name.to_string())
        .collect();
    let mut staging_consistent = 0usize;
    cdb.table("customer_staging")?.for_each(|r| {
        let name_ok = matches!(&r[1], Value::Str(s) if !s.trim().is_empty());
        let city_ok = matches!(&r[3], Value::Str(s) if city_names.contains(s.as_ref() as &str));
        let bal_ok = r[7].to_float().is_none_or(|b| b > -9_000.0);
        if name_ok && city_ok && bal_ok {
            staging_consistent += 1;
        }
        Ok::<(), StoreError>(())
    })?;
    let mut prod_consistent = 0usize;
    let group_names: HashSet<String> = env
        .generator
        .refdata
        .groups
        .iter()
        .map(|(_, g, _)| g.to_string())
        .collect();
    cdb.table("product_staging")?.for_each(|r| {
        let name_ok = matches!(&r[1], Value::Str(s) if !s.trim().is_empty());
        let group_ok = matches!(&r[2], Value::Str(s) if group_names.contains(s.as_ref() as &str));
        if name_ok && group_ok {
            prod_consistent += 1;
        }
        Ok::<(), StoreError>(())
    })?;
    let staging = LayerQuality {
        completeness: ratio(p1 + p2, t1 + t2),
        consistency: ratio(staging_consistent + prod_consistent, staging_rows),
        retention: 1.0, // the staging layer *is* the reference
        rows: staging_rows,
    };

    // --- warehouse layer ---
    let (p1, t1, r1) = completeness(&dwh, "customer", &[1, 3])?;
    let (p2, t2, r2) = completeness(&dwh, "orders", &[1, 2, 4, 5])?;
    let dwh_rows = r1 + r2;
    let custkeys: HashSet<Vec<Value>> = {
        let mut s = HashSet::new();
        dwh.table("customer")?.for_each(|r| {
            s.insert(vec![r[0].clone()]);
            Ok::<(), StoreError>(())
        })?;
        s
    };
    let mut dwh_consistent = 0usize;
    let mut dwh_orders = 0usize;
    dwh.table("orders")?.for_each(|r| {
        dwh_orders += 1;
        let fk_ok = custkeys.contains(&vec![r[1].clone()]);
        let prio_ok = matches!(&r[4], Value::Str(s) if vocab::is_canon_priority(s));
        let state_ok = matches!(&r[5], Value::Str(s) if vocab::is_canon_state(s));
        if fk_ok && prio_ok && state_ok {
            dwh_consistent += 1;
        }
        Ok::<(), StoreError>(())
    })?;
    // retention: cleansing drops dirty rows, so warehouse master data is a
    // subset of staging master data
    let warehouse = LayerQuality {
        completeness: ratio(p1 + p2, t1 + t2),
        consistency: ratio(dwh_consistent, dwh_orders.max(1)),
        retention: ratio(
            dwh.table("customer")?.row_count(),
            cdb.table("customer_staging")?.row_count().max(1),
        ),
        rows: dwh_rows,
    };

    // --- mart layer ---
    let mut mart_rows = 0usize;
    let mut mart_orders = 0usize;
    let mut mart_consistent = 0usize;
    for mart in crate::schema::dm::Mart::ALL {
        let mdb = env.db(mart.db_name());
        mart_rows += mdb.table("orders")?.row_count() + mdb.table("orderline")?.row_count();
        mdb.table("orders")?.for_each(|r| {
            mart_orders += 1;
            let prio_ok = matches!(&r[4], Value::Str(s) if vocab::is_canon_priority(s));
            if prio_ok {
                mart_consistent += 1;
            }
            Ok::<(), StoreError>(())
        })?;
    }
    let total_mart_orders: usize = crate::schema::dm::Mart::ALL
        .iter()
        .map(|m| {
            env.db(m.db_name())
                .table("orders")
                .map(|t| t.row_count())
                .unwrap_or(0)
        })
        .sum();
    let marts = LayerQuality {
        // mart schemas have no nullable required fields left — measure the
        // fact table directly
        completeness: 1.0,
        consistency: ratio(mart_consistent, mart_orders.max(1)),
        retention: ratio(total_mart_orders, dwh.table("orders")?.row_count().max(1)),
        rows: mart_rows,
    };

    Ok(QualityReport {
        staging,
        warehouse,
        marts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use std::sync::Arc;

    fn run_env() -> BenchEnvironment {
        let config =
            BenchConfig::new(ScaleFactors::new(0.02, 1.0, Distribution::Uniform)).with_periods(1);
        let mtm = |env: &BenchEnvironment| Arc::new(MtmSystem::new(env.world.clone())) as _;
        crate::client::run(config, &mtm).unwrap().env
    }

    #[test]
    fn quality_increases_along_pipeline() {
        let env = run_env();
        let q = measure(&env).unwrap();
        assert!(q.quality_increases(), "{q}");
        // the warehouse is fully consistent after cleansing
        assert!((q.warehouse.consistency - 1.0).abs() < 1e-9, "{q}");
        // the staging layer carries the injected dirt
        assert!(q.staging.consistency < 1.0, "{q}");
        // cleansing drops rows: retention below 1
        assert!(q.warehouse.retention <= 1.0);
        assert!(q.staging.rows > 0 && q.warehouse.rows > 0 && q.marts.rows > 0);
    }

    #[test]
    fn report_renders() {
        let env = run_env();
        let q = measure(&env).unwrap();
        let s = q.to_string();
        assert!(s.contains("staging"));
        assert!(s.contains("warehouse"));
        assert!(s.contains("marts"));
    }
}
