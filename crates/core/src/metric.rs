//! The benchmark performance metric `NAVG+` (paper §V).
//!
//! `NAVG+(p) = NAVG(NC(p)) + σ⁺(NC(p))` — the average of the normalized
//! per-instance costs of a process type plus their (positive) standard
//! deviation, expressed in abstract time units (tu). Including the
//! standard deviation "rewards integration systems with predictable system
//! performance". Failed instances are excluded from the metric and
//! reported separately.

use crate::monitor::NormalizedRecord;
use crate::scale::ScaleFactors;
use std::collections::BTreeMap;

/// Aggregated metric for one process type.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessMetric {
    pub process: String,
    /// Successful instances included in the metric.
    pub instances: usize,
    /// Failed instances (excluded).
    pub failures: usize,
    /// `NAVG` — mean normalized cost, in tu.
    pub navg_tu: f64,
    /// Standard deviation of the normalized cost, in tu.
    pub stddev_tu: f64,
    /// `NAVG+ = NAVG + σ`, in tu.
    pub navg_plus_tu: f64,
    /// Mean normalized communication / management / processing costs, tu.
    pub comm_tu: f64,
    pub mgmt_tu: f64,
    pub proc_tu: f64,
}

/// Compute per-process-type metrics, sorted by process id.
pub fn process_metrics(records: &[NormalizedRecord], scale: &ScaleFactors) -> Vec<ProcessMetric> {
    let mut groups: BTreeMap<&str, Vec<&NormalizedRecord>> = BTreeMap::new();
    for r in records {
        groups.entry(r.process.as_str()).or_default().push(r);
    }
    groups
        .into_iter()
        .map(|(process, recs)| {
            let ok: Vec<&&NormalizedRecord> = recs.iter().filter(|r| r.ok).collect();
            let failures = recs.len() - ok.len();
            let tus: Vec<f64> = ok.iter().map(|r| scale.duration_to_tu(r.nc)).collect();
            let n = tus.len() as f64;
            let (navg, stddev) = if tus.is_empty() {
                (0.0, 0.0)
            } else {
                let mean = tus.iter().sum::<f64>() / n;
                let var = tus.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
                (mean, var.sqrt())
            };
            let mean_of = |f: &dyn Fn(&NormalizedRecord) -> f64| {
                if ok.is_empty() {
                    0.0
                } else {
                    ok.iter().map(|r| f(r)).sum::<f64>() / n
                }
            };
            ProcessMetric {
                process: process.to_string(),
                instances: ok.len(),
                failures,
                navg_tu: navg,
                stddev_tu: stddev,
                navg_plus_tu: navg + stddev,
                comm_tu: mean_of(&|r| scale.duration_to_tu(r.comm)),
                mgmt_tu: mean_of(&|r| scale.duration_to_tu(r.mgmt)),
                proc_tu: mean_of(&|r| scale.duration_to_tu(r.proc)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn nrec(seq: u32, process: &str, nc_ms: u64, ok: bool) -> NormalizedRecord {
        NormalizedRecord {
            process: process.into(),
            period: 0,
            seq,
            raw: Duration::from_millis(nc_ms),
            factor: 1.0,
            nc: Duration::from_millis(nc_ms),
            comm: Duration::from_millis(nc_ms / 2),
            mgmt: Duration::ZERO,
            proc: Duration::from_millis(nc_ms - nc_ms / 2),
            ok,
        }
    }

    #[test]
    fn navg_plus_is_mean_plus_stddev() {
        // t = 1.0 => 1 tu = 1 ms
        let scale = ScaleFactors::paper_fig10();
        let recs = vec![nrec(0, "P04", 10, true), nrec(1, "P04", 20, true)];
        let m = process_metrics(&recs, &scale);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].instances, 2);
        assert!((m[0].navg_tu - 15.0).abs() < 1e-9);
        assert!((m[0].stddev_tu - 5.0).abs() < 1e-9);
        assert!((m[0].navg_plus_tu - 20.0).abs() < 1e-9);
    }

    #[test]
    fn failures_excluded() {
        let scale = ScaleFactors::paper_fig10();
        let recs = vec![nrec(0, "P10", 10, true), nrec(1, "P10", 1000, false)];
        let m = process_metrics(&recs, &scale);
        assert_eq!(m[0].instances, 1);
        assert_eq!(m[0].failures, 1);
        assert!((m[0].navg_tu - 10.0).abs() < 1e-9);
    }

    #[test]
    fn groups_sorted_by_process() {
        let scale = ScaleFactors::paper_fig10();
        let recs = vec![
            nrec(0, "P10", 1, true),
            nrec(1, "P04", 1, true),
            nrec(2, "P09", 1, true),
        ];
        let m = process_metrics(&recs, &scale);
        let ids: Vec<&str> = m.iter().map(|x| x.process.as_str()).collect();
        assert_eq!(ids, vec!["P04", "P09", "P10"]);
    }

    #[test]
    fn time_scale_changes_tu() {
        let recs = vec![nrec(0, "P04", 10, true)];
        let t1 = ScaleFactors::new(0.05, 1.0, crate::scale::Distribution::Uniform);
        let t2 = ScaleFactors::new(0.05, 2.0, crate::scale::Distribution::Uniform);
        let m1 = process_metrics(&recs, &t1);
        let m2 = process_metrics(&recs, &t2);
        assert!((m2[0].navg_tu - 2.0 * m1[0].navg_tu).abs() < 1e-9);
    }
}
