//! The Monitor: cost-record collection and normalization.
//!
//! The paper's metric requires *normalized* costs `NC(p)` that are
//! "comparable and independent of concurrent process executions". The
//! concrete normalization (the paper leaves it informal) is a sweep-line
//! over all instance intervals: an instance active during an elementary
//! interval of length `ℓ` with `a` concurrently active instances earns a
//! share `ℓ/a`. Its normalization factor is the sum of those shares
//! divided by its wall duration — 1.0 for a fully serial instance, 1/2
//! when it fully overlaps one other instance, and so on. The factor scales
//! the instance's total attributed cost (Cc+Cm+Cp).

use dip_mtm::cost::InstanceRecord;
use std::time::Duration;

/// An instance's cost after concurrency normalization.
#[derive(Debug, Clone)]
pub struct NormalizedRecord {
    pub process: String,
    pub period: u32,
    pub seq: u32,
    /// The raw attributed cost (Cc + Cm + Cp).
    pub raw: Duration,
    /// The concurrency factor in (0, 1].
    pub factor: f64,
    /// Normalized cost = raw × factor.
    pub nc: Duration,
    /// Category breakdown, scaled by the same factor.
    pub comm: Duration,
    pub mgmt: Duration,
    pub proc: Duration,
    pub ok: bool,
}

/// Compute the concurrency factor of every instance, parallel to
/// `records`.
///
/// Single event-sorted sweep, `O(n log n)`: with the records' start/end
/// events in time order, maintain the running integral
/// `F(t) = ∫ 1/a(τ) dτ` of the reciprocal active count. An instance's
/// share of wall time is then `F(end) − F(start)` — the same elementary
/// intervals as a boundary-by-boundary rescan would produce, without the
/// `O(intervals × records)` inner loop.
pub fn concurrency_factors(records: &[InstanceRecord]) -> Vec<f64> {
    // Zero-length instances contribute no active time and get factor 1
    // below; they never enter the sweep. An event is (time, ±1, record).
    let mut events: Vec<(Duration, i64, usize)> = Vec::with_capacity(records.len() * 2);
    for (i, r) in records.iter().enumerate() {
        if r.end > r.start {
            events.push((r.start, 1, i));
            events.push((r.end, -1, i));
        }
    }
    events.sort_unstable();
    // Every event at time t sees F(t): the interval since the previous
    // boundary is added by the first of them, the rest add nothing. A
    // start subtracts F(start) from its record's share, the end adds
    // F(end).
    let mut shares = vec![0.0_f64; records.len()];
    let mut active: i64 = 0;
    let mut integral = 0.0_f64;
    let mut prev: Option<Duration> = None;
    for &(t, delta, i) in &events {
        if let Some(p) = prev {
            if active > 0 {
                integral += (t - p).as_secs_f64() / active as f64;
            }
        }
        prev = Some(t);
        shares[i] += if delta > 0 { -integral } else { integral };
        active += delta;
    }
    records
        .iter()
        .zip(shares)
        .map(|(r, share)| {
            let wall = (r.end - r.start).as_secs_f64();
            if wall <= 0.0 {
                1.0
            } else {
                (share / wall).clamp(0.0, 1.0)
            }
        })
        .collect()
}

/// Normalize every record.
pub fn normalize(records: &[InstanceRecord]) -> Vec<NormalizedRecord> {
    records
        .iter()
        .zip(concurrency_factors(records))
        .map(|(r, factor)| {
            let scale = |d: Duration| Duration::from_secs_f64(d.as_secs_f64() * factor);
            NormalizedRecord {
                process: r.process.clone(),
                period: r.period,
                seq: r.seq,
                raw: r.total(),
                factor,
                nc: scale(r.total()),
                comm: scale(r.comm),
                mgmt: scale(r.mgmt),
                proc: scale(r.proc),
                ok: r.ok,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, start_ms: u64, end_ms: u64, cost_ms: u64) -> InstanceRecord {
        InstanceRecord {
            process: format!("P{id:02}"),
            period: 0,
            seq: 0,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            comm: Duration::from_millis(cost_ms / 2),
            mgmt: Duration::ZERO,
            proc: Duration::from_millis(cost_ms - cost_ms / 2),
            ok: true,
        }
    }

    #[test]
    fn serial_instances_keep_factor_one() {
        let records = vec![rec(0, 0, 10, 8), rec(1, 10, 30, 15)];
        let f = concurrency_factors(&records);
        assert!((f[0] - 1.0).abs() < 1e-9);
        assert!((f[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_overlap_halves() {
        let records = vec![rec(0, 0, 10, 8), rec(1, 0, 10, 8)];
        let f = concurrency_factors(&records);
        assert!((f[0] - 0.5).abs() < 1e-9);
        let norm = normalize(&records);
        assert_eq!(norm[0].nc, Duration::from_millis(4));
        // category breakdown scales consistently
        assert_eq!(norm[0].comm + norm[0].mgmt + norm[0].proc, norm[0].nc);
    }

    #[test]
    fn partial_overlap_between_half_and_one() {
        // instance 0: [0,10); instance 1: [5,15) — each half overlapped
        let records = vec![rec(0, 0, 10, 10), rec(1, 5, 15, 10)];
        let f = concurrency_factors(&records);
        let expected = (5.0 + 2.5) / 10.0; // 5ms alone + 5ms shared
        assert!((f[0] - expected).abs() < 1e-9, "{}", f[0]);
        assert!((f[1] - expected).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_instance_is_factor_one() {
        let records = vec![rec(0, 5, 5, 1)];
        let f = concurrency_factors(&records);
        assert!((f[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn three_way_overlap() {
        let records = vec![rec(0, 0, 9, 9), rec(1, 0, 9, 9), rec(2, 0, 9, 9)];
        let f = concurrency_factors(&records);
        for factor in f {
            assert!((factor - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    /// Reference implementation: rescan the active set for every
    /// elementary interval (the pre-sweep O(intervals × records)
    /// algorithm). Kept in tests as the ground truth the sweep must match.
    fn concurrency_factors_rescan(records: &[InstanceRecord]) -> Vec<f64> {
        let mut boundaries: Vec<Duration> = Vec::new();
        for r in records {
            boundaries.push(r.start);
            boundaries.push(r.end);
        }
        boundaries.sort();
        boundaries.dedup();
        let mut shares: Vec<Option<f64>> = vec![None; records.len()];
        for w in boundaries.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let len = (hi - lo).as_secs_f64();
            if len == 0.0 {
                continue;
            }
            let active: Vec<usize> = (0..records.len())
                .filter(|&i| records[i].start < hi && records[i].end > lo)
                .collect();
            if active.is_empty() {
                continue;
            }
            let share = len / active.len() as f64;
            for i in active {
                *shares[i].get_or_insert(0.0) += share;
            }
        }
        records
            .iter()
            .zip(shares)
            .map(|(r, share)| {
                let wall = (r.end - r.start).as_secs_f64();
                if wall <= 0.0 {
                    1.0
                } else {
                    (share.unwrap_or(wall) / wall).clamp(0.0, 1.0)
                }
            })
            .collect()
    }

    /// The sweep agrees with the per-interval rescan on a bench-sized
    /// workload: thousands of instances with heavy, irregular overlap,
    /// duplicated timestamps and zero-length instances mixed in.
    #[test]
    fn sweep_matches_rescan_on_bench_sized_input() {
        // Deterministic LCG so the workload is reproducible.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut records = Vec::new();
        for id in 0..2_000u32 {
            let start = next(500_000);
            // ~2 % zero-length instances; the rest up to 20 ms long, with
            // coarse granularity so many boundaries coincide exactly.
            let len = if next(50) == 0 {
                0
            } else {
                (1 + next(200)) * 100
            };
            records.push(InstanceRecord {
                process: format!("P{:02}", id % 15 + 1),
                period: id % 3,
                seq: id / 45,
                start: Duration::from_micros(start),
                end: Duration::from_micros(start + len),
                comm: Duration::from_micros(len / 2),
                mgmt: Duration::ZERO,
                proc: Duration::from_micros(len / 2),
                ok: true,
            });
        }
        let fast = concurrency_factors(&records);
        let reference = concurrency_factors_rescan(&records);
        assert_eq!(fast.len(), reference.len());
        for (i, (got, expected)) in fast.iter().zip(&reference).enumerate() {
            assert!(
                (got - expected).abs() < 1e-9,
                "record {i}: sweep {got} vs rescan {expected}"
            );
        }
    }
}
