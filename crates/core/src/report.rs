//! Report writers: the paper-style performance plots and tables.
//!
//! The Monitor's plotting functions produce (a) an aligned text table of
//! the per-process metrics — the data behind the paper's Fig. 10/11 bars —
//! (b) an ASCII bar chart of `NAVG+`/`NAVG`, and (c) gnuplot-compatible
//! `.dat` series for external plotting.

use crate::client::RunOutcome;
use crate::metric::ProcessMetric;
use crate::processes;
use crate::schedule;
use std::fmt::Write as _;

/// The Fig. 10/11-style data table.
pub fn metrics_table(outcome: &RunOutcome) -> String {
    let mut out = String::new();
    let s = &outcome.config.scale;
    let _ = writeln!(
        out,
        "DIPBench Performance [system={}, sfTime={}, sfDatasize={}, f={}, periods={}]",
        outcome.system,
        s.time,
        s.datasize,
        s.distribution.label(),
        outcome.config.periods
    );
    let _ = writeln!(
        out,
        "{:<5} {:>6} {:>5} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "proc", "inst", "fail", "NAVG[tu]", "stddev[tu]", "NAVG+[tu]", "Cc[tu]", "Cm[tu]", "Cp[tu]"
    );
    for m in &outcome.metrics {
        let _ = writeln!(
            out,
            "{:<5} {:>6} {:>5} {:>12.2} {:>12.2} {:>12.2} {:>10.2} {:>10.2} {:>10.2}",
            m.process,
            m.instances,
            m.failures,
            m.navg_tu,
            m.stddev_tu,
            m.navg_plus_tu,
            m.comm_tu,
            m.mgmt_tu,
            m.proc_tu
        );
    }
    out
}

/// ASCII bar chart of NAVG+ (full bar) with the NAVG portion marked — the
/// shape of the paper's performance plots.
pub fn ascii_chart(metrics: &[ProcessMetric], width: usize) -> String {
    let max = metrics
        .iter()
        .map(|m| m.navg_plus_tu)
        .fold(0.0f64, f64::max);
    let mut out = String::new();
    if max <= 0.0 {
        return out;
    }
    for m in metrics {
        let plus = ((m.navg_plus_tu / max) * width as f64).round() as usize;
        let avg = ((m.navg_tu / max) * width as f64).round() as usize;
        let mut bar = String::with_capacity(width);
        for i in 0..plus.max(1) {
            bar.push(if i < avg { '#' } else { '+' });
        }
        let _ = writeln!(
            out,
            "{:<5} |{:<w$}| {:>10.1} tu",
            m.process,
            bar,
            m.navg_plus_tu,
            w = width
        );
    }
    let _ = writeln!(
        out,
        "      ('#' = NAVG portion, '+' = stddev portion of NAVG+)"
    );
    out
}

/// gnuplot-style data file: `process NAVG NAVG+ Cc Cm Cp` per line.
pub fn gnuplot_dat(metrics: &[ProcessMetric]) -> String {
    let mut out = String::from("# process navg navg_plus comm mgmt proc instances failures\n");
    for m in metrics {
        let _ = writeln!(
            out,
            "{} {:.4} {:.4} {:.4} {:.4} {:.4} {} {}",
            m.process,
            m.navg_tu,
            m.navg_plus_tu,
            m.comm_tu,
            m.mgmt_tu,
            m.proc_tu,
            m.instances,
            m.failures
        );
    }
    out
}

/// Render paper Table I (the process-type registry).
pub fn table1() -> String {
    let mut out = String::from("Group ID   Name\n");
    for p in processes::registry() {
        let _ = writeln!(out, "{:<5} {:<4} {}", p.group, p.id, p.name);
    }
    out
}

/// Render paper Table II (the scheduling series) for a given datasize.
pub fn table2(d: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Benchmark scheduling series (datasize d = {d})");
    let _ = writeln!(
        out,
        "{:<6} {:<3} {:<55} {:>9}",
        "Group", "ID", "Series", "instances"
    );
    let rows: Vec<(char, &str, String, u32)> = vec![
        (
            'A',
            "P01",
            "T_B(Stream_A) + 2(m-1), m <= ceil((100-k)d/5)+1".into(),
            schedule::p01_count(0, d),
        ),
        (
            'A',
            "P02",
            "T_B(Stream_A) + 2m,     m <= ceil((100-k)d/10)+1".into(),
            schedule::p02_count(0, d),
        ),
        ('A', "P03", "T1(P01) and T1(P02)".into(), 1),
        (
            'B',
            "P04",
            "T_B(Stream_B) + 2(m-1), m <= 1100d+1".to_string(),
            schedule::p04_count(d),
        ),
        ('B', "P05", "T1(P04)".into(), 1),
        ('B', "P06", "T1(P05)".into(), 1),
        ('B', "P07", "T1(P06)".into(), 1),
        (
            'B',
            "P08",
            "T_B(Stream_B) + 2000 + 3(m-1), m <= 900d+1".to_string(),
            schedule::p08_count(d),
        ),
        ('B', "P09", "T1(P08)".into(), 1),
        (
            'B',
            "P10",
            "T_B(Stream_B) + 3000 + 2.5(m-1), m <= 1050d+1".to_string(),
            schedule::p10_count(d),
        ),
        ('B', "P11", "T1(Stream_B)".into(), 1),
        ('C', "P12", "T_B(Stream_C)".into(), 1),
        ('C', "P13", "T_B(Stream_C) + 10".into(), 1),
        ('D', "P14", "T_B(Stream_D)".into(), 1),
        ('D', "P15", "T1(P14)".into(), 1),
    ];
    for (g, id, series, n) in rows {
        let _ = writeln!(out, "{:<6} {:<3} {:<55} {:>9}", g, id, series, n);
    }
    let _ = writeln!(out, "(P01/P02 instance counts shown for period k = 0)");
    out
}

/// The Fig. 8 data series as a gnuplot-style block.
pub fn fig8_dat(d_values: &[f64], t_values: &[f64], periods: u32, instances: u32) -> String {
    let mut out = String::from("# Fig 8 (left): executed P01 instances m per period k\n# k");
    for d in d_values {
        let _ = write!(out, " d={d}");
    }
    out.push('\n');
    for k in 0..periods {
        let _ = write!(out, "{k}");
        for &d in d_values {
            let _ = write!(out, " {}", schedule::p01_count(k, d));
        }
        out.push('\n');
    }
    out.push_str("\n# Fig 8 (right): scheduled event time [ms] of the m-th P01 instance\n# m");
    for t in t_values {
        let _ = write!(out, " t={t}");
    }
    out.push('\n');
    for m in 1..=instances {
        let _ = write!(out, "{m}");
        for &t in t_values {
            let _ = write!(out, " {:.2}", 2.0 * (m - 1) as f64 / t);
        }
        out.push('\n');
    }
    out
}

/// Write a complete experiment report into a directory (the Monitor's
/// "performance plot" output): `metrics.txt`, `chart.txt`, `data.dat` and
/// `verification.txt`. Returns the file paths written.
pub fn save_experiment(
    dir: &std::path::Path,
    outcome: &RunOutcome,
    verification: &crate::verify::VerificationReport,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut write = |name: &str, content: String| -> std::io::Result<()> {
        let path = dir.join(name);
        std::fs::write(&path, content)?;
        written.push(path);
        Ok(())
    };
    write("metrics.txt", metrics_table(outcome))?;
    write("chart.txt", ascii_chart(&outcome.metrics, 60))?;
    write("data.dat", gnuplot_dat(&outcome.metrics))?;
    write(
        "verification.txt",
        format!(
            "{}overall: {}\n",
            verification,
            if verification.passed() {
                "PASS"
            } else {
                "FAIL"
            }
        ),
    )?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::ProcessMetric;

    fn metric(id: &str, navg: f64, plus: f64) -> ProcessMetric {
        ProcessMetric {
            process: id.into(),
            instances: 3,
            failures: 0,
            navg_tu: navg,
            stddev_tu: plus - navg,
            navg_plus_tu: plus,
            comm_tu: navg / 2.0,
            mgmt_tu: 0.0,
            proc_tu: navg / 2.0,
        }
    }

    #[test]
    fn tables_render() {
        let t1 = table1();
        assert!(t1.contains("P01") && t1.contains("Master data exchange Asia"));
        assert_eq!(t1.lines().count(), 16);
        let t2 = table2(0.05);
        assert!(t2.contains("P10"));
        assert!(t2.contains("1050d"));
    }

    #[test]
    fn ascii_chart_scales() {
        let ms = vec![metric("P04", 10.0, 12.0), metric("P13", 100.0, 150.0)];
        let chart = ascii_chart(&ms, 40);
        let p04_line = chart.lines().next().unwrap();
        let p13_line = chart.lines().nth(1).unwrap();
        assert!(p13_line.matches('#').count() > p04_line.matches('#').count());
        assert!(p13_line.contains('+'));
    }

    #[test]
    fn gnuplot_dat_has_all_rows() {
        let ms = vec![metric("P04", 10.0, 12.0), metric("P13", 100.0, 150.0)];
        let dat = gnuplot_dat(&ms);
        assert_eq!(dat.lines().count(), 3); // header + 2 rows
        assert!(dat.contains("P13 100.0000 150.0000"));
    }

    #[test]
    fn fig8_dat_shapes() {
        let dat = fig8_dat(&[0.05, 0.1], &[0.5, 1.0, 2.0], 5, 4);
        assert!(dat.contains("d=0.05"));
        assert!(dat.contains("t=2"));
        // left: m decreases in k, larger d gives more instances
        let (small, big) = (schedule::p01_count(0, 0.05), schedule::p01_count(0, 1.0));
        assert!(big > small);
        assert!(big > schedule::p01_count(99, 1.0));
        let row = |k: u32| {
            format!(
                "\n{k} {} {}\n",
                schedule::p01_count(k, 0.05),
                schedule::p01_count(k, 0.1)
            )
        };
        assert!(dat.contains(&row(0)) && dat.contains(&row(4)));
        // right: the first instance starts at 0, and larger t compresses
        // the schedule: m=4 at t=0.5 → 2*(3)/0.5 = 12 ms
        assert!(dat.contains("\n1 0.00 0.00 0.00\n"));
        assert!(dat.contains("\n4 12.00 6.00 3.00\n"));
    }
}
