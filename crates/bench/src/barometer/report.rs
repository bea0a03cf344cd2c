//! The benchmark cell model and the `dipbench report` renderer.
//!
//! A *cell* is one addressable `(process-group, engine, exec_mode, d, t, f)`
//! measurement. This module normalizes the committed measurement history —
//! `results/records/*.json` run records (schema v1 and v2) — into cells,
//! renders cross-engine and cross-commit comparison tables (markdown or
//! plain text), and flags per-cell regressions against the best prior
//! commit. Rendering is fully
//! deterministic: inputs are keyed and sorted, never timestamped at render
//! time, so golden-file tests can compare output byte-for-byte.

use crate::barometer::registry::EngineRegistry;
use dip_trace::{group_of, RunRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// Output format of the rendered report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    Markdown,
    Text,
}

/// One flagged regression: a candidate cell measurably worse than the best
/// prior-commit measurement of the same cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Human-readable cell address, e.g. `ivm P13 @ d=0.02 t=1 f=uniform`.
    pub cell: String,
    /// Unit of the regressed quantity.
    pub unit: &'static str,
    pub candidate: f64,
    pub candidate_commit: String,
    pub best_prior: f64,
    pub best_prior_commit: String,
}

impl Regression {
    pub fn percent(&self) -> f64 {
        (self.candidate / self.best_prior - 1.0) * 100.0
    }
}

/// The latest measurement of one cell, plus its history for regression
/// checks.
#[derive(Debug, Clone)]
struct CellHistory {
    /// `(created_unix, commit, value)` — value is NAVG+ tu. Sorted so the
    /// last entry is the candidate (newest; commit string tie-breaks).
    entries: Vec<(u64, String, f64)>,
    rows_per_sec: f64,
}

/// A fully-built report, ready to render or gate on.
pub struct Report {
    threshold: f64,
    /// scale key -> process -> engine tag -> latest NAVG+ tu.
    tables: BTreeMap<String, BTreeMap<String, BTreeMap<String, f64>>>,
    /// scale key -> engine tag -> run-level rows/sec of the latest record.
    throughput: BTreeMap<String, BTreeMap<String, f64>>,
    regressions: Vec<Regression>,
    warnings: Vec<String>,
}

/// The comparison key. Period count is part of it even though it is not
/// part of the cell address: NAVG+ of timed refresh processes grows with
/// the data accumulated over a run's periods, so measurements at different
/// period counts are not comparable and must not flag each other.
fn scale_key(d: f64, t: f64, f: &str, periods: u64) -> String {
    format!("d={d} t={t} f={f} p={periods}")
}

/// Column tag for one measurement: the bare engine for the default
/// `streaming`/`auto` executor, `engine+mode` for a pinned alternative.
/// Exec mode is part of the cell address, so a streaming and a vectorized
/// run of the same engine render as separate comparison columns and never
/// flag each other as regressions.
fn engine_column(engine: &str, exec_mode: &str) -> String {
    match exec_mode {
        "" | "streaming" | "auto" => engine.to_string(),
        mode => format!("{engine}+{mode}"),
    }
}

/// Engine column order: registry order for known tags, then unknown tags
/// alphabetically (records written by future engines still render).
/// `engine+mode` columns sort right after their base engine.
fn engine_order(tags: &BTreeSet<String>) -> Vec<String> {
    let registry = EngineRegistry::builtin();
    let mut ordered: Vec<String> = Vec::new();
    for spec in registry.specs() {
        if tags.contains(spec.tag) {
            ordered.push(spec.tag.to_string());
        }
        let prefix = format!("{}+", spec.tag);
        for tag in tags {
            if tag.starts_with(&prefix) {
                ordered.push(tag.clone());
            }
        }
    }
    for tag in tags {
        if !ordered.contains(tag) {
            ordered.push(tag.clone());
        }
    }
    ordered
}

impl Report {
    /// Normalize records into cells and flag regressions beyond
    /// `threshold` (fractional, e.g. 0.2 = 20%).
    pub fn build(records: &[RunRecord], threshold: f64) -> Report {
        let mut histories: BTreeMap<(String, String, String), CellHistory> = BTreeMap::new();
        for rec in records {
            for cell in rec.cells_or_derived() {
                let key = (
                    engine_column(&cell.engine, &rec.exec_mode),
                    cell.process.clone(),
                    scale_key(cell.d, cell.t, &cell.f, rec.periods),
                );
                let h = histories.entry(key).or_insert(CellHistory {
                    entries: Vec::new(),
                    rows_per_sec: 0.0,
                });
                h.entries
                    .push((rec.created_unix, rec.commit.clone(), cell.navg_plus_tu));
                h.entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
                if (rec.created_unix, rec.commit.clone())
                    >= (
                        h.entries.last().expect("just pushed").0,
                        h.entries.last().expect("just pushed").1.clone(),
                    )
                {
                    h.rows_per_sec = cell.rows_per_sec;
                }
            }
        }

        let mut tables: BTreeMap<String, BTreeMap<String, BTreeMap<String, f64>>> = BTreeMap::new();
        let mut throughput: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
        let mut regressions = Vec::new();
        for ((engine, process, scale), h) in &histories {
            let (_, cand_commit, cand_value) = h.entries.last().expect("non-empty history");
            tables
                .entry(scale.clone())
                .or_default()
                .entry(process.clone())
                .or_default()
                .insert(engine.clone(), *cand_value);
            throughput
                .entry(scale.clone())
                .or_default()
                .insert(engine.clone(), h.rows_per_sec);
            // best prior commit for this cell (lower NAVG+ is better)
            let prior = h
                .entries
                .iter()
                .filter(|(_, commit, _)| commit != cand_commit)
                .min_by(|a, b| a.2.total_cmp(&b.2));
            if let Some((_, prior_commit, best)) = prior {
                if *best > 1e-9 && *cand_value > best * (1.0 + threshold) {
                    regressions.push(Regression {
                        cell: format!("{engine} {process} @ {scale}"),
                        unit: "tu",
                        candidate: *cand_value,
                        candidate_commit: cand_commit.clone(),
                        best_prior: *best,
                        best_prior_commit: prior_commit.clone(),
                    });
                }
            }
        }

        Report {
            threshold,
            tables,
            throughput,
            regressions,
            warnings: Vec::new(),
        }
    }

    pub fn add_warning(&mut self, w: String) {
        self.warnings.push(w);
    }

    pub fn regressions(&self) -> &[Regression] {
        &self.regressions
    }

    /// Render the full report in the requested format.
    pub fn render(&self, format: ReportFormat) -> String {
        let md = format == ReportFormat::Markdown;
        let mut out = String::new();
        if md {
            out.push_str("# DIPBench barometer\n");
        } else {
            out.push_str("DIPBench barometer\n==================\n");
        }

        // one row: `| a | b | c… |` in markdown, fixed-width columns in
        // text; a missing cell renders as a dash
        let dash = if md { "–" } else { "-" };
        let push_row = |out: &mut String, head: [&str; 2], cells: Vec<Option<String>>| {
            let _ = match md {
                true => write!(out, "| {} | {} |", head[0], head[1]),
                false => write!(out, "{:<9}{:<7}", head[0], head[1]),
            };
            for cell in cells {
                let cell = cell.unwrap_or_else(|| dash.to_string());
                let _ = match md {
                    true => write!(out, " {cell} |"),
                    false => write!(out, "{cell:>12}"),
                };
            }
            out.push('\n');
        };
        for (scale, table) in &self.tables {
            let engines: BTreeSet<String> =
                table.values().flat_map(|row| row.keys().cloned()).collect();
            let engines = engine_order(&engines);
            let per_engine =
                |cell: &dyn Fn(&String) -> Option<String>| engines.iter().map(cell).collect();
            let _ = match md {
                true => write!(out, "\n## Cross-engine NAVG+ (tu) — {scale}\n\n"),
                false => write!(out, "\nCross-engine NAVG+ (tu) — {scale}\n"),
            };
            push_row(
                &mut out,
                ["process", "group"],
                per_engine(&|e| Some(e.clone())),
            );
            if md {
                let _ = writeln!(out, "|---|---|{}", "---|".repeat(engines.len()));
            }
            for (process, row) in table {
                let navg = |e: &String| row.get(e).map(|v| format!("{v:.2}"));
                let group = group_of(process).to_string();
                push_row(&mut out, [process, &group], per_engine(&navg));
            }
            // run-level throughput footer (0 = unknown, e.g. v1 records)
            if let Some(tp) = self.throughput.get(scale) {
                let rate = |e: &String| tp.get(e).filter(|v| **v > 0.0).map(|v| format!("{v:.0}"));
                push_row(&mut out, ["rows/sec", dash], per_engine(&rate));
            }
        }

        let pct = self.threshold * 100.0;
        if md {
            let _ = write!(
                out,
                "\n## Regressions vs best prior commit (>{pct:.0}%)\n\n"
            );
        } else {
            let _ = write!(out, "\nRegressions vs best prior commit (>{pct:.0}%)\n");
        }
        if self.regressions.is_empty() {
            out.push_str(if md { "none\n" } else { "  none\n" });
        } else {
            for r in &self.regressions {
                let _ = writeln!(
                    out,
                    "{}{}: {:.2} {} vs best prior {:.2} {} (+{:.1}%, {} vs {})",
                    if md { "- " } else { "  " },
                    r.cell,
                    r.candidate,
                    r.unit,
                    r.best_prior,
                    r.unit,
                    r.percent(),
                    r.candidate_commit,
                    r.best_prior_commit,
                );
            }
        }

        for w in &self.warnings {
            let _ = writeln!(out, "\nwarning: {w}");
        }
        out
    }
}

/// Load every parseable run record in a directory, sorted by filename.
/// Unparseable files become warnings, not errors — the history may span
/// schema vintages newer than this build.
pub fn load_records_dir(dir: &Path) -> (Vec<RunRecord>, Vec<String>) {
    let mut records = Vec::new();
    let mut warnings = Vec::new();
    let mut names: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) => {
            warnings.push(format!("records dir {}: {e}", dir.display()));
            return (records, warnings);
        }
    };
    names.sort();
    for path in names {
        match std::fs::read_to_string(&path) {
            Ok(text) => match RunRecord::parse(&text) {
                Ok(rec) => records.push(rec),
                Err(e) => warnings.push(format!("{}: {e}", path.display())),
            },
            Err(e) => warnings.push(format!("{}: {e}", path.display())),
        }
    }
    (records, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_trace::{CellStats, ProcessStats, SCHEMA_VERSION};

    fn record(engine: &str, commit: &str, created: u64, navg: f64) -> RunRecord {
        RunRecord {
            schema_version: SCHEMA_VERSION,
            created_unix: created,
            commit: commit.into(),
            engine: engine.into(),
            exec_mode: "streaming".into(),
            datasize: 0.02,
            time: 1.0,
            distribution: "uniform".into(),
            periods: 2,
            wall_ms: 100.0,
            processes: vec![ProcessStats {
                process: "P13".into(),
                instances: 2,
                failures: 0,
                navg_tu: navg,
                stddev_tu: 0.0,
                navg_plus_tu: navg,
                comm_tu: 0.0,
                mgmt_tu: 0.0,
                proc_tu: navg,
            }],
            rollups: vec![],
            counters: vec![],
            cells: vec![CellStats {
                group: "C".into(),
                process: "P13".into(),
                engine: engine.into(),
                d: 0.02,
                t: 1.0,
                f: "uniform".into(),
                instances: 2,
                navg_plus_tu: navg,
                rows_per_sec: 5000.0,
            }],
        }
    }

    #[test]
    fn latest_record_wins_and_regressions_flag() {
        let records = vec![
            record("fed", "aaa", 100, 50.0),
            record("fed", "bbb", 200, 80.0), // newest: 60% worse than aaa
            record("ivm", "bbb", 200, 20.0),
        ];
        let report = Report::build(&records, 0.2);
        let regs = report.regressions();
        assert_eq!(regs.len(), 1, "{regs:#?}");
        assert!(regs[0].cell.contains("fed P13"));
        assert_eq!(regs[0].candidate, 80.0);
        assert_eq!(regs[0].best_prior, 50.0);
        // within threshold: no flag
        let ok = vec![
            record("fed", "aaa", 100, 50.0),
            record("fed", "bbb", 200, 55.0),
        ];
        assert!(Report::build(&ok, 0.2).regressions().is_empty());
    }

    #[test]
    fn render_is_deterministic_and_lists_engines_in_registry_order() {
        let records = vec![
            record("mtm", "aaa", 100, 30.0),
            record("fed", "aaa", 100, 50.0),
            record("ivm", "aaa", 100, 20.0),
        ];
        let report = Report::build(&records, 0.2);
        let md = report.render(ReportFormat::Markdown);
        assert_eq!(md, report.render(ReportFormat::Markdown));
        let header = md.lines().find(|l| l.starts_with("| process")).unwrap();
        assert_eq!(header, "| process | group | fed | mtm | ivm |");
        assert!(md.contains("| P13 | C | 50.00 | 30.00 | 20.00 |"), "{md}");
        assert!(md.contains("none"), "{md}");
        let text = report.render(ReportFormat::Text);
        assert!(text.contains("P13"));
        assert!(!text.contains('|'));
    }

    #[test]
    fn exec_mode_is_its_own_cell_dimension() {
        let mut vectorized = record("fed", "bbb", 200, 20.0);
        vectorized.exec_mode = "vectorized".into();
        let records = vec![
            record("fed", "aaa", 100, 50.0),
            record("ivm", "aaa", 100, 30.0),
            vectorized,
        ];
        let report = Report::build(&records, 0.2);
        // the vectorized run gets its own column, right after its engine —
        // and a faster vectorized run never flags the streaming history
        let md = report.render(ReportFormat::Markdown);
        let header = md.lines().find(|l| l.starts_with("| process")).unwrap();
        assert_eq!(header, "| process | group | fed | fed+vectorized | ivm |");
        assert!(md.contains("| P13 | C | 50.00 | 20.00 | 30.00 |"), "{md}");
        assert!(
            report.regressions().is_empty(),
            "{:?}",
            report.regressions()
        );
    }
}
