//! The benchmark cell model and the `dipbench report` renderer.
//!
//! A *cell* is one addressable `(process-group, engine, exec_mode, d, t, f)`
//! measurement. This module normalizes the committed measurement history —
//! `results/records/*.json` run records (schema v1 and v2) and
//! `BENCH_*.json` wall-clock summaries — into cells, renders cross-engine
//! and cross-commit comparison tables (markdown or plain text), and flags
//! per-cell regressions against the best prior commit. Rendering is fully
//! deterministic: inputs are keyed and sorted, never timestamped at render
//! time, so golden-file tests can compare output byte-for-byte.

use crate::barometer::registry::EngineRegistry;
use dip_trace::{group_of, Json, RunRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// Output format of the rendered report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    Markdown,
    Text,
}

/// The wall-clock summary of one committed `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSummary {
    /// File stem, e.g. `BENCH_4` — its numeric suffix orders history.
    pub file: String,
    /// Position in history (the filename's numeric suffix; 0 if none).
    pub order: u64,
    pub commit: String,
    pub engine: String,
    /// Relational executor the run was pinned to; files written before the
    /// mode existed parse as `"streaming"` (the only executor back then).
    pub exec_mode: String,
    pub d: f64,
    pub t: f64,
    pub f: String,
    pub periods: u64,
    pub warm_mean_ms: f64,
    pub rows_per_sec: f64,
}

impl BenchSummary {
    /// Parse one `BENCH_*.json` payload (any schema vintage — only the
    /// stable identity and `stats.warm_mean` fields are read).
    ///
    /// Every identity field is strict: a malformed `commit`, `engine`,
    /// `distribution` or `periods` is an error the caller reports as a
    /// warning and *skips*, exactly like an unparseable file. Coercing
    /// them to defaults (the old behavior) silently filed the measurement
    /// under the wrong cell — `commit: "unknown"` merged distinct commits
    /// into one history entry and a mistyped `periods` compared runs that
    /// are not comparable. Only `rows_per_sec` keeps a default (0 = not
    /// recorded), which the renderer already displays as unknown.
    pub fn from_json(file: &str, v: &Json) -> Result<BenchSummary, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{file}: field '{key}' must be a number"))
        };
        let string = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{file}: field '{key}' must be a string"))
        };
        let stats = v.get("stats").ok_or_else(|| format!("{file}: no stats"))?;
        Ok(BenchSummary {
            file: file.to_string(),
            order: file
                .rsplit('_')
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
            commit: string("commit")?,
            engine: string("engine")?,
            exec_mode: v
                .get("exec_mode")
                .and_then(Json::as_str)
                .unwrap_or("streaming")
                .to_string(),
            d: num("datasize")?,
            t: num("time")?,
            f: string("distribution")?,
            periods: v
                .get("periods")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{file}: field 'periods' must be a non-negative integer"))?,
            warm_mean_ms: stats
                .get("warm_mean")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{file}: stats.warm_mean must be a number"))?,
            rows_per_sec: v.get("rows_per_sec").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }
}

/// One flagged regression: a candidate cell measurably worse than the best
/// prior-commit measurement of the same cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Human-readable cell address, e.g. `ivm P13 @ d=0.02 t=1 f=uniform`.
    pub cell: String,
    /// Unit of the regressed quantity (`tu` or `ms`).
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
    benches: Vec<BenchSummary>,
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
    /// Normalize records and bench summaries into cells and flag
    /// regressions beyond `threshold` (fractional, e.g. 0.2 = 20%).
    pub fn build(records: &[RunRecord], benches: &[BenchSummary], threshold: f64) -> Report {
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

        // wall-clock history: candidate = highest-numbered file per
        // (engine, scale); prior = lower-numbered files of the same cell
        let mut sorted_benches = benches.to_vec();
        sorted_benches.sort_by(|a, b| (a.order, &a.file).cmp(&(b.order, &b.file)));
        let mut by_cell: BTreeMap<(String, String), Vec<&BenchSummary>> = BTreeMap::new();
        for b in &sorted_benches {
            by_cell
                .entry((
                    engine_column(&b.engine, &b.exec_mode),
                    scale_key(b.d, b.t, &b.f, b.periods),
                ))
                .or_default()
                .push(b);
        }
        for ((engine, scale), runs) in &by_cell {
            let cand = runs.last().expect("non-empty cell");
            let prior = runs
                .iter()
                .filter(|b| b.commit != cand.commit)
                .min_by(|a, b| a.warm_mean_ms.total_cmp(&b.warm_mean_ms));
            if let Some(best) = prior {
                if best.warm_mean_ms > 1e-9
                    && cand.warm_mean_ms > best.warm_mean_ms * (1.0 + threshold)
                {
                    regressions.push(Regression {
                        cell: format!("{engine} wall @ {scale} ({})", cand.file),
                        unit: "ms",
                        candidate: cand.warm_mean_ms,
                        candidate_commit: cand.commit.clone(),
                        best_prior: best.warm_mean_ms,
                        best_prior_commit: best.commit.clone(),
                    });
                }
            }
        }

        Report {
            threshold,
            tables,
            throughput,
            benches: sorted_benches,
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

        for (scale, table) in &self.tables {
            let engines: BTreeSet<String> =
                table.values().flat_map(|row| row.keys().cloned()).collect();
            let engines = engine_order(&engines);
            if md {
                let _ = write!(out, "\n## Cross-engine NAVG+ (tu) — {scale}\n\n");
                out.push_str("| process | group |");
                for e in &engines {
                    let _ = write!(out, " {e} |");
                }
                out.push('\n');
                out.push_str("|---|---|");
                for _ in &engines {
                    out.push_str("---|");
                }
                out.push('\n');
            } else {
                let _ = write!(out, "\nCross-engine NAVG+ (tu) — {scale}\n");
                let _ = write!(out, "{:<9}{:<7}", "process", "group");
                for e in &engines {
                    let _ = write!(out, "{e:>12}");
                }
                out.push('\n');
            }
            for (process, row) in table {
                let group = group_of(process);
                if md {
                    let _ = write!(out, "| {process} | {group} |");
                    for e in &engines {
                        match row.get(e) {
                            Some(v) => {
                                let _ = write!(out, " {v:.2} |");
                            }
                            None => out.push_str(" – |"),
                        }
                    }
                    out.push('\n');
                } else {
                    let _ = write!(out, "{process:<9}{group:<7}");
                    for e in &engines {
                        match row.get(e) {
                            Some(v) => {
                                let _ = write!(out, "{v:>12.2}");
                            }
                            None => {
                                let _ = write!(out, "{:>12}", "-");
                            }
                        }
                    }
                    out.push('\n');
                }
            }
            // run-level throughput footer (0 = unknown, e.g. v1 records)
            if let Some(tp) = self.throughput.get(scale) {
                if md {
                    out.push_str("| rows/sec | – |");
                    for e in &engines {
                        match tp.get(e) {
                            Some(v) if *v > 0.0 => {
                                let _ = write!(out, " {v:.0} |");
                            }
                            _ => out.push_str(" – |"),
                        }
                    }
                    out.push('\n');
                } else {
                    let _ = write!(out, "{:<9}{:<7}", "rows/sec", "-");
                    for e in &engines {
                        match tp.get(e) {
                            Some(v) if *v > 0.0 => {
                                let _ = write!(out, "{v:>12.0}");
                            }
                            _ => {
                                let _ = write!(out, "{:>12}", "-");
                            }
                        }
                    }
                    out.push('\n');
                }
            }
        }

        if !self.benches.is_empty() {
            if md {
                out.push_str("\n## Wall-clock history (BENCH_*.json)\n\n");
                out.push_str(
                    "| file | engine | exec mode | scale | warm mean (ms) | rows/sec | commit |\n",
                );
                out.push_str("|---|---|---|---|---|---|---|\n");
            } else {
                out.push_str("\nWall-clock history (BENCH_*.json)\n");
            }
            for b in &self.benches {
                let scale = scale_key(b.d, b.t, &b.f, b.periods);
                if md {
                    let _ = writeln!(
                        out,
                        "| {} | {} | {} | {} | {:.1} | {:.0} | {} |",
                        b.file,
                        b.engine,
                        b.exec_mode,
                        scale,
                        b.warm_mean_ms,
                        b.rows_per_sec,
                        b.commit
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "{:<10}{:<6}{:<12}{:<24}{:>10.1} ms{:>10.0} rows/s  {}",
                        b.file,
                        b.engine,
                        b.exec_mode,
                        scale,
                        b.warm_mean_ms,
                        b.rows_per_sec,
                        b.commit
                    );
                }
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

/// Load every `BENCH_*.json` in a directory, sorted by filename.
pub fn load_bench_files(dir: &Path) -> (Vec<BenchSummary>, Vec<String>) {
    let mut benches = Vec::new();
    let mut warnings = Vec::new();
    let mut names: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name().is_some_and(|n| {
                    let n = n.to_string_lossy();
                    n.starts_with("BENCH_") && n.ends_with(".json")
                })
            })
            .collect(),
        Err(e) => {
            warnings.push(format!("bench dir {}: {e}", dir.display()));
            return (benches, warnings);
        }
    };
    names.sort();
    for path in names {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {e}", path.display())))
            .and_then(|v| BenchSummary::from_json(&stem, &v));
        match parsed {
            Ok(b) => benches.push(b),
            Err(e) => warnings.push(e),
        }
    }
    (benches, warnings)
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
        let report = Report::build(&records, &[], 0.2);
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
        assert!(Report::build(&ok, &[], 0.2).regressions().is_empty());
    }

    #[test]
    fn render_is_deterministic_and_lists_engines_in_registry_order() {
        let records = vec![
            record("mtm", "aaa", 100, 30.0),
            record("fed", "aaa", 100, 50.0),
            record("ivm", "aaa", 100, 20.0),
        ];
        let report = Report::build(&records, &[], 0.2);
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
        let report = Report::build(&records, &[], 0.2);
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

    /// A BENCH payload with every field the strict loader demands.
    fn bench_json(commit: &str) -> String {
        format!(
            r#"{{"commit": "{commit}", "engine": "fed", "datasize": 0.05, "time": 1,
                "distribution": "uniform", "periods": 3,
                "stats": {{"warm_mean": 100.0}}, "rows_per_sec": 1000}}"#
        )
    }

    #[test]
    fn malformed_identity_fields_are_errors_not_defaults() {
        let good = Json::parse(&bench_json("abc")).unwrap();
        assert!(BenchSummary::from_json("BENCH_9", &good).is_ok());
        // each identity field, mistyped or missing, must refuse to parse
        // instead of coercing to a default that files the measurement
        // under the wrong cell
        for (field, broken) in [
            ("commit", r#""commit": 7"#.to_string()),
            ("engine", r#""engine": ["fed"]"#.to_string()),
            ("distribution", r#""distribution": 5"#.to_string()),
            ("periods", r#""periods": "three""#.to_string()),
        ] {
            let text = bench_json("abc").replacen(
                &format!(r#""{field}": "#),
                &format!(r#""{field}_renamed": "#),
                1,
            );
            let missing = Json::parse(&text).unwrap();
            let err = BenchSummary::from_json("BENCH_9", &missing).unwrap_err();
            assert!(err.contains(field), "missing {field}: {err}");

            let start = bench_json("abc");
            let from = start
                .split(&format!(r#""{field}": "#))
                .nth(1)
                .map(|rest| {
                    let end = rest.find([',', '}']).unwrap();
                    format!(r#""{field}": {}"#, &rest[..end])
                })
                .unwrap();
            let text = start.replacen(&from, &broken, 1);
            let mistyped = Json::parse(&text).unwrap();
            let err = BenchSummary::from_json("BENCH_9", &mistyped).unwrap_err();
            assert!(err.contains(field), "mistyped {field}: {err}");
        }
        // rows_per_sec stays optional: 0 renders as "not recorded"
        let text = bench_json("abc").replacen(r#""rows_per_sec": 1000"#, r#""x": 1"#, 1);
        let s = BenchSummary::from_json("BENCH_9", &Json::parse(&text).unwrap()).unwrap();
        assert_eq!(s.rows_per_sec, 0.0);
    }

    #[test]
    fn loader_warns_and_skips_malformed_files_keeping_good_ones() {
        let dir =
            std::env::temp_dir().join(format!("dipbench-report-fixture-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_1.json"), bench_json("aaa")).unwrap();
        std::fs::write(
            dir.join("BENCH_2.json"),
            bench_json("bbb").replacen(r#""commit": "bbb""#, r#""commit": 7"#, 1),
        )
        .unwrap();
        std::fs::write(dir.join("BENCH_3.json"), "{ not json").unwrap();
        let (benches, warnings) = load_bench_files(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(benches.len(), 1, "{benches:?}");
        assert_eq!(benches[0].commit, "aaa");
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(
            warnings.iter().any(|w| w.contains("commit")),
            "the malformed-field warning names the field: {warnings:?}"
        );
    }

    #[test]
    fn bench_history_regression_uses_file_order() {
        let bench = |file: &str, order: u64, commit: &str, warm: f64| BenchSummary {
            file: file.into(),
            order,
            commit: commit.into(),
            engine: "fed".into(),
            exec_mode: "streaming".into(),
            d: 0.05,
            t: 1.0,
            f: "uniform".into(),
            periods: 3,
            warm_mean_ms: warm,
            rows_per_sec: 1000.0,
        };
        let benches = vec![
            bench("BENCH_3", 3, "aaa", 100.0),
            bench("BENCH_4", 4, "bbb", 130.0), // 30% slower
        ];
        let report = Report::build(&[], &benches, 0.2);
        assert_eq!(report.regressions().len(), 1);
        assert_eq!(report.regressions()[0].unit, "ms");
        let fine = vec![
            bench("BENCH_3", 3, "aaa", 100.0),
            bench("BENCH_4", 4, "bbb", 110.0),
        ];
        assert!(Report::build(&[], &fine, 0.2).regressions().is_empty());
    }
}
