//! Self time per period from the benchmark's trace files
//! (`benchmark/out/<workload>.trace.json`, written by a `--trace 1` run).
//!
//! Every span of the file's `dip_trace_spans` table is nested by
//! containment on its thread; a span's self time is its duration minus
//! what the spans inside it cover. Self time is booked per process (the
//! span's own, else the innermost enclosing span's) and `layer/op`, and
//! per process and cost category (Cc / Cm / Cp: the span's own, else the
//! innermost enclosing span's, else `-`). It is turned into nms per
//! period: nanoseconds divided by 10^6, by the file's
//! `summary.calibration_factor` and by the number of periods traced (the
//! benchmark's `core/dispatch` spans, one per period).
//!
//! Beside each `(process, layer/op)` it counts the op's spans per
//! instance of the process: spans over the process's [`INSTANCE_OP`]
//! spans, the one span each engine opens around an instance's work. A
//! body that runs twice per message reads twice the calls its code makes.
//!
//! Modeled `netsim/transfer` spans record a delay that never elapsed and
//! are left out. The self time of [`WAIT_OPS`] is time spent waiting for
//! other threads (the worker pool's dispatcher, a FORK while its branches
//! run) and is booked as wait, apart from work and from the categories.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use dip_trace::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Spans whose self time is waiting for other threads, not work.
pub const WAIT_OPS: [&str; 2] = ["core/worker_pool", "mtm/fork"];

/// The span each engine opens around one instance (`feddbms/instance`,
/// `mtm/instance`): its `layer/op` ends in this.
pub const INSTANCE_OP: &str = "/instance";

/// Prefix of the benchmark's own spans mirrored into `dip_trace`: the rest
/// of the op is their `layer/op`.
const MIRRORED: &str = "bench|";

/// One trace file's self times.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimes {
    pub periods: usize,
    pub calibration_factor: f64,
    /// nms per period by `(process, layer/op)`; `-` is no process.
    pub by_op: BTreeMap<(String, String), f64>,
    /// nms per period of work (wait left out) by `(process, category)`;
    /// the category is a cost-category label or `-`.
    pub by_category: BTreeMap<(String, String), f64>,
    /// Spans by `(process, layer/op)`.
    pub calls: BTreeMap<(String, String), u64>,
}

impl SelfTimes {
    /// Whether `op` is booked as wait.
    pub fn is_wait(op: &str) -> bool {
        WAIT_OPS.contains(&op)
    }

    /// Spans of `key`'s op per instance of its process (its
    /// [`INSTANCE_OP`] spans); `None` for a process without instances.
    pub fn calls_per_instance(&self, key: &(String, String)) -> Option<f64> {
        let instances: u64 = (self.calls.iter())
            .filter(|((process, op), _)| *process == key.0 && op.ends_with(INSTANCE_OP))
            .map(|(_, n)| n)
            .sum();
        let calls = self.calls.get(key).copied().unwrap_or(0);
        (instances > 0).then(|| calls as f64 / instances as f64)
    }

    /// Total nms per period of work (`false`) or of wait (`true`); `0.0`
    /// when there is none (a float `sum` of nothing is `-0.0`).
    pub fn total(&self, wait: bool) -> f64 {
        let rows = self.by_op.iter();
        rows.filter(|((_, op), _)| Self::is_wait(op) == wait)
            .fold(0.0, |total, (_, nms)| total + nms)
    }
}

/// A span of the file, on the clock of its thread.
struct Span {
    name: String,
    process: Option<String>,
    category: Option<String>,
    thread: u64,
    start: u64,
    end: u64,
}

/// Read a trace file's self times; `Err` says what the file lacks.
pub fn self_times(trace: &Json) -> Result<SelfTimes, String> {
    let factor = (trace.get("summary"))
        .and_then(|s| s.get("calibration_factor"))
        .and_then(Json::as_f64)
        .filter(|f| *f > 0.0)
        .ok_or("no summary.calibration_factor")?;
    let table = trace.get("dip_trace_spans").ok_or("no dip_trace_spans")?;
    let columns: Vec<&str> = (table.get("columns").and_then(Json::as_arr))
        .ok_or("dip_trace_spans has no columns")?
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let at = |name: &str| {
        (columns.iter().position(|c| *c == name))
            .ok_or_else(|| format!("dip_trace_spans has no column {name}"))
    };
    let [layer, op, category, process, thread, start, dur] = [
        "layer", "op", "category", "process", "thread", "start_ns", "dur_ns",
    ]
    .map(at);
    let (layer, op, category) = (layer?, op?, category?);
    let (process, thread, start, dur) = (process?, thread?, start?, dur?);
    let rows = (table.get("rows").and_then(Json::as_arr)).ok_or("dip_trace_spans has no rows")?;
    let mut spans = Vec::with_capacity(rows.len());
    for (n, row) in rows.iter().enumerate() {
        let cell = |i: usize| row.as_arr().and_then(|r| r.get(i));
        let text = |i: usize| cell(i).and_then(Json::as_str);
        let num = |i: usize| cell(i).and_then(Json::as_u64);
        let bad = || format!("dip_trace_spans row {n} is malformed");
        let (layer, op) = (text(layer).ok_or_else(bad)?, text(op).ok_or_else(bad)?);
        let name = match op.strip_prefix(MIRRORED) {
            Some(mirrored) => mirrored.to_string(),
            None => format!("{layer}/{op}"),
        };
        if name == "netsim/transfer" {
            continue;
        }
        let start = num(start).ok_or_else(bad)?;
        spans.push(Span {
            name,
            process: text(process).map(str::to_string),
            category: text(category).map(str::to_string),
            thread: num(thread).ok_or_else(bad)?,
            start,
            end: start + num(dur).ok_or_else(bad)?,
        });
    }
    let periods = spans.iter().filter(|s| s.name == "core/dispatch").count();
    if periods == 0 {
        return Err("no core/dispatch spans: not a benchmark trace".into());
    }
    let per_period = |ns: u64| ns as f64 / 1e6 / factor / periods as f64;
    let mut ns = Booked::default();
    let mut calls: BTreeMap<(String, String), u64> = BTreeMap::new();
    // outer before inner: by thread, earlier start first, longer first
    spans.sort_by(|a, b| (a.thread, a.start, b.end).cmp(&(b.thread, b.start, a.end)));
    let mut open: Vec<Open> = Vec::new();
    for s in &spans {
        while (open.last()).is_some_and(|o| o.span.thread != s.thread || o.span.end <= s.start) {
            close(&mut open, &mut ns);
        }
        let parent = open.last_mut();
        let (process, category) = match parent {
            Some(parent) => {
                parent.book(&mut ns, s.start);
                parent.from = s.start;
                let process = s.process.as_ref().unwrap_or(&parent.process);
                let category = s.category.as_ref().unwrap_or(&parent.category);
                (process.clone(), category.clone())
            }
            None => {
                let or_none = |v: &Option<String>| v.clone().unwrap_or_else(|| "-".into());
                (or_none(&s.process), or_none(&s.category))
            }
        };
        *calls.entry((process.clone(), s.name.clone())).or_default() += 1;
        open.push(Open {
            span: s,
            process,
            category,
            from: s.start,
        });
    }
    while !open.is_empty() {
        close(&mut open, &mut ns);
    }
    let per_period =
        |ns: BTreeMap<_, u64>| ns.into_iter().map(|(k, v)| (k, per_period(v))).collect();
    Ok(SelfTimes {
        periods,
        calibration_factor: factor,
        by_op: per_period(ns.by_op),
        by_category: per_period(ns.by_category),
        calls,
    })
}

/// Nanoseconds booked so far, by `(process, layer/op)` and, for work, by
/// `(process, category)`.
#[derive(Default)]
struct Booked {
    by_op: BTreeMap<(String, String), u64>,
    by_category: BTreeMap<(String, String), u64>,
}

/// A span whose end is not reached yet, nesting the spans after it.
struct Open<'s> {
    span: &'s Span,
    /// Its own process, else the innermost enclosing span's.
    process: String,
    /// Its own category, else the innermost enclosing span's.
    category: String,
    /// Where its time not covered by a child resumes.
    from: u64,
}

impl Open<'_> {
    /// Book its uncovered time from `from` to `to`.
    fn book(&self, ns: &mut Booked, to: u64) {
        let t = to.min(self.span.end).saturating_sub(self.from);
        let key = (self.process.clone(), self.span.name.clone());
        *ns.by_op.entry(key).or_default() += t;
        if !SelfTimes::is_wait(&self.span.name) {
            let key = (self.process.clone(), self.category.clone());
            *ns.by_category.entry(key).or_default() += t;
        }
    }
}

/// Close the innermost open span: book the rest of it; its parent resumes
/// where it ended.
fn close(open: &mut Vec<Open>, ns: &mut Booked) {
    let Some(child) = open.pop() else { return };
    child.book(ns, child.span.end);
    if let Some(parent) = open.last_mut() {
        parent.from = parent.from.max(child.span.end.min(parent.span.end));
    }
}

/// The table `dipbench selftime` prints: one file's self times, or two
/// files' side by side with the change per op, largest first, each row
/// followed by its calls per instance (`4.0/inst`, per file) where the
/// process has instances; then each process's work by cost category. Rows
/// under 0.005 nms on both sides are left out.
pub fn render(a: &SelfTimes, b: Option<&SelfTimes>) -> String {
    let mut out = String::new();
    let head = |t: &SelfTimes| format!("{} periods, factor {:.3}", t.periods, t.calibration_factor);
    let _ = match b {
        None => writeln!(out, "nms per period ({})", head(a)),
        Some(b) => writeln!(out, "nms per period (A: {}; B: {})", head(a), head(b)),
    };
    let empty = SelfTimes {
        by_op: BTreeMap::new(),
        ..a.clone()
    };
    let b_or = b.unwrap_or(&empty);
    let mut keys: Vec<&(String, String)> = a.by_op.keys().chain(b_or.by_op.keys()).collect();
    keys.sort_unstable();
    keys.dedup();
    let of = |t: &SelfTimes, k: &(String, String)| t.by_op.get(k).copied().unwrap_or(0.0);
    let calls = |t: &SelfTimes, k: &(String, String)| {
        (t.calls_per_instance(k)).map_or_else(String::new, |n| format!(" {n:>7.1}/inst"))
    };
    for wait in [false, true] {
        let mut rows: Vec<(&(String, String), f64, f64)> = (keys.iter())
            .filter(|(_, op)| SelfTimes::is_wait(op) == wait)
            .map(|k| (*k, of(a, k), of(b_or, k)))
            .filter(|(_, x, y)| x.max(*y) >= 0.005)
            .collect();
        let size = |&(_, x, y): &(&(String, String), f64, f64)| match b {
            None => x,
            Some(_) => (y - x).abs(),
        };
        rows.sort_by(|p, q| size(q).total_cmp(&size(p)));
        let _ = writeln!(out, "\n{}", if wait { "wait" } else { "self" });
        for (key @ (process, op), x, y) in rows {
            let _ = match b {
                None => writeln!(out, "  {process:<8} {op:<32} {x:>9.3}{}", calls(a, key)),
                Some(b) => writeln!(
                    out,
                    "  {process:<8} {op:<32} {x:>9.3} {y:>9.3} {:>+9.3}{}{}",
                    y - x,
                    calls(a, key),
                    calls(b, key)
                ),
            };
        }
        let (x, y) = (a.total(wait), b_or.total(wait));
        let _ = match b {
            None => writeln!(out, "  {:<41} {x:>9.3}", "total"),
            Some(_) => writeln!(out, "  {:<41} {x:>9.3} {y:>9.3} {:>+9.3}", "total", y - x),
        };
    }
    let _ = writeln!(out, "\nself by category");
    let mut keys: Vec<&(String, String)> =
        (a.by_category.keys().chain(b_or.by_category.keys())).collect();
    keys.sort_unstable();
    keys.dedup();
    let of = |t: &SelfTimes, k: &(String, String)| t.by_category.get(k).copied().unwrap_or(0.0);
    for key @ (process, category) in keys {
        let (x, y) = (of(a, key), of(b_or, key));
        let _ = match b {
            _ if x.max(y) < 0.005 => Ok(()),
            None => writeln!(out, "  {process:<8} {category:<32} {x:>9.3}"),
            Some(_) => writeln!(
                out,
                "  {process:<8} {category:<32} {x:>9.3} {y:>9.3} {:>+9.3}",
                y - x
            ),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five spans on two threads: a period's dispatch holding the worker
    /// pool, a FORK on a pool thread around a filter, and a modeled
    /// transfer inside the filter. Calibration factor 2, one period. The
    /// FORK is Cm, the filter Cp.
    const FIVE_SPANS: &str = r#"{
        "summary": {"calibration_factor": 2.0},
        "dip_trace_spans": {
            "columns": ["layer", "op", "category", "process", "period", "instance",
                        "thread", "start_ns", "dur_ns"],
            "rows": [
                ["core", "bench|core/dispatch", null, null, null, null, 1, 0, 10000000],
                ["core", "worker_pool", null, null, 0, null, 1, 1000000, 8000000],
                ["mtm", "fork", "Cm", "P14", 0, 0, 2, 2000000, 5000000],
                ["relstore", "filter", "Cp", null, 0, 0, 2, 3000000, 2000000],
                ["netsim", "transfer", "Cc", "P14", 0, 0, 2, 3000000, 1000000]
            ]
        }
    }"#;

    #[test]
    fn five_spans_book_self_time_and_wait_per_period() {
        let times = self_times(&Json::parse(FIVE_SPANS).unwrap()).unwrap();
        let nms = |process: &str, op: &str| times.by_op[&(process.into(), op.into())];
        assert_eq!(times.periods, 1);
        // 10 ms less the 8 ms pool inside it, at factor 2
        assert_eq!(nms("-", "core/dispatch"), 1.0);
        assert_eq!(nms("-", "core/worker_pool"), 4.0);
        // 5 ms less the 2 ms filter; the filter inherits the FORK's process
        assert_eq!(nms("P14", "mtm/fork"), 1.5);
        assert_eq!(nms("P14", "relstore/filter"), 1.0);
        assert_eq!(times.by_op.len(), 4, "the modeled transfer is left out");
        assert_eq!((times.total(false), times.total(true)), (2.0, 5.5));
        let table = render(&times, None);
        assert!(table.contains("relstore/filter"), "{table}");
        let twice = render(&times, Some(&times));
        assert!(twice.contains("+0.000"), "{twice}");
    }

    /// Work is booked under its own category, else the innermost enclosing
    /// span's, else `-`; wait is in no category.
    #[test]
    fn five_spans_book_work_by_category() {
        let times = self_times(&Json::parse(FIVE_SPANS).unwrap()).unwrap();
        let cat = |process: &str, c: &str| times.by_category[&(process.into(), c.into())];
        assert_eq!(cat("-", "-"), 1.0, "the dispatch has no category");
        assert_eq!(cat("P14", "Cp"), 1.0);
        // the FORK is wait: booked by op, in no category
        assert_eq!(times.by_category.len(), 2, "{:?}", times.by_category);
        let total: f64 = times.by_category.values().sum();
        assert_eq!(total, times.total(false));
        // a filter without a category of its own takes the FORK's
        let inherits = FIVE_SPANS.replace(r#""filter", "Cp""#, r#""filter", null"#);
        let times = self_times(&Json::parse(&inherits).unwrap()).unwrap();
        assert_eq!(times.by_category[&("P14".into(), "Cm".into())], 1.0);
        let table = render(&times, None);
        assert!(table.contains("self by category"), "{table}");
        assert!(
            table
                .lines()
                .any(|l| l.split_whitespace().eq(["P14", "Cm", "1.000"])),
            "{table}"
        );
    }

    /// Calls are counted per instance of a process: its `*/instance`
    /// spans. An instance span around the FORK, and a second filter in it,
    /// reads 2.0 filters per instance.
    #[test]
    fn five_spans_count_calls_per_instance() {
        let times = self_times(&Json::parse(FIVE_SPANS).unwrap()).unwrap();
        let key = |process: &str, op: &str| (process.to_string(), op.to_string());
        assert_eq!(times.calls[&key("P14", "relstore/filter")], 1);
        assert_eq!(
            times.calls_per_instance(&key("P14", "relstore/filter")),
            None
        );
        let fork = r#"["mtm", "fork", "Cm", "P14", 0, 0, 2, 2000000, 5000000],"#;
        let doubled = FIVE_SPANS.replace(
            fork,
            &format!(
                r#"["mtm", "instance", "Cm", "P14", 0, 0, 2, 1500000, 6000000], {fork}
                ["relstore", "filter", "Cp", null, 0, 0, 2, 5500000, 1000000],"#
            ),
        );
        let times = self_times(&Json::parse(&doubled).unwrap()).unwrap();
        let per = |process: &str, op: &str| times.calls_per_instance(&key(process, op));
        assert_eq!(per("P14", "mtm/instance"), Some(1.0));
        assert_eq!(per("P14", "relstore/filter"), Some(2.0));
        assert_eq!(per("P14", "mtm/fork"), Some(1.0));
        assert_eq!(per("P14", "netsim/transfer"), Some(0.0), "left out");
        assert_eq!(per("-", "core/dispatch"), None, "no instances");
        let table = render(&times, None);
        let row = |op: &str| table.lines().find(|l| l.contains(op)).unwrap().to_string();
        assert!(row("relstore/filter").ends_with("2.0/inst"), "{table}");
        assert!(!row("core/dispatch").contains("/inst"), "{table}");
        let twice = render(&times, Some(&times));
        assert!(twice.contains("2.0/inst     2.0/inst"), "{twice}");
    }

    /// A trace with no wait at all (an E1-only run starts no pool and no
    /// FORK) totals its wait as `0.000`, not `-0.000`.
    #[test]
    fn a_trace_without_wait_totals_zero_wait() {
        let no_wait: String = (FIVE_SPANS.lines())
            .filter(|l| !l.contains("worker_pool") && !l.contains("fork"))
            .collect::<Vec<_>>()
            .join("\n");
        let times = self_times(&Json::parse(&no_wait).unwrap()).unwrap();
        assert_eq!(times.total(true).to_bits(), 0.0f64.to_bits());
        let table = render(&times, None);
        let wait = table.split("\nwait\n").nth(1).unwrap();
        let total = wait.lines().find(|l| l.contains("total")).unwrap();
        assert_eq!(
            total.split_whitespace().collect::<Vec<_>>(),
            ["total", "0.000"],
            "{table}"
        );
        let twice = render(&times, Some(&times));
        assert!(!twice.contains("-0.000"), "{twice}");
    }

    #[test]
    fn a_file_without_periods_or_factor_is_refused() {
        let no_factor = FIVE_SPANS.replace("calibration_factor", "factor");
        let e = self_times(&Json::parse(&no_factor).unwrap()).unwrap_err();
        assert!(e.contains("calibration_factor"), "{e}");
        let no_dispatch = FIVE_SPANS.replace("core/dispatch", "core/run");
        let e = self_times(&Json::parse(&no_dispatch).unwrap()).unwrap_err();
        assert!(e.contains("core/dispatch"), "{e}");
    }
}
