//! The benchmark execution schedule (paper Table II and Fig. 7/8).
//!
//! Each period runs four streams of process-initiating events. Streams A
//! and B are concurrent; C and D are serialized after them. Events carry a
//! deadline in abstract time units (tu) relative to their stream's start;
//! chained entries of Table II ("T1(P04)" = completion of P04) get a
//! deadline just past their predecessors', which under the per-stream
//! serialized dispatch reproduces the completion ordering exactly.
//!
//! The P01/P02 instance-count formulas decrease with the period number `k`
//! — the paper designed master-data volume to shrink over the run (Fig. 8
//! left). OCR of Table II leaves the P01/P02 divisors ambiguous; we use
//! `⌈(100−k)·d/5⌉+1` and `⌈(100−k)·d/10⌉+1` (see DESIGN.md §6).

use crate::processes::catalog;
use dip_mtm::process::EventType;

/// The four streams, correlated with the process groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamId {
    A,
    B,
    C,
    D,
}

/// One process-initiating event.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent {
    /// Process-type id, `"P01"`…`"P15"`.
    pub process: &'static str,
    pub stream: StreamId,
    /// Deadline in tu relative to the stream start.
    pub deadline_tu: f64,
    /// Instance index `m − 1` (0-based) for message-driven types; 0 for
    /// time-driven singletons.
    pub seq: u32,
}

/// Whether `process` is initiated by E1 messages (the client generates
/// one per instance) rather than by an E2 timed event.
pub fn is_message_process(process: &str) -> bool {
    catalog::process_type(process).is_some_and(|p| p.event == EventType::Message)
}

fn ev(process: &'static str, stream: StreamId, deadline_tu: f64, seq: u32) -> ScheduledEvent {
    ScheduledEvent {
        process,
        stream,
        deadline_tu,
        seq,
    }
}

/// Tolerance for instance-count rounding: datasize values like `0.29` are
/// not exactly representable in binary, so products like `1100·d` can land
/// an ulp below the integer the paper's formula intends (318.999…94 for
/// `1100·0.29`), and a bare `floor`/`ceil` then miscounts by one. Counts
/// are small integers, so absorbing a millionth is always safe.
const COUNT_EPS: f64 = 1e-6;

/// `floor(x) + 1` tolerating `x` an ulp below an integer.
fn floor_count(x: f64) -> u32 {
    ((x + COUNT_EPS).floor() as u32) + 1
}

/// `ceil(x) + 1` tolerating `x` an ulp above an integer.
fn ceil_count(x: f64) -> u32 {
    ((x - COUNT_EPS).ceil().max(0.0) as u32) + 1
}

/// Number of P01 instances in period `k` under datasize `d`.
pub fn p01_count(k: u32, d: f64) -> u32 {
    ceil_count((100u32.saturating_sub(k)) as f64 * d / 5.0)
}

/// Number of P02 instances in period `k` under datasize `d`.
pub fn p02_count(k: u32, d: f64) -> u32 {
    ceil_count((100u32.saturating_sub(k)) as f64 * d / 10.0)
}

/// Number of P04 instances (Table II: `1 ≤ m ≤ 1100·d + 1`).
pub fn p04_count(d: f64) -> u32 {
    floor_count(1100.0 * d)
}

/// Number of P08 instances (`1 ≤ m ≤ 900·d + 1`).
pub fn p08_count(d: f64) -> u32 {
    floor_count(900.0 * d)
}

/// Number of P10 instances (`1 ≤ m ≤ 1050·d + 1`).
pub fn p10_count(d: f64) -> u32 {
    floor_count(1050.0 * d)
}

/// Stream A of period `k`: concurrent P01/P02 message series, then P03
/// once after both complete.
pub fn stream_a(k: u32, d: f64) -> Vec<ScheduledEvent> {
    let mut events = Vec::new();
    let n1 = p01_count(k, d);
    let n2 = p02_count(k, d);
    for m in 1..=n1 {
        // T_B + 2(m−1)
        events.push(ev("P01", StreamId::A, 2.0 * (m - 1) as f64, m - 1));
    }
    for m in 1..=n2 {
        // T_B + 2m
        events.push(ev("P02", StreamId::A, 2.0 * m as f64, m - 1));
    }
    sort_events(&mut events);
    let last = events.last().map(|e| e.deadline_tu).unwrap_or(0.0);
    // P03: T1(P01) ∧ T1(P02)
    events.push(ev("P03", StreamId::A, last + 1.0, 0));
    events
}

/// Stream B: Vienna messages, the European extracts, the Asian flow, the
/// American flow (see Table II's offsets 2000/3000 tu).
pub fn stream_b(d: f64) -> Vec<ScheduledEvent> {
    let mut events = Vec::new();
    for m in 1..=p04_count(d) {
        events.push(ev("P04", StreamId::B, 2.0 * (m - 1) as f64, m - 1));
    }
    let p04_end = events.last().map(|e| e.deadline_tu).unwrap_or(0.0);
    // P05 after P04 completes, P06 after P05, P07 after P06
    events.push(ev("P05", StreamId::B, p04_end + 1.0, 0));
    events.push(ev("P06", StreamId::B, p04_end + 2.0, 0));
    events.push(ev("P07", StreamId::B, p04_end + 3.0, 0));
    for m in 1..=p08_count(d) {
        events.push(ev("P08", StreamId::B, 2000.0 + 3.0 * (m - 1) as f64, m - 1));
    }
    let p08_end = 2000.0 + 3.0 * (p08_count(d) - 1) as f64;
    events.push(ev("P09", StreamId::B, p08_end + 1.0, 0));
    for m in 1..=p10_count(d) {
        events.push(ev("P10", StreamId::B, 3000.0 + 2.5 * (m - 1) as f64, m - 1));
    }
    sort_events(&mut events);
    let last = events.last().map(|e| e.deadline_tu).unwrap_or(0.0);
    // P11: T1(Stream B)
    events.push(ev("P11", StreamId::B, last + 1.0, 0));
    events
}

/// Stream C: the serialized data-warehouse update (P12, then P13 at +10 tu).
pub fn stream_c() -> Vec<ScheduledEvent> {
    vec![
        ev("P12", StreamId::C, 0.0, 0),
        ev("P13", StreamId::C, 10.0, 0),
    ]
}

/// Stream D: the data-mart update (P14, then P15 after completion).
pub fn stream_d() -> Vec<ScheduledEvent> {
    vec![
        ev("P14", StreamId::D, 0.0, 0),
        ev("P15", StreamId::D, 1.0, 0),
    ]
}

fn sort_events(events: &mut [ScheduledEvent]) {
    events.sort_by(|a, b| {
        a.deadline_tu
            .partial_cmp(&b.deadline_tu)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.process.cmp(b.process))
            .then(a.seq.cmp(&b.seq))
    });
}

/// All four streams of one period.
pub fn period_streams(k: u32, d: f64) -> [(StreamId, Vec<ScheduledEvent>); 4] {
    [
        (StreamId::A, stream_a(k, d)),
        (StreamId::B, stream_b(d)),
        (StreamId::C, stream_c()),
        (StreamId::D, stream_d()),
    ]
}

/// Total number of events of one period (used by progress reporting).
pub fn period_event_count(k: u32, d: f64) -> usize {
    period_streams(k, d).iter().map(|(_, e)| e.len()).sum()
}

// ---------------------------------------------------------------------
// Figure 8 series
// ---------------------------------------------------------------------

/// Fig. 8 (left): number of executed P01 instances `m` per period `k` for
/// a given datasize. Returns `(k, m)` pairs.
pub fn fig8_left(d: f64, periods: u32) -> Vec<(u32, u32)> {
    (0..periods).map(|k| (k, p01_count(k, d))).collect()
}

/// Fig. 8 (right): scheduled event time (in milliseconds) of the m-th P01
/// instance under time scale factor `t`. Returns `(m, millis)` pairs.
pub fn fig8_right(t: f64, instances: u32) -> Vec<(u32, f64)> {
    (1..=instances)
        .map(|m| (m, 2.0 * (m - 1) as f64 / t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts_at_d005() {
        // d = 0.05 (paper Fig. 10): P04 = 56, P08 = 46, P10 = 53 (+1 each)
        assert_eq!(p04_count(0.05), 56);
        assert_eq!(p08_count(0.05), 46);
        assert_eq!(p10_count(0.05), 53);
        // P01 decreases with k
        assert!(p01_count(0, 0.5) > p01_count(90, 0.5));
        assert_eq!(p01_count(100, 0.05), 1);
    }

    #[test]
    fn counts_tolerate_inexact_datasize() {
        // 1100·0.69 = 758.999…89 in f64: a bare floor() undercounts by one
        assert!((1100.0f64 * 0.69).floor() < 759.0, "premise of the test");
        assert_eq!(p04_count(0.69), 760);
        // 100·0.55/5 = 11.000…002: a bare ceil() overcounts by one
        assert!((100.0f64 * 0.55 / 5.0).ceil() > 11.0, "premise of the test");
        assert_eq!(p01_count(0, 0.55), 12);
        // exact and clearly-fractional products are unchanged by the epsilon
        assert_eq!(p04_count(0.29), 320); // 1100·0.29 is exactly 319
        assert_eq!(p08_count(0.61), 550); // 900·0.61 is exactly 549
        assert_eq!(p10_count(0.93), 977); // 1050·0.93 = 976.5 floors to 976
        assert_eq!(p08_count(1.0), 901);
        assert_eq!(p02_count(0, 0.07), 2); // 0.7000…007 still ceils to 1
        assert_eq!(p01_count(5, 0.4), 9); // 7.599…96 still ceils to 8
                                          // zero stays pinned at the paper's "+1" floor
        assert_eq!(p01_count(100, 0.73), 1);
        assert_eq!(p02_count(100, 0.73), 1);
    }

    #[test]
    fn stream_a_interleaves_and_ends_with_p03() {
        let events = stream_a(0, 0.5);
        assert_eq!(events.last().unwrap().process, "P03");
        let n1 = events.iter().filter(|e| e.process == "P01").count();
        let n2 = events.iter().filter(|e| e.process == "P02").count();
        assert_eq!(n1 as u32, p01_count(0, 0.5));
        assert_eq!(n2 as u32, p02_count(0, 0.5));
        // deadlines are non-decreasing
        for w in events.windows(2) {
            assert!(w[0].deadline_tu <= w[1].deadline_tu);
        }
    }

    #[test]
    fn stream_b_ordering_matches_table_ii() {
        let events = stream_b(0.05);
        let pos = |p: &str| events.iter().position(|e| e.process == p).unwrap();
        // P04 block first, then P05 -> P06 -> P07, then P08 (offset 2000),
        // P09, then P10 (offset 3000), P11 last
        assert!(pos("P04") < pos("P05"));
        assert!(pos("P05") < pos("P06"));
        assert!(pos("P06") < pos("P07"));
        assert!(pos("P07") < pos("P08"));
        assert!(pos("P08") < pos("P09"));
        assert!(pos("P09") < pos("P10"));
        assert_eq!(events.last().unwrap().process, "P11");
        // last P08 instance comes before P09
        let last_p08 = events.iter().rposition(|e| e.process == "P08").unwrap();
        assert!(last_p08 < pos("P09"));
    }

    #[test]
    fn p10_step_is_2_5_tu() {
        let events = stream_b(0.05);
        let p10: Vec<&ScheduledEvent> = events.iter().filter(|e| e.process == "P10").collect();
        assert!((p10[1].deadline_tu - p10[0].deadline_tu - 2.5).abs() < 1e-9);
        assert!((p10[0].deadline_tu - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn serialized_streams() {
        assert_eq!(stream_c().len(), 2);
        assert!((stream_c()[1].deadline_tu - 10.0).abs() < 1e-9);
        assert_eq!(stream_d()[0].process, "P14");
        assert_eq!(stream_d()[1].process, "P15");
    }

    #[test]
    fn fig8_series_shapes() {
        // left: m decreases in k, larger d gives more instances
        let small = fig8_left(0.05, 100);
        let big = fig8_left(1.0, 100);
        assert!(big[0].1 > small[0].1);
        assert!(big[0].1 > big[99].1);
        // right: larger t compresses the schedule
        let slow = fig8_right(0.5, 10);
        let fast = fig8_right(2.0, 10);
        assert!(slow[9].1 > fast[9].1);
        assert_eq!(fast[0].1, 0.0);
    }
}
