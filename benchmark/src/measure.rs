//! The measured loop: calibration-bracketed iterations, tracing off, and
//! the metrics derived from them (the end-to-end set and the per-layer
//! metrics whose source is the `deliver` decorator and the timers around
//! the environment calls).

use crate::cal;
use crate::procstat::ProcStat;
use crate::stats::{iqr_over_median, median, percentile, percentile_sorted};
use crate::workload::{Iteration, Runner, Shape};
use std::time::Instant;

/// Everything the measured iterations produced, already normalized where
/// the name says `n…`.
#[derive(Default)]
pub struct Measured {
    /// Calibration kernel wall per run, ms (one more than iterations).
    pub cal_ms: Vec<f64>,
    /// Per iteration: normalized / raw wall per period, ms.
    pub period_nms: Vec<f64>,
    pub period_wall_ms: Vec<f64>,
    /// Per iteration, per period: environment and monitor shares, nms.
    pub uninit_nms: Vec<f64>,
    pub init_nms: Vec<f64>,
    pub monitor_nms: Vec<f64>,
    pub gap_nms: Vec<f64>,
    /// Per iteration: Σ E2 `deliver` per period, nms.
    pub e2_nms: Vec<f64>,
    /// Per iteration: mean NAVG+ across process types, tu.
    pub navg_plus_tu: Vec<f64>,
    /// Every E1 `deliver` latency of the measured iterations, nus.
    pub e1_nus: Vec<f64>,
    /// Per iteration: median and 95th percentile of its E1 latencies, nus.
    pub e1_p50_nus: Vec<f64>,
    pub e1_p95_nus: Vec<f64>,
    /// Per process number (index 1..=15), per iteration: Σ `deliver` of that
    /// type per period, nus. A type that does not run sums to 0.
    pub by_process_nus: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Counts of the first measured iteration, per period: a fixed point of
    /// the run, whatever number of iterations the time box holds.
    pub instances_per_period: f64,
    pub retries_per_period: f64,
    pub dead_letters_per_period: f64,
    pub net_bytes_per_period: f64,
    pub net_messages_per_period: f64,
    pub net_modeled_ms_per_period: f64,
    /// After each iteration: peak resident set so far, MiB.
    pub hwm_mb: Vec<f64>,
    /// CPU and fault counters summed over the iterations (kernel runs
    /// excluded) and the periods they cover.
    pub cpu: ProcStat,
    pub periods_run: u64,
}

/// How long to measure.
pub enum Budget {
    /// Until `secs` of wall time have passed (at least 3 iterations).
    Seconds(f64),
    /// Exactly this many iterations.
    Iterations(u32),
}

/// The measured iteration after which `peak_rss_mb` is read. The resident
/// set keeps growing with every period, so the peak of a time-boxed loop
/// would depend on how many iterations the machine got through; the peak
/// after a fixed amount of work does not.
const RSS_AT_ITERATION: usize = 10;

impl Measured {
    pub fn iterations(&self) -> usize {
        self.period_nms.len()
    }

    /// Index of the iteration at which memory is read (the last one when
    /// the loop was shorter).
    fn rss_index(&self) -> usize {
        RSS_AT_ITERATION.min(self.iterations()) - 1
    }

    fn absorb(&mut self, runner: &Runner<'_>, it: &Iteration, factor: f64, cpu: ProcStat) {
        let periods = runner.spec.periods_per_iteration() as f64;
        let nms = |ns: u64| ns as f64 / 1e6 / factor;
        self.period_wall_ms.push(it.wall_ns as f64 / 1e6 / periods);
        self.period_nms.push(nms(it.wall_ns) / periods);
        self.uninit_nms.push(nms(it.uninit_ns) / periods);
        self.init_nms.push(nms(it.init_ns) / periods);
        self.monitor_nms.push(nms(it.monitor_ns) / periods);
        self.navg_plus_tu.push(it.navg_plus_tu);

        // deliver time on the blocking path: streams A ∥ B overlap, so a
        // period is blocked by the longer of the two; C, D (and everything
        // in the storm) run one after the other
        let mut serial_ns = 0u64;
        let mut ab: std::collections::BTreeMap<u8, [u64; 2]> = Default::default();
        let mut e2_ns = 0u64;
        let e1_from = self.e1_nus.len();
        if self.by_process_nus.is_empty() {
            self.by_process_nus = vec![Vec::new(); 16];
        }
        let mut by_process_ns = [0u64; 16];
        let mut retries = 0u64;
        for s in &it.deliveries {
            let dur_ns = s.dur_ns as u64;
            let nus = dur_ns as f64 / 1e3 / factor;
            if s.e1 {
                self.e1_nus.push(nus);
            } else {
                e2_ns += dur_ns;
            }
            if let Some(sum) = by_process_ns.get_mut(s.process as usize) {
                *sum += dur_ns;
            }
            match (runner.spec.shape, s.process) {
                (Shape::FullPeriods, 1..=3) => ab.entry(s.period).or_default()[0] += dur_ns,
                (Shape::FullPeriods, 4..=11) => ab.entry(s.period).or_default()[1] += dur_ns,
                _ => serial_ns += dur_ns,
            }
            retries += s.retried as u64;
        }
        for (series, ns) in self.by_process_nus.iter_mut().zip(by_process_ns) {
            series.push(ns as f64 / 1e3 / factor / periods);
        }
        let mut e1 = self.e1_nus[e1_from..].to_vec();
        e1.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
        self.e1_p50_nus.push(percentile_sorted(&e1, 0.50));
        self.e1_p95_nus.push(percentile_sorted(&e1, 0.95));
        let blocked_ns = serial_ns + ab.values().map(|[a, b]| *a.max(b)).sum::<u64>();
        let accounted = it.uninit_ns + it.init_ns + it.monitor_ns + blocked_ns;
        self.gap_nms
            .push(nms(it.wall_ns.saturating_sub(accounted)) / periods);
        self.e2_nms.push(nms(e2_ns) / periods);

        self.attempted += it.attempted;
        self.failed += it.failed;
        if self.periods_run == 0 {
            self.instances_per_period = it.instances as f64 / periods;
            self.retries_per_period = retries as f64 / periods;
            self.dead_letters_per_period = it.dead_letters as f64 / periods;
            self.net_bytes_per_period = it.net_bytes as f64 / periods;
            self.net_messages_per_period = it.net_messages as f64 / periods;
            self.net_modeled_ms_per_period = it.net_modeled_ns as f64 / 1e6 / periods;
        }
        self.cpu.add(&cpu);
        self.periods_run += periods as u64;
    }
}

/// Run measured iterations, each bracketed by a kernel run before and
/// after; every duration taken inside iteration `i` is divided by
/// `cal::factors(cal_ms)[i]`. Returns the measurements and the last
/// iteration (whose state the environment still holds).
pub fn measure(runner: &Runner<'_>, budget: Budget, first_iteration: u32) -> (Measured, Iteration) {
    let started = Instant::now();
    let mut cal_ms = vec![cal::run_ms()];
    let mut raw: Vec<(Iteration, ProcStat)> = Vec::new();
    let mut hwm_mb = Vec::new();
    loop {
        let cpu0 = ProcStat::now();
        let it = runner.iteration(first_iteration + raw.len() as u32);
        let cpu = ProcStat::now().since(&cpu0);
        if let Some((previous, _)) = raw.last_mut() {
            previous.outcome = None;
        }
        raw.push((it, cpu));
        hwm_mb.push(crate::procstat::peak_rss_mb());
        cal_ms.push(cal::run_ms());
        let n = raw.len() as u32;
        let done = match budget {
            Budget::Seconds(secs) => n >= 3 && started.elapsed().as_secs_f64() >= secs,
            Budget::Iterations(count) => n >= count,
        };
        if done {
            break;
        }
    }
    let mut m = Measured::default();
    for ((it, cpu), factor) in raw.iter().zip(cal::factors(&cal_ms)) {
        m.absorb(runner, it, factor, *cpu);
    }
    m.cal_ms = cal_ms;
    m.hwm_mb = hwm_mb;
    let (last, _) = raw.pop().expect("at least one iteration");
    (m, last)
}

/// A named value with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

pub fn metric(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        n,
    }
}

impl Measured {
    /// The end-to-end metrics that come from the measured loop (`setup_s`
    /// is taken by the caller). `peak_rss_mb` is `VmHWM` after warm-up plus
    /// `RSS_AT_ITERATION` measured iterations.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let n = self.iterations();
        vec![
            metric("period_nms", median(&self.period_nms), "nms", n),
            metric("e1_p50_nus", median(&self.e1_p50_nus), "nus", n),
            metric("e1_p95_nus", median(&self.e1_p95_nus), "nus", n),
            metric("navg_plus_tu", median(&self.navg_plus_tu), "tu", n),
            metric("peak_rss_mb", self.hwm_mb[self.rss_index()], "MiB", 1),
        ]
    }

    /// The per-layer metrics sourced from the decorator and the timers
    /// around the environment calls.
    pub fn layer_metrics(&self, cold: &Measured) -> Vec<Metric> {
        let n = self.iterations();
        let mut out = vec![
            metric(
                "fail_frac",
                self.failed as f64 / self.attempted.max(1) as f64,
                "ratio",
                self.attempted as usize,
            ),
            metric(
                "bench.cal_ms",
                median(&self.cal_ms),
                "ms",
                self.cal_ms.len(),
            ),
            metric(
                "bench.cal_spread",
                iqr_over_median(&self.cal_ms),
                "ratio",
                self.cal_ms.len(),
            ),
            metric(
                "bench.cpu_ms_per_period",
                self.cpu.cpu_ms() / self.periods_run.max(1) as f64,
                "ms",
                n,
            ),
            metric(
                "bench.sys_frac",
                self.cpu.stime_ticks as f64
                    / (self.cpu.utime_ticks + self.cpu.stime_ticks).max(1) as f64,
                "ratio",
                n,
            ),
            metric(
                "bench.minflt_per_period",
                self.cpu.minflt as f64 / self.periods_run.max(1) as f64,
                "faults",
                n,
            ),
            metric("core.period_wall_ms", median(&self.period_wall_ms), "ms", n),
            metric(
                "core.period_p90_nms",
                percentile(&self.period_nms, 0.9),
                "nms",
                n,
            ),
            metric("core.cold_period_nms", cold.period_nms[0], "nms", 1),
            metric("core.env_init_nms", median(&self.init_nms), "nms", n),
            metric("core.env_uninit_nms", median(&self.uninit_nms), "nms", n),
            metric("core.dispatch_gap_nms", median(&self.gap_nms), "nms", n),
            metric("core.monitor_nms", median(&self.monitor_nms), "nms", n),
        ];
        for p in 1..=15 {
            out.push(metric(
                &format!("engine.P{p:02}_nus"),
                median(&self.by_process_nus[p]),
                "nus",
                n,
            ));
        }
        let e1n = self.e1_nus.len();
        out.extend([
            metric(
                "engine.e1_p99_nus",
                percentile(&self.e1_nus, 0.99),
                "nus",
                e1n,
            ),
            metric(
                "engine.e1_p999_nus",
                percentile(&self.e1_nus, 0.999),
                "nus",
                e1n,
            ),
            metric("engine.e2_nms", median(&self.e2_nms), "nms", n),
            metric(
                "engine.instances_per_period",
                self.instances_per_period,
                "count",
                1,
            ),
            metric("engine.retries", self.retries_per_period, "count", 1),
            metric(
                "engine.dead_letters",
                self.dead_letters_per_period,
                "count",
                1,
            ),
            metric("netsim.bytes", self.net_bytes_per_period, "count", 1),
            metric("netsim.messages", self.net_messages_per_period, "count", 1),
            metric("netsim.modeled_ms", self.net_modeled_ms_per_period, "ms", 1),
        ]);
        out
    }
}
