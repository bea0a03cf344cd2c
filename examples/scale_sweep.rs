//! Sweep the three scale factors — datasize `d`, time `t` and
//! distribution `f` — and watch how the metric responds (the paper's §V
//! discussion of the three-dimensional scale space).
//!
//! ```sh
//! cargo run --release --example scale_sweep
//! ```

use dip_bench::{navg_plus_by_event, run_experiment, EngineKind};
use dipbench::prelude::*;

fn main() {
    println!("== datasize sweep (t=1.0, uniform, 1 period) ==");
    println!(
        "{:<8} {:>14} {:>14} {:>10}",
        "d", "E1 NAVG+[tu]", "E2 NAVG+[tu]", "wall[ms]"
    );
    for d in [0.02, 0.05, 0.1, 0.2] {
        let config =
            BenchConfig::new(ScaleFactors::new(d, 1.0, Distribution::Uniform)).with_periods(1);
        let r = run_experiment(EngineKind::Federated, config);
        assert!(r.verification.passed());
        let (e1, e2) = navg_plus_by_event(&r.outcome.metrics);
        println!(
            "{:<8} {:>14.2} {:>14.2} {:>10}",
            d,
            e1,
            e2,
            r.outcome.wall_time.as_millis()
        );
    }

    println!("\n== time sweep (d=0.05, uniform, 1 period) ==");
    println!("{:<8} {:>14} {:>14}", "t", "E1 NAVG+[tu]", "E2 NAVG+[tu]");
    for t in [0.5, 1.0, 2.0] {
        let config =
            BenchConfig::new(ScaleFactors::new(0.05, t, Distribution::Uniform)).with_periods(1);
        let r = run_experiment(EngineKind::Federated, config);
        // a tu is 1/t ms: the same wall cost reads as t× more tu
        let (e1, e2) = navg_plus_by_event(&r.outcome.metrics);
        println!("{:<8} {:>14.2} {:>14.2}", t, e1, e2);
    }

    println!("\n== distribution sweep (d=0.05, t=1.0, 1 period) ==");
    println!(
        "{:<12} {:>14} {:>14} {:>8}",
        "f", "E1 NAVG+[tu]", "E2 NAVG+[tu]", "verify"
    );
    for f in [
        Distribution::Uniform,
        Distribution::Zipf5,
        Distribution::Zipf10,
        Distribution::Normal,
    ] {
        let config = BenchConfig::new(ScaleFactors::new(0.05, 1.0, f)).with_periods(1);
        let r = run_experiment(EngineKind::Federated, config);
        let (e1, e2) = navg_plus_by_event(&r.outcome.metrics);
        println!(
            "{:<12} {:>14.2} {:>14.2} {:>8}",
            f.label(),
            e1,
            e2,
            if r.verification.passed() {
                "PASS"
            } else {
                "FAIL"
            }
        );
    }
}
