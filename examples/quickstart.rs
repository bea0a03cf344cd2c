//! Quickstart: run one DIPBench period on the native MTM engine and print
//! the performance metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dipbench::prelude::*;
use dipbench::{client, report};
use std::sync::Arc;

fn main() {
    // d = 0.05, t = 1.0, uniform — the paper's Fig. 10 configuration,
    // shortened to one benchmark period for a quick demo.
    let config = BenchConfig::new(ScaleFactors::paper_fig10()).with_periods(1);

    // One run: build the complete environment (eleven database instances,
    // three web services and the message-emitting applications, wired
    // through the simulated wireless network), deploy the 15 process types
    // on the system under test, run the work phase (streams A ∥ B, then C,
    // then D) and the post phase, the functional verification of the
    // integrated data.
    let run = client::run(config, &|env| Arc::new(MtmSystem::new(env.world.clone())))
        .expect("benchmark run");

    print!("{}", report::metrics_table(&run.outcome));
    println!();
    print!("{}", report::ascii_chart(&run.outcome.metrics, 60));

    let verification = &run.verification;
    println!(
        "\nverification: {}",
        if verification.passed() {
            "PASS"
        } else {
            "FAIL"
        }
    );
    print!("{verification}");
}
