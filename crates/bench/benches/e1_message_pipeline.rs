//! End-to-end microbenchmark of one E1 message delivery through the
//! federated engine: generate a Vienna order (P04), deliver it — queue
//! realization, XML parse, trigger, enrichment lookups, staging insert —
//! and through the same path for a Hongkong push message (P08). The `mtm_`
//! cells deliver P04, P08 and P10 (San Diego, a share of them invalid)
//! through the MTM engine: translation, enrichment and decode as deployed,
//! P08's and a valid P10's translation fused into the load. This is the
//! per-message cost the wall-clock gate amortizes over thousands of
//! deliveries.

use criterion::{criterion_group, criterion_main, Criterion};
use dip_bench::{build_system, EngineKind};
use dipbench::prelude::*;
use dipbench::processes;
use std::hint::black_box;

fn bench_e1_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("e1_message_pipeline");
    g.sample_size(20);

    let config =
        BenchConfig::new(ScaleFactors::new(0.05, 1.0, Distribution::Uniform)).with_periods(1);
    let env = BenchEnvironment::new(config).expect("environment");
    env.initialize_sources(0).expect("sources");
    let fed = build_system(EngineKind::Federated, &env);
    let mtm = build_system(EngineKind::Mtm, &env);
    for system in [&fed, &mtm] {
        system
            .deploy(processes::all_processes())
            .expect("deployment");
    }

    let cells = [
        ("vienna_p04", &fed, "P04"),
        ("hongkong_p08", &fed, "P08"),
        ("mtm_vienna_p04", &mtm, "P04"),
        ("mtm_hongkong_p08", &mtm, "P08"),
        ("mtm_san_diego_p10", &mtm, "P10"),
    ];
    for (label, system, process) in cells {
        g.bench_function(label, |b| {
            let mut seq = 0u32;
            b.iter(|| {
                let msg = match process {
                    "P04" => env.generator.vienna_message(0, seq),
                    "P08" => env.generator.hongkong_message(0, seq),
                    _ => env.generator.san_diego_message(0, seq).0,
                };
                seq = seq.wrapping_add(1);
                black_box(system.deliver(Event::message(process, 0, seq, msg)))
            })
        });
    }

    // message generation alone, to separate datagen cost from delivery
    g.bench_function("generate_vienna_message", |b| {
        let mut seq = 0u32;
        b.iter(|| {
            seq = seq.wrapping_add(1);
            black_box(env.generator.vienna_message(0, seq))
        })
    });

    g.finish();
}

criterion_group!(benches, bench_e1_pipeline);
criterion_main!(benches);
