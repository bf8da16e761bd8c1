//! Benchmark: one MCMC sweep of each variant on the same graph and start
//! state — the wall-clock analogue of the paper's per-sweep cost comparison
//! (on a multi-core host A-SBP/H-SBP sweeps parallelise on the
//! `hsbp-parallel` pool).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hsbp_blockmodel::Blockmodel;
use hsbp_core::{run_mcmc_phase, RunStats, SbpConfig, Variant};
use hsbp_generator::{generate, DcsbmConfig};

fn bench(c: &mut Criterion) {
    let data = generate(DcsbmConfig {
        num_vertices: 1500,
        num_communities: 12,
        target_num_edges: 15_000,
        seed: 6,
        ..Default::default()
    });
    let mut group = c.benchmark_group("mcmc_sweep");
    for variant in [Variant::Metropolis, Variant::AsyncGibbs, Variant::Hybrid] {
        let cfg = SbpConfig {
            variant,
            max_sweeps: 1,
            mcmc_threshold: 0.0,
            seed: 7,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::new("one_sweep", variant.name()),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    let mut bm =
                        Blockmodel::from_assignment(&data.graph, data.ground_truth.clone(), 12);
                    let mut stats = RunStats::new(cfg);
                    black_box(run_mcmc_phase(&data.graph, &mut bm, cfg, 0, &mut stats))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
