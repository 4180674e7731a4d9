//! Benchmark for the pluggable sharded solve backend: the batched engine on
//! every built-in backend and several shard counts (the agent-range split a
//! multi-machine deployment would use).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maxmin_local_lp::prelude::*;
use mmlp_bench::bench_rng;

fn uniform_grid(side: usize) -> MaxMinInstance {
    let cfg = GridConfig { side_lengths: vec![side, side], torus: false, random_weights: false };
    grid_instance(&cfg, &mut bench_rng(4))
}

fn bench_backends_on_grid50(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_backends_grid50_r2");
    group.sample_size(10);
    let inst = uniform_grid(50);
    for (name, backend) in [
        ("sequential", BackendKind::Sequential),
        ("scoped", BackendKind::ScopedThreads),
        ("sharded-2", BackendKind::Sharded { shards: 2 }),
        ("sharded-8", BackendKind::Sharded { shards: 8 }),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let options = LocalLpOptions::new(2).with_backend(backend);
                let batch = solve_local_lps(&inst, &options).unwrap();
                std::hint::black_box(batch.stats.unique_classes)
            })
        });
    }
    group.finish();
}

fn bench_shard_count_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_shard_count_sweep_grid50_r1");
    group.sample_size(10);
    let inst = uniform_grid(50);
    for shards in [1usize, 4, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &shards| {
            b.iter(|| {
                let options = LocalLpOptions::new(1).with_backend(BackendKind::Sharded { shards });
                let batch = solve_local_lps(&inst, &options).unwrap();
                std::hint::black_box(batch.stats.total_pivots)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backends_on_grid50, bench_shard_count_sweep);
criterion_main!(benches);
