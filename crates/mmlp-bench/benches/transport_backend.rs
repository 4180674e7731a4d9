//! Benchmark for the transport layer: the batched engine across the
//! in-process backends, the in-memory loopback transport (full wire format,
//! no process) and the subprocess backend.
//!
//! The subprocess rows need a worker binary (`mmlp-worker` next to the
//! target directory, or `MMLP_WORKER_BIN`); where the environment cannot
//! spawn processes the backend's capability probe falls back to the
//! loopback transport with a logged skip, so the bench — and the CI smoke
//! run — never fails for platform reasons.

use criterion::{criterion_group, criterion_main, Criterion};
use maxmin_local_lp::prelude::*;
use mmlp_bench::bench_rng;

fn weighted_grid(side: usize) -> MaxMinInstance {
    let cfg = GridConfig { side_lengths: vec![side, side], torus: false, random_weights: true };
    grid_instance(&cfg, &mut bench_rng(9))
}

fn bench_transports_on_grid20(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_transports_grid20_r1");
    group.sample_size(10);
    let inst = weighted_grid(20);
    let options = LocalLpOptions::new(1);

    for (name, backend) in
        [("sequential", BackendKind::Sequential), ("sharded-4", BackendKind::Sharded { shards: 4 })]
    {
        let inst = inst.clone();
        group.bench_function(name, move |b| {
            b.iter(|| {
                let batch = solve_local_lps(&inst, &options.with_backend(backend)).unwrap();
                std::hint::black_box(batch.stats.unique_classes)
            })
        });
    }

    group.bench_function("loopback-4", |b| {
        let backend = LoopbackBackend::new(engine_registry(), 4);
        b.iter(|| {
            let batch = solve_local_lps_on(&inst, &options, &backend).unwrap();
            std::hint::black_box(batch.stats.unique_classes)
        })
    });

    // Workers persist across iterations, so the numbers measure the
    // protocol, not process spawns.
    group.bench_function("subprocess-2", |b| {
        let backend = SubprocessBackend::new(2, engine_registry());
        b.iter(|| {
            let batch = solve_local_lps_on(&inst, &options, &backend).unwrap();
            std::hint::black_box(batch.stats.unique_classes)
        })
    });
    group.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    use maxmin_local_lp::algorithms::transport::{put_instance, read_instance};
    use maxmin_local_lp::parallel::wire::ByteReader;
    let mut group = c.benchmark_group("e9_wire_codec");
    let inst = weighted_grid(30);
    let mut bytes = Vec::new();
    put_instance(&mut bytes, &inst);
    group.bench_function("encode_instance_900_agents", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            put_instance(&mut out, &inst);
            std::hint::black_box(out.len())
        })
    });
    group.bench_function("decode_instance_900_agents", |b| {
        b.iter(|| {
            let decoded = read_instance(&mut ByteReader::new(&bytes)).unwrap();
            std::hint::black_box(decoded.num_agents())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_transports_on_grid20, bench_wire_codec);
criterion_main!(benches);
