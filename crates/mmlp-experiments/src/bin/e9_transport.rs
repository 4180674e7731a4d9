//! Experiment E9 — the out-of-process transport backend and the pipelining
//! shard driver.
//!
//! Three demonstrations:
//!
//! 1. **Transport comparison.**  The batched engine runs one workload
//!    (40×40 weighted grid, `R = 2`) on the in-process backends, the
//!    in-memory loopback transport (full wire format, no process) and the
//!    subprocess backend.  All solutions are asserted bit-identical; the
//!    table shows the cost of the byte/process boundary.
//! 2. **Worker re-exec.**  The subprocess workers here are *this very
//!    binary*, re-executed with `--mmlp-worker` (see the first line of
//!    `main`) — the deployment story where one artifact serves as driver
//!    and worker.
//! 3. **Deterministic fault injection.**  The same workload through a
//!    loopback transport with scripted reply reordering and duplicate
//!    delivery: the shard driver buffers replies by sequence number,
//!    so the result stays bit-identical (asserted).
//!
//! Writes `BENCH_e9_transport.json` with every number in the tables.

use maxmin_local_lp::prelude::*;
use mmlp_experiments::report::BenchReport;
use mmlp_experiments::{banner, fmt, print_row};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn weighted_grid(side: usize) -> MaxMinInstance {
    let cfg = GridConfig { side_lengths: vec![side, side], torus: false, random_weights: true };
    grid_instance(&cfg, &mut StdRng::seed_from_u64(9))
}

fn main() {
    // Worker mode: when the subprocess backend re-executes this binary with
    // `--mmlp-worker`, serve the engine stages over stdio and exit.
    if serve_engine_worker_if_requested() {
        return;
    }

    let mut report = BenchReport::new("e9_transport", "e9_transport");
    let inst = weighted_grid(40);
    let radius = 2;

    banner("E9a: one workload (40x40 weighted grid, R = 2), every transport");
    let registry = engine_registry();
    let subprocess_available = probe_worker(&WorkerCommand::CurrentExe)
        .map(|()| true)
        .unwrap_or_else(|e| {
            eprintln!("note: subprocess transport unavailable here ({e}); its rows run loopback");
            false
        });

    type BackendRun = Box<dyn Fn() -> LocalLpBatch>;
    let options = LocalLpOptions::new(radius);
    let configs: Vec<(&str, BackendRun)> = vec![
        ("sequential", {
            let inst = inst.clone();
            Box::new(move || {
                solve_local_lps(&inst, &options.with_backend(BackendKind::Sequential)).unwrap()
            })
        }),
        ("scoped", {
            let inst = inst.clone();
            Box::new(move || {
                solve_local_lps(&inst, &options.with_backend(BackendKind::ScopedThreads)).unwrap()
            })
        }),
        ("sharded-4", {
            let inst = inst.clone();
            Box::new(move || {
                solve_local_lps(&inst, &options.with_backend(BackendKind::Sharded { shards: 4 }))
                    .unwrap()
            })
        }),
        ("loopback-4", {
            let inst = inst.clone();
            let registry = registry.clone();
            Box::new(move || {
                let backend = LoopbackBackend::new(registry.clone(), 4);
                solve_local_lps_on(&inst, &options, &backend).unwrap()
            })
        }),
        ("subprocess-2", {
            let inst = inst.clone();
            let registry = registry.clone();
            Box::new(move || {
                let backend = SubprocessBackend::new(2, registry.clone())
                    .with_command(WorkerCommand::CurrentExe);
                solve_local_lps_on(&inst, &options, &backend).unwrap()
            })
        }),
    ];

    let widths = [24usize, 8, 8, 8, 10];
    print_row(
        &["backend".into(), "balls".into(), "classes".into(), "pivots".into(), "wall ms".into()],
        &widths,
    );
    let mut reference: Option<LocalLpBatch> = None;
    for (name, run) in &configs {
        let start = Instant::now();
        let batch = run();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let s = &batch.stats;
        print_row(
            &[
                (*name).into(),
                s.balls_enumerated.to_string(),
                s.unique_classes.to_string(),
                s.total_pivots.to_string(),
                fmt(wall_ms, 1),
            ],
            &widths,
        );
        report.push(
            name,
            &[
                ("balls", s.balls_enumerated as f64),
                ("classes", s.unique_classes as f64),
                ("pivots", s.total_pivots as f64),
                ("wall_ms", wall_ms),
                ("subprocess_available", f64::from(u8::from(subprocess_available))),
            ],
        );
        match &reference {
            None => reference = Some(batch),
            Some(reference) => {
                assert_eq!(batch.local_x, reference.local_x, "{name} diverged");
                assert_eq!(batch.class_of_ball, reference.class_of_ball, "{name} diverged");
                assert_eq!(batch.class_keys, reference.class_keys, "{name} diverged");
            }
        }
    }
    println!("\nEvery transport — including real worker processes — returns bit-identical");
    println!("local optima (asserted above).");

    banner("E9b: deterministic fault injection through the shard driver");
    let reference = reference.expect("E9a produced the reference batch");
    let widths = [34usize, 10, 12];
    print_row(&["fault plan".into(), "result".into(), "wall ms".into()], &widths);
    for (label, faults) in [
        ("reorder replies (seed 7)", FaultPlan { reorder_seed: Some(7), ..FaultPlan::none() }),
        (
            "duplicate replies 0..4",
            FaultPlan { duplicate_replies: vec![0, 1, 2, 3], ..FaultPlan::none() },
        ),
        (
            "kill worker after 3 replies",
            FaultPlan { die_after_replies: Some(3), ..FaultPlan::none() },
        ),
    ] {
        let backend = LoopbackBackend::new(registry.clone(), 8)
            .with_workers(2)
            .with_faults(faults);
        let start = Instant::now();
        let batch = solve_local_lps_on(&inst, &options, &backend).unwrap();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(batch.local_x, reference.local_x, "{label} changed the solution");
        print_row(&[label.into(), "identical".into(), fmt(wall_ms, 1)], &widths);
        report.push(&format!("fault/{label}"), &[("identical", 1.0), ("wall_ms", wall_ms)]);
    }
    println!("\nReordering and duplicates are absorbed by the by-sequence merge; a killed");
    println!("worker is respawned and its in-flight shards resent — the answer never changes.");

    match report.write() {
        Ok(path) => println!("\nWrote machine-readable summary: {}", path.display()),
        Err(e) => eprintln!("\nFailed to write BENCH summary: {e}"),
    }
}
