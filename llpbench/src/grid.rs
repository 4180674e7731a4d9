//! `grid-symmetric` and `grid-weighted`: one op is one full run of the
//! paper's local averaging algorithm (Theorem 3) on a grid, on the
//! scoped-thread backend with two threads.

use crate::trace::{self, SpanLog, Traced};
use crate::{median, repeat_setup, write_spans, Args, Latencies, Measured, Tally};
use maxmin_local_lp::algorithms::{
    local_averaging, solve_local_lps_on, LocalAveragingOptions, LocalAveragingResult, LocalLpBatch,
    LocalLpOptions,
};
use maxmin_local_lp::instances::{grid_instance, GridConfig};
use maxmin_local_lp::parallel::{BackendKind, ParallelConfig, ScopedThreads, SolveBackend};
use maxmin_local_lp::MaxMinInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A square grid and the ball radius the algorithm runs at.
#[derive(Clone, Copy)]
pub struct Spec {
    side: usize,
    radius: usize,
    random_weights: bool,
}

/// Unit weights: every interior ball is the same LP up to relabelling, so
/// enumeration and canonicalisation dominate and there are few classes.
pub const SYMMETRIC: Spec = Spec { side: 50, radius: 3, random_weights: false };

/// Weights uniform in `[0.5, 1.5]`: every ball is its own class, so the
/// simplex dominates.
pub const WEIGHTED: Spec = Spec { side: 40, radius: 2, random_weights: true };

const THREADS: usize = 2;

/// The engine stages whose spans the traced run reports.
const STAGES: [(&str, &str); 4] = [
    ("engine.present_ms", "mmlp/present@1"),
    ("engine.canonicalise_ms", "mmlp/canonicalise@1"),
    ("engine.solve_ms", "mmlp/solve@1"),
    ("engine.scatter_ms", "mmlp/scatter@1"),
];

fn instance(spec: Spec, seed: u64) -> MaxMinInstance {
    let config = GridConfig {
        side_lengths: vec![spec.side, spec.side],
        torus: false,
        random_weights: spec.random_weights,
    };
    grid_instance(&config, &mut StdRng::seed_from_u64(seed))
}

/// Bit-identity to the sequential reference, then feasibility.
fn check(
    instance: &MaxMinInstance,
    reference: &[f64],
    out: Result<LocalAveragingResult, impl std::fmt::Display>,
) -> Result<(), String> {
    let out = out.map_err(|e| e.to_string())?;
    let got = out.solution.activities();
    if got.len() != reference.len()
        || got.iter().zip(reference).any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err("solution differs from the sequential reference".into());
    }
    if !instance.is_feasible(&out.solution, 1e-9) {
        return Err("solution is infeasible".into());
    }
    Ok(())
}

pub fn run(spec: Spec, args: &Args) -> Measured {
    let options = LocalAveragingOptions {
        parallel: ParallelConfig::with_threads(THREADS),
        backend: BackendKind::ScopedThreads,
        ..LocalAveragingOptions::new(spec.radius)
    };
    let reference = local_averaging(
        &instance(spec, args.seed),
        &LocalAveragingOptions::sequential(spec.radius),
    )
    .expect("the sequential reference run succeeds")
    .solution
    .into_vec();

    let mut tally = Tally::default();
    let (instance, setup_s) = repeat_setup(|| {
        let instance = instance(spec, args.seed);
        let warm = local_averaging(&instance, &options);
        tally.record("warm-up local_averaging", check(&instance, &reference, warm));
        instance
    });
    let timed_op = |tally: &mut Tally| {
        let clock = Instant::now();
        let out = local_averaging(&instance, &options);
        let wall = clock.elapsed();
        tally.record("local_averaging", check(&instance, &reference, out));
        wall
    };

    let mut values = BTreeMap::new();
    if !args.trace {
        let latencies = Latencies::closed_loop(args.seconds, || timed_op(&mut tally));
        latencies.end_to_end(setup_s, &tally, &mut values);
        return Measured { tally, values };
    }

    // Traced run: each iteration times the op itself, the engine alone
    // untraced, and the engine through the tracing wrapper.
    let engine_options = LocalLpOptions {
        parallel: options.parallel,
        backend: options.backend,
        ..LocalLpOptions::new(spec.radius)
    };
    let backend = ScopedThreads::new(options.parallel);
    let tracer = Traced::new(&backend, false);
    let (mut op_ms, mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut stage_ms: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let mut last_batch: Option<LocalLpBatch> = None;
    let mut log = SpanLog::default();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs_f64(args.seconds) {
        op_ms.push(trace::ms(timed_op(&mut tally)));

        let clock = Instant::now();
        let plain = solve_local_lps_on(&instance, &engine_options, &backend);
        plain_ms.push(trace::ms(clock.elapsed()));
        let clock = Instant::now();
        let traced = solve_local_lps_on(&instance, &engine_options, &tracer);
        traced_ms.push(trace::ms(clock.elapsed()));

        let spans = tracer.take();
        for ((_, stage), ms) in STAGES.iter().zip(&mut stage_ms) {
            ms.push(trace::stage_ms(&spans, stage));
        }
        log.extend(op_ms.len() - 1, backend.name(), &spans);
        let outcome = match (plain, traced) {
            (Ok(plain), Ok(traced)) if plain.local_x == traced.local_x => {
                last_batch = Some(traced);
                Ok(())
            }
            (Ok(_), Ok(_)) => Err("traced engine batch differs from the untraced one".into()),
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        };
        tally.record("engine batch", outcome);
    }

    let op = median(&op_ms);
    let assemble = op - median(&plain_ms);
    let mut covered = assemble;
    for ((name, _), ms) in STAGES.iter().zip(&stage_ms) {
        let m = median(ms);
        covered += m;
        values.insert(*name, m);
    }
    if let Some(batch) = &last_batch {
        let stats = &batch.stats;
        values.insert("engine.classes", stats.unique_classes as f64);
        values.insert("engine.lp_solves", stats.lp_solves as f64);
        values.insert("engine.pivots", stats.total_pivots as f64);
        values.insert("engine.dedup_ratio", stats.dedup_ratio());
    }
    values.insert("la.assemble_ms", assemble);
    values.insert("trace.overhead_pct", (median(&traced_ms) - median(&plain_ms)) / op * 100.0);
    values.insert("trace.coverage_pct", covered / op * 100.0);
    values.insert("error_rate", tally.error_rate());
    write_spans(args, &log);
    Measured { tally, values }
}
