//! `distsim-la`: one op is one fully distributed run of the local averaging
//! rule as a LOCAL-model program (gather the radius-3 view, then decide),
//! through the worker-resident simulator tier over the loopback transport.

use crate::trace::{self, SpanLog, Traced};
use crate::{median, repeat_setup, write_spans, Args, Latencies, Measured, Tally};
use maxmin_local_lp::algorithms::{
    engine_registry, local_averaging, LocalAveragingOptions, LocalRuleProgram, WireRule,
};
use maxmin_local_lp::distsim::{Network, SimError, SimulationResult, Simulator};
use maxmin_local_lp::hypergraph::communication_hypergraph;
use maxmin_local_lp::instances::{grid_instance, GridConfig};
use maxmin_local_lp::lp::SimplexOptions;
use maxmin_local_lp::parallel::{LoopbackBackend, Sequential, SolveBackend};
use maxmin_local_lp::MaxMinInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SIDE: usize = 20;
const RADIUS: usize = 1;
const SHARDS: usize = 2;
const STAGE: &str = "mmlp/sim-epoch@1";

fn instance(seed: u64) -> MaxMinInstance {
    let config = GridConfig { side_lengths: vec![SIDE, SIDE], torus: false, random_weights: true };
    grid_instance(&config, &mut StdRng::seed_from_u64(seed))
}

/// The network and program of one instance, and the loopback backend the
/// runs go through (kept across runs, like a deployed worker pool).
struct State {
    network: Network,
    program: LocalRuleProgram,
    backend: LoopbackBackend,
}

impl State {
    fn start(seed: u64) -> Self {
        let instance = instance(seed);
        let (h, _) = communication_hypergraph(&instance);
        Self {
            network: Network::from_hypergraph(&h),
            program: LocalRuleProgram::new(
                &instance,
                WireRule::LocalAveraging { radius: RADIUS },
                SimplexOptions::default(),
            ),
            backend: LoopbackBackend::new(engine_registry(), SHARDS),
        }
    }

    fn run<B: SolveBackend>(&self, backend: &B) -> Result<SimulationResult<f64>, SimError> {
        Simulator::sequential().run_epoch_on(&self.network, &self.program, backend)
    }
}

/// The central algorithm's output and the sequential-backend run's round
/// and message counts.
struct Reference {
    outputs: Vec<f64>,
    rounds: usize,
    messages: u64,
}

fn check(
    reference: &Reference,
    out: Result<SimulationResult<f64>, SimError>,
) -> Result<(), String> {
    let out = out.map_err(|e| e.to_string())?;
    let same = out.outputs.len() == reference.outputs.len()
        && out
            .outputs
            .iter()
            .zip(&reference.outputs)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        return Err("outputs differ from the central local_averaging".into());
    }
    if (out.rounds, out.messages) != (reference.rounds, reference.messages) {
        return Err(format!(
            "{} rounds / {} messages, the reference took {} / {}",
            out.rounds, out.messages, reference.rounds, reference.messages
        ));
    }
    Ok(())
}

pub fn run(args: &Args) -> Measured {
    let mut tally = Tally::default();
    let reference = {
        let central =
            local_averaging(&instance(args.seed), &LocalAveragingOptions::sequential(RADIUS))
                .expect("the central reference run succeeds");
        let sequential = State::start(args.seed)
            .run(&Sequential)
            .expect("the sequential-backend reference run succeeds");
        let reference = Reference {
            outputs: central.solution.into_vec(),
            rounds: sequential.rounds,
            messages: sequential.messages,
        };
        tally.record("sequential-backend run", check(&reference, Ok(sequential)));
        reference
    };
    let (state, setup_s) = repeat_setup(|| {
        let state = State::start(args.seed);
        let warm = state.run(&state.backend);
        tally.record("warm-up run", check(&reference, warm));
        state
    });
    let timed_op = |tally: &mut Tally| {
        let clock = Instant::now();
        let out = state.run(&state.backend);
        let wall = clock.elapsed();
        tally.record("distributed run", check(&reference, out));
        wall
    };

    let mut values = BTreeMap::new();
    if !args.trace {
        let latencies = Latencies::closed_loop(args.seconds, || timed_op(&mut tally));
        latencies.end_to_end(setup_s, &tally, &mut values);
        return Measured { tally, values };
    }

    // Traced run: each iteration times the op, the op through the tracing
    // wrapper (counting wire bytes after each round), and the same program
    // on the sequential backend through the wrapper.
    let (mut plain_ms, mut traced_ms, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
    let (mut gather_ms, mut decide_ms, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = None;
    let mut log = SpanLog::default();
    let start = Instant::now();
    let mut op = 0;
    while start.elapsed() < Duration::from_secs_f64(args.seconds) {
        plain_ms.push(trace::ms(timed_op(&mut tally)));

        let tracer = Traced::new(&state.backend, true);
        let clock = Instant::now();
        let out = state.run(&tracer);
        let wall = trace::ms(clock.elapsed());
        traced_ms.push(wall);
        let spans = tracer.take();
        if let Ok(run) = &out {
            counts = Some((
                run.rounds,
                run.messages,
                run.message_units,
                spans.iter().map(|s| s.context_bytes).sum::<usize>(),
                spans.iter().map(|s| s.job_bytes).sum::<usize>(),
            ));
        }
        tally.record("traced distributed run", check(&reference, out));
        let rounds: Vec<f64> = spans
            .iter()
            .filter(|s| s.stage == STAGE)
            .map(|s| trace::ms(s.wall))
            .collect();
        let (decide, gather) =
            rounds.split_last().map_or((0.0, 0.0), |(d, g)| (*d, g.iter().sum()));
        gather_ms.push(gather);
        decide_ms.push(decide);
        coverage.push(trace::total_ms(&spans) / wall * 100.0);
        log.extend(op, state.backend.name(), &spans);

        let sequential = Traced::new(&Sequential, false);
        let out = state.run(&sequential);
        tally.record("traced sequential-backend run", check(&reference, out));
        let sequential_spans = sequential.take();
        overhead_ms
            .push(trace::stage_ms(&spans, STAGE) - trace::stage_ms(&sequential_spans, STAGE));
        log.extend(op, Sequential.name(), &sequential_spans);
        op += 1;
    }

    if let Some((rounds, messages, units, context, jobs)) = counts {
        values.insert("distsim.rounds", rounds as f64);
        values.insert("distsim.messages", messages as f64);
        values.insert("distsim.message_units", units as f64);
        values.insert("wire.context_bytes", context as f64);
        values.insert("wire.job_bytes", jobs as f64);
    }
    values.insert("distsim.gather_ms", median(&gather_ms));
    values.insert("distsim.decide_ms", median(&decide_ms));
    values.insert("wire.overhead_ms.sim-epoch", median(&overhead_ms));
    let plain = median(&plain_ms);
    values.insert("trace.overhead_pct", (median(&traced_ms) - plain) / plain * 100.0);
    values.insert("trace.coverage_pct", median(&coverage));
    values.insert("error_rate", tally.error_rate());
    write_spans(args, &log);
    Measured { tally, values }
}
