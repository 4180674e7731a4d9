//! `service-mixed`: four tenants drive the multi-tenant engine service with
//! one outstanding request each, alternating reads (a batched solve of the
//! tenant's instance) and writes (an incremental re-solve of the tenant's
//! registered base under a ~1% weight delta).

use crate::trace::{self, Span, SpanLog, Traced};
use crate::{median, percentile, repeat_setup, write_spans, Args, Latencies, Measured, Tally};
use maxmin_local_lp::algorithms::{
    engine_registry, register_base, solve_local_lps, solve_local_lps_incremental_on,
    solve_local_lps_on, EngineError, EngineService, IncrementalRun, InstanceDelta, LocalLpBatch,
    LocalLpOptions, RegisteredBase, SolveStats, WeightEdit, WeightKind,
};
use maxmin_local_lp::instances::{grid_instance, GridConfig};
use maxmin_local_lp::parallel::{
    BackendKind, LoopbackBackend, ParallelConfig, Sequential, ServiceConfig, ServiceError,
    TenantId, Ticket,
};
use maxmin_local_lp::{AgentId, MaxMinInstance};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 4;
const SIDE: usize = 8;
const RADIUS: usize = 2;
const SHARDS: usize = 2;
/// Deltas per tenant; writes cycle through the pool, so a 20 s run uses
/// nearly all of it.
const POOL: usize = 64;
/// The generator seed of the traffic mix (instances and delta pools).
///
/// The mix is the same for every run; `--seed` only orders each tenant's
/// pool.  About 1% of 1% deltas send the incremental path's dual phase to
/// tens of thousands of pivots, roughly ten cold solves' worth, and each
/// such write holds one of the two executors for most of a second.  With a
/// pool drawn per seed, the number of those deltas followed the seed, and
/// `op_p95_ms` ranged from 200 to 312 ms over ten seeds (quartile spread
/// 22% of the median).  A fixed mix meets the same ones in every run.
const MIX_SEED: u64 = 2008;
/// Share of a tenant's weights one delta edits.
const EDIT_SHARE: f64 = 0.01;
const BASE_VERSION: u64 = 1;
const SERVICE: ServiceConfig = ServiceConfig { workers: 2, queue_capacity: 64 };
/// Capacity of the cross-tenant class cache (the engine's default).
const SHARED_CACHE_CLASSES: usize = 4096;
/// Queue-wait probes are admitted on fresh lanes numbered from here, so a
/// probe waits exactly as long as a request admitted at the same moment
/// (a shared probe lane would get one turn per round-robin cycle and
/// back up behind itself).
const PROBE_LANES_FROM: TenantId = 1 << 32;
/// Deltas per tenant re-solved in the traced run's layer pass.
const LAYER_DELTAS: usize = 2;

/// The engine stages of reads and writes, and their metric names.
const STAGES: [(&str, &str, &str); 5] = [
    ("mmlp/present@1", "engine.present_ms", "wire.overhead_ms.present"),
    ("mmlp/present-delta@1", "engine.present_delta_ms", "wire.overhead_ms.present-delta"),
    ("mmlp/canonicalise@1", "engine.canonicalise_ms", "wire.overhead_ms.canonicalise"),
    ("mmlp/solve@1", "engine.solve_ms", "wire.overhead_ms.solve"),
    ("mmlp/scatter@1", "engine.scatter_ms", "wire.overhead_ms.scatter"),
];

/// Every tenant's instance and delta pool, and the order in which the
/// tenant's writes go through the pool.
struct Inputs {
    instances: Vec<MaxMinInstance>,
    deltas: Vec<Vec<InstanceDelta>>,
    order: Vec<Vec<usize>>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let mut order_rng = StdRng::seed_from_u64(seed);
        let order = (0..TENANTS)
            .map(|_| {
                let mut order: Vec<usize> = (0..POOL).collect();
                order.shuffle(&mut order_rng);
                order
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(MIX_SEED);
        let config =
            GridConfig { side_lengths: vec![SIDE, SIDE], torus: false, random_weights: true };
        let instances: Vec<MaxMinInstance> =
            (0..TENANTS).map(|_| grid_instance(&config, &mut rng)).collect();
        let deltas = instances
            .iter()
            .map(|inst| (0..POOL).map(|_| weight_delta(inst, &mut rng)).collect())
            .collect();
        Self { instances, deltas, order }
    }
}

/// Rescales about [`EDIT_SHARE`] of the instance's weights (at least one)
/// by factors in `[0.8, 1.25)`; the topology is untouched.
fn weight_delta(instance: &MaxMinInstance, rng: &mut StdRng) -> InstanceDelta {
    let mut entries = Vec::new();
    for v in 0..instance.num_agents() {
        let agent = instance.agent(AgentId::new(v));
        for &(i, a) in &agent.resources {
            entries.push((WeightKind::Consumption, i.index(), v, a));
        }
        for &(k, c) in &agent.parties {
            entries.push((WeightKind::Benefit, k.index(), v, c));
        }
    }
    let target = ((entries.len() as f64 * EDIT_SHARE).round() as usize).max(1);
    let mut chosen = BTreeSet::new();
    while chosen.len() < target {
        chosen.insert(rng.gen_range(0..entries.len()));
    }
    let edits = chosen
        .into_iter()
        .map(|e| {
            let (kind, row, agent, weight) = entries[e];
            WeightEdit { kind, row, agent, weight: weight * rng.gen_range(0.8..1.25) }
        })
        .collect();
    InstanceDelta { base_version: BASE_VERSION, edits }
}

fn request_options() -> LocalLpOptions {
    LocalLpOptions {
        parallel: ParallelConfig::sequential(),
        backend: BackendKind::Loopback { shards: SHARDS },
        ..LocalLpOptions::new(RADIUS)
    }
}

/// Reference solutions: a cold solve of every tenant's instance and of
/// every pooled delta applied to it, on the scoped-thread backend (the
/// engine is bit-identical across backends; two threads halve the time
/// these references add to a run).
struct References {
    reads: Vec<Vec<Vec<f64>>>,
    writes: Vec<Vec<Vec<Vec<f64>>>>,
}

impl References {
    fn compute(inputs: &Inputs) -> Self {
        let options = LocalLpOptions {
            parallel: ParallelConfig::with_threads(2),
            backend: BackendKind::ScopedThreads,
            ..LocalLpOptions::new(RADIUS)
        };
        let cold = |inst: &MaxMinInstance| {
            solve_local_lps(inst, &options)
                .expect("the cold reference solve succeeds")
                .local_x
        };
        let reads = inputs.instances.iter().map(cold).collect();
        let writes = inputs
            .instances
            .iter()
            .zip(&inputs.deltas)
            .map(|(inst, pool)| {
                pool.iter()
                    .map(|d| cold(&d.apply(inst).expect("pooled deltas apply")))
                    .collect()
            })
            .collect();
        Self { reads, writes }
    }
}

fn same_bits(got: &[Vec<f64>], want: &[Vec<f64>]) -> Result<(), String> {
    let equal = got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
        });
    if equal {
        Ok(())
    } else {
        Err("local solutions differ from the cold reference".into())
    }
}

/// Which request a tenant's `k`-th op is: `None` for a read, else the
/// position in the tenant's pool order of the write.  Tenants start on
/// alternate kinds, then alternate.
fn op_kind(tenant: usize, k: usize) -> Option<usize> {
    ((tenant + k) % 2 == 1).then_some((k / 2) % POOL)
}

enum Request {
    Read(Ticket<Result<LocalLpBatch, EngineError>>),
    Write(usize, Ticket<Result<IncrementalRun, EngineError>>),
}

struct Pending {
    tenant: usize,
    admitted: Instant,
    request: Request,
}

/// The running service with every tenant registered.
struct State {
    inputs: Inputs,
    service: EngineService,
    bases: Vec<Arc<RegisteredBase>>,
    next_op: Vec<usize>,
}

impl State {
    fn start(seed: u64) -> Self {
        let inputs = Inputs::generate(seed);
        let service = EngineService::with_shared_cache(SERVICE, SHARED_CACHE_CLASSES);
        let bases = inputs
            .instances
            .iter()
            .map(|inst| {
                Arc::new(
                    register_base(inst, &request_options(), BASE_VERSION)
                        .expect("base registration succeeds"),
                )
            })
            .collect();
        Self { inputs, service, bases, next_op: vec![0; TENANTS] }
    }

    fn submit(&mut self, tenant: usize) -> Result<Pending, ServiceError> {
        let k = self.next_op[tenant];
        self.next_op[tenant] += 1;
        let admitted = Instant::now();
        let id = tenant as TenantId;
        let request = match op_kind(tenant, k) {
            None => Request::Read(self.service.submit_solve(
                id,
                self.inputs.instances[tenant].clone(),
                request_options(),
            )?),
            Some(slot) => {
                let d = self.inputs.order[tenant][slot];
                Request::Write(
                    d,
                    self.service.submit_incremental(
                        id,
                        Arc::clone(&self.bases[tenant]),
                        self.inputs.deltas[tenant][d].clone(),
                    )?,
                )
            }
        };
        Ok(Pending { tenant, admitted, request })
    }

    /// Collects a request and checks it; returns its admission-to-result
    /// latency.
    fn complete(&self, pending: Pending, refs: &References, tally: &mut Tally) -> Duration {
        let tenant = pending.tenant;
        match pending.request {
            Request::Read(ticket) => {
                let out = ticket.wait();
                let latency = pending.admitted.elapsed();
                let reference = &refs.reads[tenant];
                tally.record("read", served(out).and_then(|b| same_bits(&b.local_x, reference)));
                latency
            }
            Request::Write(d, ticket) => {
                let out = ticket.wait();
                let latency = pending.admitted.elapsed();
                let reference = &refs.writes[tenant][d];
                let outcome = served(out).and_then(|r| same_bits(&r.batch.local_x, reference));
                tally.record("write", outcome);
                latency
            }
        }
    }
}

/// A request's result, with service and engine errors as failures.
fn served<T>(out: Result<Result<T, EngineError>, ServiceError>) -> Result<T, String> {
    out.map_err(|e| e.to_string())?.map_err(|e| e.to_string())
}

/// The probes of a traced phase: when each was admitted, and the ticket
/// that resolves to when it started running.
type Probes = Vec<(Instant, Ticket<Instant>)>;

/// How often the driving thread looks for completed requests.
const POLL: Duration = Duration::from_micros(500);

/// One closed-loop phase: every tenant keeps one request outstanding until
/// `seconds` have passed, then the outstanding requests drain.  One thread
/// drives the loop.  It polls the tenants' `completed` counters, which the
/// service books after a result is sent, so it collects each request as
/// soon as it is done and resubmits for that tenant alone.  With `probes`,
/// a zero-work probe is admitted alongside every request.
fn closed_loop(
    state: &mut State,
    refs: &References,
    tally: &mut Tally,
    seconds: f64,
    mut probes: Option<&mut Probes>,
    rejected: &mut u64,
) -> Latencies {
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut latencies = Latencies::default();
    let mut admit = |state: &mut State, tally: &mut Tally, tenant: usize| loop {
        if let Some(probes) = probes.as_deref_mut() {
            let lane = PROBE_LANES_FROM + probes.len() as TenantId;
            let admitted = Instant::now();
            match state.service.inner().submit(lane, Instant::now) {
                Ok(ticket) => probes.push((admitted, ticket)),
                Err(_) => *rejected += 1,
            }
        }
        match state.submit(tenant) {
            Ok(pending) => return Some(pending),
            Err(e) => {
                *rejected += u64::from(matches!(e, ServiceError::QueueFull { .. }));
                tally.record("admission", Err(e.to_string()));
                if start.elapsed() >= deadline {
                    return None;
                }
            }
        }
    };
    let completed =
        |state: &State, tenant: usize| state.service.counters(tenant as TenantId).completed;
    let mut seen: Vec<u64> = (0..TENANTS).map(|t| completed(state, t)).collect();
    let mut outstanding: Vec<Option<Pending>> =
        (0..TENANTS).map(|t| admit(state, tally, t)).collect();
    while outstanding.iter().any(Option::is_some) {
        let mut idle = true;
        for tenant in 0..TENANTS {
            if outstanding[tenant].is_none() || completed(state, tenant) == seen[tenant] {
                continue;
            }
            idle = false;
            seen[tenant] += 1;
            let pending = outstanding[tenant].take().expect("checked above");
            latencies.ms.push(trace::ms(state.complete(pending, refs, tally)));
            if start.elapsed() < deadline {
                outstanding[tenant] = admit(state, tally, tenant);
            }
        }
        if idle {
            std::thread::sleep(POLL);
        }
    }
    latencies.wall = start.elapsed();
    latencies
}

pub fn run(args: &Args) -> Measured {
    let refs = References::compute(&Inputs::generate(args.seed));
    let mut tally = Tally::default();
    let (mut state, setup_s) = repeat_setup(|| {
        let mut state = State::start(args.seed);
        // Warm-up: one request per tenant.
        let pending: Vec<Pending> = (0..TENANTS)
            .map(|t| state.submit(t).expect("the idle service admits the warm-up"))
            .collect();
        for p in pending {
            state.complete(p, &refs, &mut tally);
        }
        state
    });
    let mut rejected = 0u64;
    let mut values = BTreeMap::new();
    if !args.trace {
        let latencies =
            closed_loop(&mut state, &refs, &mut tally, args.seconds, None, &mut rejected);
        latencies.end_to_end(setup_s, &tally, &mut values);
        return Measured { tally, values };
    }

    // Traced run: half the time untraced, half with queue-wait probes, then
    // a layer pass through the tracing wrapper outside the service.
    let half = args.seconds / 2.0;
    let plain = closed_loop(&mut state, &refs, &mut tally, half, None, &mut rejected);
    let mut probes = Probes::new();
    let traced = closed_loop(&mut state, &refs, &mut tally, half, Some(&mut probes), &mut rejected);
    let waits: Vec<f64> = probes
        .into_iter()
        .filter_map(|(admitted, ticket)| ticket.wait().ok().map(|ran| trace::ms(ran - admitted)))
        .collect();
    let cache_hits: u64 = (0..TENANTS)
        .map(|t| state.service.counters(t as TenantId).cache_hits)
        .sum();
    state.service.drain();

    let p50 = median(&plain.ms);
    values.insert("trace.overhead_pct", (median(&traced.ms) - p50) / p50 * 100.0);
    values.insert("service.queue_wait_ms", median(&waits));
    values.insert("service.cache_hits", cache_hits as f64);
    values.insert("service.rejected", rejected as f64);
    layer_pass(&state, &refs, &mut tally, &mut values, args);
    values.insert("error_rate", tally.error_rate());
    eprintln!(
        "llpbench: traced phase p95 {:.2} ms over {} requests, {} probes",
        percentile(&traced.ms, crate::tail_quantile(traced.ms.len())),
        traced.ms.len(),
        waits.len()
    );
    Measured { tally, values }
}

/// Span and counter totals of the traced run's layer pass.
#[derive(Default)]
struct LayerPass {
    /// Per stage: (loopback ms, sequential ms, loopback calls).
    stages: BTreeMap<&'static str, (f64, f64, usize)>,
    classes: usize,
    lp_solves: usize,
    pivots: u64,
    read_balls: usize,
    read_classes: usize,
    affected: usize,
    resolve_bytes: usize,
    context_bytes: usize,
    job_bytes: usize,
    op_ms: f64,
    span_ms: f64,
    log: SpanLog,
    ops: usize,
}

impl LayerPass {
    /// Books one op's spans on both backends and the loopback op's wall.
    fn record(&mut self, loopback: &[Span], sequential: &[Span], loopback_wall: Duration) {
        for s in loopback {
            let entry = self.stages.entry(s.stage).or_default();
            entry.0 += trace::ms(s.wall);
            entry.2 += 1;
            self.context_bytes += s.context_bytes;
            self.job_bytes += s.job_bytes;
        }
        for s in sequential {
            self.stages.entry(s.stage).or_default().1 += trace::ms(s.wall);
        }
        self.op_ms += trace::ms(loopback_wall);
        self.span_ms += trace::total_ms(loopback);
        self.log.extend(self.ops, "loopback", loopback);
        self.log.extend(self.ops, "sequential", sequential);
        self.ops += 1;
    }

    fn count(&mut self, stats: &SolveStats) {
        self.classes += stats.unique_classes;
        self.lp_solves += stats.lp_solves;
        self.pivots += stats.total_pivots;
    }
}

/// Checks the loopback and the sequential output of one layer-pass op.
fn check_both<T>(
    outs: [Result<T, EngineError>; 2],
    local_x: impl Fn(&T) -> &[Vec<f64>],
    reference: &[Vec<f64>],
) -> Result<(), String> {
    for out in outs {
        same_bits(local_x(&out.map_err(|e| e.to_string())?), reference)?;
    }
    Ok(())
}

/// Re-runs every tenant's read and its first [`LAYER_DELTAS`] writes once
/// on the loopback transport and once on the sequential backend, both
/// through the tracing wrapper, and derives the per-layer metrics: stage
/// spans and their wire overhead as means per call, exact counters and
/// bytes as totals over the pass.
fn layer_pass(
    state: &State,
    refs: &References,
    tally: &mut Tally,
    values: &mut BTreeMap<&'static str, f64>,
    args: &Args,
) {
    let options = request_options();
    let mut pass = LayerPass::default();
    for tenant in 0..TENANTS {
        let instance = &state.inputs.instances[tenant];
        let loopback = LoopbackBackend::new(engine_registry(), SHARDS);
        let (traced, sequential) = (Traced::new(&loopback, true), Traced::new(&Sequential, false));
        let clock = Instant::now();
        let out = solve_local_lps_on(instance, &options, &traced);
        let wall = clock.elapsed();
        let reference = solve_local_lps_on(instance, &options, &sequential);
        pass.record(&traced.take(), &sequential.take(), wall);
        if let Ok(batch) = &out {
            pass.count(&batch.stats);
            pass.read_balls += batch.stats.balls_enumerated;
            pass.read_classes += batch.stats.unique_classes;
        }
        let outcome = check_both([out, reference], |b| &b.local_x, &refs.reads[tenant]);
        tally.record("layer-pass read", outcome);

        for (d, delta) in state.inputs.deltas[tenant].iter().take(LAYER_DELTAS).enumerate() {
            let base = &state.bases[tenant];
            let loopback = LoopbackBackend::new(engine_registry(), SHARDS);
            let (traced, sequential) =
                (Traced::new(&loopback, true), Traced::new(&Sequential, false));
            let clock = Instant::now();
            let out = solve_local_lps_incremental_on(base, delta, &traced);
            let wall = clock.elapsed();
            let reference = solve_local_lps_incremental_on(base, delta, &sequential);
            pass.record(&traced.take(), &sequential.take(), wall);
            if let Ok(run) = &out {
                pass.count(&run.batch.stats);
                pass.affected += run.affected_agents;
                pass.resolve_bytes += run.resolve_wire_bytes;
            }
            let outcome =
                check_both([out, reference], |r| &r.batch.local_x, &refs.writes[tenant][d]);
            tally.record("layer-pass write", outcome);
        }
    }
    for (stage, metric, overhead) in STAGES {
        let (loopback, sequential, calls) = pass.stages.get(stage).copied().unwrap_or_default();
        let calls = calls.max(1) as f64;
        values.insert(metric, loopback / calls);
        values.insert(overhead, (loopback - sequential) / calls);
    }
    values.insert("engine.classes", pass.classes as f64);
    values.insert("engine.lp_solves", pass.lp_solves as f64);
    values.insert("engine.pivots", pass.pivots as f64);
    values.insert("engine.dedup_ratio", pass.read_balls as f64 / pass.read_classes.max(1) as f64);
    values.insert("wire.context_bytes", pass.context_bytes as f64);
    values.insert("wire.job_bytes", pass.job_bytes as f64);
    values.insert("incr.affected_agents", pass.affected as f64);
    values.insert("incr.resolve_wire_bytes", pass.resolve_bytes as f64);
    values.insert("trace.coverage_pct", pass.span_ms / pass.op_ms * 100.0);
    write_spans(args, &pass.log);
}
