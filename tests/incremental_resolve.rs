//! Conformance suite for the incremental re-solve path.
//!
//! The contract under test: re-solving a registered base under a weight
//! delta returns solutions, balls, class numbering, class keys and class
//! solutions **bit-identical** to a cold solve of the patched instance —
//! across every backend, shard count and churn rate — while touching only
//! the balls the delta can affect, and never pivoting more than that cold
//! solve.

use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn workload() -> MaxMinInstance {
    grid_instance(
        &GridConfig { side_lengths: vec![6, 7], torus: false, random_weights: true },
        &mut StdRng::seed_from_u64(23),
    )
}

/// A churn delta over existing entries only: `count` distinct agents, one
/// incident weight each rescaled by a factor in `[0.8, 1.25]`.
fn churn_delta(inst: &MaxMinInstance, count: usize, version: u64, seed: u64) -> InstanceDelta {
    let n = inst.num_agents();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < count.min(n) {
        chosen.insert(rng.gen_range(0..n));
    }
    let edits = chosen
        .into_iter()
        .map(|v| {
            let agent = inst.agent(AgentId::new(v));
            let factor = rng.gen_range(0.8..1.25);
            if (rng.gen::<bool>() || agent.parties.is_empty()) && !agent.resources.is_empty() {
                let (i, a) = agent.resources[rng.gen_range(0..agent.resources.len())];
                WeightEdit {
                    kind: WeightKind::Consumption,
                    row: i.index(),
                    agent: v,
                    weight: a * factor,
                }
            } else {
                let (k, c) = agent.parties[rng.gen_range(0..agent.parties.len())];
                WeightEdit {
                    kind: WeightKind::Benefit,
                    row: k.index(),
                    agent: v,
                    weight: c * factor,
                }
            }
        })
        .collect();
    InstanceDelta { base_version: version, edits }
}

fn assert_matches_cold(run: &IncrementalRun, cold: &LocalLpBatch, label: &str) {
    assert_eq!(run.batch.local_x, cold.local_x, "{label}: solutions diverged");
    assert_eq!(run.batch.balls, cold.balls, "{label}: balls diverged");
    assert_eq!(run.batch.class_of_ball, cold.class_of_ball, "{label}: classes diverged");
    assert_eq!(run.batch.class_keys, cold.class_keys, "{label}: class keys diverged");
    assert_eq!(run.batch.class_solutions, cold.class_solutions, "{label}: class solutions");
}

#[test]
fn incremental_matches_cold_across_churn_rates() {
    let inst = workload();
    let options = LocalLpOptions::new(1);
    let base = register_base(&inst, &options, 1).unwrap();
    for (step, count) in [0usize, 1, 4, 12, inst.num_agents()].into_iter().enumerate() {
        let delta = churn_delta(&inst, count, 1, 100 + step as u64);
        let run = solve_local_lps_incremental(&base, &delta).unwrap();
        let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &options).unwrap();
        assert_matches_cold(&run, &cold, &format!("churn {count}"));
        assert!(run.affected_agents <= inst.num_agents());
        // The statistics describe the re-presented balls: no more hits than
        // balls, so the hit rate is a rate.
        let stats = &run.batch.stats;
        assert!(
            stats.cache_hits <= stats.balls_enumerated,
            "churn {count}: {} hits over {} re-presented balls",
            stats.cache_hits,
            stats.balls_enumerated
        );
        assert!(stats.cache_hit_rate() <= 1.0);
        // The slow-delta tail: a write never pivots more than the cold solve
        // of the patched instance it replaces.
        assert!(
            stats.total_pivots <= cold.stats.total_pivots,
            "churn {count}: incremental {} pivots vs cold {}",
            stats.total_pivots,
            cold.stats.total_pivots
        );
        // The re-presented set never exceeds the union of balls around the
        // changed agents, and the wire bytes vanish with the churn.
        if count == 0 {
            assert_eq!(run.resolve_wire_bytes, 0);
        } else {
            assert!(run.resolve_wire_bytes > 0);
        }
    }
}

#[test]
fn incremental_matches_cold_at_radius_two() {
    let inst = workload();
    let options = LocalLpOptions::new(2);
    let base = register_base(&inst, &options, 1).unwrap();
    let delta = churn_delta(&inst, 3, 1, 7);
    let run = solve_local_lps_incremental(&base, &delta).unwrap();
    let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &options).unwrap();
    assert_matches_cold(&run, &cold, "radius 2");
    // Radius 2 balls are wider, so more agents are affected than at radius 1.
    assert!(run.affected_agents > run.changed_agents);
}

#[test]
fn incremental_is_backend_independent() {
    let inst = workload();
    let delta = churn_delta(&inst, 5, 1, 31);
    let sequential = {
        let base = register_base(&inst, &LocalLpOptions::new(1), 1).unwrap();
        solve_local_lps_incremental(&base, &delta).unwrap()
    };
    let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &LocalLpOptions::new(1)).unwrap();
    assert_matches_cold(&sequential, &cold, "sequential");
    for backend in [
        BackendKind::ScopedThreads,
        BackendKind::Sharded { shards: 3 },
        BackendKind::Loopback { shards: 4 },
    ] {
        let options = LocalLpOptions::new(1).with_backend(backend);
        let base = register_base(&inst, &options, 1).unwrap();
        let run = solve_local_lps_incremental(&base, &delta).unwrap();
        assert_matches_cold(&run, &cold, &format!("{backend:?}"));
        assert_eq!(
            run.resolve_wire_bytes, sequential.resolve_wire_bytes,
            "{backend:?}: wire accounting must not depend on the backend"
        );
    }
}

#[test]
fn incremental_through_the_subprocess_boundary() {
    if let Err(e) = probe_worker(&WorkerCommand::auto()) {
        eprintln!("skipping subprocess assertions: {e}");
        return;
    }
    let inst = workload();
    let delta = churn_delta(&inst, 5, 1, 47);
    let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &LocalLpOptions::new(1)).unwrap();
    let options = LocalLpOptions::new(1).with_backend(BackendKind::Subprocess { workers: 2 });
    let base = register_base(&inst, &options, 1).unwrap();
    let run = solve_local_lps_incremental(&base, &delta).unwrap();
    assert_matches_cold(&run, &cold, "subprocess");
}

#[test]
fn repeated_deltas_against_one_registration() {
    // Many re-solves against one registered base: each is independent (the
    // base is immutable), and each must match its own cold solve.
    let inst = workload();
    let options = LocalLpOptions::new(1);
    let base = register_base(&inst, &options, 3).unwrap();
    for seed in 0..4u64 {
        let delta = churn_delta(&inst, 3, 3, 900 + seed);
        let run = solve_local_lps_incremental(&base, &delta).unwrap();
        let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &options).unwrap();
        assert_matches_cold(&run, &cold, &format!("delta {seed}"));
    }
}

#[test]
fn version_mismatch_and_bad_edits_are_typed_errors() {
    let inst = workload();
    let base = register_base(&inst, &LocalLpOptions::new(1), 5).unwrap();
    let mut delta = churn_delta(&inst, 2, 5, 1);
    delta.base_version = 6;
    match solve_local_lps_incremental(&base, &delta) {
        Err(EngineError::Delta(DeltaError::VersionMismatch { expected: 5, found: 6 })) => {}
        other => panic!("expected the typed version mismatch, got {other:?}"),
    }
    let out_of_topology = InstanceDelta {
        base_version: 5,
        edits: vec![WeightEdit {
            kind: WeightKind::Benefit,
            row: inst.num_parties(),
            agent: 0,
            weight: 1.0,
        }],
    };
    match solve_local_lps_incremental(&base, &out_of_topology) {
        Err(EngineError::Delta(DeltaError::UnknownEntry { .. })) => {}
        other => panic!("expected the typed unknown-entry error, got {other:?}"),
    }
    let bad_weight = InstanceDelta {
        base_version: 5,
        edits: vec![WeightEdit {
            kind: WeightKind::Consumption,
            row: 0,
            agent: inst.resource(ResourceId::new(0)).agents[0].0.index(),
            weight: f64::NAN,
        }],
    };
    match solve_local_lps_incremental(&base, &bad_weight) {
        Err(EngineError::Delta(DeltaError::BadWeight { .. })) => {}
        other => panic!("expected the typed bad-weight error, got {other:?}"),
    }
}

#[test]
fn incremental_requests_ride_the_solve_service() {
    // submit_incremental shares one Arc'd registration across requests on
    // the service's executors; every ticket's batch must match its cold
    // solve.
    use std::sync::Arc;
    let inst = workload();
    let options = LocalLpOptions::new(1);
    let base = Arc::new(register_base(&inst, &options, 1).unwrap());
    let service = EngineService::new(ServiceConfig { workers: 2, queue_capacity: 8 });
    let deltas: Vec<InstanceDelta> = (0..4).map(|s| churn_delta(&inst, 2, 1, 500 + s)).collect();
    let tickets: Vec<_> = deltas
        .iter()
        .enumerate()
        .map(|(t, delta)| {
            service
                .submit_incremental(t as u64 + 1, Arc::clone(&base), delta.clone())
                .expect("admission")
        })
        .collect();
    for (ticket, delta) in tickets.into_iter().zip(&deltas) {
        let run = ticket.wait().expect("completed").expect("re-solve succeeded");
        let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &options).unwrap();
        assert_matches_cold(&run, &cold, "service ticket");
    }
}

#[test]
fn incremental_writes_never_pivot_more_than_cold() {
    // The write mix of a serving workload: a weighted 8×8 grid at radius 2
    // under a stream of ~1% deltas.  Every write must stay bit-identical to
    // its cold solve, pivot no more than it, and report hits over the
    // re-presented balls only.
    let inst = grid_instance(
        &GridConfig { side_lengths: vec![8, 8], torus: false, random_weights: true },
        &mut StdRng::seed_from_u64(2008),
    );
    let options = LocalLpOptions::new(2);
    let base = register_base(&inst, &options, 1).unwrap();
    for seed in 0..12u64 {
        let delta = churn_delta(&inst, 1 + (seed % 3) as usize, 1, 4000 + seed);
        let run = solve_local_lps_incremental(&base, &delta).unwrap();
        let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &options).unwrap();
        assert_matches_cold(&run, &cold, &format!("write {seed}"));
        let stats = &run.batch.stats;
        assert!(stats.cache_hits <= stats.balls_enumerated, "write {seed}");
        assert!(
            stats.total_pivots <= cold.stats.total_pivots,
            "write {seed}: incremental {} pivots vs cold {}",
            stats.total_pivots,
            cold.stats.total_pivots
        );
    }
}
