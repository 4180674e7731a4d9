//! Conformance matrix for the distributed simulator's typed-message tier
//! (`mmlp/sim-epoch@1`).
//!
//! For simulator runs of every wire program, **every backend × shard count
//! × radius**, and a sweep of checkpoint cadences, produces per-node
//! outputs bit-identical to the sequential (closure-tier, shared-memory)
//! simulator, with identical message counts, message units, per-round
//! message histograms, round counts and halting rounds.  No tolerances anywhere in this file.
//!
//! Covered matrix:
//!
//! * backends — `Sequential`, `ScopedThreads`, `Sharded`, `LoopbackBackend`
//!   (full wire format in memory), `SubprocessBackend` (real worker
//!   processes, falling back to loopback with a logged skip where the
//!   sandbox cannot fork/exec);
//! * shard counts — {1, 2, 5} wherever the backend has a shard knob;
//! * checkpoint cadences — the default (every 16 rounds) across the whole
//!   matrix; never, every round and every 4 rounds on the epoch matrix.
//!
//! Programs: the gathering protocol (`mmlp/prog/gather@1`) and the
//! gather-then-decide rule program (`mmlp/prog/local-rule@1`) for both of
//! the paper's algorithms, whose solutions are additionally asserted equal
//! to the centralised computations.  The recovery fault cases live in
//! `transport_faults.rs`.

use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload() -> MaxMinInstance {
    grid_instance(
        &GridConfig { side_lengths: vec![4, 6], torus: false, random_weights: true },
        &mut StdRng::seed_from_u64(23),
    )
}

fn gather_setup(inst: &MaxMinInstance, radius: usize) -> (Network, GatherProgram) {
    let (h, _) = communication_hypergraph(inst);
    (Network::from_hypergraph(&h), GatherProgram::new(inst, radius))
}

/// Asserts a wire-tier run is indistinguishable from the sequential
/// closure-tier reference, down to every per-round counter.
fn assert_run_identical<O: PartialEq + std::fmt::Debug>(
    label: &str,
    run: &SimulationResult<O>,
    reference: &SimulationResult<O>,
) {
    assert_eq!(run.outputs, reference.outputs, "{label}: outputs diverged");
    assert_eq!(run.messages, reference.messages, "{label}: message count diverged");
    assert_eq!(run.message_units, reference.message_units, "{label}: message units diverged");
    assert_eq!(run.rounds, reference.rounds, "{label}: round count diverged");
    assert_eq!(run.messages_per_round, reference.messages_per_round, "{label}");
    assert_eq!(run.halting_round, reference.halting_round, "{label}");
}

#[test]
fn backend_kind_dispatch_runs_typed_programs_across_the_boundary() {
    // The `SimulatorConfig::backend` path: every selector — including the
    // transport kinds, which used to silently fall back to an in-process
    // split for simulator rounds — now produces identical gather results
    // with the rounds genuinely crossing the boundary.
    let inst = workload();
    let (network, program) = gather_setup(&inst, 2);
    let reference = Simulator::sequential().run(&network, &program).unwrap();
    for backend in [
        BackendKind::Sequential,
        BackendKind::ScopedThreads,
        BackendKind::Sharded { shards: 2 },
        BackendKind::Sharded { shards: 5 },
        BackendKind::Loopback { shards: 2 },
        BackendKind::Loopback { shards: 5 },
        BackendKind::Subprocess { workers: 2 },
    ] {
        let simulator =
            Simulator::with_config(SimulatorConfig { backend, ..SimulatorConfig::default() });
        let run = simulator.run_typed_epoch(&network, &program, &engine_registry()).unwrap();
        assert_run_identical(&format!("{backend:?}"), &run, &reference);
        // `gather_views` routes the transport kinds through the same path.
        let views = gather_views(&inst, 2, &simulator).unwrap();
        assert_eq!(views.outputs, reference.outputs, "{backend:?} via gather_views");
        assert_eq!(views.messages, reference.messages, "{backend:?} via gather_views");
    }
}

#[test]
fn rule_programs_match_the_central_algorithms_across_every_transport() {
    let inst = workload();
    let simplex = SimplexOptions::default();
    let safe_central = safe_algorithm(&inst);
    let averaging_central = local_averaging(&inst, &LocalAveragingOptions::sequential(1)).unwrap();
    // The closure-tier reference runs carry the message accounting the wire
    // tier must reproduce.
    let safe_reference = run_local_rule(
        &inst,
        SAFE_HORIZON,
        &Simulator::sequential(),
        &ParallelConfig::sequential(),
        safe_activity_from_view,
    )
    .unwrap();
    for backend in [
        BackendKind::Sequential,
        BackendKind::Sharded { shards: 5 },
        BackendKind::Loopback { shards: 2 },
        BackendKind::Loopback { shards: 5 },
        BackendKind::Subprocess { workers: 2 },
    ] {
        let simulator =
            Simulator::with_config(SimulatorConfig { backend, ..SimulatorConfig::default() });
        let safe_run = run_wire_rule(&inst, WireRule::Safe, &simplex, &simulator).unwrap();
        assert_eq!(safe_run.solution, safe_central, "{backend:?}: safe rule diverged");
        assert_eq!(safe_run.messages, safe_reference.messages, "{backend:?}");
        assert_eq!(safe_run.rounds, safe_reference.rounds, "{backend:?}");
        assert_eq!(safe_run.message_units, safe_reference.message_units, "{backend:?}");

        let avg_run =
            run_wire_rule(&inst, WireRule::LocalAveraging { radius: 1 }, &simplex, &simulator)
                .unwrap();
        assert_eq!(
            avg_run.solution, averaging_central.solution,
            "{backend:?}: averaging rule diverged"
        );
        assert_eq!(avg_run.radius, 3);
    }
}

#[test]
fn wire_tier_respects_the_round_limit() {
    let inst = workload();
    let (network, program) = gather_setup(&inst, 3);
    let simulator = Simulator::with_config(SimulatorConfig {
        max_rounds: 2, // the radius-3 gather needs 4 rounds
        parallel: ParallelConfig::sequential(),
        backend: BackendKind::Sequential,
        ..SimulatorConfig::default()
    });
    let loopback = LoopbackBackend::new(engine_registry(), 3).with_workers(2);
    for run in [
        simulator.run_epoch_on(&network, &program, &Sequential),
        simulator.run_epoch_on(&network, &program, &loopback),
    ] {
        match run {
            Err(SimError::RoundLimitExceeded { limit: 2, .. }) => {}
            other => panic!("expected the round limit, got {other:?}"),
        }
    }
}

#[test]
fn gather_matrix_backends_shards_and_driver_modes_are_bit_identical() {
    // Every in-process backend and the in-memory wire transport, over the
    // shard counts and radii, at the default checkpoint cadence.  The shard
    // driver has a single dispatch discipline (every worker's queue ships up
    // front), so the driver-mode axis is that one discipline.
    let inst = workload();
    let simulator = Simulator::with_config(SimulatorConfig {
        parallel: ParallelConfig::sequential(),
        ..SimulatorConfig::default()
    });
    for radius in [1usize, 2] {
        let (network, program) = gather_setup(&inst, radius);
        // The reference is the original shared-memory simulator.
        let reference = Simulator::sequential().run(&network, &program).unwrap();

        let run = simulator.run_epoch_on(&network, &program, &Sequential).unwrap();
        assert_run_identical(&format!("sequential r={radius}"), &run, &reference);

        let scoped = ScopedThreads::new(ParallelConfig::with_threads(4));
        let run = simulator.run_epoch_on(&network, &program, &scoped).unwrap();
        assert_run_identical(&format!("scoped-threads r={radius}"), &run, &reference);

        for shards in [1usize, 2, 5] {
            let sharded = Sharded::new(shards, ParallelConfig::with_threads(3));
            let run = simulator.run_epoch_on(&network, &program, &sharded).unwrap();
            assert_run_identical(&format!("sharded-{shards} r={radius}"), &run, &reference);

            let loopback = LoopbackBackend::new(engine_registry(), shards).with_workers(2);
            let run = simulator.run_epoch_on(&network, &program, &loopback).unwrap();
            assert_run_identical(&format!("loopback-{shards} r={radius}"), &run, &reference);
        }
    }
}

#[test]
fn gather_matrix_subprocess_backends_are_bit_identical() {
    // One pooled subprocess backend per shard count (its workers persist
    // across radii); where the sandbox cannot spawn processes the
    // capability probe falls back to the loopback transport with a logged
    // skip — the assertions hold either way.
    let inst = workload();
    let simulator = Simulator::with_config(SimulatorConfig {
        parallel: ParallelConfig::sequential(),
        ..SimulatorConfig::default()
    });
    for shards in [1usize, 2, 5] {
        let backend = SubprocessBackend::new(2, engine_registry()).with_shards(shards);
        for radius in [1usize, 2] {
            let (network, program) = gather_setup(&inst, radius);
            let reference = Simulator::sequential().run(&network, &program).unwrap();
            let run = simulator.run_epoch_on(&network, &program, &backend).unwrap();
            assert_run_identical(&format!("subprocess-{shards} r={radius}"), &run, &reference);
        }
    }
}

#[test]
fn epoch_tier_matrix_is_bit_identical_to_the_sequential_simulator() {
    // State stays on the workers between rounds, jobs carry only
    // inter-shard message batches, and several checkpoint cadences are
    // swept so snapshot rounds and snapshot-free rounds both cross the
    // boundary.  The two gather matrices above cover the remaining backends
    // and shard counts at the default cadence.
    let inst = workload();
    let subprocess = SubprocessBackend::new(2, engine_registry()).with_shards(5);
    for radius in [1usize, 2] {
        let (network, program) = gather_setup(&inst, radius);
        let reference = Simulator::sequential().run(&network, &program).unwrap();

        for every in [0usize, 1, 4] {
            let simulator = Simulator::with_config(SimulatorConfig {
                parallel: ParallelConfig::sequential(),
                checkpoint: CheckpointPolicy::every(every),
                ..SimulatorConfig::default()
            });
            let label = |backend: &str| format!("{backend} r={radius} k={every}");

            let run = simulator.run_epoch_on(&network, &program, &Sequential).unwrap();
            assert_run_identical(&label("sequential"), &run, &reference);

            for shards in [1usize, 2, 5] {
                let sharded = Sharded::new(shards, ParallelConfig::with_threads(3));
                let run = simulator.run_epoch_on(&network, &program, &sharded).unwrap();
                assert_run_identical(&label(&format!("sharded-{shards}")), &run, &reference);
            }

            let loopback = LoopbackBackend::new(engine_registry(), 5).with_workers(2);
            let run = simulator.run_epoch_on(&network, &program, &loopback).unwrap();
            assert_run_identical(&label("loopback-5"), &run, &reference);

            let run = simulator.run_epoch_on(&network, &program, &subprocess).unwrap();
            assert_run_identical(&label("subprocess-5"), &run, &reference);
        }
    }
}

#[test]
fn epoch_tier_runs_on_subprocess_workers_and_backend_kind_dispatch() {
    let inst = workload();
    let (network, program) = gather_setup(&inst, 2);
    let reference = Simulator::sequential().run(&network, &program).unwrap();
    for backend in [
        BackendKind::Sequential,
        BackendKind::ScopedThreads,
        BackendKind::Sharded { shards: 5 },
        BackendKind::Loopback { shards: 5 },
        BackendKind::Subprocess { workers: 2 },
    ] {
        let simulator = Simulator::with_config(SimulatorConfig {
            backend,
            checkpoint: CheckpointPolicy::every(2),
            ..SimulatorConfig::default()
        });
        let run = simulator.run_typed_epoch(&network, &program, &engine_registry()).unwrap();
        assert_run_identical(&format!("epoch {backend:?}"), &run, &reference);
    }
}
