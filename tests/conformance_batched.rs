//! Conformance suite for the batched local-LP engine.
//!
//! For every instance generator in `mmlp-instances` (grid, hypertree,
//! bipartite, random, sensor, isp) and seeds 0..4, the three execution paths
//! of each algorithm must produce **bit-identical** `Solution`s:
//!
//! * the batched engine (dedup + scatter),
//! * the naive centralised reference path (one independent solve per agent),
//! * the view-based per-agent rules (the honest distributed form).
//!
//! Local averaging is checked at `R ∈ {1, 2}`; the safe algorithm at its
//! horizon 1.  "Bit-identical" is `assert_eq!` on the solution vectors — no
//! tolerances anywhere in this file.

use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One small instance per generator for the given seed.  Sizes are kept
/// small because the view-based path solves `O(n · |ball|)` local LPs.
fn generator_instances(seed: u64) -> Vec<(&'static str, MaxMinInstance)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = grid_instance(
        &GridConfig {
            side_lengths: vec![3, 3 + usize::try_from(seed).unwrap() % 2],
            torus: seed % 2 == 0,
            random_weights: seed % 3 == 0,
        },
        &mut rng,
    );
    let hypertree = hypertree_instance(2, 2, 2 + usize::try_from(seed).unwrap() % 2);
    let bipartite =
        graph_instance(&circulant_bipartite(3 + usize::try_from(seed).unwrap() % 2, &[0, 1, 2]));
    let random = random_instance(
        &RandomInstanceConfig {
            num_agents: 10,
            num_resources: 12,
            num_parties: 7,
            max_resource_support: 3,
            max_party_support: 3,
            zero_one_coefficients: seed % 2 == 1,
        },
        &mut rng,
    );
    let sensor = sensor_network_instance(
        &SensorNetworkConfig {
            num_sensors: 10,
            num_relays: 4,
            num_areas: 4,
            radio_range: 0.4,
            ..Default::default()
        },
        &mut rng,
    )
    .instance;
    let isp = isp_instance(
        &IspConfig {
            num_customers: 5,
            num_routers: 3,
            routers_per_customer: 2,
            heterogeneous: true,
            ..Default::default()
        },
        &mut rng,
    );
    vec![
        ("grid", grid),
        ("hypertree", hypertree),
        ("bipartite", bipartite),
        ("random", random),
        ("sensor", sensor),
        ("isp", isp),
    ]
}

#[test]
fn safe_algorithm_paths_are_bit_identical() {
    for seed in 0..5u64 {
        for (name, inst) in generator_instances(seed) {
            assert!(inst.num_agents() > 0, "{name}/{seed} generated an empty instance");
            let central = safe_algorithm(&inst);
            let view_based = apply_rule_direct(
                &inst,
                SAFE_HORIZON,
                &ParallelConfig::default(),
                safe_activity_from_view,
            );
            assert_eq!(central, view_based, "safe algorithm on {name}, seed {seed}");
        }
    }
}

#[test]
fn local_averaging_paths_are_bit_identical() {
    for seed in 0..5u64 {
        for (name, inst) in generator_instances(seed) {
            for radius in [1usize, 2] {
                let batched = local_averaging(&inst, &LocalAveragingOptions::new(radius)).unwrap();
                let naive = local_averaging(&inst, &LocalAveragingOptions::naive(radius)).unwrap();
                assert_eq!(
                    batched.solution, naive.solution,
                    "batched vs naive on {name}, seed {seed}, R={radius}"
                );
                assert_eq!(batched.beta, naive.beta);
                assert_eq!(batched.guaranteed_ratio, naive.guaranteed_ratio);
                // The dedup bookkeeping must be consistent with what ran.
                assert!(batched.stats.unique_classes <= batched.stats.balls_enumerated);
                assert!(batched.stats.lp_solves <= naive.stats.lp_solves);
                assert_eq!(naive.stats.cache_hits, 0);

                let simplex = SimplexOptions::default();
                let view_based =
                    apply_rule_direct(&inst, 2 * radius + 1, &ParallelConfig::default(), |view| {
                        local_averaging_activity_from_view(view, radius, &simplex)
                    });
                assert_eq!(
                    batched.solution, view_based,
                    "batched vs view-based on {name}, seed {seed}, R={radius}"
                );
            }
        }
    }
}

/// The full execution matrix of the engine: batched (the reference), naive
/// per-agent, and every backend at ≥2 shard counts — including the loopback
/// transport (full wire format in memory) and the subprocess backend (real
/// worker processes): all bit-identical, with
/// identical class and dedup counts, on every generator, seed and radius.
#[test]
fn backends_and_shard_counts_are_bit_identical() {
    // One subprocess backend for the whole matrix (workers persist across
    // runs).  Where the sandbox cannot spawn processes, the capability probe
    // falls back to the loopback transport with a logged skip — the
    // bit-identity assertions hold either way.
    let subprocess = SubprocessBackend::new(2, engine_registry());
    for seed in 0..5u64 {
        for (name, inst) in generator_instances(seed) {
            for radius in [1usize, 2] {
                let reference = solve_local_lps(&inst, &LocalLpOptions::new(radius)).unwrap();

                let naive = solve_local_lps(
                    &inst,
                    &LocalLpOptions {
                        mode: SolveMode::NaivePerAgent,
                        ..LocalLpOptions::new(radius)
                    },
                )
                .unwrap();
                assert_eq!(
                    reference.local_x, naive.local_x,
                    "batched vs naive on {name}, seed {seed}, R={radius}"
                );
                assert_eq!(reference.class_solutions, naive.class_solutions);

                for backend in [
                    BackendKind::Sequential,
                    BackendKind::ScopedThreads,
                    BackendKind::Sharded { shards: 2 },
                    BackendKind::Sharded { shards: 5 },
                    BackendKind::Loopback { shards: 2 },
                    BackendKind::Loopback { shards: 5 },
                ] {
                    let sharded =
                        solve_local_lps(&inst, &LocalLpOptions::new(radius).with_backend(backend))
                            .unwrap();
                    assert_eq!(
                        reference.local_x, sharded.local_x,
                        "{backend:?} on {name}, seed {seed}, R={radius}"
                    );
                    assert_eq!(reference.balls, sharded.balls);
                    assert_eq!(reference.class_of_ball, sharded.class_of_ball);
                    assert_eq!(reference.class_keys, sharded.class_keys);
                    assert_eq!(reference.class_solutions, sharded.class_solutions);
                    assert_eq!(
                        reference.stats.distinct_presentations,
                        sharded.stats.distinct_presentations
                    );
                    assert_eq!(reference.stats.unique_classes, sharded.stats.unique_classes);
                    assert_eq!(reference.stats.cache_hits, sharded.stats.cache_hits);
                }

                let remote =
                    solve_local_lps_on(&inst, &LocalLpOptions::new(radius), &subprocess).unwrap();
                assert_eq!(
                    reference.local_x, remote.local_x,
                    "subprocess on {name}, seed {seed}, R={radius}"
                );
                assert_eq!(reference.balls, remote.balls);
                assert_eq!(reference.class_of_ball, remote.class_of_ball);
                assert_eq!(reference.class_keys, remote.class_keys);
                assert_eq!(reference.class_solutions, remote.class_solutions);
                assert_eq!(
                    reference.stats.distinct_presentations,
                    remote.stats.distinct_presentations
                );
                assert_eq!(reference.stats.unique_classes, remote.stats.unique_classes);
                assert_eq!(reference.stats.cache_hits, remote.stats.cache_hits);
            }
        }
    }
}

/// Every backend the service can dispatch to, with a label.
fn service_backends() -> Vec<(String, BackendKind)> {
    // Where the sandbox cannot spawn processes, the subprocess backend falls
    // back to the loopback transport — the assertions hold either way.
    [
        BackendKind::Sequential,
        BackendKind::ScopedThreads,
        BackendKind::Sharded { shards: 2 },
        BackendKind::Loopback { shards: 3 },
        BackendKind::Subprocess { workers: 2 },
    ]
    .into_iter()
    .map(|b| (format!("{b:?}"), b))
    .collect()
}

/// A second read through a shared class-answer cache runs no simplex at
/// all and is bit-identical to an isolated solve, on every backend.
#[test]
fn a_second_read_through_a_shared_cache_solves_nothing_and_stays_bit_identical() {
    let inst = grid_instance(
        &GridConfig { side_lengths: vec![6, 5], torus: false, random_weights: true },
        &mut StdRng::seed_from_u64(3),
    );
    for (label, backend) in service_backends() {
        let options = LocalLpOptions::new(1).with_backend(backend);
        let isolated = solve_local_lps(&inst, &options).unwrap();
        let service =
            EngineService::with_shared_cache(ServiceConfig { workers: 2, queue_capacity: 8 }, 4096);
        let read = |tenant: u64| {
            service
                .submit_solve(tenant, inst.clone(), options)
                .unwrap()
                .wait()
                .unwrap()
                .unwrap()
        };
        let first = read(1);
        let second = read(2);
        for (which, batch) in [("first", &first), ("second", &second)] {
            assert_eq!(batch.local_x, isolated.local_x, "{label}: {which} read");
            assert_eq!(batch.class_of_ball, isolated.class_of_ball, "{label}: {which} read");
            assert_eq!(batch.class_keys, isolated.class_keys, "{label}: {which} read");
            assert_eq!(batch.class_solutions, isolated.class_solutions, "{label}: {which} read");
            assert_eq!(batch.ball_objectives, isolated.ball_objectives, "{label}: {which} read");
        }
        assert_eq!(first.stats.lp_solves, isolated.stats.lp_solves, "{label}");
        assert_eq!(first.stats.shared_cache_hits, 0, "{label}");
        assert_eq!(second.stats.lp_solves, 0, "{label}: the second read must not solve");
        assert_eq!(second.stats.total_pivots, 0, "{label}");
        assert_eq!(second.stats.shared_cache_hits, second.stats.unique_classes, "{label}");
        assert_eq!(service.counters(2).cache_hits, second.stats.unique_classes as u64);
        service.drain();
    }
}

/// Two tenants on one shared cache with different simplex options each get
/// exactly what their isolated solves give, on every backend: answers are
/// keyed by the options they were solved under, so a tenant whose pivot
/// budget is too small for the instance still gets its iteration-limit
/// error, and a tenant with another tolerance never sees the other's bits.
#[test]
fn tenants_with_different_simplex_options_share_a_cache_without_mixing_answers() {
    let inst = grid_instance(
        &GridConfig { side_lengths: vec![5, 5], torus: false, random_weights: true },
        &mut StdRng::seed_from_u64(5),
    );
    let tenants = [
        (1u64, SimplexOptions::default()),
        (2, SimplexOptions { tolerance: 1e-7, ..SimplexOptions::default() }),
        (3, SimplexOptions { max_pivots: 1, ..SimplexOptions::default() }),
    ];
    for (label, backend) in service_backends() {
        let options = |simplex| LocalLpOptions { simplex, backend, ..LocalLpOptions::new(1) };
        let isolated: Vec<_> = tenants
            .iter()
            .map(|&(_, simplex)| solve_local_lps(&inst, &options(simplex)))
            .collect();
        assert!(isolated[0].is_ok() && isolated[1].is_ok(), "{label}");
        assert!(isolated[2].is_err(), "{label}: a one-pivot budget must fail in isolation");
        let service =
            EngineService::with_shared_cache(ServiceConfig { workers: 1, queue_capacity: 8 }, 4096);
        // Each tenant reads twice, interleaved, so every tenant's second read
        // meets a cache the other tenants have filled.
        for _ in 0..2 {
            for (&(tenant, simplex), want) in tenants.iter().zip(&isolated) {
                let got = service
                    .submit_solve(tenant, inst.clone(), options(simplex))
                    .unwrap()
                    .wait();
                match (got.unwrap(), want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.local_x, want.local_x, "{label}: tenant {tenant}");
                        assert_eq!(got.class_solutions, want.class_solutions, "{label}");
                    }
                    (Err(got), Err(want)) => assert_eq!(&got, want, "{label}: tenant {tenant}"),
                    (got, want) => panic!("{label}: tenant {tenant}: {got:?} vs {want:?}"),
                }
            }
        }
        service.drain();
    }
}

/// The acceptance target of the batched engine: on a 50×50 grid at `R = 2`
/// the dedup stage must cut the number of simplex solves by at least 10×
/// relative to the number of agents (it actually achieves ~100×: every
/// interior agent shares one ball class).
#[test]
fn grid_50x50_radius_2_dedups_simplex_solves_by_10x() {
    let inst = grid_instance(
        &GridConfig { side_lengths: vec![50, 50], torus: false, random_weights: false },
        &mut StdRng::seed_from_u64(0),
    );
    let result = local_averaging(&inst, &LocalAveragingOptions::new(2)).unwrap();
    let stats = &result.stats;
    assert_eq!(stats.balls_enumerated, 2500);
    assert!(
        stats.lp_solves * 10 <= stats.balls_enumerated,
        "expected ≥10× fewer solves than agents, got {} solves for {} agents",
        stats.lp_solves,
        stats.balls_enumerated
    );
    assert!(stats.unique_classes * 10 <= stats.balls_enumerated);
    assert!(stats.cache_hit_rate() >= 0.9);
    assert!(inst.is_feasible(&result.solution, 1e-7));
}
