//! Conformance suite for the lifted (quasi-class) solve mode.
//!
//! The lifted engine trades exactness for dedup on irregular instances by
//! quantising ball-LP coefficients onto the geometric grid `(1+ε)^b` and
//! solving one representative LP per *quasi*-class.  Its contract has two
//! halves, and this file asserts both:
//!
//! * **`ε = 0` is the exact engine, bit for bit.**  On every generator,
//!   seed, radius and backend (including the loopback wire transport and
//!   real subprocess workers), `SolveMode::Lifted { epsilon: 0.0 }`
//!   reproduces `SolveMode::Batched` exactly: solutions, class structure,
//!   objectives — `assert_eq!`, no tolerances.
//! * **`ε > 0` is certified.**  Every agent's *exact* ball optimum lies in
//!   the [`CertifiedInterval`] shipped with the lifted batch; the scattered
//!   (rescaled) solution stays feasible for the actual ball; interval
//!   widths are honest (monotone over nested grids) and the quasi partition
//!   only ever coarsens the exact one.

use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Absolute tolerance for comparisons involving a simplex optimum.
const TOL: f64 = 1e-7;

/// One small instance per generator family for the given seed — the same
/// shape as the batched conformance matrix, plus the two irregular
/// workloads the lifted mode exists for (skewed bipartite, jittered grid).
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
    let jittered_grid = jitter_weights(
        &grid_instance(
            &GridConfig { side_lengths: vec![4, 4], torus: true, random_weights: false },
            &mut rng,
        ),
        0.05,
        &mut StdRng::seed_from_u64(seed ^ 0x117),
    );
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
    let skewed = skewed_bipartite_instance(
        &SkewedBipartiteConfig {
            num_agents: 24,
            num_resources: 18,
            num_parties: 14,
            weight_jitter: 0.03,
            ..Default::default()
        },
        &mut rng,
    );
    let hypertree = hypertree_instance(2, 2, 2 + usize::try_from(seed).unwrap() % 2);
    vec![
        ("grid", grid),
        ("jittered-grid", jittered_grid),
        ("random", random),
        ("skewed", skewed),
        ("hypertree", hypertree),
    ]
}

fn lifted(radius: usize, epsilon: f64) -> LocalLpOptions {
    LocalLpOptions { mode: SolveMode::Lifted { epsilon }, ..LocalLpOptions::new(radius) }
}

/// `ε = 0` reproduces the exact batched engine bit for bit, on the full
/// generator × seed × radius × backend matrix — including the loopback
/// transport (the lifted wire stage in memory) and pooled subprocess
/// workers (the lifted wire stage across a process boundary).
#[test]
fn lifted_epsilon_zero_is_bit_identical_to_batched() {
    let subprocess = SubprocessBackend::new(2, engine_registry());
    for seed in 0..3u64 {
        for (name, inst) in generator_instances(seed) {
            for radius in [1usize, 2] {
                let reference = solve_local_lps(&inst, &LocalLpOptions::new(radius)).unwrap();

                for backend in [
                    BackendKind::Sequential,
                    BackendKind::ScopedThreads,
                    BackendKind::Sharded { shards: 2 },
                    BackendKind::Loopback { shards: 3 },
                ] {
                    let run =
                        solve_local_lps(&inst, &lifted(radius, 0.0).with_backend(backend)).unwrap();
                    assert_lifted_zero_matches(
                        &format!("{backend:?} on {name}, seed {seed}, R={radius}"),
                        &run,
                        &reference,
                    );
                }

                let remote = solve_local_lps_on(&inst, &lifted(radius, 0.0), &subprocess).unwrap();
                assert_lifted_zero_matches(
                    &format!("subprocess on {name}, seed {seed}, R={radius}"),
                    &remote,
                    &reference,
                );
            }
        }
    }
}

fn assert_lifted_zero_matches(label: &str, got: &LocalLpBatch, want: &LocalLpBatch) {
    assert_eq!(got.local_x, want.local_x, "{label}: solutions diverged");
    assert_eq!(got.balls, want.balls, "{label}: balls diverged");
    assert_eq!(got.class_of_ball, want.class_of_ball, "{label}: class map diverged");
    assert_eq!(got.class_keys, want.class_keys, "{label}: class keys diverged");
    assert_eq!(got.ball_objectives, want.ball_objectives, "{label}: objectives diverged");
    assert_eq!(got.intervals, want.intervals, "{label}: intervals diverged");
    assert_eq!(got.stats.unique_classes, want.stats.unique_classes, "{label}");
    assert_eq!(got.stats.quasi_classes, want.stats.quasi_classes, "{label}");
    assert_eq!(got.stats.cache_hits, want.stats.cache_hits, "{label}");
    assert_eq!(got.stats.distinct_presentations, want.stats.distinct_presentations, "{label}");
    assert_eq!(got.stats.max_class_slack.to_bits(), 0.0f64.to_bits(), "{label}: slack at ε=0");
    // At slack 0 every certificate is the degenerate exact point.
    for (interval, objective) in got.intervals.iter().zip(&got.ball_objectives) {
        assert_eq!(interval.lower.to_bits(), objective.to_bits(), "{label}");
        assert_eq!(interval.upper.to_bits(), objective.to_bits(), "{label}");
    }
}

/// The error-bound suite: at every swept `ε` the exact ball optimum (taken
/// from the exact batched run) lies inside the lifted certificate, the
/// certificate is internally consistent, and the quasi partition only
/// coarsens the exact partition.
#[test]
fn lifted_intervals_bracket_the_exact_ball_optima() {
    for seed in 0..3u64 {
        for (name, inst) in generator_instances(seed) {
            for radius in [1usize, 2] {
                let exact = solve_local_lps(&inst, &LocalLpOptions::new(radius)).unwrap();
                for epsilon in [0.01f64, 0.05, 0.2, 0.5] {
                    let run = solve_local_lps(&inst, &lifted(radius, epsilon)).unwrap();
                    let stats = &run.stats;
                    assert!(
                        stats.quasi_classes <= exact.stats.unique_classes,
                        "{name}, seed {seed}, R={radius}, ε={epsilon}: quantisation split a class"
                    );
                    assert_eq!(stats.quasi_classes, stats.unique_classes);
                    assert!(stats.max_class_slack >= 0.0 && stats.max_class_slack.is_finite());
                    for u in 0..inst.num_agents() {
                        let interval = &run.intervals[u];
                        assert!(
                            interval.lower <= interval.upper,
                            "{name}, seed {seed}: inverted interval {interval:?}"
                        );
                        assert!(
                            interval.contains(run.ball_objectives[u], 0.0),
                            "{name}, seed {seed}: ω̃ outside its own certificate"
                        );
                        assert!(
                            interval.contains(exact.ball_objectives[u], TOL),
                            "{name}, seed {seed}, R={radius}, ε={epsilon}, agent {u}: \
                             exact ω* = {} outside {interval:?}",
                            exact.ball_objectives[u]
                        );
                    }
                }
            }
        }
    }
}

/// Interval widths are honest in `ε`: over a *nested* grid sequence
/// (`1 + ε_{k+1} = (1 + ε_k)²`, so every coarser grid's points are a subset
/// of the finer grid's) the measured slack — and hence every agent's
/// certified relative width — is monotone non-decreasing.
#[test]
fn lifted_interval_width_is_monotone_over_nested_grids() {
    for seed in 0..3u64 {
        for (name, inst) in generator_instances(seed) {
            let mut epsilon = 0.03f64;
            let mut previous: Option<Vec<f64>> = None;
            for _ in 0..5 {
                let run = solve_local_lps(&inst, &lifted(1, epsilon)).unwrap();
                let widths: Vec<f64> =
                    run.intervals.iter().map(CertifiedInterval::relative_width).collect();
                if let Some(prev) = &previous {
                    for (u, (now, before)) in widths.iter().zip(prev).enumerate() {
                        assert!(
                            *now >= before - 1e-9,
                            "{name}, seed {seed}, agent {u}: width shrank {before} -> {now} \
                             at ε={epsilon}"
                        );
                    }
                }
                previous = Some(widths);
                epsilon = (1.0 + epsilon) * (1.0 + epsilon) - 1.0;
            }
        }
    }
}

/// The scattered lifted solution is feasible for the *actual* (unquantised)
/// ball LPs — that is what the host-side `1/(1+s)` rescale buys — so the
/// paper's safe scaling `y_v = x^v_v / Δ_I^V` stays globally feasible, and
/// the global exact optimum `ω*` respects every party-ful certificate's
/// upper bound (resources are clipped to the ball and parties kept only
/// when fully inside, so each ball optimum dominates `ω*`).
#[test]
fn lifted_certificates_respect_the_global_optimum_and_scatter_stays_feasible() {
    for seed in 0..3u64 {
        for (name, inst) in generator_instances(seed) {
            let global = solve_maxmin(&inst).unwrap();
            for epsilon in [0.1f64, 0.3] {
                let run = solve_local_lps(&inst, &lifted(1, epsilon)).unwrap();
                let exact = solve_local_lps(&inst, &LocalLpOptions::new(1)).unwrap();
                let delta = inst.degree_bounds().max_resource_support as f64;
                let mut scaled = Vec::with_capacity(inst.num_agents());
                for u in 0..inst.num_agents() {
                    if exact.ball_objectives[u] > 0.0 {
                        assert!(
                            global.objective <= run.intervals[u].upper + TOL,
                            "{name}, seed {seed}, ε={epsilon}, agent {u}: global ω* = {} \
                             exceeds the certificate upper bound {}",
                            global.objective,
                            run.intervals[u].upper
                        );
                    }
                    let pos = run.balls[u].binary_search(&u).expect("a ball contains its centre");
                    scaled.push(run.local_x[u][pos] / delta);
                }
                let y = Solution::new(scaled);
                assert!(
                    inst.is_feasible(&y, TOL),
                    "{name}, seed {seed}, ε={epsilon}: safe-scaled lifted scatter infeasible"
                );
            }
        }
    }
}

/// The separation the lifted mode exists for: on a degree-skewed instance
/// with jittered weights, exact dedup collapses (every ball LP is bitwise
/// unique up to ≤1.5× grouping) while the lifted mode at `ε` just above the
/// jitter snaps all weights back onto one grid point and merges balls by
/// structure — at least 5× fewer simplex solves, with certificates that
/// still bracket every exact ball optimum.
#[test]
fn lifted_collapses_jittered_skewed_instances_by_5x() {
    let inst = skewed_bipartite_instance(
        &SkewedBipartiteConfig {
            num_agents: 300,
            num_resources: 100,
            num_parties: 300,
            skew: 3.5,
            weight_jitter: 0.04,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(42),
    );
    let exact = solve_local_lps(&inst, &LocalLpOptions::new(1)).unwrap();
    assert!(
        exact.stats.dedup_ratio() <= 1.5,
        "jitter must defeat exact dedup (got {:.2}×)",
        exact.stats.dedup_ratio()
    );
    let run = solve_local_lps(&inst, &lifted(1, 0.05)).unwrap();
    assert!(
        run.stats.lp_solves * 5 <= exact.stats.lp_solves,
        "expected ≥5× fewer solves, got {} lifted vs {} exact",
        run.stats.lp_solves,
        exact.stats.lp_solves
    );
    assert!(run.stats.max_class_slack < 0.05, "slack is measured, bounded by the jitter");
    for u in 0..inst.num_agents() {
        assert!(
            run.intervals[u].contains(exact.ball_objectives[u], TOL),
            "agent {u}: exact ω* = {} outside {:?}",
            exact.ball_objectives[u],
            run.intervals[u]
        );
    }
}

/// Lifted solves admitted through the multi-tenant [`EngineService`] — with
/// and without the shared cross-tenant class-answer cache — are
/// bit-identical to the same lifted solve run solo.
#[test]
fn engine_service_admits_lifted_solves_bit_identically() {
    let inst = skewed_bipartite_instance(
        &SkewedBipartiteConfig { weight_jitter: 0.03, ..Default::default() },
        &mut StdRng::seed_from_u64(7),
    );
    let options = lifted(1, 0.05);
    let solo = solve_local_lps(&inst, &options).unwrap();

    let isolated = EngineService::new(ServiceConfig { workers: 2, queue_capacity: 8 });
    let through = isolated
        .submit_solve(1, inst.clone(), options)
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();
    assert_eq!(through.local_x, solo.local_x);
    assert_eq!(through.intervals, solo.intervals);
    assert_eq!(through.ball_objectives, solo.ball_objectives);
    isolated.drain();

    let shared =
        EngineService::with_shared_cache(ServiceConfig { workers: 2, queue_capacity: 8 }, 1024);
    let first = shared
        .submit_solve(1, inst.clone(), options)
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();
    let reuse = shared
        .submit_solve(2, inst.clone(), options)
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();
    assert_eq!(first.local_x, solo.local_x);
    assert_eq!(reuse.local_x, solo.local_x);
    assert_eq!(reuse.intervals, solo.intervals);
    assert_eq!(reuse.stats.lp_solves, 0, "the repeat solve is answered from the shared cache");
    shared.drain();
}

/// Incremental re-solves certify bit-identity to an *exact* cold solve, so
/// a lifted base registration is rejected with the typed options error.
#[test]
fn register_base_rejects_the_lifted_mode() {
    let inst = grid_instance(
        &GridConfig { side_lengths: vec![3, 3], torus: false, random_weights: false },
        &mut StdRng::seed_from_u64(0),
    );
    match register_base(&inst, &lifted(1, 0.1), 1) {
        Err(EngineError::InvalidOptions(reason)) => {
            assert!(reason.contains("exact mode"), "unhelpful rejection: {reason}");
        }
        other => panic!("expected InvalidOptions, got {other:?}"),
    }
}

/// The validation gate on ε itself: NaN, infinite and negative grids are
/// rejected up front with the typed options error, not a latent panic.
#[test]
fn lifted_rejects_non_finite_and_negative_epsilon() {
    let inst = grid_instance(
        &GridConfig { side_lengths: vec![3, 3], torus: false, random_weights: false },
        &mut StdRng::seed_from_u64(0),
    );
    for bad in [f64::NAN, f64::INFINITY, -0.25] {
        match solve_local_lps(&inst, &lifted(1, bad)) {
            Err(EngineError::InvalidOptions(_)) => {}
            other => panic!("ε={bad}: expected InvalidOptions, got {other:?}"),
        }
    }
}
