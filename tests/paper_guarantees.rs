//! Executable versions of the paper's approximation guarantees.
//!
//! On small instances the exact optimum `ω*` is computed with the
//! centralised simplex baseline (`mmlp-lp::solve_maxmin_with`) and the two
//! local algorithms are checked against the factors the paper proves:
//!
//! * the **safe algorithm** (Section 4) is feasible and satisfies
//!   `ω* ≤ Δ_I^V · ω_safe`;
//! * **local averaging** (Theorem 3, Section 5) is feasible and satisfies
//!   `ω* ≤ γ(R−1) · γ(R) · ω_avg`, through the instance-specific
//!   a-posteriori bound `max_k M_k/m_k · max_i N_i/n_i` which itself never
//!   exceeds the γ product.

use maxmin_local_lp::core::bounds::{safe_upper_bound, theorem3_ratio};
use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f64 = 1e-7;

fn small_instances() -> Vec<(&'static str, MaxMinInstance)> {
    let mut out: Vec<(&'static str, MaxMinInstance)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(2008);
    out.push((
        "grid-4x4-torus",
        grid_instance(
            &GridConfig { side_lengths: vec![4, 4], torus: true, random_weights: false },
            &mut rng,
        ),
    ));
    out.push((
        "grid-4x5-weighted",
        grid_instance(
            &GridConfig { side_lengths: vec![4, 5], torus: false, random_weights: true },
            &mut rng,
        ),
    ));
    out.push(("hypertree-2-2-3", hypertree_instance(2, 2, 3)));
    out.push(("bipartite-circulant", graph_instance(&circulant_bipartite(5, &[0, 1, 2]))));
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(seed);
        out.push((
            "random",
            random_instance(
                &RandomInstanceConfig {
                    num_agents: 14,
                    num_resources: 16,
                    num_parties: 9,
                    ..Default::default()
                },
                &mut rng,
            ),
        ));
    }
    out.push((
        "sensor",
        sensor_network_instance(
            &SensorNetworkConfig {
                num_sensors: 12,
                num_relays: 5,
                num_areas: 4,
                radio_range: 0.4,
                ..Default::default()
            },
            &mut rng,
        )
        .instance,
    ));
    out
}

#[test]
fn safe_algorithm_is_feasible_and_within_its_delta_factor() {
    for (name, inst) in small_instances() {
        let optimum = solve_maxmin_with(&inst, &SimplexOptions::default()).unwrap();
        let safe = safe_algorithm(&inst);
        assert!(inst.is_feasible(&safe, TOL), "safe solution infeasible on {name}");
        let achieved = inst.objective(&safe).unwrap();
        let delta = inst.degree_bounds().max_resource_support;
        let bound = safe_upper_bound(delta);
        assert_eq!(bound, delta as f64);
        assert!(
            optimum.objective <= bound * achieved + TOL,
            "{name}: ω* = {} exceeds Δ_I^V · ω_safe = {} · {}",
            optimum.objective,
            bound,
            achieved
        );
    }
}

#[test]
fn local_averaging_is_feasible_and_within_the_gamma_product() {
    for (name, inst) in small_instances() {
        let optimum = solve_maxmin_with(&inst, &SimplexOptions::default()).unwrap();
        let (h, _) = communication_hypergraph(&inst);
        for radius in [1usize, 2] {
            let result = local_averaging(&inst, &LocalAveragingOptions::new(radius)).unwrap();
            assert!(
                inst.is_feasible(&result.solution, TOL),
                "averaged solution infeasible on {name}, R={radius}"
            );
            let achieved = inst.objective(&result.solution).unwrap();
            assert!(achieved > 0.0, "{name}: local averaging achieved 0 at R={radius}");

            // The instance-specific a-posteriori bound must hold…
            let measured = optimum.objective / achieved;
            assert!(
                measured <= result.guaranteed_ratio + 1e-6,
                "{name}, R={radius}: measured ratio {measured} > a-posteriori {}",
                result.guaranteed_ratio
            );
            // …and itself be at most γ(R−1)·γ(R), the Theorem 3 factor.
            let profile = growth_profile(&h, radius);
            let gamma_bound = theorem3_ratio(profile.gamma[radius - 1], profile.gamma[radius]);
            assert!(
                result.guaranteed_ratio <= gamma_bound + 1e-9,
                "{name}, R={radius}: a-posteriori {} exceeds γ(R−1)·γ(R) = {gamma_bound}",
                result.guaranteed_ratio
            );
            assert!(
                measured <= gamma_bound + 1e-6,
                "{name}, R={radius}: measured ratio {measured} exceeds Theorem 3 bound {gamma_bound}"
            );
        }
    }
}

/// The paper's guarantees hold *across the process boundary*: local
/// averaging at `R = 3` computed through the subprocess backend (real
/// worker processes speaking the wire protocol; the capability probe falls
/// back to the in-memory loopback transport where the sandbox cannot spawn,
/// with the same wire format exercised either way) still satisfies
///
/// * `ω* ≤ γ(R−1) · γ(R) · ω_avg` (Theorem 3, via the a-posteriori bound),
/// * `ω* ≤ Δ_I^V · ω_safe` (the safe algorithm's Section 4 bound, checked
///   on the same instances for the same optimum).
#[test]
fn guarantees_hold_through_the_subprocess_backend_at_radius_3() {
    let radius = 3usize;
    for (name, inst) in [
        (
            "grid-4x4-torus",
            grid_instance(
                &GridConfig { side_lengths: vec![4, 4], torus: true, random_weights: false },
                &mut StdRng::seed_from_u64(2008),
            ),
        ),
        ("hypertree-2-2-3", hypertree_instance(2, 2, 3)),
    ] {
        let optimum = solve_maxmin_with(&inst, &SimplexOptions::default()).unwrap();
        let (h, _) = communication_hypergraph(&inst);

        let result = local_averaging(
            &inst,
            &LocalAveragingOptions::new(radius)
                .with_backend(BackendKind::Subprocess { workers: 2 }),
        )
        .unwrap();
        assert!(
            inst.is_feasible(&result.solution, TOL),
            "subprocess-averaged solution infeasible on {name}"
        );
        let achieved = inst.objective(&result.solution).unwrap();
        assert!(achieved > 0.0, "{name}: subprocess averaging achieved 0 at R={radius}");

        let measured = optimum.objective / achieved;
        let profile = growth_profile(&h, radius);
        let gamma_bound = theorem3_ratio(profile.gamma[radius - 1], profile.gamma[radius]);
        assert!(
            result.guaranteed_ratio <= gamma_bound + 1e-9,
            "{name}: a-posteriori {} exceeds γ(R−1)γ(R) = {gamma_bound}",
            result.guaranteed_ratio
        );
        assert!(
            measured <= gamma_bound + 1e-6,
            "{name}: measured ratio {measured} exceeds the Theorem 3 bound {gamma_bound}"
        );

        // And the same exact optimum respects the safe algorithm's Δ_I^V
        // bound — both paper guarantees asserted across the boundary.
        let safe = safe_algorithm(&inst);
        let safe_achieved = inst.objective(&safe).unwrap();
        let delta = safe_upper_bound(inst.degree_bounds().max_resource_support);
        assert!(
            optimum.objective <= delta * safe_achieved + TOL,
            "{name}: ω* = {} exceeds Δ_I^V · ω_safe = {delta} · {safe_achieved}",
            optimum.objective
        );

        // The exact same run on the sequential backend is bit-identical —
        // the transport provably did not move the numbers.
        let local = local_averaging(
            &inst,
            &LocalAveragingOptions::new(radius).with_backend(BackendKind::Sequential),
        )
        .unwrap();
        assert_eq!(result.solution, local.solution, "{name}: transport changed the solution");
        assert_eq!(result.guaranteed_ratio, local.guaranteed_ratio);
    }
}

#[test]
fn exact_optimum_dominates_every_algorithm() {
    for (name, inst) in small_instances() {
        let optimum = solve_maxmin_with(&inst, &SimplexOptions::default()).unwrap();
        assert!(inst.is_feasible(&optimum.solution, TOL), "optimum infeasible on {name}");
        for (algo, solution) in [
            ("safe", safe_algorithm(&inst)),
            ("uniform", uniform_baseline(&inst)),
            ("averaging", local_averaging(&inst, &LocalAveragingOptions::new(1)).unwrap().solution),
        ] {
            let achieved = inst.objective(&solution).unwrap();
            assert!(
                achieved <= optimum.objective + TOL,
                "{algo} beat the exact optimum on {name}: {achieved} > {}",
                optimum.objective
            );
        }
    }
}
