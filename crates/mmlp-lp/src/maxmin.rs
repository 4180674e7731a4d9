//! Reformulation of a max-min LP as an ordinary LP and its exact solution.
//!
//! Section 1.3 of the paper: introduce the auxiliary variable `ω` and solve
//!
//! ```text
//! maximise ω
//! subject to  A x ≤ 1
//!             ω·1 − C x ≤ 0
//!             x ≥ 0, ω ≥ 0
//! ```
//!
//! (`ω ≥ 0` is without loss of generality because all coefficients are
//! non-negative, so `x = 0, ω = 0` is always feasible.)  The optimum of this
//! LP is the global optimum `ω*` that local algorithms are compared against.

use crate::problem::{LpConstraint, LpError, LpProblem, ObjectiveSense};
use crate::simplex::{solve_with, LpStatus, SimplexOptions};
use mmlp_core::{MaxMinInstance, Solution};

/// The exact optimum of a max-min LP, produced by the centralised simplex
/// baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxMinOptimum {
    /// An optimal activity vector `x*`.
    pub solution: Solution,
    /// The optimal objective value `ω* = min_k Σ_v c_kv x*_v`.
    pub objective: f64,
    /// Number of simplex iterations used.
    pub pivots: usize,
}

/// Builds the LP reformulation of `instance`.
///
/// Variable layout: `x_v` for `v = 0..num_agents`, then `ω` as the last
/// variable.
pub fn build_maxmin_lp(instance: &MaxMinInstance) -> LpProblem {
    let n = instance.num_agents();
    let omega = n;
    let mut p = LpProblem::new(n + 1, ObjectiveSense::Maximize);
    p.set_objective(omega, 1.0);
    for i in instance.resource_ids() {
        let coeffs: Vec<(usize, f64)> =
            instance.resource(i).agents.iter().map(|(v, a)| (v.index(), *a)).collect();
        p.add_constraint(LpConstraint::le(coeffs, 1.0));
    }
    for k in instance.party_ids() {
        let mut coeffs: Vec<(usize, f64)> =
            instance.party(k).agents.iter().map(|(v, c)| (v.index(), -*c)).collect();
        coeffs.push((omega, 1.0));
        p.add_constraint(LpConstraint::le(coeffs, 0.0));
    }
    p
}

/// Solves `instance` exactly with the default simplex options.
pub fn solve_maxmin(instance: &MaxMinInstance) -> Result<MaxMinOptimum, LpError> {
    solve_maxmin_with(instance, &SimplexOptions::default())
}

/// Solves `instance` exactly with explicit simplex options.
///
/// The simplex is deterministic, so the returned activity vector is a
/// function of `(instance, options)` alone: solving the same LP twice —
/// in another process, or on another backend — gives the same bits.
pub fn solve_maxmin_with(
    instance: &MaxMinInstance,
    options: &SimplexOptions,
) -> Result<MaxMinOptimum, LpError> {
    let sol = solve_with(&build_maxmin_lp(instance), options)?;
    match sol.status {
        LpStatus::Optimal => {}
        // x = 0 is always feasible (all coefficients non-negative) and the
        // objective is bounded by any single resource constraint, so neither
        // of these can occur for a validated instance.
        LpStatus::Infeasible | LpStatus::Unbounded => {
            return Err(LpError::Malformed(format!(
                "max-min reformulation reported {:?} for a validated instance",
                sol.status
            )))
        }
    }
    let n = instance.num_agents();
    let x = Solution::new(sol.x[..n].to_vec());
    // Recompute ω from the activities rather than trusting the LP variable:
    // they agree at the optimum, but the recomputation is what the rest of
    // the code treats as ground truth.
    let objective = instance.objective(&x).map_err(|e| LpError::Malformed(e.to_string()))?;
    Ok(MaxMinOptimum { solution: x, objective, pivots: sol.pivots })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlp_core::InstanceBuilder;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    /// One agent, one resource (a_iv = 2), one party (c_kv = 3):
    /// x ≤ 1/2, ω* = 3/2.
    #[test]
    fn single_agent_instance() {
        let mut b = InstanceBuilder::new();
        let v = b.add_agent();
        let i = b.add_resource();
        let k = b.add_party();
        b.set_consumption(i, v, 2.0);
        b.set_benefit(k, v, 3.0);
        let inst = b.build().unwrap();
        let opt = solve_maxmin(&inst).unwrap();
        assert_close(opt.objective, 1.5, 1e-7);
        assert_close(opt.solution.activity(v), 0.5, 1e-7);
        assert!(inst.is_feasible(&opt.solution, 1e-7));
    }

    /// Two agents sharing one unit resource, each serving its own party with
    /// unit benefit: the fair split x = (1/2, 1/2) gives ω* = 1/2.
    #[test]
    fn fair_split_between_two_parties() {
        let mut b = InstanceBuilder::new();
        let v = b.add_agents(2);
        let i = b.add_resource();
        let k0 = b.add_party();
        let k1 = b.add_party();
        b.set_consumption(i, v[0], 1.0);
        b.set_consumption(i, v[1], 1.0);
        b.set_benefit(k0, v[0], 1.0);
        b.set_benefit(k1, v[1], 1.0);
        let inst = b.build().unwrap();
        let opt = solve_maxmin(&inst).unwrap();
        assert_close(opt.objective, 0.5, 1e-7);
        assert_close(opt.solution.activity(v[0]), 0.5, 1e-7);
        assert_close(opt.solution.activity(v[1]), 0.5, 1e-7);
    }

    /// Asymmetric benefits: party 0 is served only by the "weak" agent, so the
    /// optimum shifts capacity towards it.
    ///
    /// max min(x0, 3·x1) with x0 + x1 ≤ 1 → x0 = 3/4, x1 = 1/4, ω* = 3/4.
    #[test]
    fn asymmetric_benefits() {
        let mut b = InstanceBuilder::new();
        let v = b.add_agents(2);
        let i = b.add_resource();
        let k0 = b.add_party();
        let k1 = b.add_party();
        b.set_consumption(i, v[0], 1.0);
        b.set_consumption(i, v[1], 1.0);
        b.set_benefit(k0, v[0], 1.0);
        b.set_benefit(k1, v[1], 3.0);
        let inst = b.build().unwrap();
        let opt = solve_maxmin(&inst).unwrap();
        assert_close(opt.objective, 0.75, 1e-7);
        assert_close(opt.solution.activity(v[0]), 0.75, 1e-7);
        assert_close(opt.solution.activity(v[1]), 0.25, 1e-7);
    }

    /// The packing-LP special case |K| = 1: max Σ x_v subject to the
    /// constraints; here a single resource shared by 3 agents gives ω* = 1.
    #[test]
    fn packing_special_case() {
        let mut b = InstanceBuilder::new();
        let v = b.add_agents(3);
        let i = b.add_resource();
        let k = b.add_party();
        for &vv in &v {
            b.set_consumption(i, vv, 1.0);
            b.set_benefit(k, vv, 1.0);
        }
        let inst = b.build().unwrap();
        let opt = solve_maxmin(&inst).unwrap();
        assert_close(opt.objective, 1.0, 1e-7);
    }

    /// A chain where the middle agent is shared: the LP must trade off its two
    /// resources.  Instance: agents v0, v1; resources i0 ∋ {v0, v1}, i1 ∋ {v1};
    /// parties k0 ← v0, k1 ← v1.  ω* = 1/2 again but through two constraints.
    #[test]
    fn chain_with_extra_resource() {
        let mut b = InstanceBuilder::new();
        let v = b.add_agents(2);
        let i0 = b.add_resource();
        let i1 = b.add_resource();
        let k0 = b.add_party();
        let k1 = b.add_party();
        b.set_consumption(i0, v[0], 1.0);
        b.set_consumption(i0, v[1], 1.0);
        b.set_consumption(i1, v[1], 1.0);
        b.set_benefit(k0, v[0], 1.0);
        b.set_benefit(k1, v[1], 1.0);
        let inst = b.build().unwrap();
        let opt = solve_maxmin(&inst).unwrap();
        assert_close(opt.objective, 0.5, 1e-7);
        assert!(inst.is_feasible(&opt.solution, 1e-7));
    }

    #[test]
    fn lp_layout_matches_instance() {
        let mut b = InstanceBuilder::new();
        let v = b.add_agents(2);
        let i = b.add_resource();
        let k = b.add_party();
        b.set_consumption(i, v[0], 1.0);
        b.set_consumption(i, v[1], 2.0);
        b.set_benefit(k, v[0], 3.0);
        let inst = b.build().unwrap();
        let lp = build_maxmin_lp(&inst);
        assert_eq!(lp.num_vars, 3); // x0, x1, ω
        assert_eq!(lp.num_constraints(), 2); // one resource + one party
        assert_eq!(lp.objective, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn optimum_dominates_every_feasible_point_we_try() {
        // ω* must be at least the objective of the uniform feasible solution.
        let mut b = InstanceBuilder::new();
        let v = b.add_agents(4);
        let k = b.add_party_with(&[(v[0], 1.0), (v[2], 1.0)]);
        let k2 = b.add_party_with(&[(v[1], 1.0), (v[3], 2.0)]);
        for &vv in &v {
            let i = b.add_resource();
            b.set_consumption(i, vv, 1.0);
        }
        let i_shared = b.add_resource();
        b.set_consumption(i_shared, v[0], 0.5);
        b.set_consumption(i_shared, v[3], 0.5);
        let _ = (k, k2);
        let inst = b.build().unwrap();
        let opt = solve_maxmin(&inst).unwrap();
        let uniform = Solution::constant(4, 0.5);
        assert!(inst.is_feasible(&uniform, 1e-9));
        assert!(opt.objective >= inst.objective(&uniform).unwrap() - 1e-9);
    }
}
