//! A self-contained linear-programming substrate for max-min LPs.
//!
//! The algorithms in the paper need exact optima of two kinds of linear
//! programs:
//!
//! * the **global baseline** — the max-min LP itself, rewritten in the usual
//!   way as `maximise ω` subject to `Ax ≤ 1`, `ω·1 − Cx ≤ 0`, `x ≥ 0`
//!   (Section 1.3);
//! * the **local LPs** (9) solved inside every radius-`R` ball by the local
//!   averaging algorithm of Theorem 3.
//!
//! Both are small, dense and non-degenerate in the paper's setting, so a
//! classical two-phase primal simplex on a dense tableau is entirely adequate
//! and keeps the repository free of external solver dependencies.
//!
//! The crate exposes a small general-purpose LP interface ([`LpProblem`],
//! [`solve`]) plus the max-min-specific reformulation ([`maxmin`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interval;
pub mod maxmin;
pub mod problem;
pub mod simplex;

pub use interval::CertifiedInterval;
pub use maxmin::{build_maxmin_lp, solve_maxmin, solve_maxmin_with, MaxMinOptimum};
pub use problem::{ConstraintOp, LpConstraint, LpError, LpProblem, ObjectiveSense};
pub use simplex::{solve, solve_with, LpSolution, LpStatus, SimplexOptions};
