//! Shared helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one of the figure/table-like claims
//! of the paper (see `DESIGN.md` §5 and `EXPERIMENTS.md` for the index):
//!
//! | binary | experiment |
//! |---|---|
//! | `e1_safe_ratio` | safe algorithm ratio vs. `Δ_I^V` (Section 4, eq. (2)) |
//! | `e2_lower_bound` | Theorem 1 construction (Figure 1) |
//! | `e3_corollary2` | Corollary 2 (`D = 1`, 0/1 coefficients) |
//! | `e4_growth_scheme` | Theorem 3 / Figure 2: growth-bounded approximation scheme |
//! | `e5_sensor_network` | Section 2 sensor-network application |
//! | `e6_scalability` | Section 1.1 constant-per-node scalability claim |
//! | `e7_batched_engine` | batched local-LP engine: dedup stats, per-stage wall-clock, naive mode |
//! | `e8_sharded_backend` | solve backends compared: shard counts, per-shard stats, wall-clock |
//!
//! Besides their human-readable tables, `e7` and `e8` write a machine-
//! readable `BENCH_*.json` summary (see [`report`]) so the performance
//! trajectory is tracked across PRs.

#![forbid(unsafe_code)]

pub mod report;

/// Prints a row of fixed-width columns (the experiments' tabular output).
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        line.push_str(&format!("{:>width$}  ", cell, width = width));
    }
    println!("{}", line.trim_end());
}

/// Formats a float with a fixed number of decimals, or `"inf"`.
pub fn fmt(value: f64, decimals: usize) -> String {
    if value.is_finite() {
        format!("{value:.decimals$}")
    } else {
        "inf".to_string()
    }
}

/// A banner separating experiment sections in the output.
pub fn banner(title: &str) {
    println!("\n==== {title} ====");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.23456, 3), "1.235");
        assert_eq!(fmt(f64::INFINITY, 2), "inf");
        // Smoke: the printing helpers must not panic.
        banner("test");
        print_row(&["a".into(), "b".into()], &[4, 8]);
    }
}
