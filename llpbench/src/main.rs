//! `llpbench` — the end-to-end and per-layer benchmark of the local-LP stack.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path llpbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets up the workload from the seed, measures closed-loop ops for
//! `--seconds`, checks every output against a reference, and prints one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`.  See `llpbench/README.md` for the workloads,
//! the metric definitions and the layer-to-metric map.

mod distsim;
mod grid;
mod service;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The end-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by every traced run (zero where a layer
/// is not on the workload's path).
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.present_ms", "ms"),
    ("engine.canonicalise_ms", "ms"),
    ("engine.solve_ms", "ms"),
    ("engine.scatter_ms", "ms"),
    ("engine.present_delta_ms", "ms"),
    ("engine.classes", "count"),
    ("engine.lp_solves", "count"),
    ("engine.pivots", "count"),
    ("engine.dedup_ratio", "ratio"),
    ("la.assemble_ms", "ms"),
    ("wire.context_bytes", "bytes"),
    ("wire.job_bytes", "bytes"),
    ("wire.overhead_ms.present", "ms"),
    ("wire.overhead_ms.canonicalise", "ms"),
    ("wire.overhead_ms.solve", "ms"),
    ("wire.overhead_ms.scatter", "ms"),
    ("wire.overhead_ms.present-delta", "ms"),
    ("wire.overhead_ms.sim-epoch", "ms"),
    ("incr.affected_agents", "count"),
    ("incr.resolve_wire_bytes", "bytes"),
    ("service.queue_wait_ms", "ms"),
    ("service.cache_hits", "count"),
    ("service.rejected", "count"),
    ("distsim.gather_ms", "ms"),
    ("distsim.decide_ms", "ms"),
    ("distsim.rounds", "count"),
    ("distsim.messages", "count"),
    ("distsim.message_units", "count"),
    ("error_rate", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

const WORKLOADS: &[&str] = &["grid-symmetric", "grid-weighted", "service-mixed", "distsim-la"];

/// How many times a run repeats its set-up; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Counts attempted and failed ops; a failure is a typed error, a refused
/// request or an output that fails its check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("llpbench: {what} failed: {e}");
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What a workload run measured: the metric values by name, plus its tally.
pub struct Measured {
    pub tally: Tally,
    pub values: BTreeMap<&'static str, f64>,
}

/// The tail percentile a run can support: the highest one up to p95 that
/// leaves at least ten samples beyond it, floored at the median.  With 200
/// or more samples this is p95.
pub fn tail_quantile(samples: usize) -> f64 {
    (1.0 - 10.0 / samples.max(1) as f64).clamp(0.5, 0.95)
}

/// Nearest-rank percentile of unsorted samples (`q` in `0..=1`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, timing each, and keeps the last
/// state.  Returns the state and the median set-up time in seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let clock = Instant::now();
        state = Some(setup());
        times.push(clock.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), median(&times))
}

/// Latencies of a closed loop's ops and the loop's wall time.
#[derive(Default)]
pub struct Latencies {
    pub ms: Vec<f64>,
    pub wall: Duration,
}

impl Latencies {
    /// Runs `op` back to back until `seconds` have passed (the op in flight
    /// at the deadline completes and counts).  `op` returns the time of the
    /// op proper, without its output check.
    pub fn closed_loop(seconds: f64, mut op: impl FnMut() -> Duration) -> Self {
        let deadline = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let mut ms = Vec::new();
        while start.elapsed() < deadline {
            ms.push(trace::ms(op()));
        }
        Self { ms, wall: start.elapsed() }
    }

    /// The end-to-end metrics of these ops.
    pub fn end_to_end(
        &self,
        setup_s: f64,
        tally: &Tally,
        values: &mut BTreeMap<&'static str, f64>,
    ) {
        values.insert("setup_s", setup_s);
        values.insert("op_p50_ms", median(&self.ms));
        let tail = tail_quantile(self.ms.len());
        values.insert("op_p95_ms", percentile(&self.ms, tail));
        values.insert("ops_per_s", self.ms.len() as f64 / self.wall.as_secs_f64());
        values.insert("success_rate", 1.0 - tally.error_rate());
        values.insert("peak_rss_mb", peak_rss_mb());
        eprintln!(
            "llpbench: {} ops in {:.2} s; op_p95_ms is the nearest-rank p{:.1} of {} samples",
            self.ms.len(),
            self.wall.as_secs_f64(),
            tail * 100.0,
            self.ms.len()
        );
    }
}

/// Writes a traced run's spans once, after its timed work, to
/// `llpbench/traces/<workload>-seed<seed>.tsv` under the working directory.
pub fn write_spans(args: &Args, log: &trace::SpanLog) {
    let path = std::path::Path::new("llpbench/traces")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match log.write(&path) {
        Ok(()) => eprintln!("llpbench: spans written to {}", path.display()),
        Err(e) => eprintln!("llpbench: could not write {}: {e}", path.display()),
    }
}

/// The `ru_maxrss` field of `getrusage(2)`: Linux's `struct rusage` starts
/// with two `struct timeval`s (two `long`s each) followed by `ru_maxrss`
/// and thirteen more `long` counters.
#[repr(C)]
struct RUsage {
    utime: [std::ffi::c_long; 2],
    stime: [std::ffi::c_long; 2],
    maxrss: std::ffi::c_long,
    rest: [std::ffi::c_long; 13],
}

extern "C" {
    fn getrusage(who: std::ffi::c_int, usage: *mut RUsage) -> std::ffi::c_int;
}

/// Peak resident set size of this process, in MiB (Linux reports KiB).
pub fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: std::ffi::c_int = 0;
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the
    // C library defines on Linux, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss as f64 / 1024.0
}

/// Formats a metric value as JSON with all its digits.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v:?}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("llpbench: {e}");
            eprintln!(
                "usage: llpbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let measured = match args.workload.as_str() {
        "grid-symmetric" => grid::run(grid::SYMMETRIC, &args),
        "grid-weighted" => grid::run(grid::WEIGHTED, &args),
        "service-mixed" => service::run(&args),
        "distsim-la" => distsim::run(&args),
        other => unreachable!("workload {other} was validated"),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let unexpected: Vec<_> = measured
        .values
        .keys()
        .filter(|k| !table.iter().any(|(n, _)| n == *k))
        .collect();
    assert!(unexpected.is_empty(), "metrics outside the table: {unexpected:?}");
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = measured.values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measured.tally.failed == 0 && measured.tally.attempted > 0,
        measured.tally.attempted,
        measured.tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
