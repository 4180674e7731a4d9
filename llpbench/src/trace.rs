//! Tracing from outside the program: a [`SolveBackend`] wrapper that records
//! one span per stage call it forwards.
//!
//! The engine ([`solve_local_lps_on`], [`solve_local_lps_incremental_on`])
//! and the simulator ([`Simulator::run_epoch_on`]) submit every pipeline
//! stage through the backend they are handed, so wrapping that backend sees
//! each layer boundary without any change to the program.  Spans are kept in
//! memory; the benchmark aggregates them and writes them out once, after the
//! timed work.
//!
//! [`solve_local_lps_on`]: maxmin_local_lp::algorithms::solve_local_lps_on
//! [`solve_local_lps_incremental_on`]: maxmin_local_lp::algorithms::solve_local_lps_incremental_on
//! [`Simulator::run_epoch_on`]: maxmin_local_lp::distsim::Simulator::run_epoch_on

use maxmin_local_lp::parallel::{
    RecoveryLog, Shard, SolveBackend, StageRun, TransportError, WireStage,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One forwarded stage call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The stage id (`mmlp/<stage>@<n>`) or the closure stage's label.
    pub stage: &'static str,
    /// The trait method the span was recorded in.
    pub call: &'static str,
    pub start: Instant,
    pub wall: Duration,
    /// Encoded context bytes of this call (0 unless bytes are counted).
    pub context_bytes: usize,
    /// Encoded job bytes of every shard of this call (0 unless counted).
    pub job_bytes: usize,
}

/// A backend that forwards every call to `inner` and records a [`Span`]
/// per call.
///
/// All three stage methods are forwarded explicitly: the trait's default
/// `execute_stage_recoverable` would route the loopback's recoverable
/// driver path through plain `execute_stage` and measure a different
/// protocol than the one untraced runs use.
pub struct Traced<'a, B> {
    inner: &'a B,
    /// Whether to encode each stage's context and jobs after the call to
    /// count wire bytes (only meaningful for transport backends).
    count_bytes: bool,
    spans: Mutex<Vec<Span>>,
}

impl<'a, B: SolveBackend> Traced<'a, B> {
    pub fn new(inner: &'a B, count_bytes: bool) -> Self {
        Self { inner, count_bytes, spans: Mutex::new(Vec::new()) }
    }

    /// Removes and returns the spans recorded so far, in call order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log lock poisoned"))
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span log lock poisoned").push(span);
    }

    /// Runs `call`, then — outside the timed interval — counts the stage's
    /// encoded bytes on the plan the inner backend used.
    fn stage<S: WireStage, R>(
        &self,
        kind: &'static str,
        items: usize,
        stage: &S,
        call: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = call();
        let wall = start.elapsed();
        let (mut context_bytes, mut job_bytes) = (0, 0);
        if self.count_bytes {
            let mut buf = Vec::new();
            stage.encode_context(&mut buf);
            context_bytes = buf.len();
            for shard in self.inner.plan(items) {
                buf.clear();
                stage.encode_job(&shard, &mut buf);
                job_bytes += buf.len();
            }
        }
        self.record(Span {
            stage: stage.stage_id(),
            call: kind,
            start,
            wall,
            context_bytes,
            job_bytes,
        });
        out
    }
}

impl<B: SolveBackend> SolveBackend for Traced<'_, B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&self, items: usize) -> Vec<Shard> {
        self.inner.plan(items)
    }

    fn execute<R, F>(&self, stage: &'static str, items: usize, f: F) -> StageRun<R>
    where
        R: Send,
        F: Fn(&Shard) -> R + Sync,
    {
        let start = Instant::now();
        let out = self.inner.execute(stage, items, f);
        let wall = start.elapsed();
        self.record(Span { stage, call: "execute", start, wall, context_bytes: 0, job_bytes: 0 });
        out
    }

    fn execute_stage<S: WireStage>(
        &self,
        items: usize,
        stage: &S,
    ) -> Result<StageRun<S::Output>, TransportError> {
        self.stage("execute_stage", items, stage, || self.inner.execute_stage(items, stage))
    }

    fn execute_stage_recoverable<S: WireStage>(
        &self,
        items: usize,
        stage: &S,
        recovery: &mut RecoveryLog,
    ) -> Result<StageRun<S::Output>, TransportError> {
        self.stage("execute_stage_recoverable", items, stage, || {
            self.inner.execute_stage_recoverable(items, stage, recovery)
        })
    }
}

/// Total wall of the spans of one stage id.
pub fn stage_ms(spans: &[Span], stage: &str) -> f64 {
    spans.iter().filter(|s| s.stage == stage).map(|s| ms(s.wall)).sum()
}

/// Total wall of all spans.
pub fn total_ms(spans: &[Span]) -> f64 {
    spans.iter().map(|s| ms(s.wall)).sum()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Every span of a run, tagged with the op and backend it belongs to, for
/// the one write at the end of the run.
#[derive(Default)]
pub struct SpanLog {
    rows: Vec<(usize, &'static str, Span)>,
}

impl SpanLog {
    pub fn extend(&mut self, op: usize, backend: &'static str, spans: &[Span]) {
        self.rows.extend(spans.iter().map(|s| (op, backend, s.clone())));
    }

    /// Writes the spans as tab-separated rows (times in microseconds from
    /// the first span).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let Some(epoch) = self.rows.iter().map(|(_, _, s)| s.start).min() else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tbackend\tcall\tstage\tstart_us\twall_us\tcontext_bytes\tjob_bytes")?;
        for (op, backend, s) in &self.rows {
            writeln!(
                out,
                "{op}\t{backend}\t{}\t{}\t{:.1}\t{:.1}\t{}\t{}",
                s.call,
                s.stage,
                (s.start - epoch).as_secs_f64() * 1e6,
                s.wall.as_secs_f64() * 1e6,
                s.context_bytes,
                s.job_bytes
            )?;
        }
        out.flush()
    }
}
