//! Transport endpoints for out-of-process shard execution.
//!
//! The paper's LOCAL model is message-passing: a node computes from the
//! bytes it received, never from shared memory.  This module provides the
//! endpoints that make the [`SolveBackend`](crate::SolveBackend) stages
//! honour that boundary:
//!
//! * [`StageRegistry`] — the worker-side dispatch table mapping stage
//!   identifiers to pure byte-in/byte-out handlers (the same functions the
//!   in-process backends call, reached through encode→decode instead of a
//!   reference).
//! * [`serve`] / [`serve_stdio`] — the worker loop: read frames, run
//!   handlers, write replies.  A host binary opts in with
//!   [`run_worker_if_requested`], which re-enters the loop when the process
//!   was re-executed with `--mmlp-worker`.
//! * [`WorkerLink`] — one worker endpoint from the driver's point of view:
//!   frames out, frames in.
//! * [`LoopbackLink`] — the in-memory worker.  Every frame is *actually
//!   encoded to bytes and decoded back*, so the full wire format is
//!   exercised without a process, and a deterministic, seedable
//!   [`FaultPlan`] can truncate, corrupt, reorder, duplicate or drop
//!   replies — every transport failure path is testable without timing or
//!   flakiness.
//! * [`SubprocessLink`] / [`spawn_worker`] — a real worker process speaking
//!   the protocol over its stdio, plus the [`probe_worker`] capability check
//!   that lets sandboxes without fork/exec fall back to the loopback.

use crate::wire::{read_frame, write_frame, ByteReader, Frame, FrameKind, WireError, WIRE_VERSION};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Errors of the transport layer: wire failures plus process-level ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A framing or payload decoding failure.
    Wire(WireError),
    /// The worker process (or its in-memory stand-in) could not be started.
    SpawnFailed {
        /// Description of the command that failed to spawn.
        command: String,
        /// The underlying error.
        message: String,
    },
    /// The spawned process did not complete the `Hello` handshake.
    HandshakeFailed {
        /// What went wrong.
        message: String,
    },
    /// The worker stopped responding (process exit, closed pipe, or an
    /// injected death).  Recoverable: the driver respawns and resends.
    WorkerDied {
        /// Driver-side worker index.
        worker: usize,
        /// What was observed.
        message: String,
    },
    /// The worker reported a handler failure for one job.
    Worker {
        /// Sequence number of the failed job.
        seq: u64,
        /// The handler's error message.
        message: String,
    },
    /// A job named a stage the worker's registry does not know.
    UnknownStage {
        /// The unknown stage identifier.
        stage: String,
    },
    /// The worker sent a frame kind the driver did not expect.
    UnexpectedFrame {
        /// Name of the offending frame kind.
        kind: &'static str,
    },
    /// A reply arrived for a sequence number never dispatched to that
    /// worker.
    UnexpectedReply {
        /// The offending sequence number.
        seq: u64,
    },
    /// A worker kept dying: the retry budget is exhausted.
    RetriesExhausted {
        /// Driver-side worker index.
        worker: usize,
        /// Number of spawn attempts made.
        attempts: usize,
        /// The last failure, rendered.
        last: String,
    },
    /// The requested transport is not available on this platform and no
    /// fallback was configured.
    Unsupported {
        /// Why.
        message: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Wire(e) => write!(f, "{e}"),
            TransportError::SpawnFailed { command, message } => {
                write!(f, "failed to spawn worker `{command}`: {message}")
            }
            TransportError::HandshakeFailed { message } => {
                write!(f, "worker handshake failed: {message}")
            }
            TransportError::WorkerDied { worker, message } => {
                write!(f, "worker {worker} died: {message}")
            }
            TransportError::Worker { seq, message } => {
                write!(f, "worker failed job {seq}: {message}")
            }
            TransportError::UnknownStage { stage } => {
                write!(f, "worker does not know stage `{stage}`")
            }
            TransportError::UnexpectedFrame { kind } => {
                write!(f, "unexpected {kind} frame from worker")
            }
            TransportError::UnexpectedReply { seq } => {
                write!(f, "reply for job {seq} that was never dispatched")
            }
            TransportError::RetriesExhausted { worker, attempts, last } => {
                write!(f, "worker {worker} kept failing after {attempts} attempts: {last}")
            }
            TransportError::Unsupported { message } => {
                write!(f, "transport unavailable: {message}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

// ---------------------------------------------------------------------------
// The worker-side stage registry and serve loop.
// ---------------------------------------------------------------------------

/// A worker-side stage implementation: bytes in (stage context, job), bytes
/// out, plus a [`StageCache`] slot for state derived from the context.
/// Plain function pointers by design — a registry describes *code*, and
/// code is what both sides of the wire share.
pub type StageHandler = fn(&[u8], &[u8], &mut StageCache) -> Result<Vec<u8>, String>;

/// A worker-side memo slot for state a handler derives from its stage
/// context (a decoded instance, a neighbour cache, a solutions table).
///
/// The worker keeps one cache per stage and clears it only when a `Context`
/// frame with *different bytes* arrives, so a handler decodes its context
/// once per context — not once per job, and not even once per stage run
/// when a pooled worker sees the same context again.
///
/// Beyond the memo slot, the cache is the worker-side mailbox of the
/// checkpoint/restore protocol (see `docs/wire-protocol.md`): `Restore`
/// frame payloads are queued here by the serve loop and drained by the
/// handler before its next job ([`take_restores`](Self::take_restores)),
/// and a handler deposits a snapshot
/// ([`deposit_checkpoint`](Self::deposit_checkpoint)) for the serve loop to
/// ship back as a `Checkpoint` frame immediately before the job's reply.
#[derive(Default)]
pub struct StageCache {
    slot: Option<Box<dyn std::any::Any + Send>>,
    /// Pending `Restore` payloads (snapshot bytes, stage id stripped),
    /// oldest first.
    restores: VecDeque<Vec<u8>>,
    /// A snapshot the handler deposited while answering the current job.
    checkpoint: Option<Vec<u8>>,
}

impl fmt::Debug for StageCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageCache").field("filled", &self.slot.is_some()).finish()
    }
}

impl StageCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached `T`, building it with `build` on the first call
    /// (or when the slot holds a different type).
    ///
    /// # Errors
    ///
    /// Whatever `build` reports; the slot stays empty in that case.
    pub fn get_or_try_insert_with<T, F>(&mut self, build: F) -> Result<&mut T, String>
    where
        T: std::any::Any + Send,
        F: FnOnce() -> Result<T, String>,
    {
        if !self.slot.as_ref().is_some_and(|slot| slot.is::<T>()) {
            self.slot = Some(Box::new(build()?));
        }
        Ok(self
            .slot
            .as_mut()
            .expect("slot was just filled")
            .downcast_mut::<T>()
            .expect("slot holds a T"))
    }

    /// Queues one `Restore` snapshot for the stage's handler to install.
    pub fn push_restore(&mut self, snapshot: Vec<u8>) {
        self.restores.push_back(snapshot);
    }

    /// Drains the pending `Restore` snapshots, oldest first.  A resident
    /// stage handler calls this at the top of every job and installs each
    /// snapshot before acting on the job itself.
    pub fn take_restores(&mut self) -> Vec<Vec<u8>> {
        self.restores.drain(..).collect()
    }

    /// Deposits a state snapshot for the current job.  The serve loop ships
    /// it as a `Checkpoint` frame (same sequence number as the job)
    /// immediately *before* the job's reply.
    pub fn deposit_checkpoint(&mut self, snapshot: Vec<u8>) {
        self.checkpoint = Some(snapshot);
    }

    /// Takes the snapshot deposited while answering the current job, if any.
    pub fn take_checkpoint(&mut self) -> Option<Vec<u8>> {
        self.checkpoint.take()
    }
}

/// The worker's dispatch table from stage identifiers to handlers.
///
/// Stage identifiers carry their payload version as an `@<n>` suffix (see
/// the [`wire`](crate::wire) module docs), so a payload layout change makes
/// an old worker answer `UnknownStage` instead of misreading bytes.
#[derive(Default, Clone)]
pub struct StageRegistry {
    handlers: BTreeMap<&'static str, StageHandler>,
}

impl fmt::Debug for StageRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageRegistry")
            .field("stages", &self.handlers.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl StageRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a handler for a stage identifier (replacing any previous
    /// one).
    pub fn register(&mut self, stage: &'static str, handler: StageHandler) -> &mut Self {
        self.handlers.insert(stage, handler);
        self
    }

    /// The registered stage identifiers, sorted.
    pub fn stages(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.handlers.keys().copied()
    }

    /// A process-local content fingerprint: two registries fingerprint
    /// equally iff they map the same stage identifiers to the same handler
    /// functions, making them interchangeable.  Used to key the
    /// process-wide subprocess-backend pool
    /// ([`pooled_subprocess_backend`](crate::pooled_subprocess_backend)),
    /// so callers that build a fresh (but identical) registry per call
    /// still share one worker pool.  Handler identity is the function's
    /// address, so the fingerprint is only meaningful within one process —
    /// exactly the pool's scope.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over (stage id, handler address) pairs, in the map's
        // deterministic sorted order.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (stage, handler) in &self.handlers {
            for b in stage.bytes() {
                mix(b);
            }
            mix(0);
            for b in (*handler as usize).to_le_bytes() {
                mix(b);
            }
        }
        hash
    }

    /// Runs the handler for `stage`.
    pub fn dispatch(
        &self,
        stage: &str,
        ctx: &[u8],
        job: &[u8],
        cache: &mut StageCache,
    ) -> Result<Vec<u8>, TransportError> {
        match self.handlers.get(stage) {
            Some(handler) => handler(ctx, job, cache)
                .map_err(|message| TransportError::Worker { seq: 0, message }),
            None => Err(TransportError::UnknownStage { stage: stage.to_string() }),
        }
    }
}

/// Runs one job frame against the registry, producing the reply frame and —
/// when the handler deposited a snapshot — the `Checkpoint` frame to ship
/// *before* the reply.
///
/// Shared by the process worker loop and the in-memory loopback so both
/// boundaries execute byte-identical logic.  The reply payload is the
/// worker-side wall-clock in nanoseconds followed by the handler output.
fn answer_job(
    registry: &StageRegistry,
    contexts: &mut HashMap<String, (Vec<u8>, StageCache)>,
    frame: &Frame,
) -> (Frame, Option<Frame>) {
    let mut reader = ByteReader::new(&frame.payload);
    let stage = match reader.str("job stage id") {
        Ok(s) => s,
        Err(e) => {
            let reply = Frame {
                kind: FrameKind::WorkerError,
                seq: frame.seq,
                payload: format!("malformed job frame: {e}").into_bytes(),
            };
            return (reply, None);
        }
    };
    let job = reader.rest();
    let mut transient = (Vec::new(), StageCache::new());
    let (ctx, cache) = match contexts.get_mut(stage) {
        Some((ctx, cache)) => (ctx.as_slice(), cache),
        None => (transient.0.as_slice(), &mut transient.1),
    };
    let clock = Instant::now();
    let reply = match registry.dispatch(stage, ctx, job, cache) {
        Ok(output) => {
            let mut payload = Vec::with_capacity(8 + output.len());
            crate::wire::put_u64(&mut payload, clock.elapsed().as_nanos() as u64);
            payload.extend_from_slice(&output);
            Frame { kind: FrameKind::Reply, seq: frame.seq, payload }
        }
        Err(e) => {
            // The job's identity is attached by the receiving driver; ship
            // only the bare cause so the message is not double-wrapped.
            let message = match e {
                TransportError::Worker { message, .. } => message,
                other => other.to_string(),
            };
            Frame { kind: FrameKind::WorkerError, seq: frame.seq, payload: message.into_bytes() }
        }
    };
    let checkpoint = cache.take_checkpoint().map(|snapshot| Frame {
        kind: FrameKind::Checkpoint,
        seq: frame.seq,
        payload: snapshot,
    });
    (reply, checkpoint)
}

/// Queues a `Restore` frame's snapshot into the named stage's cache.
///
/// The snapshot is installed by the stage handler itself on its next job
/// (via [`StageCache::take_restores`]); the serve loop only routes bytes.
/// A restore may precede the stage's first job on a fresh worker, so a
/// missing context entry is created empty here — the driver always sends
/// `Context` before `Restore`, making that path unreachable in practice.
fn offer_restore(
    contexts: &mut HashMap<String, (Vec<u8>, StageCache)>,
    frame: &Frame,
) -> Result<(), WireError> {
    let mut reader = ByteReader::new(&frame.payload);
    let stage = reader.str("restore stage id")?;
    let snapshot = reader.rest().to_vec();
    contexts
        .entry(stage.to_string())
        .or_insert_with(|| (Vec::new(), StageCache::new()))
        .1
        .push_restore(snapshot);
    Ok(())
}

/// Stores a `Context` frame's payload under its stage identifier.
///
/// Re-sending *identical* context bytes keeps the stage's derived-state
/// cache; different bytes replace context and cache together.
fn store_context(
    contexts: &mut HashMap<String, (Vec<u8>, StageCache)>,
    frame: &Frame,
) -> Result<(), WireError> {
    let mut reader = ByteReader::new(&frame.payload);
    let stage = reader.str("context stage id")?;
    let bytes = reader.rest();
    match contexts.get_mut(stage) {
        Some((existing, _)) if existing.as_slice() == bytes => {}
        _ => {
            contexts.insert(stage.to_string(), (bytes.to_vec(), StageCache::new()));
        }
    }
    Ok(())
}

/// The worker loop: reads frames from `reader`, dispatches jobs through
/// `registry`, writes replies to `writer`.  Returns on `Shutdown` or a
/// clean end-of-stream.
///
/// # Errors
///
/// Returns the first framing error of the incoming stream; the worker
/// process exits non-zero in that case, which the driver observes as a dead
/// worker.
pub fn serve<R: Read, W: Write>(
    registry: &StageRegistry,
    reader: R,
    writer: W,
) -> Result<(), WireError> {
    let mut reader = BufReader::new(reader);
    let mut writer = BufWriter::new(writer);
    let mut contexts: HashMap<String, (Vec<u8>, StageCache)> = HashMap::new();
    loop {
        let frame = match read_frame(&mut reader)? {
            None => return Ok(()), // driver closed the pipe
            Some(frame) => frame,
        };
        match frame.kind {
            FrameKind::Hello => {
                write_frame(&mut writer, &Frame::control(FrameKind::Hello))?;
                writer.flush().map_err(|e| WireError::Io(e.to_string()))?;
            }
            FrameKind::Context => store_context(&mut contexts, &frame)?,
            FrameKind::Restore => offer_restore(&mut contexts, &frame)?,
            FrameKind::Job => {
                let (reply, checkpoint) = answer_job(registry, &mut contexts, &frame);
                if let Some(checkpoint) = checkpoint {
                    write_frame(&mut writer, &checkpoint)?;
                }
                write_frame(&mut writer, &reply)?;
                writer.flush().map_err(|e| WireError::Io(e.to_string()))?;
            }
            FrameKind::Shutdown => return Ok(()),
            // A worker never receives replies or checkpoints; tolerate and
            // continue so a confused peer degrades to a protocol error on
            // its own side.
            FrameKind::Reply | FrameKind::WorkerError | FrameKind::Checkpoint => {}
        }
    }
}

/// The command-line flag that switches a binary into worker mode.
pub const WORKER_FLAG: &str = "--mmlp-worker";

/// Environment variable naming an explicit worker binary, consulted first by
/// [`WorkerCommand::auto`].
pub const WORKER_BIN_ENV: &str = "MMLP_WORKER_BIN";

/// Whether this process was started in worker mode (`--mmlp-worker`).
pub fn worker_mode_requested() -> bool {
    std::env::args().any(|a| a == WORKER_FLAG)
}

/// Serves the worker protocol over this process's stdio.
///
/// # Errors
///
/// Returns the first framing error of the incoming stream.
pub fn serve_stdio(registry: &StageRegistry) -> Result<(), WireError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve(registry, stdin.lock(), stdout.lock())
}

/// If this process was re-executed with `--mmlp-worker`, serves the worker
/// protocol over stdio and returns `true` (the caller should exit); returns
/// `false` otherwise.
///
/// Host binaries that want the "re-exec the current binary" worker mode call
/// this first thing in `main`.
pub fn run_worker_if_requested(registry: &StageRegistry) -> bool {
    if !worker_mode_requested() {
        return false;
    }
    if let Err(e) = serve_stdio(registry) {
        eprintln!("mmlp worker: protocol error: {e}");
        std::process::exit(2);
    }
    true
}

// ---------------------------------------------------------------------------
// Worker links: loopback (with fault injection) and subprocess.
// ---------------------------------------------------------------------------

/// One worker endpoint as the driver sees it: frames out, frames in.
///
/// A link's replies arrive in the order the worker produced them, but the
/// driver never relies on that: injected faults may reorder or duplicate
/// replies, and the driver buffers by sequence number.
pub trait WorkerLink: Send {
    /// Ships one frame to the worker.
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError>;

    /// Receives the next frame from the worker (blocking).
    fn recv(&mut self) -> Result<Frame, TransportError>;
}

/// Deterministic, seedable fault injection for [`LoopbackLink`].
///
/// Faults are *scripted*, not timed: a reply is truncated/corrupted/
/// duplicated when its sequence number is listed, the link dies after a
/// fixed number of produced replies, and reordering is a seeded shuffle of
/// the pending reply queue.  Every failure path is therefore reproducible
/// bit for bit — no sleeps, no racing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Replies (by job sequence number) whose encoded frames are cut short.
    pub truncate_replies: Vec<u64>,
    /// Replies whose encoded frames get one payload byte flipped (caught by
    /// the frame CRC).
    pub corrupt_replies: Vec<u64>,
    /// Replies delivered twice.
    pub duplicate_replies: Vec<u64>,
    /// After producing this many replies the link dies: its queue is
    /// dropped and every further call fails with
    /// [`TransportError::WorkerDied`].
    pub die_after_replies: Option<usize>,
    /// When set, the pending reply queue is shuffled (with this seed) after
    /// every produced reply — scripted reply reordering.
    pub reorder_seed: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: a faultless link.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this plan injects nothing.
    pub fn is_none(&self) -> bool {
        self == &Self::default()
    }
}

/// The in-memory worker endpoint.
///
/// Every frame is encoded to bytes and decoded back on both directions, so
/// the wire format is exercised end to end; computation happens
/// synchronously in [`send`](WorkerLink::send) through the same
/// [`StageRegistry`] a process worker would use.  With a [`FaultPlan`] the
/// link doubles as the deterministic failure simulator of the test suites.
pub struct LoopbackLink {
    registry: Arc<StageRegistry>,
    contexts: HashMap<String, (Vec<u8>, StageCache)>,
    /// Encoded reply frames awaiting [`recv`](WorkerLink::recv).
    queue: VecDeque<Vec<u8>>,
    faults: FaultPlan,
    rng: Option<StdRng>,
    replies_produced: usize,
    dead: bool,
    worker: usize,
}

impl fmt::Debug for LoopbackLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoopbackLink")
            .field("worker", &self.worker)
            .field("queued", &self.queue.len())
            .field("dead", &self.dead)
            .finish()
    }
}

impl LoopbackLink {
    /// A faultless loopback worker.
    pub fn new(registry: Arc<StageRegistry>, worker: usize) -> Self {
        Self::with_faults(registry, worker, FaultPlan::none())
    }

    /// A loopback worker with an injected fault plan.
    pub fn with_faults(registry: Arc<StageRegistry>, worker: usize, faults: FaultPlan) -> Self {
        let rng = faults.reorder_seed.map(StdRng::seed_from_u64);
        Self {
            registry,
            contexts: HashMap::new(),
            queue: VecDeque::new(),
            faults,
            rng,
            replies_produced: 0,
            dead: false,
            worker,
        }
    }

    fn push_reply(&mut self, reply: Frame) -> Result<(), TransportError> {
        let seq = reply.seq;
        let mut bytes = crate::wire::encode_frame(&reply)?;
        if self.faults.corrupt_replies.contains(&seq) {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
        }
        if self.faults.truncate_replies.contains(&seq) {
            bytes.truncate(bytes.len() / 2);
        }
        let duplicate = self.faults.duplicate_replies.contains(&seq);
        self.queue.push_back(bytes.clone());
        if duplicate {
            self.queue.push_back(bytes);
        }
        self.replies_produced += 1;
        if let Some(limit) = self.faults.die_after_replies {
            if self.replies_produced >= limit {
                self.dead = true;
                self.queue.clear();
                return Ok(());
            }
        }
        if let Some(rng) = self.rng.as_mut() {
            let mut pending: Vec<Vec<u8>> = self.queue.drain(..).collect();
            pending.shuffle(rng);
            self.queue = pending.into();
        }
        Ok(())
    }
}

impl WorkerLink for LoopbackLink {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        if self.dead {
            return Err(TransportError::WorkerDied {
                worker: self.worker,
                message: "loopback worker was killed by the fault plan".to_string(),
            });
        }
        // Cross the byte boundary: encode, then decode what "arrived".
        let bytes = crate::wire::encode_frame(frame)?;
        let (frame, _) = crate::wire::decode_frame(&bytes)?;
        match frame.kind {
            FrameKind::Hello => self.push_reply(Frame::control(FrameKind::Hello))?,
            FrameKind::Context => store_context(&mut self.contexts, &frame)?,
            FrameKind::Restore => offer_restore(&mut self.contexts, &frame)?,
            FrameKind::Job => {
                let (reply, checkpoint) = answer_job(&self.registry, &mut self.contexts, &frame);
                // The checkpoint ships before the reply and passes through
                // the same fault machinery, so a scripted death can land on
                // the snapshot itself (the "mid-snapshot" recovery phase).
                if let Some(checkpoint) = checkpoint {
                    self.push_reply(checkpoint)?;
                }
                if !self.dead {
                    self.push_reply(reply)?;
                }
            }
            FrameKind::Shutdown => {}
            FrameKind::Reply | FrameKind::WorkerError | FrameKind::Checkpoint => {}
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        match self.queue.pop_front() {
            Some(bytes) => {
                let (frame, _) = crate::wire::decode_frame(&bytes)?;
                Ok(frame)
            }
            None => Err(TransportError::WorkerDied {
                worker: self.worker,
                message: if self.dead {
                    "loopback worker was killed by the fault plan".to_string()
                } else {
                    "loopback worker has no pending reply".to_string()
                },
            }),
        }
    }
}

/// How the driver starts a worker process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerCommand {
    /// Re-execute the current binary with `--mmlp-worker` appended.  The
    /// host's `main` must call [`run_worker_if_requested`] first thing.
    CurrentExe,
    /// Run an explicit worker binary (also passed `--mmlp-worker`).
    Path(PathBuf),
}

impl WorkerCommand {
    /// Resolves the default worker command for this process:
    ///
    /// 1. the binary named by the `MMLP_WORKER_BIN` environment variable;
    /// 2. an `mmlp-worker` binary next to the current executable (test
    ///    binaries live in `target/<profile>/deps/`, so the parent directory
    ///    is searched too);
    /// 3. re-executing the current binary (which only works for hosts that
    ///    call [`run_worker_if_requested`]).
    pub fn auto() -> Self {
        if let Ok(path) = std::env::var(WORKER_BIN_ENV) {
            return WorkerCommand::Path(PathBuf::from(path));
        }
        if let Some(path) = find_sibling_worker() {
            return WorkerCommand::Path(path);
        }
        WorkerCommand::CurrentExe
    }

    /// A human-readable rendering for error messages.
    pub fn describe(&self) -> String {
        match self {
            WorkerCommand::CurrentExe => format!("<current exe> {WORKER_FLAG}"),
            WorkerCommand::Path(p) => format!("{} {WORKER_FLAG}", p.display()),
        }
    }

    fn to_command(&self) -> Result<Command, TransportError> {
        let program = match self {
            WorkerCommand::CurrentExe => std::env::current_exe().map_err(|e| {
                TransportError::SpawnFailed { command: self.describe(), message: e.to_string() }
            })?,
            WorkerCommand::Path(p) => p.clone(),
        };
        let mut cmd = Command::new(program);
        cmd.arg(WORKER_FLAG);
        Ok(cmd)
    }
}

/// Looks for the dedicated `mmlp-worker` binary near the current executable.
fn find_sibling_worker() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let name = format!("mmlp-worker{}", std::env::consts::EXE_SUFFIX);
    let candidate = dir.join(&name);
    if candidate.is_file() {
        return Some(candidate);
    }
    // Test binaries live one level down, in `target/<profile>/deps/`.
    if dir.file_name().is_some_and(|n| n == "deps") {
        let candidate = dir.parent()?.join(&name);
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

/// A worker process speaking the frame protocol over its stdio.
///
/// **Sends never block.**  Outgoing frames are handed to a dedicated writer
/// thread over a channel; only [`recv`](WorkerLink::recv) blocks on the
/// process.  This is what makes the pipelining driver deadlock-free: with
/// synchronous writes, eagerly dispatching a multi-hundred-kilobyte job
/// queue can fill the worker's stdin pipe while the worker is itself
/// blocked filling its stdout pipe with a large reply — both sides stuck.
/// Decoupling the send side breaks the cycle; the driver's only blocking
/// operation is reading a pipe its worker is guaranteed to fill.
#[derive(Debug)]
pub struct SubprocessLink {
    /// Shared with the handshake watchdog, which kills a process that never
    /// completes the `Hello` exchange.
    child: Arc<Mutex<Child>>,
    /// Frame bytes queue into the writer thread; dropping the sender closes
    /// the worker's stdin (after the queue drains).
    sender: Option<std::sync::mpsc::Sender<Vec<u8>>>,
    writer: Option<std::thread::JoinHandle<()>>,
    stdout: BufReader<ChildStdout>,
    worker: usize,
}

impl SubprocessLink {
    fn died(&mut self, fallback: &str) -> TransportError {
        let status = self
            .child
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .try_wait()
            .ok()
            .flatten();
        let message = match status {
            Some(status) => format!("worker process exited with {status}"),
            None => fallback.to_string(),
        };
        self.sender = None;
        TransportError::WorkerDied { worker: self.worker, message }
    }
}

impl WorkerLink for SubprocessLink {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let Some(sender) = self.sender.as_ref() else {
            return Err(TransportError::WorkerDied {
                worker: self.worker,
                message: "worker stdin already closed".to_string(),
            });
        };
        // The worker would fatally reject an oversized frame anyway;
        // `encode_frame` fails with the typed cause instead of a later
        // dead-worker error.
        let bytes = crate::wire::encode_frame(frame)?;
        // The channel closes when the writer thread observed a broken pipe
        // and exited — the worker is gone.
        if sender.send(bytes).is_err() {
            return Err(self.died("worker stdin pipe broke"));
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        match read_frame(&mut self.stdout) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(self.died("worker closed its stdout")),
            Err(WireError::Io(msg)) => Err(self.died(&format!("read failed: {msg}"))),
            // A decodable-but-corrupt stream is a protocol failure, not a
            // death: surface the typed wire error.
            Err(e) => Err(TransportError::Wire(e)),
        }
    }
}

impl Drop for SubprocessLink {
    fn drop(&mut self) {
        // Dropping the sender lets the writer thread drain the queue and
        // close stdin, which makes a healthy worker exit on end-of-stream;
        // the kill is the backstop against a wedged one.  Always reap.
        self.sender = None;
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        let mut child = self.child.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// The body of a link's writer thread: drain queued frame bytes into the
/// worker's stdin, stop on the first broken pipe, close stdin on exit.
fn drain_frames_into(mut stdin: ChildStdin, frames: std::sync::mpsc::Receiver<Vec<u8>>) {
    for bytes in frames {
        if stdin.write_all(&bytes).and_then(|()| stdin.flush()).is_err() {
            return;
        }
    }
}

/// Spawns one worker process and completes the `Hello` handshake.
///
/// # Errors
///
/// [`TransportError::SpawnFailed`] when the OS refuses the spawn (no
/// fork/exec in the sandbox, missing binary) and
/// [`TransportError::HandshakeFailed`] when the process starts but does not
/// speak the protocol (wrong binary, version skew).
pub fn spawn_worker(
    command: &WorkerCommand,
    worker: usize,
) -> Result<SubprocessLink, TransportError> {
    spawn_worker_with_deadline(command, worker, handshake_deadline_ms())
}

/// [`spawn_worker`] with an explicit handshake deadline (milliseconds).
/// Exposed for tests; production callers use the default (overridable via
/// the `MMLP_HANDSHAKE_DEADLINE_MS` environment variable).
pub fn spawn_worker_with_deadline(
    command: &WorkerCommand,
    worker: usize,
    handshake_deadline_ms: u64,
) -> Result<SubprocessLink, TransportError> {
    let depth = std::env::var(SPAWN_DEPTH_ENV).ok().and_then(|v| v.parse::<u64>().ok());
    let depth = next_spawn_depth(depth)
        .map_err(|message| TransportError::SpawnFailed { command: command.describe(), message })?;
    let mut cmd = command.to_command()?;
    cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::inherit());
    cmd.env(SPAWN_DEPTH_ENV, depth.to_string());
    let mut child = cmd.spawn().map_err(|e| TransportError::SpawnFailed {
        command: command.describe(),
        message: e.to_string(),
    })?;
    let stdin = child.stdin.take().expect("stdin was piped");
    let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
    let (sender, receiver) = std::sync::mpsc::channel::<Vec<u8>>();
    let writer = std::thread::Builder::new()
        .name(format!("mmlp-link-writer-{worker}"))
        .spawn(move || drain_frames_into(stdin, receiver))
        .map_err(|e| TransportError::SpawnFailed {
            command: command.describe(),
            message: format!("could not start the link writer thread: {e}"),
        })?;
    let child = Arc::new(Mutex::new(child));
    let mut link = SubprocessLink {
        child: child.clone(),
        sender: Some(sender),
        writer: Some(writer),
        stdout,
        worker,
    };
    // The handshake watchdog: a spawned process that neither speaks the
    // protocol nor exits (a host binary that forgot to serve
    // `--mmlp-worker`, say) would block `recv` forever; after the deadline
    // the watchdog kills it, turning the hang into the typed
    // `HandshakeFailed` below.  The thread polls a flag so it exits
    // promptly once the handshake concludes either way.
    let handshake_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    {
        let child = child.clone();
        let done = handshake_done.clone();
        let deadline_ms = handshake_deadline_ms;
        let _ = std::thread::Builder::new()
            .name(format!("mmlp-handshake-watchdog-{worker}"))
            .spawn(move || {
                let step = std::time::Duration::from_millis(20);
                let mut waited = 0u64;
                while waited < deadline_ms {
                    if done.load(std::sync::atomic::Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(step);
                    waited += 20;
                }
                if !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let mut child = child.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    let _ = child.kill();
                }
            });
    }
    let handshake = (|| {
        link.send(&Frame::control(FrameKind::Hello)).map_err(|e| {
            TransportError::HandshakeFailed { message: format!("could not send hello: {e}") }
        })?;
        match link.recv() {
            Ok(Frame { kind: FrameKind::Hello, .. }) => Ok(()),
            Ok(frame) => Err(TransportError::HandshakeFailed {
                message: format!("expected hello, got {:?}", frame.kind),
            }),
            Err(e) => Err(TransportError::HandshakeFailed {
                message: format!("no hello reply (version {WIRE_VERSION}): {e}"),
            }),
        }
    })();
    handshake_done.store(true, std::sync::atomic::Ordering::Relaxed);
    handshake.map(|()| link)
}

/// Environment variable carrying the worker re-exec depth, incremented on
/// every spawn so a host binary that runs [`BackendKind::Subprocess`] with
/// [`WorkerCommand::CurrentExe`] *without* serving `--mmlp-worker` cannot
/// fork-bomb itself: past [`MAX_SPAWN_DEPTH`] the spawn fails typed.
///
/// [`BackendKind::Subprocess`]: crate::BackendKind::Subprocess
pub const SPAWN_DEPTH_ENV: &str = "MMLP_WORKER_SPAWN_DEPTH";

/// Maximum worker re-exec depth (a driver's worker legitimately sits at
/// depth 1; anything deeper means workers are spawning workers).
pub const MAX_SPAWN_DEPTH: u64 = 3;

/// Environment variable overriding the handshake deadline in milliseconds
/// (used by tests; the default is deliberately generous).
pub const HANDSHAKE_DEADLINE_ENV: &str = "MMLP_HANDSHAKE_DEADLINE_MS";

const DEFAULT_HANDSHAKE_DEADLINE_MS: u64 = 10_000;

fn handshake_deadline_ms() -> u64 {
    std::env::var(HANDSHAKE_DEADLINE_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(DEFAULT_HANDSHAKE_DEADLINE_MS)
}

/// Computes the depth the next spawned worker runs at, refusing to exceed
/// [`MAX_SPAWN_DEPTH`].
fn next_spawn_depth(current: Option<u64>) -> Result<u64, String> {
    let current = current.unwrap_or(0);
    if current >= MAX_SPAWN_DEPTH {
        return Err(format!(
            "worker re-exec depth {current} reached the cap of {MAX_SPAWN_DEPTH} — \
             is the worker binary actually serving {WORKER_FLAG}?"
        ));
    }
    Ok(current + 1)
}

/// The capability probe: can this environment spawn a protocol-speaking
/// worker with `command`?
///
/// Used to guard subprocess backends in sandboxes without fork/exec — on
/// failure the caller falls back to the loopback transport.
///
/// # Errors
///
/// Whatever [`spawn_worker`] reported.
pub fn probe_worker(command: &WorkerCommand) -> Result<(), TransportError> {
    let mut link = spawn_worker(command, usize::MAX)?;
    // Best effort: ask for a clean exit so the probe leaves nothing behind.
    let _ = link.send(&Frame::control(FrameKind::Shutdown));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{put_str, put_u64};
    use std::path::Path;

    fn sum_handler(ctx: &[u8], job: &[u8], _cache: &mut StageCache) -> Result<Vec<u8>, String> {
        let mut r = ByteReader::new(ctx);
        let base = if ctx.is_empty() { 0 } else { r.u64("ctx").map_err(|e| e.to_string())? };
        let mut r = ByteReader::new(job);
        let values = r.u64s("job").map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        put_u64(&mut out, base + values.iter().sum::<u64>());
        Ok(out)
    }

    fn failing_handler(
        _ctx: &[u8],
        _job: &[u8],
        _cache: &mut StageCache,
    ) -> Result<Vec<u8>, String> {
        Err("deliberate failure".to_string())
    }

    fn test_registry() -> Arc<StageRegistry> {
        let mut reg = StageRegistry::new();
        reg.register("test/sum@1", sum_handler);
        reg.register("test/fail@1", failing_handler);
        Arc::new(reg)
    }

    fn job_frame(stage: &str, seq: u64, values: &[u64]) -> Frame {
        let mut payload = Vec::new();
        put_str(&mut payload, stage);
        crate::wire::put_usize(&mut payload, values.len());
        for &v in values {
            put_u64(&mut payload, v);
        }
        Frame { kind: FrameKind::Job, seq, payload }
    }

    fn context_frame(stage: &str, base: u64) -> Frame {
        let mut payload = Vec::new();
        put_str(&mut payload, stage);
        put_u64(&mut payload, base);
        Frame { kind: FrameKind::Context, seq: 0, payload }
    }

    fn reply_value(frame: &Frame) -> u64 {
        assert_eq!(frame.kind, FrameKind::Reply);
        let mut r = ByteReader::new(&frame.payload);
        let _wall = r.u64("wall").unwrap();
        r.u64("value").unwrap()
    }

    #[test]
    fn loopback_answers_jobs_through_the_byte_boundary() {
        let mut link = LoopbackLink::new(test_registry(), 0);
        link.send(&Frame::control(FrameKind::Hello)).unwrap();
        assert_eq!(link.recv().unwrap().kind, FrameKind::Hello);
        link.send(&context_frame("test/sum@1", 100)).unwrap();
        link.send(&job_frame("test/sum@1", 7, &[1, 2, 3])).unwrap();
        let reply = link.recv().unwrap();
        assert_eq!(reply.seq, 7);
        assert_eq!(reply_value(&reply), 106);
    }

    #[test]
    fn loopback_reports_handler_failures_and_unknown_stages() {
        let mut link = LoopbackLink::new(test_registry(), 0);
        link.send(&job_frame("test/fail@1", 1, &[])).unwrap();
        let reply = link.recv().unwrap();
        assert_eq!(reply.kind, FrameKind::WorkerError);
        assert!(String::from_utf8(reply.payload).unwrap().contains("deliberate failure"));

        link.send(&job_frame("test/nope@1", 2, &[])).unwrap();
        let reply = link.recv().unwrap();
        assert_eq!(reply.kind, FrameKind::WorkerError);
        assert!(String::from_utf8(reply.payload).unwrap().contains("test/nope@1"));
    }

    #[test]
    fn truncation_fault_surfaces_as_a_typed_wire_error() {
        let faults = FaultPlan { truncate_replies: vec![3], ..FaultPlan::none() };
        let mut link = LoopbackLink::with_faults(test_registry(), 0, faults);
        link.send(&job_frame("test/sum@1", 3, &[5])).unwrap();
        match link.recv() {
            Err(TransportError::Wire(WireError::Truncated { .. })) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn corruption_fault_surfaces_as_a_checksum_mismatch() {
        let faults = FaultPlan { corrupt_replies: vec![0], ..FaultPlan::none() };
        let mut link = LoopbackLink::with_faults(test_registry(), 0, faults);
        link.send(&job_frame("test/sum@1", 0, &[5])).unwrap();
        match link.recv() {
            Err(TransportError::Wire(WireError::ChecksumMismatch { .. })) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn death_fault_kills_the_link_deterministically() {
        let faults = FaultPlan { die_after_replies: Some(2), ..FaultPlan::none() };
        let mut link = LoopbackLink::with_faults(test_registry(), 4, faults);
        link.send(&job_frame("test/sum@1", 0, &[1])).unwrap();
        assert_eq!(reply_value(&link.recv().unwrap()), 1);
        link.send(&job_frame("test/sum@1", 1, &[2])).unwrap();
        // The second produced reply triggers death: queue dropped.
        match link.recv() {
            Err(TransportError::WorkerDied { worker: 4, .. }) => {}
            other => panic!("expected death, got {other:?}"),
        }
        match link.send(&job_frame("test/sum@1", 2, &[3])) {
            Err(TransportError::WorkerDied { .. }) => {}
            other => panic!("expected death on send, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_fault_delivers_the_same_reply_twice() {
        let faults = FaultPlan { duplicate_replies: vec![0], ..FaultPlan::none() };
        let mut link = LoopbackLink::with_faults(test_registry(), 0, faults);
        link.send(&job_frame("test/sum@1", 0, &[9])).unwrap();
        let a = link.recv().unwrap();
        let b = link.recv().unwrap();
        assert_eq!(a, b);
        assert_eq!(reply_value(&a), 9);
    }

    #[test]
    fn reorder_fault_is_deterministic_per_seed() {
        let order_of = |seed: u64| -> Vec<u64> {
            let faults = FaultPlan { reorder_seed: Some(seed), ..FaultPlan::none() };
            let mut link = LoopbackLink::with_faults(test_registry(), 0, faults);
            for seq in 0..6 {
                link.send(&job_frame("test/sum@1", seq, &[seq])).unwrap();
            }
            (0..6).map(|_| link.recv().unwrap().seq).collect()
        };
        assert_eq!(order_of(42), order_of(42), "same seed must reorder identically");
        let reordered = order_of(42);
        let mut sorted = reordered.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5], "reordering must not lose replies");
    }

    #[test]
    fn serve_loop_roundtrips_over_byte_streams() {
        let mut input = Vec::new();
        for frame in [
            Frame::control(FrameKind::Hello),
            context_frame("test/sum@1", 10),
            job_frame("test/sum@1", 0, &[1, 2]),
            job_frame("test/fail@1", 1, &[]),
            Frame::control(FrameKind::Shutdown),
        ] {
            write_frame(&mut input, &frame).unwrap();
        }
        let mut output = Vec::new();
        serve(&test_registry(), input.as_slice(), &mut output).unwrap();
        let mut cursor = std::io::Cursor::new(output);
        let hello = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(hello.kind, FrameKind::Hello);
        let reply = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(reply_value(&reply), 13);
        let failure = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(failure.kind, FrameKind::WorkerError);
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn serve_loop_exits_cleanly_on_eof() {
        let input: Vec<u8> = Vec::new();
        let mut output = Vec::new();
        serve(&test_registry(), input.as_slice(), &mut output).unwrap();
        assert!(output.is_empty());
    }

    #[test]
    fn spawn_of_a_missing_binary_is_a_typed_error() {
        let command = WorkerCommand::Path(PathBuf::from("/nonexistent/mmlp-worker"));
        match probe_worker(&command) {
            Err(TransportError::SpawnFailed { .. }) => {}
            other => panic!("expected spawn failure, got {other:?}"),
        }
    }

    #[test]
    fn spawn_depth_is_capped() {
        assert_eq!(next_spawn_depth(None), Ok(1));
        assert_eq!(next_spawn_depth(Some(0)), Ok(1));
        assert_eq!(next_spawn_depth(Some(MAX_SPAWN_DEPTH - 1)), Ok(MAX_SPAWN_DEPTH));
        assert!(next_spawn_depth(Some(MAX_SPAWN_DEPTH)).is_err());
        assert!(next_spawn_depth(Some(u64::MAX)).is_err());
    }

    #[test]
    fn handshake_watchdog_kills_a_silent_worker() {
        // A process that reads stdin but never writes stdout would hang the
        // handshake forever without the watchdog.  `tail -f /dev/null` is
        // exactly such a process; skip quietly where it does not exist (or
        // spawning is impossible).  The deadline override keeps the test
        // fast; the only assertion is the typed error — no timing claims.
        let tail = ["/usr/bin/tail", "/bin/tail"].iter().find(|p| Path::new(p).is_file());
        let Some(tail) = tail else {
            eprintln!("skipping: no tail binary found");
            return;
        };
        // `tail -f /dev/null --mmlp-worker` fails fast on the unknown flag …
        // so point the command at a tiny shell wrapper instead.
        let dir = std::env::temp_dir().join("mmlp_watchdog_test");
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("silent-worker.sh");
        std::fs::write(&script, format!("#!/bin/sh\nexec {tail} -f /dev/null\n")).unwrap();
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
        }
        let result =
            spawn_worker_with_deadline(&WorkerCommand::Path(script), 0, 300).map(|_link| ());
        match result {
            Err(TransportError::HandshakeFailed { .. }) => {}
            Err(TransportError::SpawnFailed { .. }) => {
                eprintln!("skipping: spawning is unavailable here");
            }
            other => panic!("expected a handshake failure, got {other:?}"),
        }
    }
}
