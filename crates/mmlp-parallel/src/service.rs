//! The multi-tenant solve service: a long-lived front-end admitting many
//! concurrent requests onto the shared worker pool.
//!
//! The paper's local algorithms exist to serve many small overlapping
//! solves (sensor networks re-allocating under churn), but everything below
//! this module couples "a run" to "a caller": whoever holds the backend
//! runs one stage at a time.  [`SolveService`] decouples them — it is the
//! front desk in front of the process-wide pooled subprocess workers
//! ([`pooled_subprocess_backend`](crate::pooled_subprocess_backend)):
//!
//! * **Bounded admission.**  At most [`ServiceConfig::queue_capacity`]
//!   requests wait at any time; further submissions fail *typed* with
//!   [`ServiceError::QueueFull`] instead of buffering without bound.  The
//!   caller decides whether to retry, shed or block — backpressure is the
//!   API, not an accident.
//! * **Per-tenant fairness.**  Waiting requests are queued per tenant id
//!   and dispatched round-robin across the tenants that have work, so one
//!   tenant submitting a burst of a hundred solves cannot starve another
//!   submitting one.  Within a tenant, order is FIFO.
//! * **Graceful drain.**  [`drain`](SolveService::drain) stops admission
//!   and completes every queued and in-flight request — results reach
//!   their [`Ticket`]s, workers are never killed mid-round.  Dropping the
//!   service drains it too.
//! * **Observability.**  Per-tenant [`TenantCounters`]
//!   (queued/active/completed plus the retried and cache-hit totals that
//!   domain adapters record through a [`ServiceMetrics`] handle).
//!
//! The service is deliberately generic: a request is any `FnOnce() -> R`
//! closure, so this crate (which cannot know about engines or simulators)
//! stays dependency-free while `mmlp-algorithms` admits batched solves,
//! optionally through a cache of class answers shared across tenants, and
//! `mmlp-distsim` admits simulator epoch runs.  Because a request runs exactly the same call it would run solo —
//! sequenced, never altered — every result through the service is
//! bit-identical to an isolated run; the conformance suite asserts that.
//!
//! ```
//! use mmlp_parallel::service::{ServiceConfig, SolveService};
//!
//! let service = SolveService::new(ServiceConfig { workers: 2, queue_capacity: 8 });
//! let a = service.submit(1, || 2 + 2).unwrap();
//! let b = service.submit(2, || "hi".len()).unwrap();
//! assert_eq!(a.wait().unwrap(), 4);
//! assert_eq!(b.wait().unwrap(), 2);
//! service.drain();
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A tenant identity: requests with the same id share one FIFO lane and one
/// [`TenantCounters`] row.
pub type TenantId = u64;

/// Environment variable overriding the default number of service executor
/// threads ([`ServiceConfig::from_env`]).
pub const SERVICE_WORKERS_ENV: &str = "MMLP_SERVICE_WORKERS";

/// Environment variable overriding the default admission-queue capacity
/// ([`ServiceConfig::from_env`]).
pub const SERVICE_QUEUE_CAP_ENV: &str = "MMLP_SERVICE_QUEUE_CAP";

/// Sizing of a [`SolveService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Executor threads running admitted requests (clamped to ≥ 1).  Each
    /// executes one request at a time; requests themselves fan out through
    /// whatever backend their options select.
    pub workers: usize,
    /// Maximum number of *waiting* (admitted, not yet running) requests
    /// across all tenants (clamped to ≥ 1).  Admission beyond it fails with
    /// [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    /// Two executors, sixty-four waiting requests.
    fn default() -> Self {
        Self { workers: 2, queue_capacity: 64 }
    }
}

impl ServiceConfig {
    /// The defaults overridden by the `MMLP_SERVICE_WORKERS` and
    /// `MMLP_SERVICE_QUEUE_CAP` environment variables (ignored unless they
    /// parse as positive integers).
    pub fn from_env() -> Self {
        let parse = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
        };
        let defaults = Self::default();
        Self {
            workers: parse(SERVICE_WORKERS_ENV).unwrap_or(defaults.workers),
            queue_capacity: parse(SERVICE_QUEUE_CAP_ENV).unwrap_or(defaults.queue_capacity),
        }
    }
}

/// Typed admission and retrieval failures of the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The admission queue is at capacity — the typed backpressure signal.
    /// Retry later, shed the request, or drain another tenant.
    QueueFull {
        /// The configured [`ServiceConfig::queue_capacity`].
        capacity: usize,
    },
    /// The service is draining (or dropped): no further admissions.
    Draining,
    /// The request's result can no longer arrive (its executor panicked
    /// mid-request).
    Lost,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => {
                write!(f, "service admission queue is full ({capacity} waiting requests)")
            }
            ServiceError::Draining => write!(f, "service is draining; no further admissions"),
            ServiceError::Lost => write!(f, "request was lost (its executor panicked)"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Per-tenant observability counters (see [`SolveService::counters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantCounters {
    /// Requests admitted so far (monotone).
    pub queued: u64,
    /// Requests executing right now.
    pub active: u64,
    /// Requests finished (monotone; includes requests whose closure
    /// panicked — their tickets report [`ServiceError::Lost`]).
    pub completed: u64,
    /// Worker respawns attributed to this tenant's requests, recorded by
    /// domain adapters via [`ServiceMetrics::record_retries`].
    pub retried: u64,
    /// Cross-run cache hits attributed to this tenant's requests, recorded
    /// by domain adapters via [`ServiceMetrics::record_cache_hits`] (the
    /// engine adapter records the classes its solves answered from the
    /// shared class-answer cache).
    pub cache_hits: u64,
}

/// A boxed admitted request, result delivery already bound in.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The scheduler state behind the service's one lock.
struct Sched {
    /// Waiting requests per tenant, FIFO within a tenant.
    lanes: BTreeMap<TenantId, VecDeque<Job>>,
    /// Round-robin order over tenants with non-empty lanes: the dispatcher
    /// pops the front tenant, takes one request, and re-appends the tenant
    /// while its lane has more — one request per tenant per turn.
    turns: VecDeque<TenantId>,
    /// Waiting requests across all lanes.
    waiting: usize,
    /// Requests executing right now.
    active: usize,
    counters: BTreeMap<TenantId, TenantCounters>,
    /// Admission is closed; executors exit once the lanes are empty.
    draining: bool,
}

/// State shared between the service handle, its executors and the metrics
/// handles.
struct Shared {
    sched: Mutex<Sched>,
    /// Signalled when work arrives or draining starts.
    work: Condvar,
    /// Signalled when a request finishes (what [`SolveService::drain`] and
    /// [`Ticket`]-less callers wait on).
    idle: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A pending request's claim on its result.
///
/// Dropping the ticket abandons the result (the request still runs).
#[derive(Debug)]
pub struct Ticket<R> {
    rx: mpsc::Receiver<R>,
}

impl<R> Ticket<R> {
    /// Blocks until the request's result arrives.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Lost`] when the result can no longer arrive (the
    /// request's closure panicked on its executor).
    pub fn wait(self) -> Result<R, ServiceError> {
        self.rx.recv().map_err(|_| ServiceError::Lost)
    }
}

/// A cloneable handle for recording domain-level per-tenant metrics
/// (retries, cache hits) from inside or after a request — without holding
/// the service itself (see [`SolveService::metrics`]).
#[derive(Clone)]
pub struct ServiceMetrics {
    shared: Arc<Shared>,
}

impl fmt::Debug for ServiceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceMetrics").finish()
    }
}

impl ServiceMetrics {
    /// Adds `n` worker respawns to a tenant's [`TenantCounters::retried`].
    pub fn record_retries(&self, tenant: TenantId, n: u64) {
        self.shared.lock().counters.entry(tenant).or_default().retried += n;
    }

    /// Adds `n` cache hits to a tenant's [`TenantCounters::cache_hits`].
    pub fn record_cache_hits(&self, tenant: TenantId, n: u64) {
        self.shared.lock().counters.entry(tenant).or_default().cache_hits += n;
    }
}

/// The multi-tenant request front-end (see the [module docs](self)).
pub struct SolveService {
    shared: Arc<Shared>,
    executors: Vec<std::thread::JoinHandle<()>>,
    capacity: usize,
}

impl fmt::Debug for SolveService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sched = self.shared.lock();
        f.debug_struct("SolveService")
            .field("executors", &self.executors.len())
            .field("capacity", &self.capacity)
            .field("waiting", &sched.waiting)
            .field("active", &sched.active)
            .field("draining", &sched.draining)
            .finish()
    }
}

impl SolveService {
    /// Starts the service: `config.workers` executor threads, an admission
    /// queue of `config.queue_capacity`.
    pub fn new(config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                lanes: BTreeMap::new(),
                turns: VecDeque::new(),
                waiting: 0,
                active: 0,
                counters: BTreeMap::new(),
                draining: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let executors = (0..config.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("mmlp-service-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .expect("service executor thread")
            })
            .collect();
        Self { shared, executors, capacity: config.queue_capacity.max(1) }
    }

    /// Admits one request for `tenant`, returning the [`Ticket`] its result
    /// will arrive on.
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] when the admission queue is at capacity
    /// (the backpressure signal — nothing was enqueued) and
    /// [`ServiceError::Draining`] after [`drain`](Self::drain).
    pub fn submit<R, F>(&self, tenant: TenantId, request: F) -> Result<Ticket<R>, ServiceError>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let mut sched = self.shared.lock();
        if sched.draining {
            return Err(ServiceError::Draining);
        }
        if sched.waiting >= self.capacity {
            return Err(ServiceError::QueueFull { capacity: self.capacity });
        }
        let (tx, rx) = mpsc::channel();
        let job: Job = Box::new(move || {
            // A dropped Ticket is fine; failure to send only means nobody
            // is waiting.
            let _ = tx.send(request());
        });
        let lane = sched.lanes.entry(tenant).or_default();
        let first_in_lane = lane.is_empty();
        lane.push_back(job);
        if first_in_lane {
            sched.turns.push_back(tenant);
        }
        sched.waiting += 1;
        sched.counters.entry(tenant).or_default().queued += 1;
        drop(sched);
        self.shared.work.notify_one();
        Ok(Ticket { rx })
    }

    /// A [`ServiceMetrics`] handle for recording per-tenant retries and
    /// cache hits (cloneable into request closures; holding one does not
    /// keep the service alive).
    pub fn metrics(&self) -> ServiceMetrics {
        ServiceMetrics { shared: self.shared.clone() }
    }

    /// This tenant's counters (zeroes for a tenant never seen).
    pub fn counters(&self, tenant: TenantId) -> TenantCounters {
        self.shared.lock().counters.get(&tenant).copied().unwrap_or_default()
    }

    /// All per-tenant counters, in tenant order.
    pub fn all_counters(&self) -> Vec<(TenantId, TenantCounters)> {
        self.shared.lock().counters.iter().map(|(&t, &c)| (t, c)).collect()
    }

    /// Number of waiting (admitted, not yet executing) requests.
    pub fn waiting(&self) -> usize {
        self.shared.lock().waiting
    }

    /// Closes admission and completes every queued and in-flight request —
    /// results still arrive on their [`Ticket`]s; workers are never killed
    /// mid-round.  Returns the number of requests completed over the
    /// service's whole lifetime.  Idempotent; further [`submit`](Self::submit)
    /// calls fail with [`ServiceError::Draining`].
    pub fn drain(&self) -> u64 {
        let mut sched = self.shared.lock();
        sched.draining = true;
        // Wake executors blocked waiting for work so they observe the drain.
        self.shared.work.notify_all();
        while sched.waiting > 0 || sched.active > 0 {
            sched = self.shared.idle.wait(sched).unwrap_or_else(PoisonError::into_inner);
        }
        sched.counters.values().map(|c| c.completed).sum()
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.drain();
        // Executors exit once draining is observed with empty lanes.
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One executor thread: take the front tenant's next request, run it, loop;
/// exit when the service drains dry.
fn executor_loop(shared: &Shared) {
    let mut sched = shared.lock();
    loop {
        while sched.waiting == 0 {
            if sched.draining {
                return;
            }
            sched = shared.work.wait(sched).unwrap_or_else(PoisonError::into_inner);
        }
        let tenant = sched.turns.pop_front().expect("waiting > 0 implies a turn");
        let lane = sched.lanes.get_mut(&tenant).expect("a turn names a lane");
        let job = lane.pop_front().expect("a turn's lane is non-empty");
        if lane.is_empty() {
            sched.lanes.remove(&tenant);
        } else {
            sched.turns.push_back(tenant);
        }
        sched.waiting -= 1;
        sched.active += 1;
        sched.counters.entry(tenant).or_default().active += 1;
        drop(sched);
        // A panicking request must not take the executor (and with it every
        // other tenant's throughput) down; its ticket reports `Lost`.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        sched = shared.lock();
        sched.active -= 1;
        let counters = sched.counters.entry(tenant).or_default();
        counters.active -= 1;
        counters.completed += 1;
        drop(sched);
        if outcome.is_err() {
            eprintln!("mmlp service: a request of tenant {tenant} panicked; ticket reports Lost");
        }
        shared.idle.notify_all();
        sched = shared.lock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A request gate: submitted blockers park an executor until released,
    /// making admission-order tests deterministic.
    fn blocker(service: &SolveService) -> (mpsc::Sender<()>, Ticket<()>) {
        let (release, released) = mpsc::channel::<()>();
        let ticket = service
            .submit(u64::MAX, move || {
                let _ = released.recv();
            })
            .expect("blocker admits");
        (release, ticket)
    }

    #[test]
    fn results_arrive_per_ticket() {
        let service = SolveService::new(ServiceConfig { workers: 2, queue_capacity: 16 });
        let tickets: Vec<_> =
            (0..8u64).map(|i| service.submit(i % 2, move || i * 10).unwrap()).collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().unwrap(), i as u64 * 10);
        }
        let completed = service.drain();
        assert_eq!(completed, 8);
    }

    #[test]
    fn dispatch_is_round_robin_across_tenants() {
        // One executor, blocked while the burst is admitted: the dispatch
        // order afterwards is deterministic.  Tenant 1 floods four
        // requests, tenants 2 and 3 one each — fairness means 2 and 3 run
        // after at most one request of the flooding tenant.
        let service = SolveService::new(ServiceConfig { workers: 1, queue_capacity: 16 });
        let (release, gate_ticket) = blocker(&service);
        let order = Arc::new(Mutex::new(Vec::new()));
        let submit = |tenant: TenantId| {
            let order = order.clone();
            service
                .submit(tenant, move || {
                    order.lock().unwrap_or_else(PoisonError::into_inner).push(tenant)
                })
                .unwrap()
        };
        let tickets: Vec<_> = [1, 1, 1, 1, 2, 3].into_iter().map(submit).collect::<Vec<_>>();
        release.send(()).unwrap();
        gate_ticket.wait().unwrap();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let order = order.lock().unwrap_or_else(PoisonError::into_inner).clone();
        assert_eq!(order, vec![1, 2, 3, 1, 1, 1], "one request per tenant per turn");
        service.drain();
    }

    #[test]
    fn admission_beyond_capacity_is_a_typed_queue_full() {
        let service = SolveService::new(ServiceConfig { workers: 1, queue_capacity: 2 });
        let (release, gate_ticket) = blocker(&service);
        // The blocker may still be waiting (queued) or already running;
        // fill the queue to capacity either way, then overflow.
        let mut tickets = Vec::new();
        let mut rejected = None;
        for i in 0..4u64 {
            match service.submit(7, move || i) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        match rejected {
            Some(ServiceError::QueueFull { capacity: 2 }) => {}
            other => panic!("expected typed backpressure, got {other:?}"),
        }
        release.send(()).unwrap();
        gate_ticket.wait().unwrap();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        service.drain();
    }

    #[test]
    fn drain_completes_queued_and_in_flight_requests() {
        let service = SolveService::new(ServiceConfig { workers: 2, queue_capacity: 32 });
        let done = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<_> = (0..12u64)
            .map(|i| {
                let done = done.clone();
                service
                    .submit(i % 3, move || {
                        done.fetch_add(1, Ordering::SeqCst);
                        i
                    })
                    .unwrap()
            })
            .collect();
        let completed = service.drain();
        assert_eq!(completed, 12, "drain returns only after everything ran");
        assert_eq!(done.load(Ordering::SeqCst), 12);
        // Results submitted before the drain still arrive after it.
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.wait().unwrap(), i as u64);
        }
        match service.submit(0, || ()) {
            Err(ServiceError::Draining) => {}
            other => panic!("admission after drain must fail typed, got {other:?}"),
        }
    }

    #[test]
    fn counters_track_queued_active_completed_and_recorded_metrics() {
        let service = SolveService::new(ServiceConfig { workers: 1, queue_capacity: 8 });
        let (release, gate_ticket) = blocker(&service);
        let t = service.submit(5, || 1).unwrap();
        assert_eq!(service.counters(5).queued, 1);
        assert_eq!(service.counters(5).completed, 0);
        release.send(()).unwrap();
        gate_ticket.wait().unwrap();
        t.wait().unwrap();
        // A ticket resolves when the request's closure sends its result,
        // which is a moment before the executor books completion — drain to
        // make the completed counter deterministic to observe.
        service.drain();
        let metrics = service.metrics();
        metrics.record_retries(5, 2);
        metrics.record_cache_hits(5, 7);
        let counters = service.counters(5);
        assert_eq!(counters.queued, 1);
        assert_eq!(counters.active, 0);
        assert_eq!(counters.completed, 1);
        assert_eq!(counters.retried, 2);
        assert_eq!(counters.cache_hits, 7);
        assert_eq!(service.counters(6), TenantCounters::default(), "unknown tenants read zero");
        service.drain();
    }

    #[test]
    fn a_panicking_request_loses_only_its_own_ticket() {
        let service = SolveService::new(ServiceConfig { workers: 1, queue_capacity: 8 });
        let bad = service.submit(1, || panic!("scripted request panic")).unwrap();
        let good = service.submit(2, || 42).unwrap();
        assert_eq!(bad.wait(), Err(ServiceError::Lost));
        assert_eq!(good.wait().unwrap(), 42, "the executor survives a panicking request");
        let completed = service.drain();
        assert_eq!(completed, 2, "a panicked request still counts as finished");
    }

    #[test]
    fn config_from_env_parses_positive_overrides_only() {
        // Serialised implicitly: this is the only test touching these vars.
        std::env::set_var(SERVICE_WORKERS_ENV, "3");
        std::env::set_var(SERVICE_QUEUE_CAP_ENV, "nonsense");
        let config = ServiceConfig::from_env();
        assert_eq!(config.workers, 3);
        assert_eq!(config.queue_capacity, ServiceConfig::default().queue_capacity);
        std::env::set_var(SERVICE_QUEUE_CAP_ENV, "0");
        assert_eq!(
            ServiceConfig::from_env().queue_capacity,
            ServiceConfig::default().queue_capacity
        );
        std::env::remove_var(SERVICE_WORKERS_ENV);
        std::env::remove_var(SERVICE_QUEUE_CAP_ENV);
    }
}
