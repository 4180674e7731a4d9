//! The engine binding of the multi-tenant
//! [`SolveService`]: admit whole batched solves
//! — optionally sharing one bounded cache of class answers across tenants.
//!
//! `mmlp-parallel`'s service is deliberately domain-blind (a request is just
//! a closure).  [`EngineService`] is the domain layer on top:
//!
//! * [`submit_solve`](EngineService::submit_solve) admits a
//!   [`solve_local_lps`] run for a tenant; the request dispatches through
//!   the ordinary [`BackendKind`](mmlp_parallel::BackendKind) machinery, so
//!   admitted solves land on the same process-wide pooled subprocess
//!   workers as solo solves.
//! * With [`with_shared_cache`](EngineService::with_shared_cache), tenants
//!   share one bounded cache of class answers: the canonical solution of
//!   each class LP, keyed by the class's canonical key and the simplex
//!   options it was solved under.  A solve takes the cache lock once to look
//!   its classes up (after the class table merges, so hits never reach the
//!   solve stage) and once to insert its fresh answers — never across a
//!   solve.  Sharing is safe *because* the key is an exact encoding of the
//!   canonical LP and the simplex is deterministic: a cached answer is the
//!   cold solve's output, so every tenant's results stay bit-identical to
//!   an isolated solve (the conformance suite asserts this).
//! * Classes answered from the shared cache are booked per tenant into
//!   [`TenantCounters::cache_hits`](mmlp_parallel::TenantCounters) (from
//!   the batch's `shared_cache_hits` stat), so operators can see which
//!   tenants actually benefit from sharing.
//!
//! Simulator epochs are admitted through the same underlying service via
//! [`Simulator::submit_typed_epoch`](mmlp_distsim::Simulator::submit_typed_epoch)
//! and [`EngineService::inner`].

use std::sync::{Arc, Mutex, PoisonError};

use mmlp_core::MaxMinInstance;
use mmlp_parallel::{
    ServiceConfig, ServiceError, ServiceMetrics, SolveService, TenantCounters, TenantId, Ticket,
};

use crate::engine::{
    dispatch_backend, solve_local_lps, solve_local_lps_incremental, ClassSolutionCache,
    EngineError, IncrementalRun, InstanceDelta, LocalLpBatch, LocalLpOptions, RegisteredBase,
};

/// A multi-tenant front-end for batched engine solves (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct EngineService {
    service: SolveService,
    metrics: ServiceMetrics,
    cache: Option<Arc<Mutex<ClassSolutionCache>>>,
}

impl EngineService {
    /// A service whose tenants are fully isolated: every admitted solve is
    /// a cold solve.
    pub fn new(config: ServiceConfig) -> Self {
        let service = SolveService::new(config);
        let metrics = service.metrics();
        Self { service, metrics, cache: None }
    }

    /// A service whose tenants share one bounded cache of at most
    /// `capacity` class answers.  Every tenant's results stay bit-identical
    /// to an isolated solve: answers are keyed by the exact canonical class
    /// key and the simplex options they were solved under.
    pub fn with_shared_cache(config: ServiceConfig, capacity: usize) -> Self {
        let service = SolveService::new(config);
        let metrics = service.metrics();
        Self {
            service,
            metrics,
            cache: Some(Arc::new(Mutex::new(ClassSolutionCache::with_capacity(capacity)))),
        }
    }

    /// Admits one batched solve for `tenant`.
    ///
    /// With a shared cache, the request answers its cached classes from it,
    /// inserts its fresh answers afterwards, and books the cached classes
    /// into the tenant's `cache_hits` counter.
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] (typed backpressure) or
    /// [`ServiceError::Draining`]; engine failures arrive inside the
    /// [`Ticket`].
    pub fn submit_solve(
        &self,
        tenant: TenantId,
        instance: MaxMinInstance,
        options: LocalLpOptions,
    ) -> Result<Ticket<Result<LocalLpBatch, EngineError>>, ServiceError> {
        let cache = self.cache.clone();
        let metrics = self.metrics.clone();
        self.service.submit(tenant, move || match cache {
            Some(shared) => {
                let batch = dispatch_backend(&instance, &options, Some(&shared))?;
                metrics.record_cache_hits(tenant, batch.stats.shared_cache_hits as u64);
                Ok(batch)
            }
            None => solve_local_lps(&instance, &options),
        })
    }

    /// Submits an incremental re-solve of a registered base under a weight
    /// delta (see [`solve_local_lps_incremental`]) onto this service's
    /// executors and fairness lanes.  The base is shared by `Arc`, so many
    /// tenants (or many deltas of one tenant) re-solve against one
    /// registration without copying the instance or its recorded batch.
    ///
    /// # Errors
    ///
    /// Admission failures are typed [`ServiceError::QueueFull`] /
    /// [`ServiceError::Draining`]; delta and engine failures arrive inside
    /// the [`Ticket`].
    pub fn submit_incremental(
        &self,
        tenant: TenantId,
        base: Arc<RegisteredBase>,
        delta: InstanceDelta,
    ) -> Result<Ticket<Result<IncrementalRun, EngineError>>, ServiceError> {
        self.service
            .submit(tenant, move || solve_local_lps_incremental(&base, &delta))
    }

    /// The underlying generic service — for admitting non-engine requests
    /// (e.g. simulator epochs) onto the same executors and fairness lanes.
    pub fn inner(&self) -> &SolveService {
        &self.service
    }

    /// This tenant's counters (see [`SolveService::counters`]).
    pub fn counters(&self, tenant: TenantId) -> TenantCounters {
        self.service.counters(tenant)
    }

    /// Number of class answers currently in the shared cache (0 when
    /// isolated).
    pub fn shared_classes(&self) -> usize {
        self.cache
            .as_ref()
            .map(|c| c.lock().unwrap_or_else(PoisonError::into_inner).len())
            .unwrap_or(0)
    }

    /// Closes admission and completes every queued and in-flight solve;
    /// returns the number of requests completed over the service's
    /// lifetime.
    pub fn drain(&self) -> u64 {
        self.service.drain()
    }
}
