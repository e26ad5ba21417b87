//! The query service: catalog session, worker pool, two-level cache, and
//! request execution.
//!
//! A [`QueryService`] owns one loaded [`Catalog`] for its whole lifetime
//! (the session/catalog manager), shares it read-only with every worker,
//! and answers [`Request`]s:
//!
//! - `query` / `explain` pass through admission control
//!   ([`crate::scheduler`]) and execute on the bounded worker pool;
//! - `stats` / `health` are answered inline — monitoring must keep
//!   working when the queue is saturated, which is exactly when you need
//!   it.
//!
//! Execution consults the two cache levels in order: the plan cache
//! (memoized derivation search, keyed by normalized query + engine
//! knobs) and the result cache (materialized rows, keyed by plan
//! fingerprint). Each response reports which levels hit, its end-to-end
//! latency, and the dataflow metrics attributable to its evaluation.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sjcore::cache::ResultCache;
use sjcore::catalog::Catalog;
use sjcore::engine::{EngineConfig, Query, QueryEngine, QueryValue};
use sjcore::SjError;
use sjdf::ExecCtx;
use sjtrace::{EventKind, RecordedSpan};

use crate::cache::{PlanCacheLayer, PlanKey};
use crate::metrics::{Registry, StatsReport};
use crate::protocol::{
    codes, AppendAck, CatalogInfo, DatasetDesc, ErrorBody, HealthReport, PlanInfo, QueryResult,
    Request, Response, SubscriptionAck, TraceSummary, Verb,
};
use crate::scheduler::{AdmissionError, Job, ResponseSlot, Scheduler, SchedulerConfig};
use crate::server::EmissionSink;

/// Service-wide tuning.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission and worker-pool sizing.
    pub scheduler: SchedulerConfig,
    /// Byte budget for the materialized-result cache.
    pub result_cache_bytes: usize,
    /// Byte budget for the dataflow stage cache (persisted partitions and
    /// auto-persisted shuffle outputs in the shared [`ExecCtx`]); applied
    /// to the context at service construction. `u64::MAX` = unlimited.
    pub stage_cache_bytes: u64,
    /// Rows returned per query when the request has no `limit`.
    pub default_limit: usize,
    /// Engine defaults; per-request `window_secs` / `step_secs` override
    /// the corresponding knobs.
    pub engine: EngineConfig,
    /// Task retry policy installed on the execution context at service
    /// construction (shared by all of its clones, so it also governs the
    /// catalog's already-wrapped datasets). `None` leaves the context's
    /// current policy untouched.
    pub retry: Option<sjdf::RetryPolicy>,
    /// Deterministic fault plan installed on the execution context at
    /// service construction — the chaos-testing hook behind the
    /// `--chaos-seed` flag. `None` leaves the context untouched.
    pub faults: Option<sjdf::FaultPlan>,
    /// When set, tracing is enabled at startup and the Chrome trace of
    /// every degraded/failed or slow query (see
    /// [`ServiceConfig::trace_slow_ms`]) is persisted to
    /// `<trace_dir>/<query_id>.trace.json`. The `--trace-dir` flag.
    pub trace_dir: Option<PathBuf>,
    /// A query at or above this end-to-end latency counts as slow for
    /// trace persistence. Only consulted when `trace_dir` is set.
    pub trace_slow_ms: u64,
    /// Operator-assigned shard identity for sharded deployments (the
    /// `--shard-id` flag); surfaced on `health` and `catalog` responses
    /// so a router's mark-down decisions are inspectable by hand.
    pub shard_id: Option<String>,
    /// Streaming-ingestion policy (window width, allowed lateness,
    /// evaluation horizon) for `append` requests and standing queries.
    pub stream: sjstream::StreamConfig,
    /// Standing queries one tenant may hold concurrently; further
    /// `subscribe: true` requests fail with
    /// [`codes::SUBSCRIPTION_LIMIT`].
    pub max_subscriptions_per_tenant: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            scheduler: SchedulerConfig::default(),
            result_cache_bytes: 64 << 20,
            stage_cache_bytes: 256 << 20,
            default_limit: 1000,
            engine: EngineConfig::default(),
            retry: None,
            faults: None,
            trace_dir: None,
            trace_slow_ms: 1000,
            shard_id: None,
            stream: sjstream::StreamConfig::default(),
            max_subscriptions_per_tenant: 8,
        }
    }
}

/// One standing query bound to the connection it reports to.
struct SubBinding {
    /// Server-assigned subscription id (`Response::query_id` on frames).
    query_id: String,
    /// The subscribe request's id; every pushed frame echoes it.
    request_id: String,
    sink: Arc<dyn EmissionSink>,
}

struct ServiceInner {
    catalog: Catalog,
    ctx: ExecCtx,
    config: ServiceConfig,
    plan_cache: PlanCacheLayer,
    result_cache: ResultCache,
    metrics: Registry<StatsReport>,
    scheduler: Scheduler,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Monotonic sequence behind server-assigned query ids.
    query_seq: AtomicU64,
    /// Fingerprint of the served catalog (names + schemas). Routers
    /// watch it across heartbeats and invalidate their result caches
    /// when it changes.
    catalog_epoch: AtomicU64,
    /// Streaming ingestion over a clone of the same catalog. Lock
    /// order: `stream` before `delivery` before `subs`, everywhere.
    stream: Mutex<sjstream::StreamEngine>,
    /// Serializes pushed-frame delivery in emission order. An appender
    /// acquires it *while still holding* `stream`, then releases
    /// `stream` before any TCP write — so a slow subscriber can stall
    /// at most other deliveries, never the stream engine itself (stats,
    /// new subscriptions, and connection teardown keep working).
    delivery: Mutex<()>,
    /// Standing queries and the sinks their frames go to.
    subs: Mutex<Vec<SubBinding>>,
}

/// A running ScrubJay query service. Cheap to clone; all clones share
/// one catalog, scheduler, and cache.
#[derive(Clone)]
pub struct QueryService {
    inner: Arc<ServiceInner>,
}

impl QueryService {
    /// Build a service over an already-loaded catalog and start its
    /// worker pool. `ctx` must be the context the catalog's datasets
    /// were wrapped with (its metrics sink is where evaluations report).
    pub fn new(ctx: ExecCtx, catalog: Catalog, config: ServiceConfig) -> Self {
        let scheduler = Scheduler::new(config.scheduler.clone());
        ctx.set_cache_budget(config.stage_cache_bytes);
        if let Some(retry) = config.retry.clone() {
            ctx.set_retry(retry);
        }
        if let Some(faults) = config.faults.clone() {
            ctx.set_faults(Some(faults));
        }
        if config.trace_dir.is_some() {
            // Persisting traces for slow/degraded queries needs every
            // query traced; per-request `trace: true` enables lazily.
            ctx.tracer().enable();
        }
        let epoch = catalog_fingerprint(&catalog);
        let stream = sjstream::StreamEngine::new(
            &ctx,
            catalog.clone(),
            config.stream.clone(),
            config.engine.clone(),
        );
        let inner = Arc::new(ServiceInner {
            catalog,
            ctx,
            config: config.clone(),
            plan_cache: PlanCacheLayer::new(),
            result_cache: ResultCache::new(config.result_cache_bytes),
            metrics: Registry::new(),
            scheduler,
            workers: Mutex::new(Vec::new()),
            query_seq: AtomicU64::new(0),
            catalog_epoch: AtomicU64::new(epoch),
            stream: Mutex::new(stream),
            delivery: Mutex::new(()),
            subs: Mutex::new(Vec::new()),
        });
        let service = QueryService { inner };
        service.start_workers();
        service
    }

    fn start_workers(&self) {
        let mut workers = self.inner.workers.lock();
        for i in 0..self.inner.config.scheduler.workers.max(1) {
            let inner = Arc::clone(&self.inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sjserve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread"),
            );
        }
    }

    /// Handle one request end to end, blocking until the response is
    /// ready or the request's deadline passes. This is the entry point
    /// used both by the TCP front end and by in-process embedders.
    pub fn handle(&self, request: Request) -> Response {
        let inner = &self.inner;
        inner.metrics.update(|r| r.requests_total += 1);
        let started = Instant::now();
        let mut response = match request.proto_version {
            Some(v) if v != crate::protocol::PROTO_VERSION => Response::fail(
                &request.id,
                ErrorBody::new(
                    codes::PROTO_MISMATCH,
                    format!(
                        "peer speaks protocol v{v}, this worker speaks v{}",
                        crate::protocol::PROTO_VERSION
                    ),
                ),
            ),
            _ => match request.verb {
                // Monitoring verbs never queue: they must answer while
                // the service is saturated.
                Verb::Stats => {
                    let mut r = Response::ok(&request.id);
                    r.stats = Some(self.stats_report());
                    r
                }
                Verb::Health => {
                    let mut r = Response::ok(&request.id);
                    r.health = Some(HealthReport {
                        status: "ok".into(),
                        datasets: inner
                            .catalog
                            .dataset_names()
                            .into_iter()
                            .map(String::from)
                            .collect(),
                        uptime_ms: inner.metrics.uptime().as_millis() as u64,
                        shard_id: inner.config.shard_id.clone(),
                        catalog_epoch: Some(self.catalog_epoch()),
                        stage_cache_bytes: Some(inner.ctx.stage_cache().stats().bytes),
                    });
                    r
                }
                Verb::Catalog => {
                    let mut r = Response::ok(&request.id);
                    r.catalog = Some(self.catalog_info());
                    r
                }
                Verb::Shutdown => {
                    // The front end decides what shutdown means; the
                    // service just acknowledges and stops its own
                    // workers.
                    Response::ok(&request.id)
                }
                // Appends run inline on the connection thread: they are
                // cheap by design (window sweeps reuse the emission
                // cache) and must stay ordered with respect to each
                // other on a connection.
                Verb::Append => self.handle_append(&request),
                // A subscription needs a streaming-capable transport; a
                // plain `handle` has no sink to push frames to.
                Verb::Query if request.subscribe == Some(true) => Response::fail(
                    &request.id,
                    ErrorBody::new(
                        codes::STREAM_UNSUPPORTED,
                        "standing queries (`subscribe: true`) need a streaming-capable \
                         connection; this path cannot deliver pushed frames",
                    ),
                ),
                Verb::Query | Verb::Explain => self.enqueue_and_wait(request, started),
            },
        };
        response.proto_version = Some(crate::protocol::PROTO_VERSION);
        let ok = response.is_ok();
        inner.metrics.finished(started.elapsed(), |r| {
            r.requests_ok += u64::from(ok);
            r.requests_error += u64::from(!ok);
        });
        response
    }

    /// Handle one request on a streaming-capable transport: like
    /// [`QueryService::handle`], but `subscribe: true` queries register
    /// a standing query whose window frames are pushed to `sink` for the
    /// rest of the connection's life. This is the entry point the TCP
    /// front end uses for every request.
    pub fn handle_streaming(&self, request: Request, sink: &Arc<dyn EmissionSink>) -> Response {
        if request.verb != Verb::Query || request.subscribe != Some(true) {
            return self.handle(request);
        }
        let inner = &self.inner;
        inner.metrics.update(|r| r.requests_total += 1);
        let started = Instant::now();
        let mut response = match request.proto_version {
            Some(v) if v != crate::protocol::PROTO_VERSION => Response::fail(
                &request.id,
                ErrorBody::new(
                    codes::PROTO_MISMATCH,
                    format!(
                        "peer speaks protocol v{v}, this worker speaks v{}",
                        crate::protocol::PROTO_VERSION
                    ),
                ),
            ),
            _ => self.handle_subscribe(&request, sink),
        };
        response.proto_version = Some(crate::protocol::PROTO_VERSION);
        let ok = response.is_ok();
        inner.metrics.finished(started.elapsed(), |r| {
            r.requests_ok += u64::from(ok);
            r.requests_error += u64::from(!ok);
        });
        response
    }

    /// Count one request that arrived over the wire (called by the TCP
    /// front end).
    pub fn note_protocol_request(&self) {
        self.inner.metrics.update(|r| r.requests_binary += 1);
    }

    /// Drop every subscription bound to `sink` (its connection ended).
    pub fn connection_closed(&self, sink: &Arc<dyn EmissionSink>) {
        let inner = &self.inner;
        let mut stream = inner.stream.lock();
        let mut subs = inner.subs.lock();
        subs.retain(|b| {
            if Arc::ptr_eq(&b.sink, sink) {
                if stream.unsubscribe(&b.query_id) {
                    inner
                        .metrics
                        .update(|r| r.stream().subscriptions_closed += 1);
                }
                false
            } else {
                true
            }
        });
    }

    /// Register a standing query (the `subscribe: true` path).
    fn handle_subscribe(&self, request: &Request, sink: &Arc<dyn EmissionSink>) -> Response {
        let inner = &self.inner;
        let id = &request.id;
        let spec = match &request.query {
            Some(spec) => spec,
            None => {
                return Response::fail(
                    id,
                    ErrorBody::new(codes::BAD_REQUEST, "subscribe requires a `query` payload"),
                )
            }
        };
        if spec.domains.is_empty() || spec.values.is_empty() {
            return Response::fail(
                id,
                ErrorBody::new(codes::BAD_REQUEST, "query needs domains and values"),
            );
        }
        let query = Query {
            domains: spec.domains.clone(),
            values: spec
                .values
                .iter()
                .map(|v| QueryValue {
                    dimension: v.dimension.clone(),
                    units: v.units.clone(),
                })
                .collect(),
        };
        let query_id = format!(
            "s{:06}-{}",
            inner.query_seq.fetch_add(1, Ordering::Relaxed),
            id
        );
        let mut stream = inner.stream.lock();
        if stream.subscription_count(&request.tenant) >= inner.config.max_subscriptions_per_tenant {
            return Response::fail(
                id,
                ErrorBody::new(
                    codes::SUBSCRIPTION_LIMIT,
                    format!(
                        "tenant `{}` already holds {} standing queries (the per-tenant limit)",
                        request.tenant, inner.config.max_subscriptions_per_tenant
                    ),
                ),
            );
        }
        if let Err(e) = stream.subscribe(&query_id, &request.tenant, &query) {
            return Response::fail(id, ErrorBody::new(codes::BAD_REQUEST, e.to_string()));
        }
        inner.subs.lock().push(SubBinding {
            query_id: query_id.clone(),
            request_id: id.clone(),
            sink: Arc::clone(sink),
        });
        inner
            .metrics
            .update(|r| r.stream().subscriptions_opened += 1);
        let mut r = Response::ok(id);
        r.query_id = Some(query_id.clone());
        r.subscription = Some(SubscriptionAck {
            query_id,
            window_secs: inner.config.stream.window_secs,
            allowed_lateness_secs: inner.config.stream.allowed_lateness_secs,
        });
        r
    }

    /// Apply one append batch and push any resulting window frames to
    /// their subscribers. The engine mutation runs under the stream
    /// lock; frame delivery does **not** — the appender hands over to
    /// the `delivery` lock (acquired before releasing `stream`, which
    /// keeps each subscriber's frame order equal to emission order) so
    /// a subscriber with a full TCP send buffer blocks other
    /// *deliveries* at worst, never the engine, stats, subscription
    /// registration, or connection teardown.
    fn handle_append(&self, request: &Request) -> Response {
        let inner = &self.inner;
        let id = &request.id;
        let batch = match &request.append {
            Some(batch) => batch,
            None => {
                return Response::fail(
                    id,
                    ErrorBody::new(codes::BAD_REQUEST, "append requires an `append` payload"),
                )
            }
        };
        let bulk = request.bulk == Some(true);
        let (outcome, delivery) = {
            let mut stream = inner.stream.lock();
            let result = if bulk {
                stream.append_bulk(batch)
            } else {
                stream.append(batch)
            };
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(e) => {
                    return Response::fail(id, ErrorBody::new(codes::BAD_REQUEST, e.to_string()))
                }
            };
            // Hand-over-hand: take the delivery lock while the stream
            // lock still serializes us, then let the stream go before
            // any blocking TCP write below.
            (outcome, inner.delivery.lock())
        };
        // Frames go out before the ack so a single-connection client
        // (the appender is also the subscriber) observes windows before
        // the append that produced them completes. Building the send
        // plan takes the subs lock only briefly; the blocking writes
        // below happen holding nothing but `delivery`, so a stalled
        // consumer cannot wedge subscription registration or teardown
        // either.
        let mut sends: Vec<(Arc<dyn EmissionSink>, Response, String)> = Vec::new();
        let mut dead: Vec<String> = Vec::new();
        {
            let subs = inner.subs.lock();
            for e in &outcome.emissions {
                let Some(b) = subs.iter().find(|b| b.query_id == e.query_id) else {
                    continue;
                };
                let mut frame = Response::ok(&b.request_id);
                if e.degraded {
                    frame.status = "degraded".into();
                    frame.error = e.error.clone().map(|m| ErrorBody::new(codes::DEGRADED, m));
                }
                frame.query_id = Some(e.query_id.clone());
                frame.window = Some(e.clone());
                frame.proto_version = Some(crate::protocol::PROTO_VERSION);
                sends.push((Arc::clone(&b.sink), frame, e.query_id.clone()));
            }
            // A failed solve tears down exactly that subscription (the
            // engine already dropped it); the connection and the
            // tenant's other standing queries are untouched.
            for f in &outcome.failures {
                let Some(b) = subs.iter().find(|b| b.query_id == f.query_id) else {
                    continue;
                };
                let code = if f.truncated {
                    codes::SEARCH_TRUNCATED
                } else {
                    codes::NO_SOLUTION
                };
                let mut frame =
                    Response::fail(&b.request_id, ErrorBody::new(code, f.error.clone()));
                frame.query_id = Some(f.query_id.clone());
                frame.proto_version = Some(crate::protocol::PROTO_VERSION);
                inner.metrics.update(|r| {
                    r.searches_truncated += u64::from(f.truncated);
                    r.stream().subscriptions_failed += 1;
                });
                sends.push((Arc::clone(&b.sink), frame, f.query_id.clone()));
                dead.push(f.query_id.clone());
            }
        }
        for (sink, frame, query_id) in &sends {
            if sink.send(frame).is_err() && !dead.contains(query_id) {
                dead.push(query_id.clone());
            }
        }
        // Re-acquiring `stream` for teardown needs the delivery lock
        // released first (lock order is stream → delivery).
        drop(delivery);
        if !dead.is_empty() {
            let mut stream = inner.stream.lock();
            inner.subs.lock().retain(|b| !dead.contains(&b.query_id));
            for qid in &dead {
                // Engine-side entries remain only for dead *sinks*;
                // failed solves were already unregistered.
                if stream.unsubscribe(qid) {
                    inner
                        .metrics
                        .update(|r| r.stream().subscriptions_closed += 1);
                }
            }
        }
        let mut r = Response::ok(id);
        r.append = Some(AppendAck {
            accepted: outcome.accepted,
            duplicates_dropped: outcome.duplicates_dropped,
            late_dropped: outcome.late_dropped,
            watermark_us: outcome.watermark_us,
            invalidated: outcome.invalidated,
            windows_emitted: outcome.emissions.len(),
        });
        r
    }

    /// This catalog's epoch: a content fingerprint over dataset names
    /// and schemas, minted at construction.
    pub fn catalog_epoch(&self) -> u64 {
        self.inner.catalog_epoch.load(Ordering::Relaxed)
    }

    /// Force a new catalog epoch (test hook for "the shard was
    /// reloaded"): routers heartbeating this worker must observe the
    /// change and invalidate.
    pub fn bump_catalog_epoch(&self) {
        self.inner.catalog_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// The shard described at the schema level (the `catalog` verb).
    pub fn catalog_info(&self) -> CatalogInfo {
        let mut datasets: Vec<DatasetDesc> = self
            .inner
            .catalog
            .datasets()
            .map(|(name, ds)| DatasetDesc {
                name: name.to_string(),
                schema_json: serde_json::to_string(ds.schema()).unwrap_or_default(),
            })
            .collect();
        datasets.sort_by(|a, b| a.name.cmp(&b.name));
        CatalogInfo {
            shard_id: self.inner.config.shard_id.clone(),
            epoch: self.catalog_epoch(),
            datasets,
        }
    }

    fn enqueue_and_wait(&self, request: Request, started: Instant) -> Response {
        let inner = &self.inner;
        let id = request.id.clone();
        let tenant = request.tenant.clone();
        // The correlation id is assigned here, at admission, so even
        // rejected and timed-out requests can be matched against
        // server-side logs and traces.
        let query_id = format!(
            "q{:06}-{}",
            inner.query_seq.fetch_add(1, Ordering::Relaxed),
            id
        );
        if request.wants_trace() {
            // First traced request flips the shared tracer on for the
            // rest of the process; the cost when idle is one relaxed
            // atomic load per instrumentation site.
            inner.ctx.tracer().enable();
        }
        let timeout = request
            .timeout_ms
            .map(Duration::from_millis)
            .unwrap_or(inner.config.scheduler.default_timeout);
        let deadline = started + timeout;
        let slot = ResponseSlot::new();
        let job = Job {
            request,
            tenant: tenant.clone(),
            enqueued: started,
            deadline,
            slot: Arc::clone(&slot),
            query_id: query_id.clone(),
        };
        match inner.scheduler.submit(job) {
            Ok(depth) => inner.metrics.tenant(&tenant, |r, t| {
                t.admitted += 1;
                r.note_queue_depth(depth);
            }),
            Err(AdmissionError::QueueFull { depth, capacity }) => {
                inner.metrics.tenant(&tenant, |r, t| {
                    t.rejected += 1;
                    r.rejected_queue_full += 1;
                });
                let mut r = Response::fail(
                    &id,
                    ErrorBody::new(
                        codes::QUEUE_FULL,
                        format!("admission queue at capacity ({depth}/{capacity}); retry later"),
                    ),
                );
                r.query_id = Some(query_id);
                return r;
            }
            Err(AdmissionError::ShuttingDown) => {
                let mut r = Response::fail(
                    &id,
                    ErrorBody::new(codes::SHUTDOWN, "service is shutting down"),
                );
                r.query_id = Some(query_id);
                return r;
            }
        }
        match slot.wait_until(deadline) {
            Some(response) => {
                inner.metrics.tenant(&tenant, |_, t| t.completed += 1);
                response
            }
            None => {
                inner.metrics.tenant(&tenant, |r, t| {
                    r.timeouts += 1;
                    t.completed += 1;
                });
                let mut r = Response::fail(
                    &id,
                    ErrorBody::new(
                        codes::TIMEOUT,
                        format!("deadline of {}ms elapsed", timeout.as_millis()),
                    ),
                );
                r.query_id = Some(query_id);
                r
            }
        }
    }

    /// Current service metrics, including every cache level and the
    /// streaming section.
    pub fn stats_report(&self) -> StatsReport {
        let inner = &self.inner;
        // Read everything kept outside the registry first: its lock is a
        // leaf.
        let uptime = inner.metrics.uptime();
        let (plan, result) = (inner.plan_cache.stats(), inner.result_cache.stats());
        let stage = inner.ctx.stage_cache().stats();
        let depth = inner.scheduler.depth();
        let (counters, active) = {
            let stream = inner.stream.lock();
            (stream.counters(), stream.subscriptions().len() as u64)
        };
        inner.metrics.snapshot(|r, latency, tenants| {
            r.uptime_ms = uptime.as_millis() as u64;
            r.note_queue_depth(depth);
            r.latency_count = latency.count();
            r.latency_ms_p50 = latency.quantile_ms(0.50);
            r.latency_ms_p90 = latency.quantile_ms(0.90);
            r.latency_ms_p99 = latency.quantile_ms(0.99);
            r.latency_ms_max = latency.max_ms();
            r.plan_cache_entries = plan.entries;
            r.plan_cache_hits = plan.hits;
            r.plan_cache_misses = plan.misses;
            r.plan_cache_bytes = plan.bytes;
            r.plan_cache_evictions = plan.evictions;
            r.result_cache_entries = result.entries;
            r.result_cache_bytes = result.bytes;
            r.result_cache_hits = result.hits;
            r.result_cache_misses = result.misses;
            r.result_cache_evictions = result.evictions;
            r.stage_cache_entries = stage.entries;
            r.stage_cache_bytes = stage.bytes;
            r.stage_cache_hits = stage.hits;
            r.stage_cache_misses = stage.misses;
            r.stage_cache_evictions = stage.evictions;
            r.per_tenant = tenants;
            let s = r.stream();
            s.appends = counters.appends;
            s.rows_accepted = counters.rows_accepted;
            s.rows_late_dropped = counters.rows_late_dropped;
            s.rows_duplicate_dropped = counters.rows_duplicate_dropped;
            s.subscriptions_active = active;
            s.window_emissions = counters.window_emissions;
            s.window_re_emissions = counters.window_re_emissions;
            s.incremental_recomputes = counters.incremental_recomputes;
            s.degraded_windows = counters.degraded_windows;
            s.cache_invalidations = stage.invalidations;
        })
    }

    /// Dataset names served by this session's catalog.
    pub fn dataset_names(&self) -> Vec<String> {
        self.inner
            .catalog
            .dataset_names()
            .into_iter()
            .map(String::from)
            .collect()
    }

    /// Stop the worker pool, answering still-queued jobs with a shutdown
    /// error, and return the final metrics snapshot.
    pub fn shutdown(&self) -> StatsReport {
        for job in self.inner.scheduler.shutdown() {
            job.slot.fulfill(Response::fail(
                &job.request.id,
                ErrorBody::new(codes::SHUTDOWN, "service is shutting down"),
            ));
        }
        let workers = std::mem::take(&mut *self.inner.workers.lock());
        for handle in workers {
            let _ = handle.join();
        }
        self.stats_report()
    }
}

/// FNV-1a fingerprint of a catalog's dataset names and schemas: the
/// catalog epoch. Deterministic across processes for identical shards,
/// and any rename/reshape/addition changes it.
fn catalog_fingerprint(catalog: &Catalog) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut names: Vec<&str> = catalog.dataset_names();
    names.sort_unstable();
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for name in names {
        eat(name.as_bytes());
        eat(b"\x00");
        if let Ok(ds) = catalog.dataset(name) {
            if let Ok(schema_json) = serde_json::to_string(ds.schema()) {
                eat(schema_json.as_bytes());
            }
        }
        eat(b"\x01");
    }
    h
}

/// Classify a plan-execution failure. A task that exhausted its retry
/// budget under an installed fault plan is an expected, per-request
/// outcome — the service is healthy, the query lost the fault lottery —
/// so it becomes a structured `degraded` response carrying the request's
/// fault/retry accounting. Anything else is a plain `exec_failed`.
/// Neither outcome reaches the result cache (both return before `put`).
fn exec_error(
    inner: &ServiceInner,
    id: &str,
    baseline: &sjdf::metrics::MetricsReport,
    message: &str,
) -> Response {
    let delta = inner.ctx.metrics.report().delta_since(baseline);
    // The stable marker in `SjdfError::ExhaustedRetries`'s Display; the
    // error crosses the sjcore boundary as a string, so classification
    // happens on the rendered message.
    let degraded = message.contains("exhausted retry budget");
    inner.metrics.update(|r| {
        r.note_failures(&delta.failures);
        r.requests_degraded += u64::from(degraded);
    });
    if degraded {
        if inner.ctx.tracer().enabled() {
            let brief: String = message.chars().take(120).collect();
            inner.ctx.tracer().instant("degraded", brief);
        }
        return Response::degraded(id, ErrorBody::new(codes::DEGRADED, message), delta.failures);
    }
    Response::fail(id, ErrorBody::new(codes::EXEC_FAILED, message))
}

fn worker_loop(inner: &ServiceInner) {
    while let Some((job, depth)) = inner.scheduler.next_job() {
        inner.metrics.update(|r| r.note_queue_depth(depth));
        if job.slot.is_cancelled() {
            // The client's deadline passed while the job sat in the
            // queue; it was already answered with a timeout.
            continue;
        }
        if Instant::now() >= job.deadline {
            inner.metrics.update(|r| r.timeouts += 1);
            job.slot.fulfill(Response::fail(
                &job.request.id,
                ErrorBody::new(codes::TIMEOUT, "deadline elapsed while queued"),
            ));
            continue;
        }
        inner.metrics.update(|r| r.in_flight += 1);
        let response = execute(inner, &job);
        inner.metrics.update(|r| r.in_flight -= 1);
        job.slot.fulfill(response);
    }
}

/// Stamp the server-assigned query id everywhere a client might need to
/// correlate: the response itself, its failure report (degraded
/// responses), and the failure accounting inside the engine metrics.
fn stamp_query_id(response: &mut Response, query_id: &str) {
    response.query_id = Some(query_id.to_string());
    if let Some(failure) = response.failure.as_mut() {
        failure.query_id = Some(query_id.to_string());
    }
    if let Some(metrics) = response
        .result
        .as_mut()
        .and_then(|r| r.engine_metrics.as_mut())
    {
        metrics.failures.query_id = Some(query_id.to_string());
    }
}

/// Make a query id safe to use as a file stem: the request-id half is
/// client-supplied and could carry separators or parent-dir hops.
fn trace_file_stem(query_id: &str) -> String {
    query_id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Abandoned spans older than this are pruned from the shared tracer
/// after each request, bounding sink growth in a long-running service.
const TRACE_RETENTION_US: u64 = 300_000_000;

/// Execute one job with its request-scoped trace: a retroactive `request`
/// root span opened at admission time, a `queue_wait` child covering the
/// time spent in the admission queue, and everything the engine records
/// underneath. After execution the request's span tree is extracted from
/// the shared tracer, summarized onto the response when the client asked
/// for it, and persisted to the trace dir when the query was slow or
/// unhealthy.
fn execute(inner: &ServiceInner, job: &Job) -> Response {
    let tracer = inner.ctx.tracer().clone();
    if !tracer.enabled() {
        let mut response = execute_query(inner, job);
        stamp_query_id(&mut response, &job.query_id);
        return response;
    }
    let now = tracer.now_us();
    let queued_us = job.enqueued.elapsed().as_micros() as u64;
    let start = now.saturating_sub(queued_us);
    let mut root = tracer.span_at("request", start);
    let root_id = root.root();
    if root.is_recording() {
        root.set_detail(format!("query_id={} tenant={}", job.query_id, job.tenant));
        tracer.record_span(RecordedSpan {
            name: "queue_wait",
            detail: format!("{queued_us}us queued"),
            parent: root.id(),
            root: root_id,
            start_us: start,
            end_us: now,
            failed: false,
            kind: EventKind::Span,
        });
    }
    let mut response = execute_query(inner, job);
    stamp_query_id(&mut response, &job.query_id);
    if !response.is_ok() {
        root.fail();
    }
    drop(root);

    let events = tracer.take_root(root_id);
    tracer.prune_before(tracer.now_us().saturating_sub(TRACE_RETENTION_US));
    let (spans, dropped) = (events.len() as u64, tracer.dropped());
    inner.metrics.update(|r| r.note_trace(spans, dropped));

    let mut chrome_json: Option<String> = None;
    let thread_names = tracer.thread_names();
    if job.request.wants_trace() {
        let json = sjtrace::export::chrome_trace_json(&events, &thread_names, "sjserve");
        chrome_json = Some(json.clone());
        response.trace = Some(TraceSummary {
            query_id: job.query_id.clone(),
            span_count: events.len() as u64,
            dropped_spans: tracer.dropped(),
            timeline: sjtrace::timeline::render(&events),
            chrome_json: Some(json),
            // Ship the raw tree so a fronting router can graft this
            // worker's timeline under its own route span.
            spans: Some(events.clone()),
        });
    }
    if let Some(dir) = &inner.config.trace_dir {
        let elapsed_ms = job.enqueued.elapsed().as_millis() as u64;
        if !response.is_ok() || elapsed_ms >= inner.config.trace_slow_ms {
            let json = chrome_json.unwrap_or_else(|| {
                sjtrace::export::chrome_trace_json(&events, &thread_names, "sjserve")
            });
            let path = dir.join(format!("{}.trace.json", trace_file_stem(&job.query_id)));
            // Trace persistence is best-effort: an unwritable dir must
            // not fail the query it was meant to explain.
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(path, json);
        }
    }
    response
}

/// Solve (through the plan cache) and, for `query`, execute (through the
/// result cache).
fn execute_query(inner: &ServiceInner, job: &Job) -> Response {
    let id = &job.request.id;
    let spec = match &job.request.query {
        Some(spec) => spec,
        None => {
            return Response::fail(
                id,
                ErrorBody::new(
                    codes::BAD_REQUEST,
                    "query/explain requires a `query` payload",
                ),
            )
        }
    };
    if spec.domains.is_empty() || spec.values.is_empty() {
        return Response::fail(
            id,
            ErrorBody::new(codes::BAD_REQUEST, "query needs domains and values"),
        );
    }

    let window = spec
        .window_secs
        .unwrap_or(inner.config.engine.interp_window_secs);
    let step = spec
        .step_secs
        .unwrap_or(inner.config.engine.explode_step_secs);
    // Admission-time knob validation: NaN/infinite/negative windows can
    // neither key a plan cache entry nor drive interpolation sensibly.
    if !window.is_finite() || window < 0.0 || !step.is_finite() || step < 0.0 {
        return Response::fail(
            id,
            ErrorBody::new(
                codes::BAD_REQUEST,
                format!(
                    "window_secs and step_secs must be finite and non-negative \
                     (got window={window}, step={step})"
                ),
            ),
        );
    }
    let query = Query {
        domains: spec.domains.clone(),
        values: spec
            .values
            .iter()
            .map(|v| QueryValue {
                dimension: v.dimension.clone(),
                units: v.units.clone(),
            })
            .collect(),
    };
    let canonical = match query.canonicalize(inner.catalog.dict()) {
        Ok(q) => q,
        Err(e) => return Response::fail(id, ErrorBody::new(codes::BAD_REQUEST, e.to_string())),
    };
    let key = match PlanKey::new(&canonical, window, step) {
        Some(key) => key,
        // Unreachable after the validation above, but never panic a
        // worker over a key.
        None => {
            return Response::fail(
                id,
                ErrorBody::new(codes::BAD_REQUEST, "window/step do not form a plan key"),
            )
        }
    };

    // Level 1: memoized derivation search.
    let tracer = inner.ctx.tracer();
    let (plan, plan_cache_hit) = match inner.plan_cache.get(&key) {
        Some(plan) => {
            tracer.instant("plan_cache_hit", "");
            (plan, true)
        }
        None => {
            tracer.instant("plan_cache_miss", "");
            let mut solve_span = tracer.span("solve");
            let engine = QueryEngine::with_config(
                &inner.catalog,
                EngineConfig {
                    interp_window_secs: window,
                    explode_step_secs: step,
                    ..inner.config.engine.clone()
                },
            );
            let solved = engine.solve(&canonical);
            // The per-request engine starts from zeroed stats, so its
            // reading is exactly this solve's effort.
            let effort = engine.stats();
            inner.metrics.update(|r| {
                r.planner_pair_tests += effort.pair_tests;
                r.planner_memo_hits += effort.memo_hits;
                r.planner_datasets_considered += effort.datasets_considered as u64;
            });
            match solved {
                Ok(plan) => (inner.plan_cache.insert(key, plan), false),
                Err(SjError::NoSolution(msg)) => {
                    solve_span.fail();
                    return Response::fail(id, ErrorBody::new(codes::NO_SOLUTION, msg));
                }
                Err(e @ SjError::SearchTruncated { .. }) => {
                    solve_span.fail();
                    inner.metrics.update(|r| r.searches_truncated += 1);
                    return Response::fail(
                        id,
                        ErrorBody::new(codes::SEARCH_TRUNCATED, e.to_string()),
                    );
                }
                Err(e) => {
                    solve_span.fail();
                    return Response::fail(id, ErrorBody::new(codes::BAD_REQUEST, e.to_string()));
                }
            }
        }
    };

    if job.request.verb == Verb::Explain {
        let mut r = Response::ok(id);
        r.plan = Some(PlanInfo {
            plan_json: plan.to_json(),
            plan_text: plan.describe(),
            fingerprint: plan.fingerprint(),
            plan_cache_hit,
        });
        return r;
    }

    // Level 2: materialized rows keyed by plan fingerprint.
    let fingerprint = plan.fingerprint();
    let (entry, result_cache_hit, engine_metrics) = match inner.result_cache.get(fingerprint) {
        Some(entry) => {
            tracer.instant("result_cache_hit", "");
            (entry, true, None)
        }
        None => {
            tracer.instant("result_cache_miss", "");
            let mut exec_span = tracer.span("execute");
            let baseline = inner.ctx.metrics.report();
            let ds = match plan.execute(&inner.catalog, None) {
                Ok(ds) => ds,
                Err(e) => {
                    exec_span.fail();
                    drop(exec_span);
                    return exec_error(inner, id, &baseline, &e.to_string());
                }
            };
            let rows = match ds.collect() {
                Ok(rows) => rows,
                Err(e) => {
                    exec_span.fail();
                    drop(exec_span);
                    return exec_error(inner, id, &baseline, &e.to_string());
                }
            };
            drop(exec_span);
            let entry = inner
                .result_cache
                .put(fingerprint, ds.schema().clone(), rows);
            // Attribute the collector's growth to this evaluation.
            // Concurrent evaluations may interleave (the collector is
            // shared), so this is an attribution, not an isolation.
            let delta = inner.ctx.metrics.report().delta_since(&baseline);
            inner.metrics.update(|r| r.note_failures(&delta.failures));
            (entry, false, Some(delta))
        }
    };
    let (schema, rows) = &*entry;

    let limit = spec.limit.unwrap_or(inner.config.default_limit);
    let row_count = rows.len();
    let truncated = row_count > limit;
    let columns: Vec<String> = schema.fields().iter().map(|f| f.name.clone()).collect();
    let ncols = schema.len();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .take(limit)
        .map(|row| (0..ncols).map(|i| row.get(i).to_string()).collect())
        .collect();

    let mut r = Response::ok(id);
    r.result = Some(QueryResult {
        columns,
        rows: rendered,
        row_count,
        truncated,
        plan_cache_hit,
        result_cache_hit,
        elapsed_ms: job.enqueued.elapsed().as_secs_f64() * 1e3,
        engine_metrics,
    });
    r
}
