//! The router: one [`Router`] fronts N `sjserved` workers.
//!
//! A routed query goes through the same admission discipline as a worker
//! (bounded per-tenant queues, round-robin dispatch, deadlines — the
//! scheduler is literally [`sjserve::scheduler`]), then:
//!
//! 1. the query is canonicalized and solved against the **combined
//!    planning catalog** (every worker's schemas, zero rows), through a
//!    plan cache — proving the fleet can answer at all, without
//!    touching data;
//! 2. if some live worker's **own** catalog derives the whole query
//!    with that same plan (fingerprint equality, see
//!    [`crate::topology`]), it is forwarded there (single-shard route),
//!    with one failover retry to the next capable worker in ring order;
//! 3. otherwise the query is split per value dimension, each sub-query
//!    routed to a worker that locally reproduces *its* reference
//!    derivation, fanned out concurrently, and the partial tables are
//!    merged by a natural join on the query's domain columns
//!    (scatter-gather);
//! 4. merged `ok` responses land in a bounded route cache, invalidated
//!    wholesale whenever any worker's catalog epoch changes.
//!
//! A background heartbeat probes `health` on every worker: consecutive
//! failures mark a worker down (routing skips it until it answers
//! again), and an epoch change triggers a catalog refetch plus cache
//! invalidation. When the client asks for a trace, each worker's span
//! tree (shipped on its response) is grafted under the router's
//! `worker_call` span, so one timeline covers router queue, per-worker
//! execution, and merge.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sjcore::engine::{EngineConfig, Plan, Query, QueryEngine, QueryValue};
use sjcore::SjError;
use sjdf::ExecCtx;
use sjserve::cache::{PlanCacheLayer, PlanKey};
use sjserve::client::{Client, ClientError};
use sjserve::metrics::{Registry, RouterStatsReport};
use sjserve::protocol::{
    codes, CatalogInfo, ErrorBody, HealthReport, PlanInfo, QuerySpec, Request, Response,
    SubscriptionAck, TraceSummary, Verb, PROTO_VERSION,
};
use sjserve::scheduler::{AdmissionError, Job, ResponseSlot, Scheduler, SchedulerConfig};
use sjserve::server::{EmissionSink, RequestHandler};
use sjtrace::{EventKind, RecordedSpan, SpanEvent, SpanId};

use crate::cache::RouteCache;
use crate::stream::RouterStreams;
use crate::topology::Topology;

/// Router-wide tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Admission and route-worker sizing (same discipline as a worker).
    pub scheduler: SchedulerConfig,
    /// Engine defaults for the routing-level solve. Must match the
    /// workers' engine configuration, or the router's predicted covers
    /// can disagree with what workers actually execute.
    pub engine: EngineConfig,
    /// Rows returned per query when the request has no `limit`.
    pub default_limit: usize,
    /// Row budget per scatter-gather sub-query: partials must not be
    /// truncated before the merge, so this is deliberately large.
    pub fanout_limit: usize,
    /// Heartbeat period.
    pub heartbeat: Duration,
    /// Read timeout on heartbeat probes and boot-time catalog fetches.
    pub probe_timeout: Duration,
    /// Consecutive failed calls/probes before a worker is marked down.
    pub markdown_after: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            scheduler: SchedulerConfig::default(),
            engine: EngineConfig::default(),
            default_limit: 1000,
            fanout_limit: 100_000,
            heartbeat: Duration::from_secs(2),
            probe_timeout: Duration::from_millis(500),
            markdown_after: 2,
        }
    }
}

pub(crate) struct RouterInner {
    pub(crate) config: RouterConfig,
    pub(crate) topology: Topology,
    /// Planning-only context: hosts the zero-row catalog datasets and
    /// the router's tracer. No query data flows through it.
    pub(crate) ctx: ExecCtx,
    pub(crate) plan_cache: PlanCacheLayer,
    pub(crate) route_cache: RouteCache,
    pub(crate) metrics: Registry<RouterStatsReport>,
    /// Standing queries routed across the fleet (see [`crate::stream`]).
    pub(crate) streams: RouterStreams,
    scheduler: Scheduler,
    route_workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    heartbeat_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    stop: AtomicBool,
    query_seq: AtomicU64,
}

/// A running router. Cheap to clone; all clones share one topology,
/// scheduler, and cache.
#[derive(Clone)]
pub struct Router {
    inner: Arc<RouterInner>,
}

impl Router {
    /// Probe every worker's `catalog`, build the planning state, and
    /// start the route-worker pool and heartbeat. Unreachable workers
    /// start marked down (the heartbeat keeps trying); zero reachable
    /// workers is an error.
    pub fn new(worker_addrs: Vec<String>, config: RouterConfig) -> Result<Router, String> {
        if worker_addrs.is_empty() {
            return Err("router needs at least one worker address".into());
        }
        let inner = Arc::new(RouterInner {
            topology: Topology::new(worker_addrs),
            ctx: ExecCtx::local(),
            plan_cache: PlanCacheLayer::new(),
            route_cache: RouteCache::default(),
            metrics: Registry::new(),
            streams: RouterStreams::new(),
            scheduler: Scheduler::new(config.scheduler.clone()),
            route_workers: Mutex::new(Vec::new()),
            heartbeat_thread: Mutex::new(None),
            stop: AtomicBool::new(false),
            query_seq: AtomicU64::new(0),
            config,
        });
        let mut reachable = 0;
        let mut last_err = String::new();
        for idx in 0..inner.topology.workers.len() {
            match fetch_catalog(&inner, idx) {
                Ok(info) => {
                    inner.topology.refresh(idx, info, &inner.ctx);
                    reachable += 1;
                }
                Err(e) => last_err = e,
            }
        }
        if reachable == 0 {
            return Err(format!("no reachable workers ({last_err})"));
        }
        let router = Router { inner };
        router.start_workers();
        router.start_heartbeat();
        Ok(router)
    }

    fn start_workers(&self) {
        let mut workers = self.inner.route_workers.lock();
        for i in 0..self.inner.config.scheduler.workers.max(1) {
            let inner = Arc::clone(&self.inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sjroute-worker-{i}"))
                    .spawn(move || route_worker_loop(&inner))
                    .expect("spawn route worker"),
            );
        }
    }

    fn start_heartbeat(&self) {
        let inner = Arc::clone(&self.inner);
        *self.inner.heartbeat_thread.lock() = Some(
            std::thread::Builder::new()
                .name("sjroute-heartbeat".into())
                .spawn(move || heartbeat_loop(&inner))
                .expect("spawn heartbeat"),
        );
    }

    /// Handle one request end to end (the TCP front end and in-process
    /// embedders both enter here).
    pub fn handle(&self, request: Request) -> Response {
        let inner = &self.inner;
        let started = Instant::now();
        let mut response = match request.proto_version {
            Some(v) if v != PROTO_VERSION => Response::fail(
                &request.id,
                ErrorBody::new(
                    codes::PROTO_MISMATCH,
                    format!("peer speaks protocol v{v}, this router speaks v{PROTO_VERSION}"),
                ),
            ),
            _ => match request.verb {
                Verb::Stats => {
                    let mut r = Response::ok(&request.id);
                    r.router_stats = Some(self.stats_report());
                    r
                }
                Verb::Health => {
                    let mut r = Response::ok(&request.id);
                    let all_up = inner.topology.workers.iter().all(|w| w.healthy());
                    r.health = Some(HealthReport {
                        status: if all_up { "ok" } else { "degraded" }.into(),
                        datasets: inner.topology.all_datasets(),
                        uptime_ms: inner.metrics.uptime().as_millis() as u64,
                        shard_id: None,
                        catalog_epoch: Some(inner.topology.combined_epoch()),
                        stage_cache_bytes: None,
                    });
                    r
                }
                Verb::Catalog => {
                    let mut r = Response::ok(&request.id);
                    r.catalog = Some(CatalogInfo {
                        shard_id: None,
                        epoch: inner.topology.combined_epoch(),
                        datasets: inner.topology.combined_datasets(),
                    });
                    r
                }
                Verb::Shutdown => Response::ok(&request.id),
                // Appends run inline on the connection thread (same as
                // a worker) so forwarded batches stay ordered per
                // connection — the lockstep frame merge depends on
                // every fed worker seeing the same accepted prefix.
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
        response.proto_version = Some(PROTO_VERSION);
        response
    }

    /// Handle one request on a streaming-capable transport: like
    /// [`Router::handle`], but `subscribe: true` opens a fleet-wide
    /// standing query whose merged window frames are pushed to `sink`
    /// for the rest of the connection's life.
    pub fn handle_streaming(&self, request: Request, sink: &Arc<dyn EmissionSink>) -> Response {
        if request.verb != Verb::Query || request.subscribe != Some(true) {
            return self.handle(request);
        }
        let mut response = match request.proto_version {
            Some(v) if v != PROTO_VERSION => Response::fail(
                &request.id,
                ErrorBody::new(
                    codes::PROTO_MISMATCH,
                    format!("peer speaks protocol v{v}, this router speaks v{PROTO_VERSION}"),
                ),
            ),
            _ => self.handle_subscribe(&request, sink),
        };
        response.proto_version = Some(PROTO_VERSION);
        response
    }

    /// Drop every routed subscription bound to `sink` (its connection
    /// ended).
    pub fn connection_closed(&self, sink: &Arc<dyn EmissionSink>) {
        self.inner.streams.connection_closed(&self.inner, sink);
    }

    /// Forward one append batch to **every** live worker holding the
    /// dataset. All owners must ingest the same prefix in the same
    /// order, or their standing-query emissions diverge; a worker that
    /// misses a batch is treated as lost by every routed subscription
    /// it feeds (see [`crate::stream`]).
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
        let owners: Vec<usize> = inner
            .topology
            .planning()
            .owners
            .get(&batch.dataset)
            .cloned()
            .unwrap_or_default();
        if owners.is_empty() {
            return Response::fail(
                id,
                ErrorBody::new(
                    codes::NO_ROUTE,
                    format!("no worker holds dataset `{}`", batch.dataset),
                ),
            );
        }
        let live: Vec<usize> = owners
            .iter()
            .copied()
            .filter(|&w| inner.topology.workers[w].healthy())
            .collect();
        if live.is_empty() {
            return Response::fail(
                id,
                ErrorBody::new(
                    codes::WORKER_UNAVAILABLE,
                    format!("every worker holding `{}` is marked down", batch.dataset),
                ),
            );
        }
        let timeout = request
            .timeout_ms
            .map(Duration::from_millis)
            .unwrap_or(inner.config.scheduler.default_timeout);
        let deadline = Instant::now() + timeout;
        let mut ack: Option<Response> = None;
        let mut worker_error: Option<Response> = None;
        let mut refused: Vec<usize> = Vec::new();
        let mut lost: Vec<usize> = Vec::new();
        let mut errors: Vec<String> = Vec::new();
        let mut forwarded = 0usize;
        for &idx in &live {
            let mut sub = Request::append(&format!("{id}.a{idx}"), &request.tenant, batch.clone())
                .with_proto();
            sub.bulk = request.bulk;
            sub.timeout_ms = Some(timeout.as_millis() as u64);
            match dispatch(inner, idx, &sub, deadline) {
                Ok(resp) if resp.is_ok() && resp.append.is_some() => {
                    forwarded += 1;
                    if ack.is_none() {
                        ack = Some(resp);
                    }
                }
                Ok(resp) => {
                    // A structured refusal: this worker did not ingest
                    // the batch. If others did, its prefix diverged.
                    errors.push(format!(
                        "worker {}: {}",
                        inner.topology.workers[idx].addr,
                        resp.error
                            .as_ref()
                            .map(|e| format!("{}: {}", e.code, e.message))
                            .unwrap_or_else(|| resp.status.clone())
                    ));
                    if worker_error.is_none() {
                        worker_error = Some(resp);
                    }
                    refused.push(idx);
                }
                Err(e) => {
                    errors.push(e);
                    lost.push(idx);
                }
            }
        }
        inner
            .metrics
            .update(|r| r.stream_appends_forwarded += forwarded as u64);
        // A transport failure means the worker may be gone entirely: its
        // feeds cannot be trusted even if nobody else ingested the batch
        // (retrying the append later would diverge its prefix anyway).
        for &idx in &lost {
            inner.streams.worker_lost(idx);
        }
        if forwarded > 0 {
            // Partial ingestion: workers that *refused* the batch while
            // others accepted it can no longer feed lockstep merges
            // either.
            for idx in refused {
                inner.streams.worker_lost(idx);
            }
            let mut r = Response::ok(id);
            // Replica acks are identical over an identical accepted
            // prefix; relay the first.
            r.append = ack.and_then(|a| a.append);
            return r;
        }
        // Nobody ingested it. A structured worker refusal (bad payload,
        // unknown source...) is more useful than a transport summary.
        if let Some(mut resp) = worker_error {
            resp.id = id.clone();
            return resp;
        }
        Response::fail(
            id,
            ErrorBody::new(
                codes::WORKER_UNAVAILABLE,
                format!(
                    "append to `{}` reached no worker: {}",
                    batch.dataset,
                    errors.join("; ")
                ),
            ),
        )
    }

    /// Register a fleet-wide standing query: subscribe on every live
    /// worker that reproduces the reference plan locally, then merge
    /// their frame streams in lockstep (see [`crate::stream`]).
    fn handle_subscribe(&self, request: &Request, sink: &Arc<dyn EmissionSink>) -> Response {
        let inner = &self.inner;
        let id = &request.id;
        let spec = match &request.query {
            Some(spec) => spec.clone(),
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
        let window = spec
            .window_secs
            .unwrap_or(inner.config.engine.interp_window_secs);
        let step = spec
            .step_secs
            .unwrap_or(inner.config.engine.explode_step_secs);
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
        let route_engine = EngineConfig {
            interp_window_secs: window,
            explode_step_secs: step,
            ..inner.config.engine.clone()
        };
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
        let (canonical, plan, _) = match solve_reference(inner, &query, window, step, &route_engine)
        {
            Ok(t) => t,
            Err(body) => return Response::fail(id, body),
        };
        let cover: Vec<String> = plan.loads().iter().map(|s| s.to_string()).collect();
        let cover_key = {
            let mut sorted = cover.clone();
            sorted.sort_unstable();
            sorted.join(",")
        };
        let (live, all) =
            inner
                .topology
                .local_solvers(&canonical, &route_engine, plan.fingerprint(), &cover_key);
        if live.is_empty() {
            return if all.is_empty() {
                Response::fail(
                    id,
                    ErrorBody::new(
                        codes::NO_ROUTE,
                        format!(
                            "a standing query over {cover:?} needs a worker reproducing \
                             the reference derivation locally, and none does"
                        ),
                    ),
                )
            } else {
                Response::fail(
                    id,
                    ErrorBody::new(
                        codes::WORKER_UNAVAILABLE,
                        "every worker able to serve this standing query is marked down",
                    ),
                )
            };
        }
        let query_id = format!(
            "rs{:06}-{}",
            inner.query_seq.fetch_add(1, Ordering::Relaxed),
            id
        );
        // Subscribe upstream on every live local solver. Workers that
        // refuse are skipped (and counted against); the merge runs over
        // whoever acked.
        let mut feeds: Vec<(usize, Client)> = Vec::new();
        let mut ack: Option<SubscriptionAck> = None;
        let mut errors: Vec<String> = Vec::new();
        for &idx in &live {
            let addr = inner.topology.workers[idx].addr.clone();
            let attempt = (|| -> Result<(Client, SubscriptionAck), String> {
                let mut client = Client::connect_as(addr.as_str(), &request.tenant)
                    .map_err(|e| format!("worker {addr}: {e}"))?;
                let sub = Request::subscribe(
                    &format!("{query_id}.w{idx}"),
                    &request.tenant,
                    spec.clone(),
                )
                .with_proto();
                let resp = client
                    .call(&sub)
                    .map_err(|e| format!("worker {addr}: {e}"))?;
                match resp.subscription {
                    Some(ack) if resp.is_ok() => Ok((client, ack)),
                    _ => Err(format!(
                        "worker {addr}: subscribe refused: {}",
                        resp.error
                            .map(|e| format!("{}: {}", e.code, e.message))
                            .unwrap_or(resp.status)
                    )),
                }
            })();
            match attempt {
                Ok((client, worker_ack)) => {
                    ack.get_or_insert(worker_ack);
                    feeds.push((idx, client));
                }
                Err(e) => {
                    note_failure(inner, idx);
                    errors.push(e);
                }
            }
        }
        if feeds.is_empty() {
            return Response::fail(
                id,
                ErrorBody::new(
                    codes::WORKER_UNAVAILABLE,
                    format!(
                        "no worker accepted the standing query: {}",
                        errors.join("; ")
                    ),
                ),
            );
        }
        let ack = ack.expect("at least one feed acked");
        RouterStreams::open(&self.inner, query_id.clone(), id.clone(), sink, feeds);
        let mut r = Response::ok(id);
        r.query_id = Some(query_id.clone());
        r.subscription = Some(SubscriptionAck {
            query_id,
            window_secs: ack.window_secs,
            allowed_lateness_secs: ack.allowed_lateness_secs,
        });
        r
    }

    fn enqueue_and_wait(&self, request: Request, started: Instant) -> Response {
        let inner = &self.inner;
        let id = request.id.clone();
        let tenant = request.tenant.clone();
        let query_id = format!(
            "r{:06}-{}",
            inner.query_seq.fetch_add(1, Ordering::Relaxed),
            id
        );
        if request.wants_trace() {
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
                        format!("router queue at capacity ({depth}/{capacity}); retry later"),
                    ),
                );
                r.query_id = Some(query_id);
                return r;
            }
            Err(AdmissionError::ShuttingDown) => {
                let mut r = Response::fail(
                    &id,
                    ErrorBody::new(codes::SHUTDOWN, "router is shutting down"),
                );
                r.query_id = Some(query_id);
                return r;
            }
        }
        let response = match slot.wait_until(deadline) {
            Some(response) => response,
            None => {
                inner.metrics.update(|r| r.timeouts += 1);
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
        };
        inner.metrics.tenant(&tenant, |_, t| t.completed += 1);
        // Routed latency: queue + fan-out + merge.
        inner.metrics.finished(started.elapsed(), |_| {});
        response
    }

    /// Current router metrics (the `stats` verb payload).
    pub fn stats_report(&self) -> RouterStatsReport {
        let inner = &self.inner;
        // Read everything kept outside the registry first: its lock is a
        // leaf.
        let uptime = inner.metrics.uptime();
        let cache = inner.route_cache.stats();
        let depth = inner.scheduler.depth();
        let workers = inner.topology.summaries();
        inner.metrics.snapshot(|r, latency, tenants| {
            r.uptime_ms = uptime.as_millis() as u64;
            r.note_queue_depth(depth);
            r.route_latency_count = latency.count();
            r.route_latency_ms_p50 = latency.quantile_ms(0.50);
            r.route_latency_ms_p99 = latency.quantile_ms(0.99);
            r.route_latency_ms_max = latency.max_ms();
            r.route_cache_entries = cache.entries;
            r.route_cache_hits = cache.hits;
            r.route_cache_misses = cache.misses;
            r.route_cache_bytes = cache.bytes;
            r.route_cache_evictions = cache.evictions;
            r.workers = workers;
            r.per_tenant = tenants;
        })
    }

    /// The fleet as the router currently sees it (test/observability
    /// hook).
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// Force an immediate heartbeat pass (test hook: markdown and epoch
    /// detection without waiting out the heartbeat period).
    pub fn probe_now(&self) {
        probe_all(&self.inner);
    }

    /// Stop heartbeat and route workers, answering still-queued jobs
    /// with a shutdown error, and return the final metrics snapshot.
    pub fn shutdown(&self) -> RouterStatsReport {
        self.inner.stop.store(true, Ordering::Release);
        self.inner.streams.shutdown_all(&self.inner);
        if let Some(handle) = self.inner.heartbeat_thread.lock().take() {
            let _ = handle.join();
        }
        for job in self.inner.scheduler.shutdown() {
            job.slot.fulfill(Response::fail(
                &job.request.id,
                ErrorBody::new(codes::SHUTDOWN, "router is shutting down"),
            ));
        }
        let workers = std::mem::take(&mut *self.inner.route_workers.lock());
        for handle in workers {
            let _ = handle.join();
        }
        self.stats_report()
    }
}

impl RequestHandler for Router {
    type Summary = RouterStatsReport;

    fn handle(&self, request: Request) -> Response {
        Router::handle(self, request)
    }

    fn handle_streaming(&self, request: Request, sink: &Arc<dyn EmissionSink>) -> Response {
        Router::handle_streaming(self, request, sink)
    }

    fn connection_closed(&self, sink: &Arc<dyn EmissionSink>) {
        Router::connection_closed(self, sink)
    }

    fn protocol_request(&self) {
        self.inner.metrics.update(|r| r.requests_binary += 1);
    }

    fn shutdown(&self) -> RouterStatsReport {
        Router::shutdown(self)
    }
}

/// Canonicalize `query` and solve it against the combined planning
/// catalog through the plan cache — the **reference plan** all routing
/// decisions compare against. The planning read guard is held for the
/// solve but never across a network call. Returns `(canonical query,
/// plan, cache hit)`.
fn solve_reference(
    inner: &RouterInner,
    query: &Query,
    window: f64,
    step: f64,
    route_engine: &EngineConfig,
) -> Result<(Query, std::sync::Arc<Plan>, bool), ErrorBody> {
    let planning = inner.topology.planning();
    let canonical = query
        .canonicalize(planning.catalog.dict())
        .map_err(|e| ErrorBody::new(codes::BAD_REQUEST, e.to_string()))?;
    let key = PlanKey::new(&canonical, window, step)
        .ok_or_else(|| ErrorBody::new(codes::BAD_REQUEST, "window/step do not form a plan key"))?;
    if let Some(plan) = inner.plan_cache.get(&key) {
        return Ok((canonical, plan, true));
    }
    let engine = QueryEngine::with_config(&planning.catalog, route_engine.clone());
    match engine.solve(&canonical) {
        Ok(plan) => {
            let plan = inner.plan_cache.insert(key, plan);
            Ok((canonical, plan, false))
        }
        Err(SjError::NoSolution(msg)) => Err(ErrorBody::new(codes::NO_SOLUTION, msg)),
        Err(e @ SjError::SearchTruncated { .. }) => {
            Err(ErrorBody::new(codes::SEARCH_TRUNCATED, e.to_string()))
        }
        Err(e) => Err(ErrorBody::new(codes::BAD_REQUEST, e.to_string())),
    }
}

fn route_worker_loop(inner: &RouterInner) {
    while let Some((job, depth)) = inner.scheduler.next_job() {
        inner.metrics.update(|r| r.note_queue_depth(depth));
        if job.slot.is_cancelled() {
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
        let response = route_execute(inner, &job);
        job.slot.fulfill(response);
    }
}

/// Worker span trees to graft, keyed by the `worker_call` span each hangs
/// under.
type Guests = Vec<(SpanId, Vec<SpanEvent>)>;

fn stamp_query_id(response: &mut Response, query_id: &str) {
    response.query_id = Some(query_id.to_string());
    if let Some(failure) = response.failure.as_mut() {
        failure.query_id = Some(query_id.to_string());
    }
}

/// Abandoned spans older than this are pruned after each request (same
/// retention as the worker side).
const TRACE_RETENTION_US: u64 = 300_000_000;

/// Route one job under its request-scoped trace: a retroactive `route`
/// root opened at admission, a `queue_wait` child, a `worker_call` span
/// per remote call, and each worker's own span tree grafted under the
/// call that fetched it — one timeline across the hop.
fn route_execute(inner: &RouterInner, job: &Job) -> Response {
    let tracer = inner.ctx.tracer().clone();
    if !tracer.enabled() {
        let (mut response, _) = route_query(inner, job, None);
        stamp_query_id(&mut response, &job.query_id);
        return response;
    }
    let now = tracer.now_us();
    let queued_us = job.enqueued.elapsed().as_micros() as u64;
    let start = now.saturating_sub(queued_us);
    let mut root = tracer.span_at("route", start);
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
    let (mut response, guests) = route_query(inner, job, Some((root.id(), root_id)));
    stamp_query_id(&mut response, &job.query_id);
    if !response.is_ok() {
        root.fail();
    }
    drop(root);

    let mut events = tracer.take_root(root_id);
    tracer.prune_before(tracer.now_us().saturating_sub(TRACE_RETENTION_US));
    for (attach, spans) in guests {
        // Grafting is best-effort: a worker that shipped a malformed
        // tree must not fail the query its spans describe.
        let _ = sjtrace::graft(&mut events, attach, &spans);
    }
    events.sort_by_key(|e| (e.start_us, e.id));

    if job.request.wants_trace() {
        let thread_names = tracer.thread_names();
        response.trace = Some(TraceSummary {
            query_id: job.query_id.clone(),
            span_count: events.len() as u64,
            dropped_spans: tracer.dropped(),
            timeline: sjtrace::timeline::render(&events),
            chrome_json: Some(sjtrace::export::chrome_trace_json(
                &events,
                &thread_names,
                "sjroute",
            )),
            spans: Some(events),
        });
    }
    response
}

/// Solve, route, fan out, merge. Returns the response plus any worker
/// span trees for the caller to graft.
fn route_query(
    inner: &RouterInner,
    job: &Job,
    trace: Option<(SpanId, SpanId)>,
) -> (Response, Guests) {
    let mut guests: Guests = Vec::new();
    let id = job.request.id.clone();
    let fail = |body: ErrorBody, guests: Guests| (Response::fail(&id, body), guests);

    let spec = match &job.request.query {
        Some(spec) => spec.clone(),
        None => {
            return fail(
                ErrorBody::new(
                    codes::BAD_REQUEST,
                    "query/explain requires a `query` payload",
                ),
                guests,
            )
        }
    };
    if spec.domains.is_empty() || spec.values.is_empty() {
        return fail(
            ErrorBody::new(codes::BAD_REQUEST, "query needs domains and values"),
            guests,
        );
    }
    let window = spec
        .window_secs
        .unwrap_or(inner.config.engine.interp_window_secs);
    let step = spec
        .step_secs
        .unwrap_or(inner.config.engine.explode_step_secs);
    if !window.is_finite() || window < 0.0 || !step.is_finite() || step < 0.0 {
        return fail(
            ErrorBody::new(
                codes::BAD_REQUEST,
                format!(
                    "window_secs and step_secs must be finite and non-negative \
                     (got window={window}, step={step})"
                ),
            ),
            guests,
        );
    }

    let route_engine = EngineConfig {
        interp_window_secs: window,
        explode_step_secs: step,
        ..inner.config.engine.clone()
    };
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

    // Solve against the planning catalog (schemas only) through the plan
    // cache.
    let (canonical, plan, plan_cache_hit) =
        match solve_reference(inner, &query, window, step, &route_engine) {
            Ok(t) => t,
            Err(body) => return fail(body, guests),
        };

    if job.request.verb == Verb::Explain {
        let mut r = Response::ok(&id);
        r.plan = Some(PlanInfo {
            plan_json: plan.to_json(),
            plan_text: plan.describe(),
            fingerprint: plan.fingerprint(),
            plan_cache_hit,
        });
        return (r, guests);
    }

    let limit = spec.limit.unwrap_or(inner.config.default_limit);
    // Traced requests bypass the cache: the client asked to watch the
    // hop actually happen.
    let caching = !job.request.wants_trace();
    if caching {
        if let Some(mut hit) = inner.route_cache.get(plan.fingerprint(), limit) {
            hit.id = id.clone();
            if let Some(result) = hit.result.as_mut() {
                result.result_cache_hit = true;
            }
            return (hit, guests);
        }
    }

    inner.metrics.update(|r| r.routed_queries += 1);
    let cover: Vec<String> = plan.loads().iter().map(|s| s.to_string()).collect();

    // Single-shard fast path: some live worker's own catalog derives the
    // whole query with the reference plan. Keyed on the sorted combined
    // cover so the choice among equally capable workers is
    // deterministic per query shape.
    let cover_key = {
        let mut sorted = cover.clone();
        sorted.sort_unstable();
        sorted.join(",")
    };
    let (live, _) =
        inner
            .topology
            .local_solvers(&canonical, &route_engine, plan.fingerprint(), &cover_key);
    if !live.is_empty() {
        let mut sub_spec = spec.clone();
        sub_spec.limit = Some(limit);
        let sub = sub_request(job, &format!("{}.w", job.query_id), sub_spec);
        return match call_with_failover(inner, &live, &sub, job.deadline, trace, &mut guests) {
            Ok(mut resp) => {
                resp.id = id.clone();
                if resp.is_degraded() {
                    inner.metrics.update(|r| r.degraded += 1);
                }
                if caching && resp.is_ok() {
                    let mut cached = resp.clone();
                    cached.trace = None;
                    inner.route_cache.put(plan.fingerprint(), limit, cached);
                }
                (resp, guests)
            }
            Err(e) => fail(
                ErrorBody::new(
                    codes::WORKER_UNAVAILABLE,
                    format!("no worker holding {cover:?} answered: {e}"),
                ),
                guests,
            ),
        };
    }

    // Scatter-gather: split per value dimension, grouping values whose
    // sub-covers land on the same worker.
    struct Group {
        /// Failover-ordered candidate workers able to answer every value
        /// in the group (the chosen primary is first).
        candidates: Vec<usize>,
        /// Indices into `spec.values`.
        values: Vec<usize>,
    }
    let mut groups: Vec<Group> = Vec::new();
    for (vi, value) in canonical.values.iter().enumerate() {
        let sub_query = Query {
            domains: canonical.domains.clone(),
            values: vec![value.clone()],
        };
        // Reference sub-plan on the combined catalog: what a single
        // process would derive for this value alone.
        let sub_plan = {
            let planning = inner.topology.planning();
            let key = match PlanKey::new(&sub_query, window, step) {
                Some(key) => key,
                None => unreachable!("knobs validated above"),
            };
            match inner.plan_cache.get(&key) {
                Some(plan) => plan,
                None => {
                    let engine = QueryEngine::with_config(&planning.catalog, route_engine.clone());
                    match engine.solve(&sub_query) {
                        Ok(plan) => inner.plan_cache.insert(key, plan),
                        Err(e) => {
                            return fail(
                                ErrorBody::new(
                                    codes::NO_ROUTE,
                                    format!(
                                        "value `{}` is not derivable on its own: {e}",
                                        value.dimension
                                    ),
                                ),
                                guests,
                            )
                        }
                    }
                }
            }
        };
        // Routability: which workers reproduce that exact plan from
        // their own shard (plan-fingerprint equality, not merely
        // holding the cover — see `topology`).
        let sub_key = format!("{}|{}", canonical.domains.join(","), value.dimension);
        let (sub_live, sub_any) = inner.topology.local_solvers(
            &sub_query,
            &route_engine,
            sub_plan.fingerprint(),
            &sub_key,
        );
        if sub_live.is_empty() {
            return if sub_any.is_empty() {
                let sub_cover: Vec<&str> = sub_plan.loads();
                fail(
                    ErrorBody::new(
                        codes::NO_ROUTE,
                        format!(
                            "deriving value `{}` needs datasets {sub_cover:?} on one worker, \
                             but no shard reproduces that derivation locally; co-locate them \
                             or raise the partitioner's --replicas",
                            value.dimension
                        ),
                    ),
                    guests,
                )
            } else {
                fail(
                    ErrorBody::new(
                        codes::WORKER_UNAVAILABLE,
                        format!(
                            "every worker able to derive value `{}` is marked down",
                            value.dimension
                        ),
                    ),
                    guests,
                )
            };
        }
        // Prefer a worker already receiving a sub-query, minimizing
        // fan-out width.
        let chosen = sub_live
            .iter()
            .copied()
            .find(|w| groups.iter().any(|g| g.candidates.first() == Some(w)))
            .unwrap_or(sub_live[0]);
        match groups
            .iter_mut()
            .find(|g| g.candidates.first() == Some(&chosen))
        {
            Some(group) => {
                group.values.push(vi);
                // A failover target must be able to answer the whole
                // group: intersect with this value's live holders.
                group
                    .candidates
                    .retain(|c| *c == chosen || sub_live.contains(c));
            }
            None => {
                let mut candidates = vec![chosen];
                candidates.extend(sub_live.into_iter().filter(|w| *w != chosen));
                groups.push(Group {
                    candidates,
                    values: vec![vi],
                });
            }
        }
    }

    if groups.len() > 1 {
        inner.metrics.update(|r| r.scatter_gather_queries += 1);
    }

    // Fan out: one thread per group, each with its own failover budget.
    let results: Vec<(Result<Response, String>, Guests)> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .iter()
            .enumerate()
            .map(|(gi, group)| {
                let spec = &spec;
                scope.spawn(move || {
                    let mut sub_spec = QuerySpec {
                        domains: spec.domains.clone(),
                        values: group
                            .values
                            .iter()
                            .map(|&vi| spec.values[vi].clone())
                            .collect(),
                        window_secs: spec.window_secs,
                        step_secs: spec.step_secs,
                        limit: Some(inner.config.fanout_limit),
                    };
                    sub_spec.window_secs = Some(window);
                    sub_spec.step_secs = Some(step);
                    let sub = sub_request(job, &format!("{}.g{gi}", job.query_id), sub_spec);
                    let mut guests = Guests::new();
                    let result = call_with_failover(
                        inner,
                        &group.candidates,
                        &sub,
                        job.deadline,
                        trace,
                        &mut guests,
                    );
                    (result, guests)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-out thread"))
            .collect()
    });

    let mut partials = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut worst_failure: Option<sjdf::FailureReport> = None;
    let mut any_degraded = false;
    for (gi, (result, sub_guests)) in results.into_iter().enumerate() {
        guests.extend(sub_guests);
        match result {
            Ok(resp) => {
                if resp.is_degraded() {
                    any_degraded = true;
                }
                if let Some(f) = resp.failure {
                    worst_failure = Some(f);
                }
                match resp.result {
                    Some(result) => partials.push(result),
                    None => failures.push(format!(
                        "sub-query {gi}: {}",
                        resp.error
                            .map(|e| format!("{}: {}", e.code, e.message))
                            .unwrap_or_else(|| resp.status.clone())
                    )),
                }
            }
            Err(e) => failures.push(format!("sub-query {gi}: {e}")),
        }
    }

    if partials.is_empty() {
        return fail(
            ErrorBody::new(
                codes::WORKER_UNAVAILABLE,
                format!(
                    "all scatter-gather sub-queries failed: {}",
                    failures.join("; ")
                ),
            ),
            guests,
        );
    }

    let mut merged = match crate::merge::natural_join(partials) {
        Ok(merged) => merged,
        Err(e) => {
            return fail(
                ErrorBody::new(codes::EXEC_FAILED, format!("scatter-gather merge: {e}")),
                guests,
            )
        }
    };
    // Canonical order: the query's domains first, then its values, rows
    // sorted — deterministic regardless of which worker answered first.
    let mut preferred = canonical.domains.clone();
    preferred.extend(canonical.values.iter().map(|v| v.dimension.clone()));
    crate::merge::canonicalize(&mut merged, &preferred);
    merged.row_count = merged.rows.len();
    if merged.rows.len() > limit {
        merged.rows.truncate(limit);
        merged.truncated = true;
    }
    merged.elapsed_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;

    let response = if failures.is_empty() && !any_degraded {
        let mut r = Response::ok(&id);
        r.result = Some(merged);
        if caching {
            inner.route_cache.put(plan.fingerprint(), limit, r.clone());
        }
        r
    } else {
        inner.metrics.update(|r| r.degraded += 1);
        let detail = if failures.is_empty() {
            "a shard answered degraded".to_string()
        } else {
            failures.join("; ")
        };
        let mut r = Response::degraded(
            &id,
            ErrorBody::new(codes::DEGRADED, format!("partial merge: {detail}")),
            worst_failure.unwrap_or_default(),
        );
        r.result = Some(merged);
        r
    };
    (response, guests)
}

/// Build the request forwarded to a worker: fresh id under the router's
/// query id, the client's tenant, remaining deadline, propagated trace
/// flag, and the router's protocol stamp.
fn sub_request(job: &Job, sub_id: &str, spec: QuerySpec) -> Request {
    let remaining = job
        .deadline
        .saturating_duration_since(Instant::now())
        .as_millis() as u64;
    let mut sub = Request::query(sub_id, &job.tenant, spec).with_proto();
    sub.timeout_ms = Some(remaining.max(1));
    sub.trace = if job.request.wants_trace() {
        Some(true)
    } else {
        None
    };
    sub
}

/// Try candidates in order (primary, then one replica — single-retry
/// failover). Transport and framing errors advance to the next
/// candidate; any structured response (ok, degraded, or a worker-side
/// error) is final and passes through.
fn call_with_failover(
    inner: &RouterInner,
    candidates: &[usize],
    request: &Request,
    deadline: Instant,
    trace: Option<(SpanId, SpanId)>,
    guests: &mut Guests,
) -> Result<Response, String> {
    let tracer = inner.ctx.tracer();
    let mut last_err = "no candidate workers".to_string();
    for (attempt, &idx) in candidates.iter().take(2).enumerate() {
        if attempt > 0 {
            inner.metrics.update(|r| r.failovers += 1);
        }
        let mut span = trace.map(|(parent, root)| tracer.child_span("worker_call", parent, root));
        if let Some(s) = span.as_mut() {
            s.set_detail(format!(
                "worker={idx} addr={} attempt={attempt}",
                inner.topology.workers[idx].addr
            ));
        }
        match dispatch(inner, idx, request, deadline) {
            Ok(mut resp) => {
                let worker_spans = resp.trace.take().and_then(|t| t.spans);
                if let Some(s) = span.as_mut() {
                    if !resp.is_ok() {
                        s.fail();
                    }
                    if let Some(spans) = worker_spans {
                        guests.push((s.id(), spans));
                    }
                }
                return Ok(resp);
            }
            Err(e) => {
                if let Some(s) = span.as_mut() {
                    s.fail();
                }
                last_err = e;
            }
        }
    }
    Err(last_err)
}

/// One remote call. A transport or framing failure counts against the
/// worker (possibly marking it down); any parsed response resets its
/// failure streak.
fn dispatch(
    inner: &RouterInner,
    idx: usize,
    request: &Request,
    deadline: Instant,
) -> Result<Response, String> {
    let addr = inner.topology.workers[idx].addr.clone();
    let remaining = deadline.saturating_duration_since(Instant::now());
    let attempt = (|| -> Result<Response, ClientError> {
        let mut client = Client::connect_as(addr.as_str(), &request.tenant)?;
        client.set_read_timeout(Some(remaining + Duration::from_millis(500)))?;
        client.call(request)
    })();
    match attempt {
        Ok(resp) => {
            inner.topology.record_success(idx);
            Ok(resp)
        }
        Err(e) => {
            note_failure(inner, idx);
            Err(format!("worker {addr}: {e}"))
        }
    }
}

fn note_failure(inner: &RouterInner, idx: usize) {
    if inner
        .topology
        .record_failure(idx, inner.config.markdown_after)
    {
        inner.metrics.update(|r| r.worker_markdowns += 1);
    }
}

/// Fetch a worker's `catalog` manifest with the probe timeout.
fn fetch_catalog(inner: &RouterInner, idx: usize) -> Result<CatalogInfo, String> {
    let addr = inner.topology.workers[idx].addr.clone();
    let fetch = (|| -> Result<Response, ClientError> {
        let mut client = Client::connect_as(addr.as_str(), "")?;
        client.set_read_timeout(Some(inner.config.probe_timeout))?;
        client.catalog()
    })();
    match fetch {
        Ok(resp) => resp
            .catalog
            .ok_or_else(|| format!("worker {addr}: catalog response without payload")),
        Err(e) => Err(format!("worker {addr}: {e}")),
    }
}

fn heartbeat_loop(inner: &Arc<RouterInner>) {
    let mut next = Instant::now() + inner.config.heartbeat;
    while !inner.stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(20));
        if Instant::now() < next {
            continue;
        }
        next = Instant::now() + inner.config.heartbeat;
        probe_all(inner);
    }
}

/// One heartbeat pass: probe `health` on every worker. A successful
/// probe whose epoch moved (or that resurrects a marked-down worker)
/// triggers a catalog refetch and wholesale cache invalidation; failed
/// probes count toward mark-down.
fn probe_all(inner: &RouterInner) {
    for idx in 0..inner.topology.workers.len() {
        let worker = &inner.topology.workers[idx];
        let addr = worker.addr.clone();
        let was_healthy = worker.healthy();
        let known_epoch = worker.epoch();
        let probe = (|| -> Result<Option<u64>, ClientError> {
            let mut client = Client::connect_as(addr.as_str(), "")?;
            client.set_read_timeout(Some(inner.config.probe_timeout))?;
            let resp = client.health()?;
            Ok(resp.health.and_then(|h| h.catalog_epoch))
        })();
        match probe {
            Ok(epoch) => {
                let changed = epoch.is_some_and(|e| e != known_epoch);
                if was_healthy && !changed {
                    inner.topology.record_success(idx);
                    continue;
                }
                // Mark-up or epoch change: the shard's contents may
                // differ from what the planning catalog assumes.
                if let Ok(info) = fetch_catalog(inner, idx) {
                    inner.topology.refresh(idx, info, &inner.ctx);
                    if was_healthy && changed {
                        inner.metrics.update(|r| r.epoch_invalidations += 1);
                    }
                    inner.route_cache.invalidate_all();
                    inner.plan_cache.clear();
                }
            }
            Err(_) => note_failure(inner, idx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_empty_and_unreachable_fleets() {
        assert!(Router::new(Vec::new(), RouterConfig::default()).is_err());
        let config = RouterConfig {
            probe_timeout: Duration::from_millis(100),
            ..RouterConfig::default()
        };
        // A port from the TEST-NET-ish reserved loopback range nobody
        // listens on: connection refused, so the constructor fails fast.
        let err = match Router::new(vec!["127.0.0.1:1".into()], config) {
            Err(e) => e,
            Ok(_) => panic!("expected an unreachable-fleet error"),
        };
        assert!(err.contains("no reachable workers"), "{err}");
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = RouterConfig::default();
        assert!(c.fanout_limit >= c.default_limit);
        assert!(c.markdown_after >= 1);
    }
}
