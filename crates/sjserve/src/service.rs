//! The worker: one catalog session behind the admission front.
//!
//! A [`QueryService`] is the [`Front`] (see [`crate::front`]) over a
//! [`WorkerBackend`]. The front admits, queues, times and traces every
//! request; the backend owns one loaded [`Catalog`] for its whole
//! lifetime, shares it read-only with the pool threads, and answers what
//! reaches it:
//!
//! - `query` / `explain` consult two cache levels in order (see
//!   [`crate::cache`]): the plan cache (memoized derivation search, keyed
//!   by normalized query + engine knobs) and the result cache (answers
//!   keyed by plan fingerprint, each encoded once into a result-rows
//!   section). A hit cuts the request's `limit` prefix from the section,
//!   so the response leaves with its rows already encoded
//!   ([`Response::result_rows`]); a miss renders and encodes the whole
//!   answer for the cache, or only the returned prefix when the cache
//!   cannot keep it (off, or too small). Each response reports which levels hit, its end-to-end
//!   latency, and the dataflow metrics attributable to its evaluation;
//! - `append` and standing queries run on a [`sjstream::StreamEngine`]
//!   over a clone of the same catalog, which pushes window frames to the
//!   subscribers' connections;
//! - with `trace_dir` set, the traces of slow and failed queries are
//!   persisted.

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sjcore::catalog::Catalog;
use sjcore::engine::{EngineConfig, QueryEngine};
use sjcore::SjError;
use sjdf::ExecCtx;
use sjstream::AppendBatch;
use sjtrace::{SpanEvent, Tracer};

use crate::cache::{AnswerCache, PlanCacheLayer, PlanKey};
use crate::front::{Backend, CheckedQuery, Front, JobTrace};
use crate::metrics::{Registry, StatsReport};
use crate::protocol::{
    codes, AppendAck, CatalogInfo, DatasetDesc, ErrorBody, HealthReport, PlanInfo, QueryResult,
    Request, Response, SubscriptionAck, Verb,
};
use crate::scheduler::{Job, SchedulerConfig};
use crate::server::EmissionSink;

/// Service-wide tuning.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission and worker-pool sizing.
    pub scheduler: SchedulerConfig,
    /// Byte budget for the result cache, charged each answer's encoded
    /// length; 0 turns it off.
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

/// The worker's half of `sjserved`: the catalog, its caches, the stream
/// engine and trace persistence, behind the admission front.
pub struct WorkerBackend {
    catalog: Catalog,
    ctx: ExecCtx,
    config: ServiceConfig,
    plan_cache: PlanCacheLayer,
    result_cache: AnswerCache,
    metrics: Registry<StatsReport>,
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

/// A running ScrubJay query service: the admission front over one
/// [`WorkerBackend`]. Cheap to clone; all clones share one catalog,
/// scheduler, and cache.
pub type QueryService = Front<WorkerBackend>;

impl QueryService {
    /// Build a service over an already-loaded catalog and start its
    /// pool threads. `ctx` must be the context the catalog's datasets
    /// were wrapped with (its metrics sink is where evaluations report).
    pub fn new(ctx: ExecCtx, catalog: Catalog, config: ServiceConfig) -> Self {
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
        let scheduler = config.scheduler.clone();
        let backend = WorkerBackend {
            catalog,
            ctx,
            plan_cache: PlanCacheLayer::new(),
            result_cache: AnswerCache::new(config.result_cache_bytes),
            metrics: Registry::new(),
            catalog_epoch: AtomicU64::new(epoch),
            stream: Mutex::new(stream),
            delivery: Mutex::new(()),
            subs: Mutex::new(Vec::new()),
            config,
        };
        Front::start(backend, scheduler)
    }

    /// Force a new catalog epoch (test hook for "the shard was
    /// reloaded"): routers heartbeating this worker must observe the
    /// change and invalidate.
    pub fn bump_catalog_epoch(&self) {
        self.backend().catalog_epoch.fetch_add(1, Ordering::Relaxed);
    }
}

impl Backend for WorkerBackend {
    type Report = StatsReport;

    const DAEMON: &'static str = "worker";
    const PROCESS: &'static str = "sjserve";
    const ROOT_SPAN: &'static str = "request";
    const QUERY_ID_PREFIX: &'static str = "q";
    const SUBSCRIPTION_ID_PREFIX: &'static str = "s";

    fn metrics(&self) -> &Registry<StatsReport> {
        &self.metrics
    }

    fn tracer(&self) -> &Tracer {
        self.ctx.tracer()
    }

    fn engine(&self) -> &EngineConfig {
        &self.config.engine
    }

    fn health(&self) -> HealthReport {
        HealthReport {
            status: "ok".into(),
            datasets: self
                .catalog
                .dataset_names()
                .into_iter()
                .map(String::from)
                .collect(),
            uptime_ms: self.metrics.uptime().as_millis() as u64,
            shard_id: self.config.shard_id.clone(),
            catalog_epoch: Some(self.catalog_epoch.load(Ordering::Relaxed)),
            stage_cache_bytes: Some(self.ctx.stage_cache().stats().bytes),
        }
    }

    /// The shard described at the schema level.
    fn catalog(&self) -> CatalogInfo {
        let mut datasets: Vec<DatasetDesc> = self
            .catalog
            .datasets()
            .map(|(name, ds)| DatasetDesc {
                name: name.to_string(),
                schema_json: serde_json::to_string(ds.schema()).unwrap_or_default(),
            })
            .collect();
        datasets.sort_by(|a, b| a.name.cmp(&b.name));
        CatalogInfo {
            shard_id: self.config.shard_id.clone(),
            epoch: self.catalog_epoch.load(Ordering::Relaxed),
            datasets,
        }
    }

    fn fill_stats(&self, r: &mut StatsReport) {
        let (plan, result) = (self.plan_cache.stats(), self.result_cache.stats());
        let stage = self.ctx.stage_cache().stats();
        let (counters, active, opened, closed) = {
            let stream = self.stream.lock();
            // Subscriptions open and close under this lock, and their
            // registry counters move with them: read those here too, so
            // a report never counts a subscription active but not yet
            // opened, or gone but not yet closed.
            let (mut opened, mut closed) = (0, 0);
            self.metrics.update(|r| {
                let s = r.stream();
                (opened, closed) = (s.subscriptions_opened, s.subscriptions_closed);
            });
            let active = stream.subscriptions().len() as u64;
            (stream.counters(), active, opened, closed)
        };
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
        let s = r.stream();
        s.appends = counters.appends;
        s.rows_accepted = counters.rows_accepted;
        s.rows_late_dropped = counters.rows_late_dropped;
        s.rows_duplicate_dropped = counters.rows_duplicate_dropped;
        s.subscriptions_active = active;
        s.subscriptions_opened = opened;
        s.subscriptions_closed = closed;
        s.window_emissions = counters.window_emissions;
        s.window_re_emissions = counters.window_re_emissions;
        s.incremental_recomputes = counters.incremental_recomputes;
        s.degraded_windows = counters.degraded_windows;
        s.cache_invalidations = stage.invalidations;
    }

    /// Solve (through the plan cache) and, for `query`, execute (through
    /// the result cache).
    fn execute(&self, job: &Job, query: &CheckedQuery, _: &mut JobTrace) -> Response {
        let id = &job.request.id;
        let canonical = match query.query.canonicalize(self.catalog.dict()) {
            Ok(q) => q,
            Err(e) => return Response::fail(id, e.into()),
        };
        let Some(key) = PlanKey::new(&canonical, query.window, query.step) else {
            // Unreachable after the front's knob check, but never panic
            // a pool thread over a key.
            return Response::fail(
                id,
                ErrorBody::new(codes::BAD_REQUEST, "window/step do not form a plan key"),
            );
        };

        // Level 1: memoized derivation search.
        let tracer = self.ctx.tracer();
        let (plan, plan_cache_hit) = match self.plan_cache.get(&key) {
            Some(plan) => {
                tracer.instant("plan_cache_hit", "");
                (plan, true)
            }
            None => {
                tracer.instant("plan_cache_miss", "");
                let mut solve_span = tracer.span("solve");
                let engine =
                    QueryEngine::with_config(&self.catalog, query.engine(&self.config.engine));
                let solved = engine.solve(&canonical);
                // The per-request engine starts from zeroed stats, so its
                // reading is exactly this solve's effort.
                let effort = engine.stats();
                let truncated = matches!(solved, Err(SjError::SearchTruncated { .. }));
                self.metrics.update(|r| {
                    r.planner_pair_tests += effort.pair_tests;
                    r.planner_memo_hits += effort.memo_hits;
                    r.planner_datasets_considered += effort.datasets_considered as u64;
                    r.searches_truncated += u64::from(truncated);
                });
                match solved {
                    Ok(plan) => (self.plan_cache.insert(key, plan), false),
                    Err(e) => {
                        solve_span.fail();
                        return Response::fail(id, e.into());
                    }
                }
            }
        };

        if job.request.verb == Verb::Explain {
            let mut r = Response::ok(id);
            r.plan = Some(PlanInfo::new(&plan, plan_cache_hit));
            return r;
        }

        // Level 2: encoded answers keyed by plan fingerprint.
        let fingerprint = plan.fingerprint();
        let limit = query.spec.limit.unwrap_or(self.config.default_limit);
        let (answer, result_cache_hit, engine_metrics) = match self.result_cache.get(fingerprint) {
            Some(answer) => {
                tracer.instant("result_cache_hit", "");
                (answer, true, None)
            }
            None => {
                tracer.instant("result_cache_miss", "");
                let mut exec_span = tracer.span("execute");
                let baseline = self.ctx.metrics.report();
                let ds = match plan.execute(&self.catalog, None) {
                    Ok(ds) => ds,
                    Err(e) => {
                        exec_span.fail();
                        drop(exec_span);
                        return self.exec_error(id, &baseline, &e.to_string());
                    }
                };
                let rows = match ds.collect() {
                    Ok(rows) => rows,
                    Err(e) => {
                        exec_span.fail();
                        drop(exec_span);
                        return self.exec_error(id, &baseline, &e.to_string());
                    }
                };
                drop(exec_span);
                // Render once: every row for the cache, or only the rows
                // this request returns when the cache cannot keep them.
                let answer = self
                    .result_cache
                    .admit(fingerprint, ds.schema(), &rows, limit);
                // Attribute the collector's growth to this evaluation.
                // Concurrent evaluations may interleave (the collector is
                // shared), so this is an attribution, not an isolation.
                let mut delta = self.ctx.metrics.report().delta_since(&baseline);
                self.metrics.update(|r| r.note_failures(&delta.failures));
                delta.failures.query_id = Some(job.query_id.clone());
                (answer, false, Some(delta))
            }
        };

        let mut r = Response::ok(id);
        r.result_rows = answer.rows(limit);
        r.result = Some(QueryResult {
            columns: answer.columns.clone(),
            rows: Vec::new(),
            row_count: answer.row_count,
            truncated: answer.row_count > limit,
            plan_cache_hit,
            result_cache_hit,
            elapsed_ms: job.enqueued.elapsed().as_secs_f64() * 1e3,
            engine_metrics,
        });
        r
    }

    /// Count the trace, and persist it to the trace dir when the query
    /// was slow or unhealthy.
    fn traced(&self, job: &Job, response: &Response, events: &[SpanEvent], json: Option<&str>) {
        let tracer = self.ctx.tracer();
        self.metrics
            .update(|r| r.note_trace(events.len() as u64, tracer.dropped()));
        let Some(dir) = &self.config.trace_dir else {
            return;
        };
        let elapsed_ms = job.enqueued.elapsed().as_millis() as u64;
        if response.is_ok() && elapsed_ms < self.config.trace_slow_ms {
            return;
        }
        let json = match json {
            Some(json) => Cow::Borrowed(json),
            None => Cow::Owned(sjtrace::export::chrome_trace_json(
                events,
                &tracer.thread_names(),
                Self::PROCESS,
            )),
        };
        let path = dir.join(format!("{}.trace.json", trace_file_stem(&job.query_id)));
        // Trace persistence is best-effort: an unwritable dir must not
        // fail the query it was meant to explain.
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(path, json.as_bytes());
    }

    /// Apply one append batch and push any resulting window frames to
    /// their subscribers. Appends are cheap by design (window sweeps
    /// reuse the emission cache). The engine mutation runs under the
    /// stream lock; frame delivery does **not** — the appender hands over
    /// to the `delivery` lock (acquired before releasing `stream`, which
    /// keeps each subscriber's frame order equal to emission order) so a
    /// subscriber with a full TCP send buffer blocks other *deliveries*
    /// at worst, never the engine, stats, subscription registration, or
    /// connection teardown.
    fn append(&self, request: &Request, batch: &AppendBatch) -> Response {
        let id = &request.id;
        let bulk = request.bulk == Some(true);
        let (outcome, delivery) = {
            let mut stream = self.stream.lock();
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
            (outcome, self.delivery.lock())
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
            let subs = self.subs.lock();
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
                self.metrics.update(|r| {
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
            let mut stream = self.stream.lock();
            self.subs.lock().retain(|b| !dead.contains(&b.query_id));
            for qid in &dead {
                // Engine-side entries remain only for dead *sinks*;
                // failed solves were already unregistered.
                if stream.unsubscribe(qid) {
                    self.metrics
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

    /// Register a standing query.
    fn subscribe(
        &self,
        request: &Request,
        query: &CheckedQuery,
        query_id: &str,
        sink: &Arc<dyn EmissionSink>,
    ) -> Result<SubscriptionAck, ErrorBody> {
        let mut stream = self.stream.lock();
        let limit = self.config.max_subscriptions_per_tenant;
        if stream.subscription_count(&request.tenant) >= limit {
            return Err(ErrorBody::new(
                codes::SUBSCRIPTION_LIMIT,
                format!(
                    "tenant `{}` already holds {limit} standing queries (the per-tenant limit)",
                    request.tenant
                ),
            ));
        }
        stream
            .subscribe(query_id, &request.tenant, &query.query)
            .map_err(|e| ErrorBody::new(codes::BAD_REQUEST, e.to_string()))?;
        self.subs.lock().push(SubBinding {
            query_id: query_id.to_string(),
            request_id: request.id.clone(),
            sink: Arc::clone(sink),
        });
        self.metrics
            .update(|r| r.stream().subscriptions_opened += 1);
        Ok(SubscriptionAck {
            query_id: query_id.to_string(),
            window_secs: self.config.stream.window_secs,
            allowed_lateness_secs: self.config.stream.allowed_lateness_secs,
        })
    }

    /// Drop every subscription bound to `sink`.
    fn connection_closed(&self, sink: &Arc<dyn EmissionSink>) {
        let mut stream = self.stream.lock();
        let mut subs = self.subs.lock();
        subs.retain(|b| {
            if Arc::ptr_eq(&b.sink, sink) {
                if stream.unsubscribe(&b.query_id) {
                    self.metrics
                        .update(|r| r.stream().subscriptions_closed += 1);
                }
                false
            } else {
                true
            }
        });
    }
}

impl WorkerBackend {
    /// Classify a plan-execution failure. A task that exhausted its retry
    /// budget under an installed fault plan is an expected, per-request
    /// outcome — the service is healthy, the query lost the fault lottery
    /// — so it becomes a structured `degraded` response carrying the
    /// request's fault/retry accounting. Anything else is a plain
    /// `exec_failed`. Neither outcome reaches the result cache (both
    /// return before `admit`).
    fn exec_error(
        &self,
        id: &str,
        baseline: &sjdf::metrics::MetricsReport,
        message: &str,
    ) -> Response {
        let delta = self.ctx.metrics.report().delta_since(baseline);
        // The stable marker in `SjdfError::ExhaustedRetries`'s Display;
        // the error crosses the sjcore boundary as a string, so
        // classification happens on the rendered message.
        let degraded = message.contains("exhausted retry budget");
        self.metrics.update(|r| {
            r.note_failures(&delta.failures);
            r.requests_degraded += u64::from(degraded);
        });
        if degraded {
            if self.ctx.tracer().enabled() {
                let brief: String = message.chars().take(120).collect();
                self.ctx.tracer().instant("degraded", brief);
            }
            return Response::degraded(
                id,
                ErrorBody::new(codes::DEGRADED, message),
                delta.failures,
            );
        }
        Response::fail(id, ErrorBody::new(codes::EXEC_FAILED, message))
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
