//! The admission front both daemons run.
//!
//! `sjserved` and `sjrouted` differ only in what a query does, so
//! [`Front`] is their one request path: the protocol-version check, the
//! inline verbs, the `subscribe: true` gate, admission of `query` and
//! `explain` through the tenant-fair [`Scheduler`] with deadlines and
//! query ids, each queued request's trace, the one check of a `query`
//! payload, and request accounting: every request the front answers is
//! counted `ok` or `error` with its latency in the daemon's [`Registry`].
//! `stats`, `health`, `catalog` and `shutdown` never queue, because
//! monitoring must answer while the queue is saturated; `append` runs on
//! the connection thread, which keeps appends ordered per connection.
//! The router also orders them across connections: appends that reach a
//! common worker reach every common worker in one order (DESIGN.md §12).
//!
//! What a daemon does with a checked query is its [`Backend`]'s. The
//! front never asks which daemon it serves: what differs is a backend
//! constant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sjcore::engine::{EngineConfig, Query, QueryValue};
use sjstream::AppendBatch;
use sjtrace::{EventKind, RecordedSpan, SpanEvent, SpanId, Tracer};

use crate::metrics::{FrontReport, Registry};
use crate::protocol::{
    codes, CatalogInfo, ErrorBody, HealthReport, QuerySpec, Request, Response, SubscriptionAck,
    TraceSummary, Verb, PROTO_VERSION,
};
use crate::scheduler::{AdmissionError, Job, ResponseSlot, Scheduler, SchedulerConfig};
use crate::server::EmissionSink;

/// Abandoned spans older than this are pruned from the shared tracer
/// after each request, bounding sink growth in a long-running daemon.
const TRACE_RETENTION_US: u64 = 300_000_000;

/// Where a queued job's spans go when the daemon traces: under `parent`
/// (`(span, root)`), with span trees fetched from elsewhere (a router's
/// workers) collected in `guests`, each to be grafted under the span it
/// names.
#[derive(Default)]
pub struct JobTrace {
    pub parent: Option<(SpanId, SpanId)>,
    pub guests: Vec<(SpanId, Vec<SpanEvent>)>,
}

/// A `query` payload that passed the front's checks, with `window_secs`
/// and `step_secs` defaulted from the engine.
pub struct CheckedQuery<'a> {
    pub spec: &'a QuerySpec,
    pub query: Query,
    pub window: f64,
    pub step: f64,
}

impl CheckedQuery<'_> {
    /// `base` with this query's window and step.
    pub fn engine(&self, base: &EngineConfig) -> EngineConfig {
        EngineConfig {
            interp_window_secs: self.window,
            explode_step_secs: self.step,
            ..base.clone()
        }
    }
}

/// What one daemon does behind the front.
pub trait Backend: Send + Sync + 'static {
    /// The daemon's `stats` payload, which is also its registry's schema.
    type Report: FrontReport;

    /// The daemon's name in messages (`worker`, `router`).
    const DAEMON: &'static str;
    /// The process name in exported traces, and the pool threads' prefix.
    const PROCESS: &'static str;
    /// The name of each queued request's root span.
    const ROOT_SPAN: &'static str;
    /// Prefixes of the ids minted for queued requests and standing
    /// queries.
    const QUERY_ID_PREFIX: &'static str;
    const SUBSCRIPTION_ID_PREFIX: &'static str;

    fn metrics(&self) -> &Registry<Self::Report>;
    fn tracer(&self) -> &Tracer;
    /// Engine defaults for a query's window and step.
    fn engine(&self) -> &EngineConfig;
    fn health(&self) -> HealthReport;
    fn catalog(&self) -> CatalogInfo;
    /// Fill the report fields kept outside the registry.
    fn fill_stats(&self, report: &mut Self::Report);

    /// Answer one admitted `query` or `explain`.
    fn execute(&self, job: &Job, query: &CheckedQuery, trace: &mut JobTrace) -> Response;

    /// A traced job finished with span tree `events`, and `json` is its
    /// Chrome export when the client asked for one.
    fn traced(&self, job: &Job, response: &Response, events: &[SpanEvent], json: Option<&str>) {
        let _ = (job, response, events, json);
    }

    /// Apply one append batch, pushing any frames it ripens.
    fn append(&self, request: &Request, batch: &AppendBatch) -> Response;

    /// Register a standing query under `query_id`; its frames go to
    /// `sink`.
    fn subscribe(
        &self,
        request: &Request,
        query: &CheckedQuery,
        query_id: &str,
        sink: &Arc<dyn EmissionSink>,
    ) -> Result<SubscriptionAck, ErrorBody>;

    /// The connection owning `sink` ended: drop what is bound to it.
    fn connection_closed(&self, sink: &Arc<dyn EmissionSink>);

    /// Stop the backend's own threads, before the front drains its queue.
    fn stop(&self) {}
}

/// A running daemon: the admission front over backend `B`. Cheap to
/// clone; all clones share one backend, scheduler and pool.
pub struct Front<B: Backend> {
    shared: Arc<Shared<B>>,
}

struct Shared<B> {
    backend: B,
    scheduler: Scheduler,
    pool: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Monotonic sequence behind minted query and subscription ids.
    query_seq: AtomicU64,
}

impl<B: Backend> Clone for Front<B> {
    fn clone(&self) -> Self {
        Front {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<B: Backend> Front<B> {
    /// Serve `backend` behind a scheduler sized by `config`, starting its
    /// pool threads.
    pub fn start(backend: B, config: SchedulerConfig) -> Self {
        let threads = config.workers.max(1);
        let shared = Arc::new(Shared {
            backend,
            scheduler: Scheduler::new(config),
            pool: Mutex::new(Vec::new()),
            query_seq: AtomicU64::new(0),
        });
        let pool = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{}-worker-{i}", B::PROCESS))
                    .spawn(move || pool_loop(&shared))
                    .expect("spawn pool thread")
            })
            .collect();
        *shared.pool.lock() = pool;
        Front { shared }
    }

    pub fn backend(&self) -> &B {
        &self.shared.backend
    }

    /// Answer one request, blocking until the response is ready or the
    /// request's deadline passes. A standing query needs
    /// [`Front::handle_streaming`]; here it is `stream_unsupported`. An
    /// answer's rows come back rendered in `result.rows`: whatever the
    /// backend left encoded ([`Response::result_rows`]) is decoded here.
    pub fn handle(&self, request: Request) -> Response {
        let mut response = self.dispatch(request, None);
        if let Err(e) = response.decode_result_rows() {
            let body = ErrorBody::new(codes::EXEC_FAILED, format!("undecodable result rows: {e}"));
            return Response::fail(&response.id, body);
        }
        response
    }

    /// Answer one request on a streaming-capable transport: like
    /// [`Front::handle`], but `subscribe: true` registers a standing
    /// query whose frames are pushed to `sink` for the rest of the
    /// connection's life, and an answer's rows may stay encoded in
    /// [`Response::result_rows`] for the transport to write as they are.
    /// The TCP front end uses this for every request.
    pub fn handle_streaming(&self, request: Request, sink: &Arc<dyn EmissionSink>) -> Response {
        self.dispatch(request, Some(sink))
    }

    /// Count one request that arrived over the wire.
    pub fn note_protocol_request(&self) {
        self.backend()
            .metrics()
            .update(|r| *r.front().requests_binary += 1);
    }

    fn dispatch(&self, request: Request, sink: Option<&Arc<dyn EmissionSink>>) -> Response {
        let backend = self.backend();
        backend.metrics().update(|r| *r.front().requests_total += 1);
        let started = Instant::now();
        let mut response = match request.proto_version {
            Some(v) if v != PROTO_VERSION => Response::fail(
                &request.id,
                ErrorBody::new(
                    codes::PROTO_MISMATCH,
                    format!(
                        "peer speaks protocol v{v}, this {} speaks v{PROTO_VERSION}",
                        B::DAEMON
                    ),
                ),
            ),
            _ => match request.verb {
                Verb::Stats => {
                    let mut r = Response::ok(&request.id);
                    self.stats_report().attach(&mut r);
                    r
                }
                Verb::Health => {
                    let mut r = Response::ok(&request.id);
                    r.health = Some(backend.health());
                    r
                }
                Verb::Catalog => {
                    let mut r = Response::ok(&request.id);
                    r.catalog = Some(backend.catalog());
                    r
                }
                // The TCP front end decides what shutdown means.
                Verb::Shutdown => Response::ok(&request.id),
                Verb::Append => match &request.append {
                    Some(batch) => backend.append(&request, batch),
                    None => Response::fail(
                        &request.id,
                        ErrorBody::new(codes::BAD_REQUEST, "append requires an `append` payload"),
                    ),
                },
                Verb::Query if request.subscribe == Some(true) => match sink {
                    Some(sink) => self.subscribe(&request, sink),
                    None => Response::fail(
                        &request.id,
                        ErrorBody::new(
                            codes::STREAM_UNSUPPORTED,
                            "standing queries (`subscribe: true`) need a streaming-capable \
                             connection; this path cannot deliver pushed frames",
                        ),
                    ),
                },
                Verb::Query | Verb::Explain => self.enqueue_and_wait(request, started),
            },
        };
        response.proto_version = Some(PROTO_VERSION);
        let ok = response.is_ok();
        backend.metrics().finished(started.elapsed(), |r| {
            let c = r.front();
            *c.requests_ok += u64::from(ok);
            *c.requests_error += u64::from(!ok);
        });
        response
    }

    fn subscribe(&self, request: &Request, sink: &Arc<dyn EmissionSink>) -> Response {
        let backend = self.backend();
        let subscribed = check_query(request, backend.engine()).and_then(|query| {
            let query_id = self.mint_id(B::SUBSCRIPTION_ID_PREFIX, &request.id);
            backend.subscribe(request, &query, &query_id, sink)
        });
        match subscribed {
            Ok(ack) => {
                let mut r = Response::ok(&request.id);
                r.query_id = Some(ack.query_id.clone());
                r.subscription = Some(ack);
                r
            }
            Err(body) => Response::fail(&request.id, body),
        }
    }

    fn mint_id(&self, prefix: &str, request_id: &str) -> String {
        let seq = self.shared.query_seq.fetch_add(1, Ordering::Relaxed);
        format!("{prefix}{seq:06}-{request_id}")
    }

    fn enqueue_and_wait(&self, request: Request, started: Instant) -> Response {
        let (metrics, scheduler) = (self.backend().metrics(), &self.shared.scheduler);
        let id = request.id.clone();
        let tenant = request.tenant.clone();
        // The id is minted at admission, so even rejected and timed-out
        // requests can be matched against server-side logs and traces.
        let query_id = self.mint_id(B::QUERY_ID_PREFIX, &id);
        if request.wants_trace() {
            // The first traced request switches the shared tracer on for
            // the rest of the process; idle, it costs one relaxed atomic
            // load per instrumentation site.
            self.backend().tracer().enable();
        }
        let timeout = request
            .timeout_ms
            .map(Duration::from_millis)
            .unwrap_or(scheduler.config().default_timeout);
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
        let failure = match scheduler.submit(job) {
            Ok(depth) => {
                metrics.tenant(&tenant, |r, t| {
                    t.admitted += 1;
                    r.note_queue_depth(depth);
                });
                match slot.wait_until(deadline) {
                    Some(response) => {
                        metrics.tenant(&tenant, |_, t| t.completed += 1);
                        return response;
                    }
                    None => {
                        metrics.tenant(&tenant, |r, t| {
                            *r.front().timeouts += 1;
                            t.completed += 1;
                        });
                        ErrorBody::new(
                            codes::TIMEOUT,
                            format!("deadline of {}ms elapsed", timeout.as_millis()),
                        )
                    }
                }
            }
            Err(AdmissionError::QueueFull { depth, capacity }) => {
                metrics.tenant(&tenant, |r, t| {
                    t.rejected += 1;
                    *r.front().rejected_queue_full += 1;
                });
                ErrorBody::new(
                    codes::QUEUE_FULL,
                    format!(
                        "{} queue at capacity ({depth}/{capacity}); retry later",
                        B::DAEMON
                    ),
                )
            }
            Err(AdmissionError::ShuttingDown) => shutting_down::<B>(),
        };
        let mut r = Response::fail(&id, failure);
        r.query_id = Some(query_id);
        r
    }

    /// The current `stats` report.
    pub fn stats_report(&self) -> B::Report {
        let backend = self.backend();
        // Read what lives outside the registry first: its lock is a leaf.
        let depth = self.shared.scheduler.depth();
        let mut report = backend.metrics().snapshot(|r, latency, tenants| {
            r.set_latency(latency);
            r.note_queue_depth(depth);
            let c = r.front();
            *c.uptime_ms = backend.metrics().uptime().as_millis() as u64;
            *c.per_tenant = tenants;
        });
        backend.fill_stats(&mut report);
        report
    }

    /// Stop the backend's threads, answer still-queued jobs with a
    /// shutdown error, join the pool, and return the final report.
    pub fn shutdown(&self) -> B::Report {
        self.backend().stop();
        for job in self.shared.scheduler.shutdown() {
            job.slot
                .fulfill(Response::fail(&job.request.id, shutting_down::<B>()));
        }
        let pool = std::mem::take(&mut *self.shared.pool.lock());
        for handle in pool {
            let _ = handle.join();
        }
        self.stats_report()
    }
}

fn shutting_down<B: Backend>() -> ErrorBody {
    ErrorBody::new(codes::SHUTDOWN, format!("{} is shutting down", B::DAEMON))
}

fn pool_loop<B: Backend>(shared: &Shared<B>) {
    let metrics = shared.backend.metrics();
    while let Some((job, depth)) = shared.scheduler.next_job() {
        metrics.update(|r| r.note_queue_depth(depth));
        if job.slot.is_cancelled() {
            // The client's deadline passed while the job sat in the
            // queue; it was already answered with a timeout.
            continue;
        }
        if Instant::now() >= job.deadline {
            metrics.update(|r| *r.front().timeouts += 1);
            job.slot.fulfill(Response::fail(
                &job.request.id,
                ErrorBody::new(codes::TIMEOUT, "deadline elapsed while queued"),
            ));
            continue;
        }
        metrics.update(|r| *r.front().in_flight += 1);
        let response = run(&shared.backend, &job);
        metrics.update(|r| *r.front().in_flight -= 1);
        job.slot.fulfill(response);
    }
}

/// Run one admitted job under its request-scoped trace: a root span
/// opened retroactively at admission time, so it covers the queue, a
/// `queue_wait` child for that time, and everything the backend records
/// underneath, with the span trees it fetched grafted in. The client
/// gets the summary when it asked for one.
fn run<B: Backend>(backend: &B, job: &Job) -> Response {
    let tracer = backend.tracer();
    let root = tracer.enabled().then(|| {
        let now = tracer.now_us();
        let queued_us = job.enqueued.elapsed().as_micros() as u64;
        let start = now.saturating_sub(queued_us);
        let mut root = tracer.span_at(B::ROOT_SPAN, start);
        if root.is_recording() {
            root.set_detail(format!("query_id={} tenant={}", job.query_id, job.tenant));
            tracer.record_span(RecordedSpan {
                name: "queue_wait",
                detail: format!("{queued_us}us queued"),
                parent: root.id(),
                root: root.root(),
                start_us: start,
                end_us: now,
                failed: false,
                kind: EventKind::Span,
            });
        }
        root
    });
    let mut trace = JobTrace {
        parent: root.as_ref().map(|root| (root.id(), root.root())),
        guests: Vec::new(),
    };
    let mut response = match check_query(&job.request, backend.engine()) {
        Ok(query) => backend.execute(job, &query, &mut trace),
        Err(body) => Response::fail(&job.request.id, body),
    };
    stamp_query_id(&mut response, &job.query_id);
    let Some(mut root) = root else {
        return response;
    };
    let root_id = root.root();
    if !response.is_ok() {
        root.fail();
    }
    drop(root);

    let mut events = tracer.take_root(root_id);
    tracer.prune_before(tracer.now_us().saturating_sub(TRACE_RETENTION_US));
    if !trace.guests.is_empty() {
        for (attach, spans) in trace.guests {
            // Grafting is best-effort: a malformed guest tree must not
            // fail the query its spans describe.
            let _ = sjtrace::graft(&mut events, attach, &spans);
        }
        events.sort_by_key(|e| (e.start_us, e.id));
    }
    let chrome_json = job
        .request
        .wants_trace()
        .then(|| sjtrace::export::chrome_trace_json(&events, &tracer.thread_names(), B::PROCESS));
    backend.traced(job, &response, &events, chrome_json.as_deref());
    if let Some(json) = chrome_json {
        response.trace = Some(TraceSummary {
            query_id: job.query_id.clone(),
            span_count: events.len() as u64,
            dropped_spans: tracer.dropped(),
            timeline: sjtrace::timeline::render(&events),
            chrome_json: Some(json),
            // The raw tree, so a fronting router can graft it under its
            // own span.
            spans: Some(events),
        });
    }
    response
}

/// Stamp the minted query id where a client correlates: the response and
/// its failure report (on degraded responses).
fn stamp_query_id(response: &mut Response, query_id: &str) {
    response.query_id = Some(query_id.to_string());
    if let Some(failure) = response.failure.as_mut() {
        failure.query_id = Some(query_id.to_string());
    }
}

/// The one check of a `query` payload: present, with domains and values,
/// and with a finite, non-negative window and step after the engine
/// defaults fill them in. NaN, infinite or negative knobs can neither key
/// a plan-cache entry nor drive interpolation sensibly.
fn check_query<'a>(
    request: &'a Request,
    engine: &EngineConfig,
) -> Result<CheckedQuery<'a>, ErrorBody> {
    let bad = |message: String| ErrorBody::new(codes::BAD_REQUEST, message);
    let Some(spec) = &request.query else {
        let verb = if request.subscribe == Some(true) {
            "subscribe"
        } else {
            "query/explain"
        };
        return Err(bad(format!("{verb} requires a `query` payload")));
    };
    if spec.domains.is_empty() || spec.values.is_empty() {
        return Err(bad("query needs domains and values".into()));
    }
    let window = spec.window_secs.unwrap_or(engine.interp_window_secs);
    let step = spec.step_secs.unwrap_or(engine.explode_step_secs);
    if !window.is_finite() || window < 0.0 || !step.is_finite() || step < 0.0 {
        return Err(bad(format!(
            "window_secs and step_secs must be finite and non-negative \
             (got window={window}, step={step})"
        )));
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
    Ok(CheckedQuery {
        spec,
        query,
        window,
        step,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ValueSpec;

    fn checked(spec: Option<QuerySpec>, subscribe: bool) -> Result<(f64, f64), ErrorBody> {
        let mut request = Request::bare("r", Verb::Query);
        request.query = spec;
        request.subscribe = subscribe.then_some(true);
        check_query(&request, &EngineConfig::default()).map(|q| (q.window, q.step))
    }

    #[test]
    fn query_check_defaults_knobs_and_rejects_bad_payloads() {
        let spec = QuerySpec::new(["job"], ["heat"]);
        let defaults = EngineConfig::default();
        assert_eq!(
            checked(Some(spec.clone()), false).unwrap(),
            (defaults.interp_window_secs, defaults.explode_step_secs)
        );
        let message = |r: Result<(f64, f64), ErrorBody>| {
            let e = r.unwrap_err();
            assert_eq!(e.code, codes::BAD_REQUEST);
            e.message
        };
        assert!(message(checked(None, false)).starts_with("query/explain requires"));
        assert!(message(checked(None, true)).starts_with("subscribe requires"));
        let empty = QuerySpec {
            values: Vec::new(),
            ..spec.clone()
        };
        assert!(message(checked(Some(empty), false)).contains("domains and values"));
        for (window, step) in [(-1.0, 60.0), (120.0, f64::NAN), (f64::INFINITY, 60.0)] {
            let knobs = QuerySpec {
                window_secs: Some(window),
                step_secs: Some(step),
                values: vec![ValueSpec::dim("heat")],
                ..spec.clone()
            };
            for subscribe in [false, true] {
                assert!(message(checked(Some(knobs.clone()), subscribe)).contains("finite"));
            }
        }
    }
}
