//! The router: one [`Router`] fronts N `sjserved` workers.
//!
//! A router is the admission front a worker runs ([`sjserve::front`]:
//! the protocol check, bounded per-tenant queues, round-robin dispatch,
//! deadlines, query ids, request traces, request accounting) over a
//! [`RouterBackend`]. A routed query then goes:
//!
//! 1. the query is canonicalized and solved against the **combined
//!    planning catalog** (every worker's schemas, zero rows), through a
//!    plan cache — proving the fleet can answer at all, without
//!    touching data;
//! 2. if some live worker's **own** catalog derives the whole query
//!    with that same plan (fingerprint equality, see
//!    [`crate::topology`]), it is forwarded there (single-shard route),
//!    with one failover retry to the next capable worker in ring order.
//!    The router decodes only the answer's envelope: the worker's row
//!    section is relayed as the bytes it came in;
//! 3. otherwise the query is split per value dimension, each sub-query
//!    routed to a worker that locally reproduces *its* reference
//!    derivation, sent to every such worker before any answer is read,
//!    and the partial tables are merged by a natural join on the query's
//!    domain columns (scatter-gather);
//! 4. `ok` answers land in a bounded route cache, rows as an encoded
//!    section, invalidated wholesale whenever any worker's catalog epoch
//!    changes.
//!
//! Every answer the router returns, relayed, merged or cached, carries
//! the router's own request id and `elapsed_ms`.
//!
//! Every hop to a worker (query, append, subscribe, catalog fetch,
//! health probe) is one `exchange`: a bounded dial, the request sent to
//! every target, then each answer read. Each step may take the time left
//! until the request's deadline plus `HOP_SLACK`, or the probe timeout,
//! so a worker that accepts connections and never answers holds no
//! caller past that bound, and its failed hops mark it down.
//!
//! A background heartbeat probes `health` on every worker: consecutive
//! failures mark a worker down (routing skips it until it answers
//! again), and an epoch change triggers a catalog refetch plus cache
//! invalidation. When the client asks for a trace, each worker's span
//! tree (shipped on its response) is grafted under the router's
//! `worker_call` span, so one timeline covers router queue, per-worker
//! execution, and merge.

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sjcore::engine::{EngineConfig, Plan, Query, QueryEngine};
use sjdf::ExecCtx;
use sjserve::cache::{PlanCacheLayer, PlanKey};
use sjserve::client::{Client, ClientError};
use sjserve::front::{Backend, CheckedQuery, Front, JobTrace};
use sjserve::metrics::{Registry, RouterStatsReport};
use sjserve::protocol::{
    codes, AppendAck, CatalogInfo, ErrorBody, HealthReport, PlanInfo, QuerySpec, Request, Response,
    SubscriptionAck, Verb,
};
use sjserve::scheduler::{Job, SchedulerConfig};
use sjserve::server::EmissionSink;
use sjstream::AppendBatch;
use sjtrace::Tracer;

use crate::cache::RouteCache;
use crate::stream::RouterStreams;
use crate::topology::{Planning, Topology};

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
    /// How long each step of a heartbeat probe or boot-time catalog
    /// fetch may block (the dial, the send, the read). Not zero.
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
    /// One lock per worker, held by the append being forwarded to it:
    /// the fleet's one append order (see [`RouterBackend::append`]).
    append_order: Vec<Mutex<()>>,
    heartbeat_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    stop: AtomicBool,
}

/// The router's half of `sjrouted` behind the admission front: routing,
/// fan-out and merge, append forwarding, routed subscriptions and the
/// heartbeat.
pub struct RouterBackend {
    inner: Arc<RouterInner>,
}

/// A running router: the admission front over a [`RouterBackend`]. Cheap
/// to clone; all clones share one topology, scheduler, and cache.
///
/// A newtype only so this crate can give it a constructor and the fleet
/// hooks; everything a request touches (`handle`, `stats_report`,
/// `shutdown`, ...) is the [`Front`]'s, reached through `Deref`.
#[derive(Clone)]
pub struct Router(Front<RouterBackend>);

impl Deref for Router {
    type Target = Front<RouterBackend>;

    fn deref(&self) -> &Front<RouterBackend> {
        &self.0
    }
}

impl From<Router> for Front<RouterBackend> {
    fn from(router: Router) -> Self {
        router.0
    }
}

impl Router {
    /// Probe every worker's `catalog`, build the planning state, and
    /// start the heartbeat and the front's pool. Unreachable workers
    /// start marked down (the heartbeat keeps trying); zero reachable
    /// workers is an error.
    pub fn new(worker_addrs: Vec<String>, config: RouterConfig) -> Result<Router, String> {
        if worker_addrs.is_empty() {
            return Err("router needs at least one worker address".into());
        }
        if config.probe_timeout.is_zero() {
            return Err("the probe timeout must not be zero".into());
        }
        let scheduler = config.scheduler.clone();
        let inner = Arc::new(RouterInner {
            append_order: worker_addrs.iter().map(|_| Mutex::new(())).collect(),
            topology: Topology::new(worker_addrs),
            ctx: ExecCtx::local(),
            plan_cache: PlanCacheLayer::new(),
            route_cache: RouteCache::default(),
            metrics: Registry::new(),
            streams: RouterStreams::new(),
            heartbeat_thread: Mutex::new(None),
            stop: AtomicBool::new(false),
            config,
        });
        let mut reachable = 0;
        let mut last_err = String::new();
        let every: Vec<usize> = (0..inner.topology.workers.len()).collect();
        for (idx, fetched) in fetch_catalogs(&inner, &every).into_iter().enumerate() {
            match fetched {
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
        let heartbeat = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("sjroute-heartbeat".into())
                .spawn(move || heartbeat_loop(&inner))
                .expect("spawn heartbeat")
        };
        *inner.heartbeat_thread.lock() = Some(heartbeat);
        Ok(Router(Front::start(RouterBackend { inner }, scheduler)))
    }

    /// The fleet as the router currently sees it (test/observability
    /// hook).
    pub fn topology(&self) -> &Topology {
        &self.backend().inner.topology
    }

    /// Force an immediate heartbeat pass (test hook: markdown and epoch
    /// detection without waiting out the heartbeat period).
    pub fn probe_now(&self) {
        probe_all(&self.backend().inner);
    }
}

impl Backend for RouterBackend {
    type Report = RouterStatsReport;

    const DAEMON: &'static str = "router";
    const PROCESS: &'static str = "sjroute";
    const ROOT_SPAN: &'static str = "route";
    const QUERY_ID_PREFIX: &'static str = "r";
    const SUBSCRIPTION_ID_PREFIX: &'static str = "rs";

    fn metrics(&self) -> &Registry<RouterStatsReport> {
        &self.inner.metrics
    }

    fn tracer(&self) -> &Tracer {
        self.inner.ctx.tracer()
    }

    fn engine(&self) -> &EngineConfig {
        &self.inner.config.engine
    }

    fn health(&self) -> HealthReport {
        let inner = &self.inner;
        let all_up = inner.topology.workers.iter().all(|w| w.healthy());
        HealthReport {
            status: if all_up { "ok" } else { "degraded" }.into(),
            datasets: inner.topology.all_datasets(),
            uptime_ms: inner.metrics.uptime().as_millis() as u64,
            shard_id: None,
            catalog_epoch: Some(inner.topology.combined_epoch()),
            stage_cache_bytes: None,
        }
    }

    fn catalog(&self) -> CatalogInfo {
        CatalogInfo {
            shard_id: None,
            epoch: self.inner.topology.combined_epoch(),
            datasets: self.inner.topology.combined_datasets(),
        }
    }

    fn fill_stats(&self, r: &mut RouterStatsReport) {
        let cache = self.inner.route_cache.stats();
        r.route_cache_entries = cache.entries;
        r.route_cache_hits = cache.hits;
        r.route_cache_misses = cache.misses;
        r.route_cache_bytes = cache.bytes;
        r.route_cache_evictions = cache.evictions;
        r.workers = self.inner.topology.summaries();
    }

    /// Solve, route, fan out, merge: a `worker_call` span per remote
    /// call, and each worker's own span tree a guest under the call that
    /// fetched it.
    fn execute(&self, job: &Job, query: &CheckedQuery, trace: &mut JobTrace) -> Response {
        let inner = &*self.inner;
        let id = job.request.id.clone();
        let fail = |body: ErrorBody| Response::fail(&id, body);
        let (spec, window, step) = (query.spec, query.window, query.step);
        let route_engine = query.engine(&inner.config.engine);

        // Solve against the planning catalog (schemas only) through the plan
        // cache.
        let (canonical, plan, plan_cache_hit) =
            match solve_reference(inner, &query.query, window, step, &route_engine) {
                Ok(t) => t,
                Err(body) => return fail(body),
            };

        if job.request.verb == Verb::Explain {
            let mut r = Response::ok(&id);
            r.plan = Some(PlanInfo::new(&plan, plan_cache_hit));
            return r;
        }

        let limit = spec.limit.unwrap_or(inner.config.default_limit);
        // Traced requests bypass the cache: the client asked to watch the
        // hop actually happen.
        let caching = !job.request.wants_trace();
        if caching {
            if let Some(mut hit) = inner.route_cache.get(plan.fingerprint(), limit) {
                restamp(&mut hit, job);
                if let Some(result) = hit.result.as_mut() {
                    result.result_cache_hit = true;
                }
                return hit;
            }
        }

        inner.metrics.update(|r| r.routed_queries += 1);

        // Single-shard fast path: some live worker's own catalog derives the
        // whole query with the reference plan. Keyed on the sorted combined
        // cover so the choice among equally capable workers is
        // deterministic per query shape.
        let (live, _) = inner.topology.local_solvers(
            &canonical,
            &route_engine,
            plan.fingerprint(),
            &cover_key(&plan),
        );
        if !live.is_empty() {
            let mut sub_spec = spec.clone();
            sub_spec.limit = Some(limit);
            let sub = sub_request(job, &format!("{}.w", job.query_id), sub_spec);
            let answer = query_workers(inner, job, &[(&live, sub)], trace).pop();
            return match answer.expect("one answer per call") {
                Ok(mut resp) => {
                    restamp(&mut resp, job);
                    if resp.is_degraded() {
                        inner.metrics.update(|r| r.degraded += 1);
                    }
                    if caching && resp.is_ok() {
                        let mut cached = resp.clone();
                        cached.trace = None;
                        inner.route_cache.put(plan.fingerprint(), limit, cached);
                    }
                    resp
                }
                Err(e) => fail(ErrorBody::new(
                    codes::WORKER_UNAVAILABLE,
                    format!("no worker holding {:?} answered: {e}", plan.loads()),
                )),
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
            let key = PlanKey::new(&sub_query, window, step).expect("knobs validated above");
            let planned = cached_plan(
                inner,
                &inner.topology.planning(),
                &sub_query,
                key,
                &route_engine,
            );
            let sub_plan = match planned {
                Ok((plan, _)) => plan,
                Err(e) => {
                    return fail(ErrorBody::new(
                        codes::NO_ROUTE,
                        format!(
                            "value `{}` is not derivable on its own: {e}",
                            value.dimension
                        ),
                    ))
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
                    fail(ErrorBody::new(
                        codes::NO_ROUTE,
                        format!(
                            "deriving value `{}` needs datasets {sub_cover:?} on one worker, \
                             but no shard reproduces that derivation locally; co-locate them \
                             or raise the partitioner's --replicas",
                            value.dimension
                        ),
                    ))
                } else {
                    fail(ErrorBody::new(
                        codes::WORKER_UNAVAILABLE,
                        format!(
                            "every worker able to derive value `{}` is marked down",
                            value.dimension
                        ),
                    ))
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

        // Fan out: one sub-query per group, every one sent before any
        // answer is read, each with its own failover retry.
        let calls: Vec<(&[usize], Request)> = groups
            .iter()
            .enumerate()
            .map(|(gi, group)| {
                let sub_spec = QuerySpec {
                    domains: spec.domains.clone(),
                    values: group
                        .values
                        .iter()
                        .map(|&vi| spec.values[vi].clone())
                        .collect(),
                    window_secs: Some(window),
                    step_secs: Some(step),
                    limit: Some(inner.config.fanout_limit),
                };
                let sub = sub_request(job, &format!("{}.g{gi}", job.query_id), sub_spec);
                (group.candidates.as_slice(), sub)
            })
            .collect();

        let mut partials = Vec::new();
        let mut failures: Vec<String> = Vec::new();
        let mut worst_failure: Option<sjdf::FailureReport> = None;
        let mut any_degraded = false;
        for (gi, answer) in query_workers(inner, job, &calls, trace)
            .into_iter()
            .enumerate()
        {
            // The merge needs the rows: decode each partial.
            let decoded = answer.and_then(|mut resp| match resp.decode_result_rows() {
                Ok(()) => Ok(resp),
                Err(e) => Err(format!("undecodable result rows: {e}")),
            });
            match decoded {
                Ok(mut resp) => {
                    any_degraded |= resp.is_degraded();
                    worst_failure = resp.failure.take().or(worst_failure);
                    match resp.result.take() {
                        Some(result) => partials.push(result),
                        None => failures.push(format!("sub-query {gi}: {}", refusal(&resp))),
                    }
                }
                Err(e) => failures.push(format!("sub-query {gi}: {e}")),
            }
        }

        if partials.is_empty() {
            return fail(ErrorBody::new(
                codes::WORKER_UNAVAILABLE,
                format!(
                    "all scatter-gather sub-queries failed: {}",
                    failures.join("; ")
                ),
            ));
        }

        let mut merged = match crate::merge::natural_join(partials) {
            Ok(merged) => merged,
            Err(e) => {
                return fail(ErrorBody::new(
                    codes::EXEC_FAILED,
                    format!("scatter-gather merge: {e}"),
                ))
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

        if failures.is_empty() && !any_degraded {
            let mut r = Response::ok(&id);
            r.result = Some(merged);
            if caching {
                // Encoded once, for the cache and for the client alike.
                r.encode_result_rows();
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
        }
    }

    /// Forward one append batch to **every** live worker holding the
    /// dataset, in one order the whole fleet shares. The router holds
    /// the append lock of every live owner, taken in worker order, from
    /// the first send to the last ack: two appends that reach a common
    /// worker reach every common worker in the same order, whichever
    /// connections they came on, and appends to disjoint workers do not
    /// wait on each other. A worker's watermark spans all its datasets,
    /// so the order is per worker, not per dataset. Under the locks the
    /// batch is written to every owner before any ack is read, so the
    /// replicas ingest it at the same time. Each step that can block
    /// ends by the deadline plus 500 ms, so a stuck replica holds up the
    /// appends behind it no longer than that.
    ///
    /// The lockstep frame merge depends on every fed worker holding the
    /// same accepted prefix. A worker that misses a batch, or whose ack
    /// disagrees with the first owner's, is treated as lost by every
    /// routed subscription it feeds (see [`crate::stream`]).
    fn append(&self, request: &Request, batch: &AppendBatch) -> Response {
        let inner = &self.inner;
        let id = &request.id;
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
        let (timeout, deadline) = request_deadline(inner, request);
        let mut in_lock_order = live.clone();
        in_lock_order.sort_unstable();
        let order: Vec<_> = in_lock_order
            .iter()
            .map(|&w| inner.append_order[w].lock())
            .collect();
        if Instant::now() >= deadline {
            // Forwarding now could only time out on every owner and cost
            // each its feeds; forward nothing.
            return Response::fail(
                id,
                ErrorBody::new(
                    codes::TIMEOUT,
                    format!(
                        "append to `{}` passed its deadline waiting for its turn",
                        batch.dataset
                    ),
                ),
            );
        }
        let mut sub =
            Request::append(&format!("{id}.a"), &request.tenant, batch.clone()).with_proto();
        sub.bulk = request.bulk;
        sub.timeout_ms = Some(timeout.as_millis() as u64);
        let targets: Vec<(usize, &Request)> = live.iter().map(|&idx| (idx, &sub)).collect();
        let answers = exchange(inner, &targets, deadline, HOP_SLACK);
        drop(order);
        // The acks that agree with the first, in owner order.
        let mut acks: Vec<(usize, AppendAck)> = Vec::new();
        let mut worker_error: Option<Response> = None;
        let mut errors: Vec<String> = Vec::new();
        let mut lost: Vec<usize> = Vec::new();
        let mut refused: Vec<usize> = Vec::new();
        let mut diverged = 0usize;
        for (&idx, answer) in live.iter().zip(answers) {
            let resp = match answer {
                Ok((_, resp)) => resp,
                Err(e) => {
                    errors.push(e);
                    lost.push(idx);
                    continue;
                }
            };
            match resp.append {
                Some(replica) if resp.is_ok() => match acks.first() {
                    Some((_, first)) if !same_prefix(first, &replica) => {
                        diverged += 1;
                        lost.push(idx);
                    }
                    _ => acks.push((idx, replica)),
                },
                _ => {
                    // A structured refusal: this worker did not ingest
                    // the batch. If others did, its prefix diverged.
                    let addr = &inner.topology.workers[idx].addr;
                    errors.push(format!("worker {addr}: {}", refusal(&resp)));
                    worker_error.get_or_insert(resp);
                    refused.push(idx);
                }
            }
        }
        inner.metrics.update(|r| {
            r.stream_appends_forwarded += (acks.len() + diverged) as u64;
            r.stream_append_divergences += diverged as u64;
        });
        // A transport failure means the worker may be gone entirely: its
        // feeds cannot be trusted even if nobody else ingested the batch
        // (retrying the append later would diverge its prefix anyway).
        // A replica whose ack disagrees with the first ingested the
        // batch over another prefix: the same.
        for &idx in &lost {
            inner.streams.worker_lost(inner, idx);
        }
        if acks.is_empty() {
            // Nobody ingested it. A structured worker refusal (bad
            // payload, unknown source...) is more useful than a transport
            // summary.
            if let Some(mut resp) = worker_error {
                resp.id = id.clone();
                return resp;
            }
            return Response::fail(
                id,
                ErrorBody::new(
                    codes::WORKER_UNAVAILABLE,
                    format!(
                        "append to `{}` reached no worker: {}",
                        batch.dataset,
                        errors.join("; ")
                    ),
                ),
            );
        }
        // Partial ingestion: workers that *refused* the batch while
        // others accepted it can no longer feed lockstep merges either.
        for &idx in &refused {
            inner.streams.worker_lost(inner, idx);
        }
        // Agreeing replicas hold the same prefix, but `windows_emitted`
        // counts only the frames a worker pushed to its own subscribers:
        // relay the ack of an owner that still feeds the routed
        // subscriptions, if any does.
        let relayed = acks
            .iter()
            .position(|&(idx, _)| inner.streams.feeding(idx))
            .unwrap_or(0);
        let mut r = Response::ok(id);
        r.append = Some(acks.swap_remove(relayed).1);
        r
    }

    /// Register a fleet-wide standing query: subscribe on every live
    /// worker that reproduces the reference plan locally, then merge
    /// their frame streams in lockstep (see [`crate::stream`]).
    fn subscribe(
        &self,
        request: &Request,
        query: &CheckedQuery,
        query_id: &str,
        sink: &Arc<dyn EmissionSink>,
    ) -> Result<SubscriptionAck, ErrorBody> {
        let inner = &self.inner;
        let route_engine = query.engine(&inner.config.engine);
        let (canonical, plan, _) =
            solve_reference(inner, &query.query, query.window, query.step, &route_engine)?;
        let (live, all) = inner.topology.local_solvers(
            &canonical,
            &route_engine,
            plan.fingerprint(),
            &cover_key(&plan),
        );
        if live.is_empty() {
            return Err(if all.is_empty() {
                ErrorBody::new(
                    codes::NO_ROUTE,
                    format!(
                        "a standing query over {:?} needs a worker reproducing \
                         the reference derivation locally, and none does",
                        plan.loads()
                    ),
                )
            } else {
                ErrorBody::new(
                    codes::WORKER_UNAVAILABLE,
                    "every worker able to serve this standing query is marked down",
                )
            });
        }
        // Subscribe upstream on every live local solver. Workers that
        // refuse are skipped (and counted against); the merge runs over
        // whoever acked.
        let (_, deadline) = request_deadline(inner, request);
        let sub = Request::subscribe(
            &format!("{query_id}.w"),
            &request.tenant,
            query.spec.clone(),
        )
        .with_proto();
        let targets: Vec<(usize, &Request)> = live.iter().map(|&idx| (idx, &sub)).collect();
        let mut feeds: Vec<(usize, Client)> = Vec::new();
        let mut ack: Option<SubscriptionAck> = None;
        let mut errors: Vec<String> = Vec::new();
        let answers = exchange(inner, &targets, deadline, HOP_SLACK);
        for (&idx, answer) in live.iter().zip(answers) {
            let (client, resp) = match answer {
                Ok(answer) => answer,
                Err(e) => {
                    errors.push(e);
                    continue;
                }
            };
            match resp.subscription {
                // A feed waits for frames as long as the subscription
                // lives, not until the subscribe's deadline.
                Some(worker_ack) if resp.is_ok() && client.set_read_timeout(None).is_ok() => {
                    ack.get_or_insert(worker_ack);
                    feeds.push((idx, client));
                }
                _ => {
                    note_failure(inner, idx);
                    errors.push(format!(
                        "worker {}: subscribe refused: {}",
                        inner.topology.workers[idx].addr,
                        refusal(&resp)
                    ));
                }
            }
        }
        let Some(ack) = ack else {
            return Err(ErrorBody::new(
                codes::WORKER_UNAVAILABLE,
                format!(
                    "no worker accepted the standing query: {}",
                    errors.join("; ")
                ),
            ));
        };
        RouterStreams::open(inner, query_id.to_string(), request.id.clone(), sink, feeds);
        Ok(SubscriptionAck {
            query_id: query_id.to_string(),
            ..ack
        })
    }

    fn connection_closed(&self, sink: &Arc<dyn EmissionSink>) {
        self.inner.streams.connection_closed(&self.inner, sink);
    }

    /// Stop the heartbeat and tear down routed subscriptions.
    fn stop(&self) {
        self.inner.stop.store(true, Ordering::Release);
        self.inner.streams.shutdown_all(&self.inner);
        if let Some(handle) = self.inner.heartbeat_thread.lock().take() {
            let _ = handle.join();
        }
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
) -> Result<(Query, Arc<Plan>, bool), ErrorBody> {
    let planning = inner.topology.planning();
    let canonical = query.canonicalize(planning.catalog.dict())?;
    let key = PlanKey::new(&canonical, window, step)
        .ok_or_else(|| ErrorBody::new(codes::BAD_REQUEST, "window/step do not form a plan key"))?;
    let (plan, hit) = cached_plan(inner, &planning, &canonical, key, route_engine)?;
    Ok((canonical, plan, hit))
}

/// The plan of canonical `query` (cache key `key`) on the combined
/// planning catalog, from the plan cache or solved into it: `(plan,
/// cache hit)`.
fn cached_plan(
    inner: &RouterInner,
    planning: &Planning,
    query: &Query,
    key: PlanKey,
    route_engine: &EngineConfig,
) -> sjcore::Result<(Arc<Plan>, bool)> {
    if let Some(plan) = inner.plan_cache.get(&key) {
        return Ok((plan, true));
    }
    let plan = QueryEngine::with_config(&planning.catalog, route_engine.clone()).solve(query)?;
    Ok((inner.plan_cache.insert(key, plan), false))
}

/// The sorted datasets `plan` loads, joined: the key that makes the
/// choice among equally capable workers deterministic per query shape.
fn cover_key(plan: &Plan) -> String {
    let mut cover = plan.loads();
    cover.sort_unstable();
    cover.join(",")
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

/// Make a relayed or cached answer the router's own: the client's
/// request id, and the router's time since admission as `elapsed_ms`.
fn restamp(resp: &mut Response, job: &Job) {
    resp.id = job.request.id.clone();
    if let Some(result) = resp.result.as_mut() {
        result.elapsed_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
    }
}

/// How long past a request's deadline each step of a hop to a worker may
/// still block, so a worker that answers just in time is still read.
const HOP_SLACK: Duration = Duration::from_millis(500);

/// A forwarded request's timeout (its own, else the router's default)
/// and the deadline it sets from now.
fn request_deadline(inner: &RouterInner, request: &Request) -> (Duration, Instant) {
    let timeout = request
        .timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(inner.config.scheduler.default_timeout);
    (timeout, Instant::now() + timeout)
}

/// Run query sub-requests, each `(candidates, request)`, in at most two
/// [`exchange`]s: every call at its first candidate, then each call whose
/// hop failed at its next one (single-retry failover). A transport or
/// framing failure advances to the next candidate; any answer (ok,
/// degraded, or a worker-side error) is final. The rows stay the encoded
/// section they arrived as, for a single-shard route to pass on whole and
/// for scatter-gather to decode before its merge. Each attempt is a
/// `worker_call` span with the worker's own spans grafted under it.
fn query_workers(
    inner: &RouterInner,
    job: &Job,
    calls: &[(&[usize], Request)],
    trace: &mut JobTrace,
) -> Vec<Result<Response, String>> {
    let tracer = inner.ctx.tracer();
    let mut answers: Vec<Result<Response, String>> =
        vec![Err("no candidate workers".to_string()); calls.len()];
    for attempt in 0..2 {
        let due: Vec<usize> = (0..calls.len())
            .filter(|&c| answers[c].is_err() && attempt < calls[c].0.len())
            .collect();
        if due.is_empty() {
            break;
        }
        if attempt > 0 {
            inner.metrics.update(|r| r.failovers += due.len() as u64);
        }
        let targets: Vec<(usize, &Request)> = due
            .iter()
            .map(|&c| (calls[c].0[attempt], &calls[c].1))
            .collect();
        let spans: Vec<_> = targets
            .iter()
            .map(|&(idx, _)| {
                trace.parent.map(|(parent, root)| {
                    let mut span = tracer.child_span("worker_call", parent, root);
                    let addr = &inner.topology.workers[idx].addr;
                    span.set_detail(format!("worker={idx} addr={addr} attempt={attempt}"));
                    span
                })
            })
            .collect();
        let answered = exchange(inner, &targets, job.deadline, HOP_SLACK);
        for ((&c, span), answer) in due.iter().zip(spans).zip(answered) {
            let mut answer = answer.map(|(_, resp)| resp);
            let worker_spans = answer
                .as_mut()
                .ok()
                .and_then(|resp| resp.trace.take()?.spans);
            if let Some(mut span) = span {
                if !answer.as_ref().is_ok_and(|resp| resp.is_ok()) {
                    span.fail();
                }
                if let Some(spans) = worker_spans {
                    trace.guests.push((span.id(), spans));
                }
            }
            answers[c] = answer;
        }
    }
    answers
}

/// One router→worker exchange, the only way the router talks to a
/// worker: a bounded dial to every target and its request sent, and only
/// then each answer read, in target order, so the targets work at the
/// same time. Each step (connect and handshake, send, read) may block
/// for the time left until `deadline` plus `slack`, so a worker that
/// accepts connections and never answers costs its caller no more than
/// that. An answer of any kind resets its worker's failure streak; a
/// failed step counts against the worker, possibly marking it down.
/// Each answer comes with the connection it arrived on.
fn exchange(
    inner: &RouterInner,
    targets: &[(usize, &Request)],
    deadline: Instant,
    slack: Duration,
) -> Vec<Result<(Client, Response), String>> {
    let step = || deadline.saturating_duration_since(Instant::now()) + slack;
    let sent: Vec<Result<Client, ClientError>> = targets
        .iter()
        .map(|&(idx, request)| {
            let addr = inner.topology.workers[idx].addr.as_str();
            let mut client = Client::connect_timeout(addr, "", step())?;
            client.send(request)?;
            Ok(client)
        })
        .collect();
    sent.into_iter()
        .zip(targets)
        .map(|(sent, &(idx, request))| {
            let answer = sent.and_then(|mut client| {
                client.set_read_timeout(Some(step()))?;
                let response = client.receive(&request.id)?;
                Ok((client, response))
            });
            match answer {
                Ok(answer) => {
                    inner.topology.record_success(idx);
                    Ok(answer)
                }
                Err(e) => {
                    note_failure(inner, idx);
                    Err(format!("worker {}: {e}", inner.topology.workers[idx].addr))
                }
            }
        })
        .collect()
}

/// What a worker's answer says when it is not what was asked for: its
/// error's code and message, else its status.
fn refusal(resp: &Response) -> String {
    match &resp.error {
        Some(e) => format!("{}: {}", e.code, e.message),
        None => resp.status.clone(),
    }
}

/// Whether two replicas' acks for one batch say they hold the same
/// accepted prefix: the same rows accepted, dropped late and dropped as
/// duplicates, and the same watermark. `windows_emitted` is left out: it
/// counts frames pushed to the worker's own subscribers, so it differs
/// wherever replicas feed different subscriptions (a replica just
/// dropped from a routed one, an owner that cannot serve the standing
/// query), not where their data differs. `invalidated` follows cache
/// residency.
fn same_prefix(a: &AppendAck, b: &AppendAck) -> bool {
    (
        a.accepted,
        a.late_dropped,
        a.duplicates_dropped,
        a.watermark_us,
    ) == (
        b.accepted,
        b.late_dropped,
        b.duplicates_dropped,
        b.watermark_us,
    )
}

fn note_failure(inner: &RouterInner, idx: usize) {
    if inner
        .topology
        .record_failure(idx, inner.config.markdown_after)
    {
        inner.metrics.update(|r| r.worker_markdowns += 1);
    }
}

/// Fetch the `catalog` manifests of `workers` in one exchange, each
/// step bounded by the probe timeout.
fn fetch_catalogs(inner: &RouterInner, workers: &[usize]) -> Vec<Result<CatalogInfo, String>> {
    let request = Request::bare("catalog", Verb::Catalog).with_proto();
    let targets: Vec<(usize, &Request)> = workers.iter().map(|&idx| (idx, &request)).collect();
    let answers = exchange(inner, &targets, Instant::now(), inner.config.probe_timeout);
    workers
        .iter()
        .zip(answers)
        .map(|(&idx, answer)| {
            let (_, mut resp) = answer?;
            resp.catalog.take().ok_or_else(|| {
                let addr = &inner.topology.workers[idx].addr;
                format!("worker {addr}: no catalog: {}", refusal(&resp))
            })
        })
        .collect()
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

/// One heartbeat pass: probe `health` on every worker in one exchange,
/// each step bounded by the probe timeout; a failed probe counts toward
/// mark-down. A probe whose epoch moved (or that resurrects a
/// marked-down worker) triggers a catalog refetch and wholesale cache
/// invalidation.
fn probe_all(inner: &RouterInner) {
    let workers = &inner.topology.workers;
    let request = Request::bare("probe", Verb::Health).with_proto();
    let targets: Vec<(usize, &Request)> = (0..workers.len()).map(|idx| (idx, &request)).collect();
    let answers = exchange(inner, &targets, Instant::now(), inner.config.probe_timeout);
    // Mark-up or epoch change: the shard's contents may differ from what
    // the planning catalog assumes.
    let stale: Vec<usize> = (0..workers.len())
        .zip(answers)
        .filter_map(|(idx, answer)| {
            let epoch = answer.ok()?.1.health.and_then(|h| h.catalog_epoch);
            let changed = epoch.is_some_and(|e| e != workers[idx].epoch());
            (!workers[idx].healthy() || changed).then_some(idx)
        })
        .collect();
    for (&idx, fetched) in stale.iter().zip(fetch_catalogs(inner, &stale)) {
        let Ok(info) = fetched else { continue };
        if workers[idx].healthy() && info.epoch != workers[idx].epoch() {
            inner.metrics.update(|r| r.epoch_invalidations += 1);
        }
        inner.topology.refresh(idx, info, &inner.ctx);
        inner.route_cache.invalidate_all();
        inner.plan_cache.clear();
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
    fn refuses_a_zero_probe_timeout() {
        let config = RouterConfig {
            probe_timeout: Duration::ZERO,
            ..RouterConfig::default()
        };
        let err = match Router::new(vec!["127.0.0.1:1".into()], config) {
            Err(e) => e,
            Ok(_) => panic!("expected a zero probe timeout to be refused"),
        };
        assert!(err.contains("probe timeout"), "{err}");
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = RouterConfig::default();
        assert!(c.fanout_limit >= c.default_limit);
        assert!(c.markdown_after >= 1);
    }
}
