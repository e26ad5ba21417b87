//! Service-level metrics: request counters, queue depth, latency
//! percentiles, cache hit rates, and per-tenant accounting.
//!
//! Counters are lock-free atomics; the latency histogram and the
//! per-tenant table take a short mutex only on record and snapshot. The
//! histogram uses power-of-two buckets over microseconds — 64 buckets
//! cover 1µs to ~584000 years, and a quantile is read by walking the
//! cumulative counts and reporting the bucket's geometric midpoint, which
//! bounds the relative error at √2.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sjdf::{CacheStats, StageCacheStats};

const BUCKETS: usize = 64;

/// Log₂-bucketed latency histogram (microsecond resolution).
#[derive(Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            max_us: 0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, latency: Duration) {
        let us = (latency.as_micros() as u64).max(1);
        self.buckets[us.ilog2() as usize] += 1;
        self.count += 1;
        self.max_us = self.max_us.max(us);
    }

    /// The q-quantile (0 < q ≤ 1) in milliseconds, 0.0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Geometric midpoint of [2^i, 2^(i+1)) microseconds.
                let mid_us = (1u64 << i) as f64 * std::f64::consts::SQRT_2;
                return mid_us / 1000.0;
            }
        }
        self.max_us as f64 / 1000.0
    }

    pub fn max_ms(&self) -> f64 {
        self.max_us as f64 / 1000.0
    }

    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Per-tenant admission accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    pub tenant: String,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests rejected at admission (queue full).
    pub rejected: u64,
    /// Requests that produced a response (ok or error).
    pub completed: u64,
}

/// A serializable point-in-time snapshot of every service metric,
/// returned by the `stats` verb and dumped on shutdown.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    pub uptime_ms: u64,
    pub requests_total: u64,
    pub requests_ok: u64,
    pub requests_error: u64,
    pub rejected_queue_full: u64,
    pub timeouts: u64,
    /// Requests currently executing on workers.
    pub in_flight: u64,
    /// Requests currently waiting in the admission queue.
    pub queue_depth: u64,
    pub queue_depth_peak: u64,
    pub latency_count: u64,
    pub latency_ms_p50: f64,
    pub latency_ms_p90: f64,
    pub latency_ms_p99: f64,
    pub latency_ms_max: f64,
    pub plan_cache_entries: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    /// Plan-cache bytes held (plans charged their JSON length).
    #[serde(default)]
    pub plan_cache_bytes: u64,
    /// Plans evicted to respect the plan cache's byte budget.
    #[serde(default)]
    pub plan_cache_evictions: u64,
    pub result_cache_entries: u64,
    pub result_cache_bytes: u64,
    pub result_cache_hits: u64,
    pub result_cache_misses: u64,
    pub result_cache_evictions: u64,
    /// Dataflow stage cache (persisted partitions + shuffle outputs).
    #[serde(default)]
    pub stage_cache_entries: u64,
    #[serde(default)]
    pub stage_cache_bytes: u64,
    #[serde(default)]
    pub stage_cache_hits: u64,
    #[serde(default)]
    pub stage_cache_misses: u64,
    #[serde(default)]
    pub stage_cache_evictions: u64,
    /// Queries answered `degraded` (retry budget exhausted under faults).
    #[serde(default)]
    pub requests_degraded: u64,
    /// Engine task retries accumulated across all executed queries.
    #[serde(default)]
    pub engine_task_retries: u64,
    /// Engine task attempts that exhausted their retry budget.
    #[serde(default)]
    pub engine_tasks_exhausted: u64,
    /// Planner pair tests run (non-memoized `combine_pair` calls),
    /// accumulated across every plan-cache-missing solve.
    #[serde(default)]
    pub planner_pair_tests: u64,
    /// Planner pair tests answered from the memo.
    #[serde(default)]
    pub planner_memo_hits: u64,
    /// Candidate datasets the planner examined (it only touches
    /// datasets reachable from the query's dimensions, so this stays far
    /// below catalog size × solves on large catalogs).
    #[serde(default)]
    pub planner_datasets_considered: u64,
    /// Solves stopped by the `max_datasets` budget (answered with the
    /// retryable `search_truncated` error code).
    #[serde(default)]
    pub searches_truncated: u64,
    /// Request traces extracted from the tracer (0 when tracing is off).
    #[serde(default)]
    pub traces_recorded: u64,
    /// Total span/instant events across all extracted traces.
    #[serde(default)]
    pub trace_spans_recorded: u64,
    /// Events the tracer discarded at capacity (cumulative gauge; a
    /// non-zero value means traces may be missing spans).
    #[serde(default)]
    pub trace_spans_dropped: u64,
    /// Streaming-ingestion section; `None` from workers without a
    /// stream engine (older builds) and on reports from routers.
    #[serde(default)]
    pub streaming: Option<StreamStatsReport>,
    /// Always 0: the JSON-lines transport was retired. Kept so parsers
    /// of older reports keep working.
    #[serde(default)]
    pub requests_json: u64,
    /// Requests that arrived over framed binary connections (sjwire).
    #[serde(default)]
    pub requests_binary: u64,
    pub per_tenant: Vec<TenantStats>,
}

/// Streaming-ingestion metrics: append admission, standing-query
/// lifecycle, and incremental window maintenance. Engine-side counters
/// mirror [`sjstream::StreamCounters`]; the subscription lifecycle ones
/// are service-side.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamStatsReport {
    pub appends: u64,
    pub rows_accepted: u64,
    pub rows_late_dropped: u64,
    pub rows_duplicate_dropped: u64,
    /// Standing queries currently registered.
    pub subscriptions_active: u64,
    pub subscriptions_opened: u64,
    /// Subscriptions torn down by a failed solve (e.g. a truncated
    /// search) — the teardown is per-subscription, never the connection.
    pub subscriptions_failed: u64,
    /// Subscriptions closed by the client (connection end or rejected
    /// frame push).
    pub subscriptions_closed: u64,
    pub window_emissions: u64,
    /// Emissions that replaced an already-delivered window after late
    /// data re-opened it.
    pub window_re_emissions: u64,
    /// Window evaluations actually run (cache misses + invalidations);
    /// everything else was answered by the emission cache.
    pub incremental_recomputes: u64,
    /// Windows emitted `degraded` after a faulted evaluation.
    pub degraded_windows: u64,
    /// Stage-cache entries dropped by window tag invalidation.
    pub cache_invalidations: u64,
}

impl StreamStatsReport {
    pub fn render(&self) -> String {
        format!(
            "streaming: {} appends ({} rows accepted, {} late dropped, {} duplicates dropped)\n\
             subscriptions: {} active, {} opened, {} failed, {} closed\n\
             windows: {} emitted ({} re-emissions, {} degraded), \
             {} incremental recomputes, {} cache invalidations\n",
            self.appends,
            self.rows_accepted,
            self.rows_late_dropped,
            self.rows_duplicate_dropped,
            self.subscriptions_active,
            self.subscriptions_opened,
            self.subscriptions_failed,
            self.subscriptions_closed,
            self.window_emissions,
            self.window_re_emissions,
            self.degraded_windows,
            self.incremental_recomputes,
            self.cache_invalidations,
        )
    }
}

impl StatsReport {
    /// Multi-line human-readable rendering (the shutdown dump).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "requests: {} total, {} ok, {} error, {} rejected (queue full), {} timed out\n",
            self.requests_total,
            self.requests_ok,
            self.requests_error,
            self.rejected_queue_full,
            self.timeouts
        ));
        out.push_str(&format!(
            "queue: depth {} (peak {}), in-flight {}\n",
            self.queue_depth, self.queue_depth_peak, self.in_flight
        ));
        out.push_str(&format!(
            "latency: p50 {:.2}ms, p90 {:.2}ms, p99 {:.2}ms, max {:.2}ms over {} requests\n",
            self.latency_ms_p50,
            self.latency_ms_p90,
            self.latency_ms_p99,
            self.latency_ms_max,
            self.latency_count
        ));
        out.push_str(&format!(
            "plan cache: {} entries ({} bytes), {} hits, {} misses, {} evictions\n",
            self.plan_cache_entries,
            self.plan_cache_bytes,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.plan_cache_evictions
        ));
        out.push_str(&format!(
            "result cache: {} entries ({} bytes), {} hits, {} misses, {} evictions\n",
            self.result_cache_entries,
            self.result_cache_bytes,
            self.result_cache_hits,
            self.result_cache_misses,
            self.result_cache_evictions
        ));
        out.push_str(&format!(
            "stage cache: {} entries ({} bytes), {} hits, {} misses, {} evictions\n",
            self.stage_cache_entries,
            self.stage_cache_bytes,
            self.stage_cache_hits,
            self.stage_cache_misses,
            self.stage_cache_evictions
        ));
        out.push_str(&format!(
            "faults: {} degraded responses, {} task retries, {} tasks exhausted\n",
            self.requests_degraded, self.engine_task_retries, self.engine_tasks_exhausted
        ));
        out.push_str(&format!(
            "planner: {} datasets considered, {} pair tests ({} memo hits), \
             {} searches truncated\n",
            self.planner_datasets_considered,
            self.planner_pair_tests,
            self.planner_memo_hits,
            self.searches_truncated
        ));
        out.push_str(&format!(
            "traces: {} recorded ({} spans), {} spans dropped\n",
            self.traces_recorded, self.trace_spans_recorded, self.trace_spans_dropped
        ));
        out.push_str(&format!(
            "transport: {} binary requests\n",
            self.requests_binary
        ));
        if let Some(streaming) = &self.streaming {
            out.push_str(&streaming.render());
        }
        for t in &self.per_tenant {
            out.push_str(&format!(
                "tenant `{}`: {} admitted, {} rejected, {} completed\n",
                t.tenant, t.admitted, t.rejected, t.completed
            ));
        }
        out
    }
}

/// One worker as a router sees it, embedded in [`RouterStatsReport`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerSummary {
    pub addr: String,
    pub shard_id: Option<String>,
    pub healthy: bool,
    /// Catalog fingerprint last observed on a heartbeat.
    pub catalog_epoch: u64,
    /// Datasets this worker reported owning.
    pub datasets: Vec<String>,
    /// Consecutive failed probes/calls (resets on success).
    pub consecutive_failures: u64,
}

/// A serializable snapshot of a router's metrics — the `stats` verb
/// payload of `sjrouted`, mirroring [`StatsReport`] in style. Lives here
/// (next to the protocol) so workers, routers, and clients share one
/// wire shape.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RouterStatsReport {
    pub uptime_ms: u64,
    /// Queries admitted and dispatched to at least one worker.
    pub routed_queries: u64,
    /// Queries whose dataset cover spanned shards and were fanned out.
    pub scatter_gather_queries: u64,
    /// Health transitions healthy → down (not probe failures; episodes).
    pub worker_markdowns: u64,
    /// Queries retried on a replica shard after a worker call failed.
    pub failovers: u64,
    /// Result-cache invalidations triggered by a worker catalog-epoch
    /// change.
    pub epoch_invalidations: u64,
    pub route_cache_hits: u64,
    pub route_cache_entries: u64,
    #[serde(default)]
    pub route_cache_misses: u64,
    /// Bytes of merged answers held (columns plus rendered rows).
    #[serde(default)]
    pub route_cache_bytes: u64,
    /// Answers evicted to respect the route cache's byte budget.
    #[serde(default)]
    pub route_cache_evictions: u64,
    pub rejected_queue_full: u64,
    pub timeouts: u64,
    pub queue_depth: u64,
    pub queue_depth_peak: u64,
    /// Queries answered `degraded` (partial scatter-gather, failed
    /// failover, or a worker's own degraded answer passed through).
    pub degraded: u64,
    pub route_latency_count: u64,
    pub route_latency_ms_p50: f64,
    pub route_latency_ms_p99: f64,
    pub route_latency_ms_max: f64,
    /// Always 0: the JSON-lines transport was retired. Kept so parsers
    /// of older reports keep working.
    #[serde(default)]
    pub requests_json: u64,
    /// Requests that arrived over framed binary connections (sjwire).
    #[serde(default)]
    pub requests_binary: u64,
    /// Standing queries currently fanned out across the fleet.
    #[serde(default)]
    pub streams_active: u64,
    /// Merged window frames pushed to router subscribers.
    #[serde(default)]
    pub stream_frames_pushed: u64,
    /// Per-worker window frames received by the merge layer (≈ frames
    /// pushed × live fan-out width when the fleet agrees).
    #[serde(default)]
    pub stream_worker_frames: u64,
    /// Merged frames that replaced an already-delivered window after
    /// late data re-opened it somewhere in the fleet.
    #[serde(default)]
    pub stream_re_emissions: u64,
    /// Append batches forwarded to workers (counted per worker hop).
    #[serde(default)]
    pub stream_appends_forwarded: u64,
    /// Workers lost mid-subscription (reader error or mark-down); the
    /// merge re-forms over the survivors.
    #[serde(default)]
    pub stream_worker_losses: u64,
    pub workers: Vec<WorkerSummary>,
    pub per_tenant: Vec<TenantStats>,
}

impl RouterStatsReport {
    /// Multi-line human-readable rendering (the shutdown dump).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "routed: {} queries ({} scatter-gather), {} degraded, {} rejected (queue full), {} timed out\n",
            self.routed_queries, self.scatter_gather_queries, self.degraded,
            self.rejected_queue_full, self.timeouts
        ));
        out.push_str(&format!(
            "failover: {} markdowns, {} failovers, {} epoch invalidations\n",
            self.worker_markdowns, self.failovers, self.epoch_invalidations
        ));
        out.push_str(&format!(
            "route cache: {} entries ({} bytes), {} hits, {} misses, {} evictions\n",
            self.route_cache_entries,
            self.route_cache_bytes,
            self.route_cache_hits,
            self.route_cache_misses,
            self.route_cache_evictions
        ));
        out.push_str(&format!(
            "route latency: p50 {:.2}ms, p99 {:.2}ms, max {:.2}ms over {} queries\n",
            self.route_latency_ms_p50,
            self.route_latency_ms_p99,
            self.route_latency_ms_max,
            self.route_latency_count
        ));
        out.push_str(&format!(
            "transport: {} binary requests\n",
            self.requests_binary
        ));
        out.push_str(&format!(
            "streams: {} active, {} frames pushed ({} re-emissions) from {} worker frames, \
             {} appends forwarded, {} workers lost mid-stream\n",
            self.streams_active,
            self.stream_frames_pushed,
            self.stream_re_emissions,
            self.stream_worker_frames,
            self.stream_appends_forwarded,
            self.stream_worker_losses
        ));
        for w in &self.workers {
            out.push_str(&format!(
                "worker {} [{}] {}: epoch {:016x}, {} datasets, {} consecutive failures\n",
                w.addr,
                w.shard_id.as_deref().unwrap_or("-"),
                if w.healthy { "up" } else { "DOWN" },
                w.catalog_epoch,
                w.datasets.len(),
                w.consecutive_failures
            ));
        }
        for t in &self.per_tenant {
            out.push_str(&format!(
                "tenant `{}`: {} admitted, {} rejected, {} completed\n",
                t.tenant, t.admitted, t.rejected, t.completed
            ));
        }
        out
    }
}

/// The live registry all request paths report into.
#[derive(Debug)]
pub struct ServiceMetrics {
    started: Instant,
    requests_total: AtomicU64,
    requests_ok: AtomicU64,
    requests_error: AtomicU64,
    rejected_queue_full: AtomicU64,
    timeouts: AtomicU64,
    in_flight: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
    requests_degraded: AtomicU64,
    engine_task_retries: AtomicU64,
    engine_tasks_exhausted: AtomicU64,
    planner_pair_tests: AtomicU64,
    planner_memo_hits: AtomicU64,
    planner_datasets_considered: AtomicU64,
    searches_truncated: AtomicU64,
    traces_recorded: AtomicU64,
    trace_spans_recorded: AtomicU64,
    trace_spans_dropped: AtomicU64,
    subscriptions_opened: AtomicU64,
    subscriptions_failed: AtomicU64,
    subscriptions_closed: AtomicU64,
    requests_binary: AtomicU64,
    latency: Mutex<Histogram>,
    tenants: Mutex<BTreeMap<String, TenantStats>>,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            requests_ok: AtomicU64::new(0),
            requests_error: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_depth_peak: AtomicU64::new(0),
            requests_degraded: AtomicU64::new(0),
            engine_task_retries: AtomicU64::new(0),
            engine_tasks_exhausted: AtomicU64::new(0),
            planner_pair_tests: AtomicU64::new(0),
            planner_memo_hits: AtomicU64::new(0),
            planner_datasets_considered: AtomicU64::new(0),
            searches_truncated: AtomicU64::new(0),
            traces_recorded: AtomicU64::new(0),
            trace_spans_recorded: AtomicU64::new(0),
            trace_spans_dropped: AtomicU64::new(0),
            subscriptions_opened: AtomicU64::new(0),
            subscriptions_failed: AtomicU64::new(0),
            subscriptions_closed: AtomicU64::new(0),
            requests_binary: AtomicU64::new(0),
            latency: Mutex::new(Histogram::default()),
            tenants: Mutex::new(BTreeMap::new()),
        }
    }
}

impl ServiceMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    pub fn request_started(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn request_finished(&self, ok: bool, latency: Duration) {
        if ok {
            self.requests_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.requests_error.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.lock().record(latency);
    }

    pub fn rejected_full(&self, tenant: &str) {
        self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
        self.tenant_entry(tenant, |t| t.rejected += 1);
    }

    pub fn timed_out(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub fn degraded(&self) {
        self.requests_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one execution's fault/retry accounting into the service
    /// totals (called for successful and degraded queries alike).
    pub fn engine_failures(&self, failures: &sjdf::FailureReport) {
        self.engine_task_retries
            .fetch_add(failures.task_retries, Ordering::Relaxed);
        self.engine_tasks_exhausted
            .fetch_add(failures.tasks_exhausted, Ordering::Relaxed);
    }

    pub fn degraded_count(&self) -> u64 {
        self.requests_degraded.load(Ordering::Relaxed)
    }

    /// Fold one solve's search-effort counters into the service totals.
    /// The per-request engine starts from zeroed stats, so its final
    /// reading is exactly this solve's contribution.
    pub fn planner_effort(&self, stats: &sjcore::engine::EngineStats) {
        self.planner_pair_tests
            .fetch_add(stats.pair_tests, Ordering::Relaxed);
        self.planner_memo_hits
            .fetch_add(stats.memo_hits, Ordering::Relaxed);
        self.planner_datasets_considered
            .fetch_add(stats.datasets_considered as u64, Ordering::Relaxed);
    }

    /// A solve was stopped by its dataset budget.
    pub fn search_truncated(&self) {
        self.searches_truncated.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one extracted request trace. `dropped_total` is the
    /// tracer's cumulative drop counter, stored as a gauge (the tracer
    /// never resets it, so `store` keeps the latest reading).
    pub fn trace_finished(&self, spans: u64, dropped_total: u64) {
        self.traces_recorded.fetch_add(1, Ordering::Relaxed);
        self.trace_spans_recorded
            .fetch_add(spans, Ordering::Relaxed);
        self.trace_spans_dropped
            .store(dropped_total, Ordering::Relaxed);
    }

    /// A standing query was registered.
    pub fn subscription_opened(&self) {
        self.subscriptions_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// A standing query was torn down by its own failed solve (the
    /// connection and the tenant's other subscriptions survive).
    pub fn subscription_failed(&self) {
        self.subscriptions_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// A standing query was closed by the client side.
    pub fn subscription_closed(&self) {
        self.subscriptions_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// One request arrived over the wire (recorded by the TCP front
    /// end; in-process embedders are not counted).
    pub fn protocol_request(&self) {
        self.requests_binary.fetch_add(1, Ordering::Relaxed);
    }

    /// Compose the streaming section of a [`StatsReport`] from the
    /// engine's counters plus the service-side lifecycle counters.
    pub fn stream_report(
        &self,
        counters: &sjstream::StreamCounters,
        active: u64,
        cache_invalidations: u64,
    ) -> StreamStatsReport {
        StreamStatsReport {
            appends: counters.appends,
            rows_accepted: counters.rows_accepted,
            rows_late_dropped: counters.rows_late_dropped,
            rows_duplicate_dropped: counters.rows_duplicate_dropped,
            subscriptions_active: active,
            subscriptions_opened: self.subscriptions_opened.load(Ordering::Relaxed),
            subscriptions_failed: self.subscriptions_failed.load(Ordering::Relaxed),
            subscriptions_closed: self.subscriptions_closed.load(Ordering::Relaxed),
            window_emissions: counters.window_emissions,
            window_re_emissions: counters.window_re_emissions,
            incremental_recomputes: counters.incremental_recomputes,
            degraded_windows: counters.degraded_windows,
            cache_invalidations,
        }
    }

    pub fn admitted(&self, tenant: &str) {
        self.tenant_entry(tenant, |t| t.admitted += 1);
    }

    pub fn completed(&self, tenant: &str) {
        self.tenant_entry(tenant, |t| t.completed += 1);
    }

    fn tenant_entry(&self, tenant: &str, f: impl FnOnce(&mut TenantStats)) {
        let mut map = self.tenants.lock();
        let entry = map
            .entry(tenant.to_string())
            .or_insert_with(|| TenantStats {
                tenant: tenant.to_string(),
                ..TenantStats::default()
            });
        f(entry);
    }

    pub fn queue_depth_changed(&self, depth: usize) {
        let depth = depth as u64;
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    pub fn exec_started(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    pub fn exec_finished(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn timeouts_count(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    pub fn rejected_count(&self) -> u64 {
        self.rejected_queue_full.load(Ordering::Relaxed)
    }

    /// Snapshot everything; cache numbers are supplied by the owner of
    /// the caches.
    pub fn snapshot(
        &self,
        plan: CacheStats,
        result: CacheStats,
        stage: StageCacheStats,
    ) -> StatsReport {
        let latency = self.latency.lock();
        let per_tenant = self.tenants.lock().values().cloned().collect();
        StatsReport {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            requests_total: self.requests_total.load(Ordering::Relaxed),
            requests_ok: self.requests_ok.load(Ordering::Relaxed),
            requests_error: self.requests_error.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            latency_count: latency.count(),
            latency_ms_p50: latency.quantile_ms(0.50),
            latency_ms_p90: latency.quantile_ms(0.90),
            latency_ms_p99: latency.quantile_ms(0.99),
            latency_ms_max: latency.max_ms(),
            plan_cache_entries: plan.entries,
            plan_cache_hits: plan.hits,
            plan_cache_misses: plan.misses,
            plan_cache_bytes: plan.bytes,
            plan_cache_evictions: plan.evictions,
            result_cache_entries: result.entries,
            result_cache_bytes: result.bytes,
            result_cache_hits: result.hits,
            result_cache_misses: result.misses,
            result_cache_evictions: result.evictions,
            stage_cache_entries: stage.entries,
            stage_cache_bytes: stage.bytes,
            stage_cache_hits: stage.hits,
            stage_cache_misses: stage.misses,
            stage_cache_evictions: stage.evictions,
            requests_degraded: self.requests_degraded.load(Ordering::Relaxed),
            engine_task_retries: self.engine_task_retries.load(Ordering::Relaxed),
            engine_tasks_exhausted: self.engine_tasks_exhausted.load(Ordering::Relaxed),
            planner_pair_tests: self.planner_pair_tests.load(Ordering::Relaxed),
            planner_memo_hits: self.planner_memo_hits.load(Ordering::Relaxed),
            planner_datasets_considered: self.planner_datasets_considered.load(Ordering::Relaxed),
            searches_truncated: self.searches_truncated.load(Ordering::Relaxed),
            traces_recorded: self.traces_recorded.load(Ordering::Relaxed),
            trace_spans_recorded: self.trace_spans_recorded.load(Ordering::Relaxed),
            trace_spans_dropped: self.trace_spans_dropped.load(Ordering::Relaxed),
            requests_json: 0,
            requests_binary: self.requests_binary.load(Ordering::Relaxed),
            // Filled in by the service, which owns the stream engine.
            streaming: None,
            per_tenant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_with_plan_cache(m: &ServiceMetrics, plan: CacheStats) -> StatsReport {
        m.snapshot(plan, CacheStats::default(), StageCacheStats::default())
    }

    #[test]
    fn histogram_percentiles_are_ordered() {
        let mut h = Histogram::default();
        for ms in [1u64, 2, 2, 3, 5, 8, 13, 100, 400] {
            h.record(Duration::from_millis(ms));
        }
        let p50 = h.quantile_ms(0.5);
        let p99 = h.quantile_ms(0.99);
        assert!(p50 > 0.0);
        assert!(p50 <= p99, "p50={p50} p99={p99}");
        assert!(h.max_ms() >= 400.0);
        assert_eq!(h.count(), 9);
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut h = Histogram::default();
        for _ in 0..1000 {
            h.record(Duration::from_micros(10_000)); // 10ms exactly
        }
        let p50 = h.quantile_ms(0.5);
        assert!(
            (5.0..20.0).contains(&p50),
            "p50={p50} should be within one bucket of 10ms"
        );
    }

    #[test]
    fn snapshot_collects_counters_and_tenants() {
        let m = ServiceMetrics::new();
        m.request_started();
        m.request_started();
        m.admitted("a");
        m.admitted("b");
        m.completed("a");
        m.rejected_full("b");
        m.timed_out();
        m.queue_depth_changed(7);
        m.queue_depth_changed(2);
        m.request_finished(true, Duration::from_millis(3));
        m.request_finished(false, Duration::from_millis(9));
        let s = snapshot_with_plan_cache(
            &m,
            CacheStats {
                entries: 1,
                hits: 4,
                misses: 2,
                bytes: 900,
                evictions: 3,
            },
        );
        assert_eq!(s.requests_total, 2);
        assert_eq!(s.requests_ok, 1);
        assert_eq!(s.requests_error, 1);
        assert_eq!(s.rejected_queue_full, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queue_depth_peak, 7);
        assert_eq!(s.plan_cache_hits, 4);
        assert_eq!((s.plan_cache_bytes, s.plan_cache_evictions), (900, 3));
        assert_eq!(s.per_tenant.len(), 2);
        let a = &s.per_tenant[0];
        assert_eq!((a.tenant.as_str(), a.admitted, a.completed), ("a", 1, 1));
        assert!(s.render().contains("p50"));
        assert!(s
            .render()
            .contains("plan cache: 1 entries (900 bytes), 4 hits, 2 misses, 3 evictions"));
    }

    #[test]
    fn fault_counters_reach_the_snapshot_and_render() {
        let m = ServiceMetrics::new();
        m.degraded();
        let f = sjdf::FailureReport {
            task_retries: 5,
            tasks_exhausted: 2,
            ..sjdf::FailureReport::default()
        };
        m.engine_failures(&f);
        m.engine_failures(&f);
        let s = snapshot_with_plan_cache(&m, CacheStats::default());
        assert_eq!(s.requests_degraded, 1);
        assert_eq!(s.engine_task_retries, 10);
        assert_eq!(s.engine_tasks_exhausted, 4);
        assert_eq!(m.degraded_count(), 1);
        assert!(s.render().contains("degraded"));
    }

    #[test]
    fn trace_gauges_reach_the_snapshot_and_render() {
        let m = ServiceMetrics::new();
        m.trace_finished(12, 0);
        m.trace_finished(5, 3);
        let s = snapshot_with_plan_cache(&m, CacheStats::default());
        assert_eq!(s.traces_recorded, 2);
        assert_eq!(s.trace_spans_recorded, 17);
        // The drop counter is a cumulative gauge: latest reading wins.
        assert_eq!(s.trace_spans_dropped, 3);
        assert!(s.render().contains("traces: 2 recorded"));
    }

    #[test]
    fn router_report_round_trips_and_renders() {
        let r = RouterStatsReport {
            uptime_ms: 100,
            routed_queries: 42,
            scatter_gather_queries: 7,
            worker_markdowns: 1,
            failovers: 2,
            epoch_invalidations: 3,
            route_latency_ms_p99: 12.5,
            workers: vec![WorkerSummary {
                addr: "127.0.0.1:7301".into(),
                shard_id: Some("w0".into()),
                healthy: false,
                catalog_epoch: 0xbeef,
                datasets: vec!["rack_temps".into()],
                consecutive_failures: 4,
            }],
            ..RouterStatsReport::default()
        };
        let back: RouterStatsReport =
            serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back, r);
        let text = r.render();
        assert!(text.contains("42 queries (7 scatter-gather)"));
        assert!(text.contains("1 markdowns, 2 failovers, 3 epoch invalidations"));
        assert!(text.contains("DOWN"));
    }

    #[test]
    fn reports_without_the_cache_byte_counters_still_parse() {
        // Daemons from before the plan and route caches were bounded in
        // bytes send none of these counters.
        let strip = |json: String, fields: &[&str]| {
            fields.iter().fold(json, |json, f| {
                let out = json.replace(&format!("\"{f}\":0,"), "");
                assert_ne!(out, json, "{f} not serialized");
                out
            })
        };
        let worker = strip(
            serde_json::to_string(&StatsReport::default()).unwrap(),
            &["plan_cache_bytes", "plan_cache_evictions"],
        );
        let back: StatsReport = serde_json::from_str(&worker).unwrap();
        assert_eq!(back, StatsReport::default());
        let router = strip(
            serde_json::to_string(&RouterStatsReport::default()).unwrap(),
            &[
                "route_cache_misses",
                "route_cache_bytes",
                "route_cache_evictions",
            ],
        );
        let back: RouterStatsReport = serde_json::from_str(&router).unwrap();
        assert_eq!(back, RouterStatsReport::default());
    }

    #[test]
    fn report_round_trips_through_json() {
        let m = ServiceMetrics::new();
        m.request_started();
        m.request_finished(true, Duration::from_millis(5));
        let s = snapshot_with_plan_cache(&m, CacheStats::default());
        let back: StatsReport = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(s, back);
    }
}
