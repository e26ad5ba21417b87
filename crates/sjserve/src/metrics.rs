//! Daemon metrics: the `stats` payloads and the one [`Registry`] each
//! daemon reports into.
//!
//! The report is the schema. A registry holds its daemon's own `stats`
//! payload — [`StatsReport`] for `sjserved`, [`RouterStatsReport`] for
//! `sjrouted` — so a counter is one report field, its JSON name is the
//! field name, and a call site bumps it with a one-line closure
//! (`metrics.update(|r| r.failovers += 1)`). The latency histogram and
//! the per-tenant table sit under the same mutex, so every snapshot is
//! consistent: a request is never counted as finished without its
//! latency. That mutex is a leaf lock — callers compute every value
//! first and a closure only assigns fields. The request counters, queue
//! gauges and latency readings both reports carry are the admission
//! front's ([`FrontReport`]); the rest is each daemon's own.
//!
//! The histogram is log-linear over microseconds: exact below 16µs,
//! then 16 linear sub-buckets per power of two up to 2^44µs (~200
//! days). A quantile reports its sub-bucket's midpoint clamped to the
//! observed range, within 1/32 (3.125%) of the exact order statistic.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::protocol::Response;

/// Sub-buckets per power of two, as bits: below `SUB` µs every value
/// has its own bucket.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// One exact range plus 40 octaves of `SUB` sub-buckets: [0, 2^44) µs.
const BUCKETS: usize = 41 * SUB as usize;

/// Log-linear latency histogram (microsecond resolution, fixed size).
#[derive(Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    min_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }
}

/// The bucket holding `us`: its octave's offset plus its top
/// `SUB_BITS + 1` bits (all of `us` below `SUB`).
fn bucket(us: u64) -> usize {
    let shift = us.checked_ilog2().unwrap_or(0).saturating_sub(SUB_BITS);
    ((u64::from(shift) * SUB + (us >> shift)) as usize).min(BUCKETS - 1)
}

/// Bucket `i`'s smallest value and width in µs (inverse of [`bucket`]).
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    let shift = (i / SUB).saturating_sub(1);
    ((i - shift * SUB) << shift, 1 << shift)
}

impl Histogram {
    pub fn record(&mut self, latency: Duration) {
        // Sub-microsecond requests read as 1µs, so a p50 of 0.0 only
        // ever means "no samples".
        let us = u64::try_from(latency.as_micros())
            .unwrap_or(u64::MAX)
            .max(1);
        self.buckets[bucket(us)] += 1;
        self.count += 1;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// The q-quantile (0 < q ≤ 1) in milliseconds, 0.0 when empty: the
    /// midpoint of the bucket holding the `⌈q·count⌉`-th smallest
    /// sample, clamped to the recorded min and max.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        let i = self
            .buckets
            .iter()
            .position(|&n| {
                seen += n;
                seen >= target
            })
            .expect("bucket counts sum to count");
        let (lo, width) = bucket_range(i);
        let mid_us = lo as f64 + (width - 1) as f64 / 2.0;
        mid_us.clamp(self.min_us as f64, self.max_us as f64) / 1000.0
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
    /// Streaming-ingestion section; `None` only from older workers
    /// built without a stream engine. (Routers answer with a
    /// [`RouterStatsReport`], never this.)
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
    /// The streaming section, created on first use.
    pub fn stream(&mut self) -> &mut StreamStatsReport {
        self.streaming
            .get_or_insert_with(StreamStatsReport::default)
    }

    /// Fold one execution's fault/retry accounting into the totals
    /// (successful and degraded queries alike).
    pub fn note_failures(&mut self, failures: &sjdf::FailureReport) {
        self.engine_task_retries += failures.task_retries;
        self.engine_tasks_exhausted += failures.tasks_exhausted;
    }

    /// Count one extracted request trace. `dropped_total` is the
    /// tracer's cumulative drop counter, kept as a gauge: the tracer
    /// never resets it, so the latest reading wins.
    pub fn note_trace(&mut self, spans: u64, dropped_total: u64) {
        self.traces_recorded += 1;
        self.trace_spans_recorded += spans;
        self.trace_spans_dropped = dropped_total;
    }

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
    /// Every answered request is timed, so this equals `requests_ok +
    /// requests_error`.
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
    /// Replica acks that disagreed with the first owner's ack for the
    /// same batch (rows accepted, dropped late or as duplicates, or the
    /// watermark): each such replica is treated as lost, like one that
    /// refused the batch.
    #[serde(default)]
    pub stream_append_divergences: u64,
    /// Requests the router answered, of every verb (the same count a
    /// worker keeps).
    #[serde(default)]
    pub requests_total: u64,
    #[serde(default)]
    pub requests_ok: u64,
    #[serde(default)]
    pub requests_error: u64,
    /// Requests currently being routed on the pool.
    #[serde(default)]
    pub in_flight: u64,
    pub workers: Vec<WorkerSummary>,
    pub per_tenant: Vec<TenantStats>,
}

impl RouterStatsReport {
    /// Multi-line human-readable rendering (the shutdown dump).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "requests: {} total, {} ok, {} error, in-flight {}\n",
            self.requests_total, self.requests_ok, self.requests_error, self.in_flight
        ));
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
            "route latency: p50 {:.2}ms, p99 {:.2}ms, max {:.2}ms over {} requests\n",
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
             {} appends forwarded ({} acks diverged), {} workers lost mid-stream\n",
            self.streams_active,
            self.stream_frames_pushed,
            self.stream_re_emissions,
            self.stream_worker_frames,
            self.stream_appends_forwarded,
            self.stream_append_divergences,
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

/// The fields of a daemon's report that the admission front
/// ([`crate::front`]) keeps: request outcomes, admission rejections,
/// timeouts, queue gauges, transport and tenant accounting. Both reports
/// carry them under the same names.
pub struct FrontCounters<'a> {
    pub uptime_ms: &'a mut u64,
    pub requests_total: &'a mut u64,
    pub requests_ok: &'a mut u64,
    pub requests_error: &'a mut u64,
    pub rejected_queue_full: &'a mut u64,
    pub timeouts: &'a mut u64,
    pub in_flight: &'a mut u64,
    pub queue_depth: &'a mut u64,
    pub queue_depth_peak: &'a mut u64,
    pub requests_binary: &'a mut u64,
    pub per_tenant: &'a mut Vec<TenantStats>,
}

/// A report the admission front can keep: [`StatsReport`] for a worker,
/// [`RouterStatsReport`] for a router.
pub trait FrontReport: Default + Clone + Send + 'static {
    fn front(&mut self) -> FrontCounters<'_>;
    /// Copy the readings of the request-latency histogram.
    fn set_latency(&mut self, latency: &Histogram);
    /// Put the report on a `stats` response.
    fn attach(self, response: &mut Response);

    /// Set the queue-depth gauge and raise its high-water mark.
    fn note_queue_depth(&mut self, depth: usize) {
        let c = self.front();
        *c.queue_depth = depth as u64;
        *c.queue_depth_peak = (*c.queue_depth_peak).max(depth as u64);
    }
}

impl FrontReport for StatsReport {
    fn front(&mut self) -> FrontCounters<'_> {
        FrontCounters {
            uptime_ms: &mut self.uptime_ms,
            requests_total: &mut self.requests_total,
            requests_ok: &mut self.requests_ok,
            requests_error: &mut self.requests_error,
            rejected_queue_full: &mut self.rejected_queue_full,
            timeouts: &mut self.timeouts,
            in_flight: &mut self.in_flight,
            queue_depth: &mut self.queue_depth,
            queue_depth_peak: &mut self.queue_depth_peak,
            requests_binary: &mut self.requests_binary,
            per_tenant: &mut self.per_tenant,
        }
    }

    fn set_latency(&mut self, latency: &Histogram) {
        self.latency_count = latency.count();
        self.latency_ms_p50 = latency.quantile_ms(0.50);
        self.latency_ms_p90 = latency.quantile_ms(0.90);
        self.latency_ms_p99 = latency.quantile_ms(0.99);
        self.latency_ms_max = latency.max_ms();
    }

    fn attach(self, response: &mut Response) {
        response.stats = Some(self);
    }
}

impl FrontReport for RouterStatsReport {
    fn front(&mut self) -> FrontCounters<'_> {
        FrontCounters {
            uptime_ms: &mut self.uptime_ms,
            requests_total: &mut self.requests_total,
            requests_ok: &mut self.requests_ok,
            requests_error: &mut self.requests_error,
            rejected_queue_full: &mut self.rejected_queue_full,
            timeouts: &mut self.timeouts,
            in_flight: &mut self.in_flight,
            queue_depth: &mut self.queue_depth,
            queue_depth_peak: &mut self.queue_depth_peak,
            requests_binary: &mut self.requests_binary,
            per_tenant: &mut self.per_tenant,
        }
    }

    fn set_latency(&mut self, latency: &Histogram) {
        self.route_latency_count = latency.count();
        self.route_latency_ms_p50 = latency.quantile_ms(0.50);
        self.route_latency_ms_p99 = latency.quantile_ms(0.99);
        self.route_latency_ms_max = latency.max_ms();
    }

    fn attach(self, response: &mut Response) {
        response.router_stats = Some(self);
    }
}

/// One daemon's live metrics: its own `stats` payload `R` (the counters
/// and gauges), the latency [`Histogram`] and the per-tenant table, all
/// behind one leaf mutex. Compute every value before calling in; a
/// closure only assigns fields.
#[derive(Debug)]
pub struct Registry<R> {
    started: Instant,
    live: Mutex<Live<R>>,
}

#[derive(Debug, Default)]
struct Live<R> {
    report: R,
    latency: Histogram,
    tenants: BTreeMap<String, TenantStats>,
}

impl<R: Default> Default for Registry<R> {
    fn default() -> Self {
        Registry {
            started: Instant::now(),
            live: Mutex::new(Live::default()),
        }
    }
}

impl<R: Default + Clone> Registry<R> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Bump counters or set gauges: `metrics.update(|r| r.failovers += 1)`.
    pub fn update(&self, f: impl FnOnce(&mut R)) {
        f(&mut self.live.lock().report);
    }

    /// Account an admission event to `tenant`, together with any
    /// counter that moves with it.
    pub fn tenant(&self, tenant: &str, f: impl FnOnce(&mut R, &mut TenantStats)) {
        let live = &mut *self.live.lock();
        let entry = live
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantStats {
                tenant: tenant.to_string(),
                ..TenantStats::default()
            });
        f(&mut live.report, entry);
    }

    /// Record one request's latency together with the counters that
    /// count it finished, so no snapshot sees one without the other.
    pub fn finished(&self, latency: Duration, f: impl FnOnce(&mut R)) {
        let mut live = self.live.lock();
        live.latency.record(latency);
        f(&mut live.report);
    }

    /// A consistent copy of the report; `f` fills in the fields derived
    /// from the histogram and the tenant table, and values the caller
    /// read elsewhere beforehand.
    pub fn snapshot(&self, f: impl FnOnce(&mut R, &Histogram, Vec<TenantStats>)) -> R {
        let live = self.live.lock();
        let mut report = live.report.clone();
        f(
            &mut report,
            &live.latency,
            live.tenants.values().cloned().collect(),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // 44ms → 48.4ms is a 10% regression; both must read true.
        for (ms, n) in [
            (10.0, 1000),
            (44.0, 100),
            (48.4, 100),
            (30.0, 10),
            (33.0, 10),
        ] {
            let mut h = Histogram::default();
            for _ in 0..n {
                h.record(Duration::from_secs_f64(ms / 1e3));
            }
            for q in [0.5, 0.9, 0.99] {
                let p = h.quantile_ms(q);
                assert!((p - ms).abs() <= 0.032 * ms, "p{q} of {ms}ms read {p}");
                assert!(p <= h.max_ms(), "p{q}={p} above max {}", h.max_ms());
            }
        }
    }

    #[test]
    fn quantiles_track_exact_order_statistics() {
        // SplitMix64: a seeded stream without a dependency.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for set in 0..200 {
            let n = 1 + (next() % 2000) as usize;
            // Log-uniform over 1µs..~17s, so every octave is exercised.
            let mut samples: Vec<u64> = (0..n)
                .map(|_| {
                    let octave = 1u64 << (next() % 24);
                    octave + next() % octave
                })
                .collect();
            let mut h = Histogram::default();
            for &us in &samples {
                h.record(Duration::from_micros(us));
            }
            samples.sort_unstable();
            for q in [0.25, 0.5, 0.9, 0.99, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let exact = samples[rank - 1] as f64 / 1000.0;
                let read = h.quantile_ms(q);
                assert!(
                    (read - exact).abs() <= exact / 32.0,
                    "set {set}: p{q} read {read}ms, exact {exact}ms"
                );
                assert!(read <= h.max_ms());
            }
        }
    }

    #[test]
    fn snapshot_collects_counters_and_tenants() {
        let m = Registry::<StatsReport>::new();
        m.update(|r| r.requests_total += 2);
        m.tenant("b", |r, t| {
            t.admitted += 1;
            r.note_queue_depth(7);
        });
        m.tenant("a", |_, t| t.admitted += 1);
        m.tenant("a", |_, t| t.completed += 1);
        m.tenant("b", |r, t| {
            t.rejected += 1;
            r.rejected_queue_full += 1;
        });
        m.update(|r| {
            r.timeouts += 1;
            r.note_queue_depth(2);
        });
        m.finished(Duration::from_millis(3), |r| r.requests_ok += 1);
        m.finished(Duration::from_millis(9), |r| r.requests_error += 1);
        let s = m.snapshot(|r, latency, tenants| {
            r.latency_count = latency.count();
            r.latency_ms_max = latency.max_ms();
            r.per_tenant = tenants;
        });
        assert_eq!(s.requests_total, 2);
        assert_eq!((s.requests_ok, s.requests_error), (1, 1));
        assert_eq!((s.latency_count, s.latency_ms_max), (2, 9.0));
        assert_eq!(s.rejected_queue_full, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!((s.queue_depth, s.queue_depth_peak), (2, 7));
        // Tenants come back sorted by name.
        let t: Vec<_> = s
            .per_tenant
            .iter()
            .map(|t| (t.tenant.as_str(), t.admitted, t.rejected, t.completed))
            .collect();
        assert_eq!(t, [("a", 1, 0, 1), ("b", 1, 1, 0)]);
        // The fill touched the copy, not the live report.
        let again = m.snapshot(|_, _, _| {});
        assert_eq!((again.latency_count, again.per_tenant.len()), (0, 0));
    }

    #[test]
    fn counters_reach_the_snapshot() {
        // The same registry over the router's report.
        let m = Registry::<RouterStatsReport>::new();
        m.update(|r| r.routed_queries += 1);
        m.tenant("a", |r, t| {
            t.admitted += 1;
            r.note_queue_depth(5);
        });
        m.update(|r| r.note_queue_depth(1));
        m.tenant("a", |_, t| t.completed += 1);
        m.finished(Duration::from_millis(8), |_| {});
        let s = m.snapshot(|r, latency, tenants| {
            r.route_latency_count = latency.count();
            r.route_latency_ms_p99 = latency.quantile_ms(0.99);
            r.per_tenant = tenants;
        });
        assert_eq!(s.routed_queries, 1);
        assert_eq!((s.queue_depth, s.queue_depth_peak), (1, 5));
        assert_eq!((s.route_latency_count, s.route_latency_ms_p99), (1, 8.0));
        assert_eq!(s.per_tenant.len(), 1);
        assert_eq!(
            (s.per_tenant[0].admitted, s.per_tenant[0].completed),
            (1, 1)
        );
    }

    #[test]
    fn fault_counters_reach_the_snapshot_and_render() {
        let m = Registry::<StatsReport>::new();
        let f = sjdf::FailureReport {
            task_retries: 5,
            tasks_exhausted: 2,
            ..sjdf::FailureReport::default()
        };
        m.update(|r| {
            r.note_failures(&f);
            r.requests_degraded += 1;
        });
        m.update(|r| r.note_failures(&f));
        let s = m.snapshot(|_, _, _| {});
        assert_eq!(s.requests_degraded, 1);
        assert_eq!(s.engine_task_retries, 10);
        assert_eq!(s.engine_tasks_exhausted, 4);
        assert!(s
            .render()
            .contains("faults: 1 degraded responses, 10 task retries, 4 tasks exhausted"));
    }

    #[test]
    fn trace_gauges_reach_the_snapshot_and_render() {
        let m = Registry::<StatsReport>::new();
        m.update(|r| r.note_trace(12, 0));
        m.update(|r| r.note_trace(5, 3));
        let s = m.snapshot(|_, _, _| {});
        assert_eq!(s.traces_recorded, 2);
        assert_eq!(s.trace_spans_recorded, 17);
        // The drop counter is a cumulative gauge: latest reading wins.
        assert_eq!(s.trace_spans_dropped, 3);
        assert!(s
            .render()
            .contains("traces: 2 recorded (17 spans), 3 spans dropped"));
    }

    #[test]
    fn front_counters_land_in_both_reports() {
        fn count<R: FrontReport>(m: &Registry<R>) -> R {
            m.update(|r| *r.front().requests_total += 3);
            m.update(|r| *r.front().in_flight += 1);
            m.finished(Duration::from_millis(4), |r| *r.front().requests_ok += 1);
            m.finished(Duration::from_millis(6), |r| *r.front().requests_error += 1);
            m.snapshot(|r, latency, _| r.set_latency(latency))
        }
        let w = count(&Registry::<StatsReport>::new());
        let r = count(&Registry::<RouterStatsReport>::new());
        let counted =
            |total, ok, error, in_flight, timed, max| (total, ok, error, in_flight, timed, max);
        assert_eq!(
            counted(
                w.requests_total,
                w.requests_ok,
                w.requests_error,
                w.in_flight,
                w.latency_count,
                w.latency_ms_max
            ),
            (3, 1, 1, 1, 2, 6.0)
        );
        assert_eq!(
            counted(
                r.requests_total,
                r.requests_ok,
                r.requests_error,
                r.in_flight,
                r.route_latency_count,
                r.route_latency_ms_max
            ),
            (3, 1, 1, 1, 2, 6.0)
        );
        assert!(r
            .render()
            .starts_with("requests: 3 total, 1 ok, 1 error, in-flight 1\n"));
        let mut response = Response::ok("s");
        r.clone().attach(&mut response);
        assert_eq!((response.router_stats, response.stats), (Some(r), None));
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
        let m = Registry::<StatsReport>::new();
        m.update(|r| {
            r.requests_total += 1;
            r.stream().appends += 3;
        });
        m.finished(Duration::from_millis(5), |r| r.requests_ok += 1);
        m.tenant("t", |_, t| t.admitted += 1);
        let s = m.snapshot(|r, latency, tenants| {
            r.latency_ms_p50 = latency.quantile_ms(0.5);
            r.per_tenant = tenants;
        });
        assert_eq!(s.streaming.as_ref().map(|s| s.appends), Some(3));
        let back: StatsReport = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(s, back);
    }
}
