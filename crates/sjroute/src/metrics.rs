//! The router's live metrics registry.
//!
//! Same discipline as [`sjserve::metrics::ServiceMetrics`]: lock-free
//! atomics for counters, a short mutex around the latency histogram and
//! the per-tenant table. Snapshots serialize to the shared wire shape
//! [`RouterStatsReport`] so `sjq --stats` renders workers and routers
//! with one code path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sjdf::CacheStats;
use sjserve::metrics::{Histogram, RouterStatsReport, TenantStats, WorkerSummary};

/// Counters every route path reports into.
#[derive(Debug)]
pub struct RouterMetrics {
    started: Instant,
    routed_queries: AtomicU64,
    scatter_gather_queries: AtomicU64,
    worker_markdowns: AtomicU64,
    failovers: AtomicU64,
    epoch_invalidations: AtomicU64,
    rejected_queue_full: AtomicU64,
    timeouts: AtomicU64,
    degraded: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
    requests_binary: AtomicU64,
    streams_active: AtomicU64,
    stream_frames_pushed: AtomicU64,
    stream_worker_frames: AtomicU64,
    stream_re_emissions: AtomicU64,
    stream_appends_forwarded: AtomicU64,
    stream_worker_losses: AtomicU64,
    latency: Mutex<Histogram>,
    tenants: Mutex<BTreeMap<String, TenantStats>>,
}

impl Default for RouterMetrics {
    fn default() -> Self {
        RouterMetrics {
            started: Instant::now(),
            routed_queries: AtomicU64::new(0),
            scatter_gather_queries: AtomicU64::new(0),
            worker_markdowns: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            epoch_invalidations: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_depth_peak: AtomicU64::new(0),
            requests_binary: AtomicU64::new(0),
            streams_active: AtomicU64::new(0),
            stream_frames_pushed: AtomicU64::new(0),
            stream_worker_frames: AtomicU64::new(0),
            stream_re_emissions: AtomicU64::new(0),
            stream_appends_forwarded: AtomicU64::new(0),
            stream_worker_losses: AtomicU64::new(0),
            latency: Mutex::new(Histogram::default()),
            tenants: Mutex::new(BTreeMap::new()),
        }
    }
}

impl RouterMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    pub fn routed(&self) {
        self.routed_queries.fetch_add(1, Ordering::Relaxed);
    }

    pub fn scatter_gather(&self) {
        self.scatter_gather_queries.fetch_add(1, Ordering::Relaxed);
    }

    pub fn markdown(&self) {
        self.worker_markdowns.fetch_add(1, Ordering::Relaxed);
    }

    pub fn failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    pub fn epoch_invalidation(&self) {
        self.epoch_invalidations.fetch_add(1, Ordering::Relaxed);
    }

    pub fn degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    pub fn timed_out(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub fn rejected_full(&self, tenant: &str) {
        self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
        self.tenant_entry(tenant, |t| t.rejected += 1);
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

    /// One request arrived over the wire.
    pub fn protocol_request(&self) {
        self.requests_binary.fetch_add(1, Ordering::Relaxed);
    }

    /// A streamed fan-out subscription opened on this router.
    pub fn stream_opened(&self) {
        self.streams_active.fetch_add(1, Ordering::Relaxed);
    }

    /// A streamed fan-out subscription ended (client or teardown).
    pub fn stream_closed(&self) {
        // Saturating: teardown paths may race connection close.
        let _ = self
            .streams_active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// One merged frame pushed to a router subscriber.
    pub fn frame_pushed(&self, re_emission: bool) {
        self.stream_frames_pushed.fetch_add(1, Ordering::Relaxed);
        if re_emission {
            self.stream_re_emissions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One window frame received from a worker subscription.
    pub fn worker_frame(&self) {
        self.stream_worker_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// One append batch forwarded to `n` workers.
    pub fn appends_forwarded(&self, n: usize) {
        self.stream_appends_forwarded
            .fetch_add(n as u64, Ordering::Relaxed);
    }

    /// A worker died while a router subscription depended on it.
    pub fn stream_worker_lost(&self) {
        self.stream_worker_losses.fetch_add(1, Ordering::Relaxed);
    }

    pub fn queue_depth_changed(&self, depth: usize) {
        let depth = depth as u64;
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record one routed request's end-to-end latency (queue + fan-out +
    /// merge).
    pub fn route_finished(&self, latency: Duration) {
        self.latency.lock().record(latency);
    }

    pub fn markdown_count(&self) -> u64 {
        self.worker_markdowns.load(Ordering::Relaxed)
    }

    pub fn failover_count(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    pub fn epoch_invalidation_count(&self) -> u64 {
        self.epoch_invalidations.load(Ordering::Relaxed)
    }

    /// Snapshot everything; route-cache numbers and worker summaries are
    /// supplied by the router, which owns those structures.
    pub fn snapshot(
        &self,
        route_cache: CacheStats,
        workers: Vec<WorkerSummary>,
    ) -> RouterStatsReport {
        let latency = self.latency.lock();
        let per_tenant = self.tenants.lock().values().cloned().collect();
        RouterStatsReport {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            routed_queries: self.routed_queries.load(Ordering::Relaxed),
            scatter_gather_queries: self.scatter_gather_queries.load(Ordering::Relaxed),
            worker_markdowns: self.worker_markdowns.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            epoch_invalidations: self.epoch_invalidations.load(Ordering::Relaxed),
            route_cache_hits: route_cache.hits,
            route_cache_entries: route_cache.entries,
            route_cache_misses: route_cache.misses,
            route_cache_bytes: route_cache.bytes,
            route_cache_evictions: route_cache.evictions,
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            route_latency_count: latency.count(),
            route_latency_ms_p50: latency.quantile_ms(0.50),
            route_latency_ms_p99: latency.quantile_ms(0.99),
            route_latency_ms_max: latency.max_ms(),
            requests_json: 0,
            requests_binary: self.requests_binary.load(Ordering::Relaxed),
            streams_active: self.streams_active.load(Ordering::Relaxed),
            stream_frames_pushed: self.stream_frames_pushed.load(Ordering::Relaxed),
            stream_worker_frames: self.stream_worker_frames.load(Ordering::Relaxed),
            stream_re_emissions: self.stream_re_emissions.load(Ordering::Relaxed),
            stream_appends_forwarded: self.stream_appends_forwarded.load(Ordering::Relaxed),
            stream_worker_losses: self.stream_worker_losses.load(Ordering::Relaxed),
            workers,
            per_tenant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_reach_the_snapshot() {
        let m = RouterMetrics::new();
        m.routed();
        m.routed();
        m.scatter_gather();
        m.markdown();
        m.failover();
        m.epoch_invalidation();
        m.degraded();
        m.admitted("a");
        m.completed("a");
        m.rejected_full("b");
        m.queue_depth_changed(5);
        m.queue_depth_changed(1);
        m.route_finished(Duration::from_millis(8));
        m.protocol_request();
        m.protocol_request();
        m.stream_opened();
        m.stream_opened();
        m.stream_closed();
        m.frame_pushed(false);
        m.frame_pushed(true);
        m.worker_frame();
        m.appends_forwarded(3);
        m.stream_worker_lost();
        let cache = CacheStats {
            hits: 3,
            misses: 4,
            evictions: 1,
            entries: 2,
            bytes: 640,
        };
        let s = m.snapshot(cache, Vec::new());
        assert_eq!(s.routed_queries, 2);
        assert_eq!(s.requests_binary, 2);
        assert_eq!(s.requests_json, 0);
        assert_eq!(s.streams_active, 1);
        assert_eq!(s.stream_frames_pushed, 2);
        assert_eq!(s.stream_re_emissions, 1);
        assert_eq!(s.stream_worker_frames, 1);
        assert_eq!(s.stream_appends_forwarded, 3);
        assert_eq!(s.stream_worker_losses, 1);
        assert_eq!(s.scatter_gather_queries, 1);
        assert_eq!(s.worker_markdowns, 1);
        assert_eq!(s.failovers, 1);
        assert_eq!(s.epoch_invalidations, 1);
        assert_eq!(s.degraded, 1);
        assert_eq!(s.route_cache_hits, 3);
        assert_eq!(s.route_cache_entries, 2);
        assert_eq!(
            (
                s.route_cache_misses,
                s.route_cache_bytes,
                s.route_cache_evictions
            ),
            (4, 640, 1)
        );
        assert_eq!(s.queue_depth_peak, 5);
        assert_eq!(s.route_latency_count, 1);
        assert!(s.route_latency_ms_p99 > 0.0);
        assert_eq!(s.per_tenant.len(), 2);
        assert!(s.render().contains("scatter-gather"));
        assert!(s
            .render()
            .contains("route cache: 2 entries (640 bytes), 3 hits, 4 misses, 1 evictions"));
    }
}
