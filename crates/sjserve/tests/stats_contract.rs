//! The `stats` contract: the JSON key names and order, and the text
//! `render()` prints, of both report kinds. `sjq --stats`, CI's greps,
//! fleetbench and older parsers all read these, so an edit to how the
//! daemons collect their metrics must leave both unchanged.

use serde::{Content, Serialize};
use sjserve::metrics::{
    RouterStatsReport, StatsReport, StreamStatsReport, TenantStats, WorkerSummary,
};

/// Every key path of `value`'s JSON, in serialization order; a list
/// contributes its first element's keys under `name[]`.
fn key_paths<T: Serialize>(value: &T) -> Vec<String> {
    fn walk(c: &Content, path: &str, out: &mut Vec<String>) {
        match c {
            Content::Map(entries) => {
                for (k, v) in entries {
                    let child = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    out.push(child.clone());
                    walk(v, &child, out);
                }
            }
            Content::Seq(items) => {
                if let Some(first) = items.first() {
                    walk(first, &format!("{path}[]"), out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(&value.serialize(), "", &mut out);
    out
}

/// A fully populated worker report, as `sjq --stats --json` prints it.
const WORKER_JSON: &str = concat!(
    r#"{"uptime_ms":1,"requests_total":2,"requests_ok":3,"requests_error":4,"#,
    r#""rejected_queue_full":5,"timeouts":6,"in_flight":7,"queue_depth":8,"#,
    r#""queue_depth_peak":9,"latency_count":10,"latency_ms_p50":1.5,"latency_ms_p90":2.25,"#,
    r#""latency_ms_p99":3.125,"latency_ms_max":4.0,"plan_cache_entries":11,"#,
    r#""plan_cache_hits":12,"plan_cache_misses":13,"plan_cache_bytes":14,"#,
    r#""plan_cache_evictions":15,"result_cache_entries":16,"result_cache_bytes":17,"#,
    r#""result_cache_hits":18,"result_cache_misses":19,"result_cache_evictions":20,"#,
    r#""stage_cache_entries":21,"stage_cache_bytes":22,"stage_cache_hits":23,"#,
    r#""stage_cache_misses":24,"stage_cache_evictions":25,"requests_degraded":26,"#,
    r#""engine_task_retries":27,"engine_tasks_exhausted":28,"planner_pair_tests":29,"#,
    r#""planner_memo_hits":30,"planner_datasets_considered":31,"searches_truncated":32,"#,
    r#""traces_recorded":33,"trace_spans_recorded":34,"trace_spans_dropped":35,"#,
    r#""streaming":{"appends":36,"rows_accepted":37,"rows_late_dropped":38,"#,
    r#""rows_duplicate_dropped":39,"subscriptions_active":40,"subscriptions_opened":41,"#,
    r#""subscriptions_failed":42,"subscriptions_closed":43,"window_emissions":44,"#,
    r#""window_re_emissions":45,"incremental_recomputes":46,"degraded_windows":47,"#,
    r#""cache_invalidations":48},"requests_json":0,"requests_binary":49,"#,
    r#""per_tenant":[{"tenant":"alpha","admitted":11,"rejected":2,"completed":9},"#,
    r#"{"tenant":"","admitted":4,"rejected":0,"completed":4}]}"#,
);

/// A fully populated router report, as `sjq --stats --json` prints it.
const ROUTER_JSON: &str = concat!(
    r#"{"uptime_ms":1,"routed_queries":2,"scatter_gather_queries":3,"worker_markdowns":4,"#,
    r#""failovers":5,"epoch_invalidations":6,"route_cache_hits":7,"route_cache_entries":8,"#,
    r#""route_cache_misses":9,"route_cache_bytes":10,"route_cache_evictions":11,"#,
    r#""rejected_queue_full":12,"timeouts":13,"queue_depth":14,"queue_depth_peak":15,"#,
    r#""degraded":16,"route_latency_count":17,"route_latency_ms_p50":1.5,"#,
    r#""route_latency_ms_p99":3.125,"route_latency_ms_max":4.0,"requests_json":0,"#,
    r#""requests_binary":18,"streams_active":19,"stream_frames_pushed":20,"#,
    r#""stream_worker_frames":21,"stream_re_emissions":22,"stream_appends_forwarded":23,"#,
    r#""stream_worker_losses":24,"stream_append_divergences":29,"requests_total":25,"#,
    r#""requests_ok":26,"requests_error":27,"#,
    r#""in_flight":28,"workers":[{"addr":"127.0.0.1:7301","shard_id":"shard-0","#,
    r#""healthy":true,"catalog_epoch":48879,"datasets":["node_layout","rack_temps"],"#,
    r#""consecutive_failures":0},{"addr":"127.0.0.1:7302","shard_id":null,"healthy":false,"#,
    r#""catalog_epoch":0,"datasets":[],"consecutive_failures":3}],"#,
    r#""per_tenant":[{"tenant":"alpha","admitted":11,"rejected":2,"completed":9},"#,
    r#"{"tenant":"","admitted":4,"rejected":0,"completed":4}]}"#,
);

const WORKER_TEXT: &str = "\
requests: 2 total, 3 ok, 4 error, 5 rejected (queue full), 6 timed out\n\
queue: depth 8 (peak 9), in-flight 7\n\
latency: p50 1.50ms, p90 2.25ms, p99 3.12ms, max 4.00ms over 10 requests\n\
plan cache: 11 entries (14 bytes), 12 hits, 13 misses, 15 evictions\n\
result cache: 16 entries (17 bytes), 18 hits, 19 misses, 20 evictions\n\
stage cache: 21 entries (22 bytes), 23 hits, 24 misses, 25 evictions\n\
faults: 26 degraded responses, 27 task retries, 28 tasks exhausted\n\
planner: 31 datasets considered, 29 pair tests (30 memo hits), 32 searches truncated\n\
traces: 33 recorded (34 spans), 35 spans dropped\n\
transport: 49 binary requests\n\
streaming: 36 appends (37 rows accepted, 38 late dropped, 39 duplicates dropped)\n\
subscriptions: 40 active, 41 opened, 42 failed, 43 closed\n\
windows: 44 emitted (45 re-emissions, 47 degraded), 46 incremental recomputes, 48 cache invalidations\n\
tenant `alpha`: 11 admitted, 2 rejected, 9 completed\n\
tenant ``: 4 admitted, 0 rejected, 4 completed\n";

const ROUTER_TEXT: &str = "\
requests: 25 total, 26 ok, 27 error, in-flight 28\n\
routed: 2 queries (3 scatter-gather), 16 degraded, 12 rejected (queue full), 13 timed out\n\
failover: 4 markdowns, 5 failovers, 6 epoch invalidations\n\
route cache: 8 entries (10 bytes), 7 hits, 9 misses, 11 evictions\n\
route latency: p50 1.50ms, p99 3.12ms, max 4.00ms over 17 requests\n\
transport: 18 binary requests\n\
streams: 19 active, 20 frames pushed (22 re-emissions) from 21 worker frames, 23 appends forwarded (29 acks diverged), 24 workers lost mid-stream\n\
worker 127.0.0.1:7301 [shard-0] up: epoch 000000000000beef, 2 datasets, 0 consecutive failures\n\
worker 127.0.0.1:7302 [-] DOWN: epoch 0000000000000000, 0 datasets, 3 consecutive failures\n\
tenant `alpha`: 11 admitted, 2 rejected, 9 completed\n\
tenant ``: 4 admitted, 0 rejected, 4 completed\n";

#[test]
fn both_stats_reports_keep_their_json_keys_and_render_text() {
    let worker: StatsReport = serde_json::from_str(WORKER_JSON).unwrap();
    let router: RouterStatsReport = serde_json::from_str(ROUTER_JSON).unwrap();
    // Every field is set, so re-serializing pins each name and its place.
    assert_eq!(serde_json::to_string(&worker).unwrap(), WORKER_JSON);
    assert_eq!(serde_json::to_string(&router).unwrap(), ROUTER_JSON);
    // Defaults (one list element each) serialize the same keys.
    let tenant = vec![TenantStats::default()];
    let default_worker = StatsReport {
        streaming: Some(StreamStatsReport::default()),
        per_tenant: tenant.clone(),
        ..StatsReport::default()
    };
    let default_router = RouterStatsReport {
        workers: vec![WorkerSummary::default()],
        per_tenant: tenant,
        ..RouterStatsReport::default()
    };
    assert_eq!(key_paths(&default_worker), key_paths(&worker));
    assert_eq!(key_paths(&default_router), key_paths(&router));
    assert_eq!(worker.render(), WORKER_TEXT);
    assert_eq!(router.render(), ROUTER_TEXT);
}
