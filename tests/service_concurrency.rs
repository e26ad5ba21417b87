//! Integration tests for the query service under concurrency: many
//! clients over real TCP, admission-control rejections, per-request
//! deadlines, and the two cache levels observable through `stats`.
//!
//! The catalog is the DAT1 scenario from `sjdata`, so the queries here
//! exercise the same derivation pipelines as the paper's case study.

use scrubjay::prelude::*;
use sjdata::{dat1, Dat1Config};
use sjroute::{Router, RouterConfig};
use sjserve::protocol::codes;
use sjserve::scheduler::SchedulerConfig;
use sjserve::{
    serve, Backend, Client, ClientError, Front, QueryService, QuerySpec, RouterStatsReport,
    ServiceConfig, StatsReport, ValueSpec,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn small_cfg() -> Dat1Config {
    Dat1Config {
        racks: 4,
        nodes_per_rack: 4,
        amg_rack_index: 2,
        amg_nodes: 3,
        background_jobs: 3,
        duration_secs: 1800,
        ..Dat1Config::default()
    }
}

fn start_service(scheduler: SchedulerConfig) -> QueryService {
    let ctx = ExecCtx::local();
    let (catalog, _) = dat1(&ctx, &small_cfg()).unwrap();
    QueryService::new(
        ctx,
        catalog,
        ServiceConfig {
            scheduler,
            ..ServiceConfig::default()
        },
    )
}

fn rack_heat_spec() -> QuerySpec {
    QuerySpec {
        domains: vec!["job".into(), "rack".into()],
        values: vec![ValueSpec::dim("application"), ValueSpec::dim("heat")],
        window_secs: None,
        step_secs: None,
        limit: Some(50),
    }
}

/// The acceptance bar: at least 8 concurrent clients over TCP, mixed
/// hot/cold queries, zero deadlocks, and correct bookkeeping after.
#[test]
fn eight_concurrent_clients_mixed_hot_and_cold() {
    let service = start_service(SchedulerConfig {
        workers: 4,
        max_queue: 64,
        default_timeout: Duration::from_secs(60),
    });
    let handle = serve(service, "127.0.0.1:0").unwrap();
    let addr: SocketAddr = handle.addr;

    let clients = 8;
    let queries_each = 4;
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let tenant = format!("tenant-{c}");
                let mut client = Client::connect_as(addr, &tenant).unwrap();
                let mut ok = 0usize;
                let mut result_hits = 0usize;
                for i in 0..queries_each {
                    // Half the clients share one hot query; the rest add a
                    // per-client window so their first request is cold
                    // (distinct plan key -> distinct fingerprint).
                    let mut spec = rack_heat_spec();
                    if c % 2 == 1 {
                        spec.window_secs = Some(120.0 + c as f64);
                    }
                    let response = client
                        .query(spec, Some(60_000))
                        .unwrap_or_else(|e| panic!("client {c} query {i}: {e}"));
                    let result = response.result.expect("ok response carries a result");
                    assert!(!result.columns.is_empty());
                    assert!(result.row_count > 0, "derived dataset should be non-empty");
                    ok += 1;
                    if result.result_cache_hit {
                        result_hits += 1;
                    }
                }
                (ok, result_hits)
            })
        })
        .collect();

    let mut ok_total = 0;
    let mut hit_total = 0;
    for t in threads {
        let (ok, hits) = t.join().expect("no client thread may panic or deadlock");
        ok_total += ok;
        hit_total += hits;
    }
    assert_eq!(ok_total, clients * queries_each);
    // Every client repeats its own query, so most requests are cache hits.
    assert!(
        hit_total >= clients * (queries_each - 1),
        "expected widespread result-cache hits, saw {hit_total}"
    );

    // Stats through the protocol agree with what the clients saw.
    let mut probe = Client::connect_as(addr, "probe").unwrap();
    let stats = probe.stats().unwrap().stats.expect("stats payload");
    assert!(stats.requests_total >= (clients * queries_each) as u64);
    assert_eq!(stats.rejected_queue_full, 0);
    assert!(
        stats.plan_cache_hits > 0,
        "repeat queries must hit the plan cache"
    );
    assert!(stats.result_cache_hits >= hit_total as u64);
    assert!(stats.latency_count >= (clients * queries_each) as u64);
    assert!(stats.latency_ms_p50 > 0.0);
    assert!(stats.latency_ms_p99 >= stats.latency_ms_p50);
    assert!(stats.plan_cache_entries >= 1);
    assert!(stats.planner_pair_tests > 0 && stats.planner_datasets_considered > 0);
    assert!(stats.queue_depth_peak >= 1);
    assert!(stats.streaming.is_some(), "worker stats carry streaming");
    assert_eq!(stats.per_tenant.len(), clients, "{:?}", stats.per_tenant);
    for t in &stats.per_tenant {
        assert_eq!(
            (t.admitted, t.completed),
            (queries_each as u64, queries_each as u64)
        );
    }

    let final_stats = handle.stop();
    assert_eq!(final_stats.in_flight, 0);
    assert_eq!(final_stats.queue_depth, 0);
}

/// Repeating one query must hit both cache levels, and the hit must be
/// measurably faster end to end than the cold miss.
#[test]
fn repeated_query_hits_plan_and_result_cache_and_is_faster() {
    let service = start_service(SchedulerConfig::default());
    let cold = service
        .handle(sjserve::Request::query("cold", "t", rack_heat_spec()))
        .result
        .expect("cold query succeeds");
    assert!(!cold.plan_cache_hit);
    assert!(!cold.result_cache_hit);
    assert!(
        cold.engine_metrics.is_some(),
        "cold run reports engine work"
    );

    let mut hot_ms = f64::MAX;
    for i in 0..3 {
        let hot = service
            .handle(sjserve::Request::query(
                &format!("hot{i}"),
                "t",
                rack_heat_spec(),
            ))
            .result
            .expect("hot query succeeds");
        assert!(hot.plan_cache_hit, "solved plan must be reused");
        assert!(hot.result_cache_hit, "materialized rows must be reused");
        assert!(hot.engine_metrics.is_none(), "nothing executed on a hit");
        assert_eq!(hot.rows, cold.rows, "cache must not change the answer");
        hot_ms = hot_ms.min(hot.elapsed_ms);
    }
    assert!(
        hot_ms < cold.elapsed_ms,
        "cache hit ({hot_ms}ms) should beat the cold path ({}ms)",
        cold.elapsed_ms
    );
    service.shutdown();
}

/// With a one-deep queue and one busy worker, a burst must produce
/// structured `queue_full` rejections — not blocking, not dropped lines.
#[test]
fn over_capacity_burst_is_rejected_with_structured_errors() {
    let service = start_service(SchedulerConfig {
        workers: 1,
        max_queue: 1,
        default_timeout: Duration::from_secs(60),
    });
    let handle = serve(service, "127.0.0.1:0").unwrap();
    let addr = handle.addr;

    let burst = 12;
    let threads: Vec<_> = (0..burst)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect_as(addr, &format!("burst-{c}")).unwrap();
                match client.query(rack_heat_spec(), Some(60_000)) {
                    Ok(resp) => {
                        assert!(resp.result.is_some());
                        Ok(())
                    }
                    Err(ClientError::Server(body)) => {
                        assert_eq!(body.code, codes::QUEUE_FULL, "{body:?}");
                        assert!(body.message.contains("capacity"), "{body:?}");
                        Err(())
                    }
                    Err(other) => panic!("unexpected failure: {other}"),
                }
            })
        })
        .collect();

    let rejected = threads
        .into_iter()
        .map(|t| t.join().unwrap())
        .filter(Result::is_err)
        .count();
    // 12 near-simultaneous cold queries against 1 worker + 1 queue slot
    // cannot all be admitted.
    assert!(rejected > 0, "expected queue_full rejections");

    let stats = handle.stop();
    assert_eq!(stats.rejected_queue_full, rejected as u64);
    assert!(stats.per_tenant.iter().any(|t| t.rejected > 0));
}

/// An impossibly small deadline yields a structured timeout, and the
/// service keeps serving afterwards.
#[test]
fn tiny_deadline_times_out_with_structured_error() {
    let service = start_service(SchedulerConfig {
        workers: 1,
        max_queue: 8,
        default_timeout: Duration::from_secs(60),
    });

    let mut spec = rack_heat_spec();
    spec.window_secs = Some(97.0); // unique plan: never pre-cached
    let mut request = sjserve::Request::query("rush", "t", spec);
    request.timeout_ms = Some(0);
    let response = service.handle(request);
    assert!(!response.is_ok());
    assert_eq!(response.code(), Some(codes::TIMEOUT));

    // The worker pool survives; a patient identical query still answers.
    let mut spec = rack_heat_spec();
    spec.window_secs = Some(97.0);
    let response = service.handle(sjserve::Request::query("patient", "t", spec));
    assert!(response.is_ok(), "{:?}", response.error);

    let stats = service.shutdown();
    assert!(stats.timeouts >= 1);
}

/// Queries nothing in the catalog can satisfy produce `no_solution`, and
/// malformed payloads produce `bad_request` — both as typed errors.
#[test]
fn structured_errors_for_bad_queries() {
    let service = start_service(SchedulerConfig::default());

    // `power` is in the default dictionary but nothing in DAT1 measures
    // it: the solve itself must fail, structurally.
    let spec = QuerySpec {
        domains: vec!["job".into()],
        values: vec![ValueSpec::dim("power")],
        window_secs: None,
        step_secs: None,
        limit: None,
    };
    let response = service.handle(sjserve::Request::query("q1", "t", spec));
    assert_eq!(
        response.code(),
        Some(codes::NO_SOLUTION),
        "{:?}",
        response.error
    );

    // An unknown keyword is caught earlier, at canonicalization.
    let spec = QuerySpec {
        domains: vec!["job".into()],
        values: vec![ValueSpec::dim("no-such-dimension")],
        window_secs: None,
        step_secs: None,
        limit: None,
    };
    let response = service.handle(sjserve::Request::query("q2", "t", spec));
    assert_eq!(
        response.code(),
        Some(codes::BAD_REQUEST),
        "{:?}",
        response.error
    );

    let bare = sjserve::Request::bare("q3", sjserve::Verb::Query);
    let response = service.handle(bare);
    assert_eq!(response.code(), Some(codes::BAD_REQUEST));

    service.shutdown();
}

/// `health` and `explain` over the wire; `shutdown` verb stops the
/// server and the final report is returned to the waiter.
#[test]
fn health_explain_and_shutdown_over_tcp() {
    let service = start_service(SchedulerConfig::default());
    let handle = serve(service, "127.0.0.1:0").unwrap();
    let addr = handle.addr;

    let mut client = Client::connect_as(addr, "ops").unwrap();
    let health = client.health().unwrap().health.expect("health payload");
    assert_eq!(health.status, "ok");
    assert!(
        health.datasets.contains(&"rack_temps".to_string()),
        "{health:?}"
    );

    let plan = client
        .explain(rack_heat_spec())
        .unwrap()
        .plan
        .expect("plan payload");
    assert!(plan.plan_text.contains("rack_temps"), "{}", plan.plan_text);
    assert!(plan.plan_json.contains("\"load\""), "{}", plan.plan_json);
    // Explaining again reuses the solved plan.
    let again = client.explain(rack_heat_spec()).unwrap().plan.unwrap();
    assert!(again.plan_cache_hit);
    assert_eq!(again.fingerprint, plan.fingerprint);

    client.shutdown().unwrap();
    let report = handle.wait();
    assert!(report.requests_total >= 3);
}

/// Every `stats` snapshot is internally consistent while requests are in
/// flight: a request counts as finished together with its latency
/// sample, so `latency_count == requests_ok + requests_error` always, and
/// no request finishes before it started. A router answers through the
/// same front, so its `route_latency_count` obeys the same rule.
#[test]
fn stats_snapshots_stay_consistent_under_load() {
    let service = start_service(SchedulerConfig::default());
    snapshots_stay_consistent(service, |s: &StatsReport| {
        [
            s.latency_count,
            s.requests_ok,
            s.requests_error,
            s.requests_total,
        ]
    });

    let worker = serve(start_service(SchedulerConfig::default()), "127.0.0.1:0").unwrap();
    let router = Router::new(vec![worker.addr.to_string()], RouterConfig::default()).unwrap();
    snapshots_stay_consistent(router.into(), |s: &RouterStatsReport| {
        [
            s.route_latency_count,
            s.requests_ok,
            s.requests_error,
            s.requests_total,
        ]
    });
    worker.stop();
}

/// Take 20,000 snapshots of `front` while four senders keep it busy;
/// `read` gives a snapshot's `[latency count, ok, error, total]`.
fn snapshots_stay_consistent<B: Backend>(front: Front<B>, read: fn(&B::Report) -> [u64; 4]) {
    const SNAPSHOTS: usize = 20_000;
    let stop = Arc::new(AtomicBool::new(false));
    let senders: Vec<_> = (0..4)
        .map(|i| {
            let (front, stop) = (front.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                // Inline `health` (ok) and queued payload-less `query`
                // (error) requests, so both outcome counters move.
                let verb = if i % 2 == 0 {
                    sjserve::Verb::Health
                } else {
                    sjserve::Verb::Query
                };
                let mut sent = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    front.handle(sjserve::Request::bare(&format!("s{i}"), verb));
                    sent += 1;
                }
                sent
            })
        })
        .collect();
    // Poll only once the senders are running.
    while read(&front.stats_report())[3] < 1_000 {
        std::thread::yield_now();
    }
    let mut torn = 0usize;
    let mut first_torn = None;
    for _ in 0..SNAPSHOTS {
        let [latency_count, ok, error, total] = read(&front.stats_report());
        if latency_count != ok + error || ok + error > total {
            torn += 1;
            first_torn.get_or_insert((latency_count, ok, error));
        }
    }
    stop.store(true, Ordering::Relaxed);
    let sent: u64 = senders.into_iter().map(|t| t.join().unwrap()).sum();
    let last = read(&front.shutdown());
    assert!(
        last[1] > 0 && last[2] > 0,
        "[latency_count, ok, error, total] = {last:?}"
    );
    assert_eq!(
        torn, 0,
        "{torn} of {SNAPSHOTS} snapshots torn over {sent} requests; \
         first (latency_count, ok, error) = {first_torn:?}"
    );
}
