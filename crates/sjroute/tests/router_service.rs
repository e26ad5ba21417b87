//! End-to-end router behavior over real TCP workers: single-shard
//! routing, cross-shard scatter-gather (byte-identical to single-process
//! execution), failover to a replica, mark-down health, epoch-driven
//! cache invalidation, and the router's own `elapsed_ms`.

mod common;

use std::time::{Duration, Instant};

use common::*;
use sjdf::FaultPlan;
use sjserve::protocol::{codes, Request, Verb, PROTO_VERSION};
use sjserve::service::{QueryService, ServiceConfig};

/// A power-only query's cover lives on one shard: the router proxies it
/// to the holder, the answer matches direct execution, and a repeat
/// rides the router's result cache.
#[test]
fn single_shard_query_routes_to_the_holder_and_caches() {
    let ctx = ctx();
    let a = spawn(worker(&ctx, &["node_power"], "shard-0"));
    let b = spawn(worker(&ctx, &["node_temp"], "shard-1"));
    let router = router_over(&[&a, &b]);

    let direct =
        worker(&ctx, &["node_power"], "direct").handle(Request::query("d1", "t", power_spec()));
    assert!(direct.is_ok(), "{:?}", direct.error);

    let first = router.handle(Request::query("q1", "t", power_spec()));
    assert!(first.is_ok(), "{:?}", first.error);
    assert_eq!(first.proto_version, Some(PROTO_VERSION));
    assert_eq!(canonical_bytes(&first), canonical_bytes(&direct));
    assert_eq!(first.result.as_ref().unwrap().row_count, NODES.len());

    let second = router.handle(Request::query("q2", "t", power_spec()));
    assert!(second.is_ok(), "{:?}", second.error);
    assert!(
        second.result.as_ref().unwrap().result_cache_hit,
        "second identical query should hit the route cache"
    );
    assert_eq!(canonical_bytes(&second), canonical_bytes(&first));

    let stats = router.shutdown();
    // The repeat is a cache hit, not a dispatch, so only one routed query.
    assert_eq!(stats.routed_queries, 1, "{stats:?}");
    assert_eq!(stats.scatter_gather_queries, 0, "{stats:?}");
    assert!(stats.route_cache_hits >= 1, "{stats:?}");
    // The rest of the snapshot: route cache, latency, queue, fleet and
    // tenant accounting.
    assert_eq!(stats.route_cache_entries, 1, "{stats:?}");
    assert!(stats.route_cache_misses >= 1 && stats.route_cache_bytes > 0);
    assert_eq!(stats.route_latency_count, 2, "both queries are timed");
    assert!(stats.route_latency_ms_max >= stats.route_latency_ms_p99);
    assert!(stats.route_latency_ms_p99 >= stats.route_latency_ms_p50);
    assert!(stats.route_latency_ms_p50 > 0.0);
    assert!(stats.queue_depth_peak >= 1, "{stats:?}");
    assert_eq!(stats.workers.len(), 2);
    assert!(stats.workers.iter().all(|w| w.healthy));
    let tenant = &stats.per_tenant[..];
    assert_eq!(tenant.len(), 1, "{tenant:?}");
    assert_eq!((tenant[0].admitted, tenant[0].completed), (2, 2));
    a.stop();
    b.stop();
}

/// The acceptance check: a query whose cover spans both shards is
/// scatter-gathered and merged into exactly the bytes a single process
/// holding both datasets would produce.
#[test]
fn cross_shard_scatter_gather_matches_single_process() {
    let ctx = ctx();
    let a = spawn(worker(&ctx, &["node_power"], "shard-0"));
    let b = spawn(worker(&ctx, &["node_temp"], "shard-1"));
    let router = router_over(&[&a, &b]);

    let single = worker(&ctx, &["node_power", "node_temp"], "mono").handle(Request::query(
        "mono",
        "t",
        cross_shard_spec(),
    ));
    assert!(
        single.is_ok(),
        "single-process reference failed: {:?}",
        single.error
    );

    let routed = router.handle(Request::query("x1", "t", cross_shard_spec()));
    assert!(routed.is_ok(), "{:?}", routed.error);
    let result = routed.result.as_ref().unwrap();
    assert_eq!(result.row_count, NODES.len(), "{result:?}");
    assert_eq!(
        canonical_bytes(&routed),
        canonical_bytes(&single),
        "scatter-gather merge diverged from single-process execution"
    );

    let stats = router.shutdown();
    assert!(stats.scatter_gather_queries >= 1, "{stats:?}");
    a.stop();
    b.stop();
}

/// With every dataset replicated on both workers, killing the primary
/// holder mid-flight makes the router fail over to the replica; after
/// enough failed probes the dead worker is marked down and health turns
/// degraded.
#[test]
fn failover_to_replica_then_markdown() {
    let ctx = ctx();
    let full = ["node_power", "node_temp"];
    let a = spawn(worker(&ctx, &full, "shard-0"));
    let b = spawn(worker(&ctx, &full, "shard-1"));
    let router = router_over(&[&a, &b]);

    let primary = router.topology().holders(&["node_power"], true)[0];
    let (dead, live) = if primary == 0 { (a, b) } else { (b, a) };
    dead.stop();

    let resp = router.handle(Request::query("f1", "t", power_spec()));
    assert!(resp.is_ok(), "failover query failed: {:?}", resp.error);
    assert_eq!(resp.result.as_ref().unwrap().row_count, NODES.len());

    // Two probe rounds cross markdown_after=2; health then reports the
    // fleet degraded while queries keep succeeding on the replica.
    router.probe_now();
    router.probe_now();
    let health = router.handle(Request::bare("h", Verb::Health));
    assert!(health.is_ok());
    let report = health.health.expect("health payload");
    assert_eq!(report.status, "degraded", "{report:?}");

    let again = router.handle(Request::query("f2", "t", cross_shard_spec()));
    assert!(again.is_ok(), "{:?}", again.error);

    let stats = router.shutdown();
    assert!(stats.failovers >= 1, "{stats:?}");
    assert!(stats.worker_markdowns >= 1, "{stats:?}");
    assert!(
        stats.workers.iter().any(|w| !w.healthy),
        "no worker marked down: {:?}",
        stats.workers
    );
    live.stop();
}

/// A worker catalog-epoch change observed on a heartbeat flushes the
/// router's result cache: the next identical query re-executes.
#[test]
fn epoch_change_invalidates_the_route_cache() {
    let ctx = ctx();
    let service_a = worker(&ctx, &["node_power"], "shard-0");
    let a = spawn(service_a.clone());
    let b = spawn(worker(&ctx, &["node_temp"], "shard-1"));
    let router = router_over(&[&a, &b]);

    let first = router.handle(Request::query("e1", "t", power_spec()));
    assert!(first.is_ok(), "{:?}", first.error);
    let second = router.handle(Request::query("e2", "t", power_spec()));
    assert!(second.result.as_ref().unwrap().result_cache_hit);

    // The shard reloads (same schemas, new epoch); the next probe must
    // notice and drop every cached merged result.
    service_a.bump_catalog_epoch();
    router.probe_now();

    let third = router.handle(Request::query("e3", "t", power_spec()));
    assert!(third.is_ok(), "{:?}", third.error);
    assert!(
        !third.result.as_ref().unwrap().result_cache_hit,
        "epoch change did not invalidate the route cache"
    );
    assert_eq!(canonical_bytes(&third), canonical_bytes(&first));

    let stats = router.shutdown();
    assert!(stats.epoch_invalidations >= 1, "{stats:?}");
    a.stop();
    b.stop();
}

/// Protocol and planning errors come back structured, never as hangs or
/// dropped connections.
#[test]
fn structured_errors_for_bad_proto_and_unroutable_queries() {
    let ctx = ctx();
    let a = spawn(worker(&ctx, &["node_power"], "shard-0"));
    let router = router_over(&[&a]);

    let mut req = Request::query("p1", "t", power_spec());
    req.proto_version = Some(PROTO_VERSION + 99);
    let resp = router.handle(req);
    assert_eq!(resp.code(), Some(codes::PROTO_MISMATCH), "{resp:?}");

    // `utilization` is a real dimension no fixture dataset provides.
    let resp = router.handle(Request::query(
        "p2",
        "t",
        sjserve::protocol::QuerySpec::new(["compute-node"], ["utilization"]),
    ));
    assert_eq!(resp.code(), Some(codes::NO_SOLUTION), "{resp:?}");

    let resp = router.handle(Request::query(
        "p3",
        "t",
        sjserve::protocol::QuerySpec::new([], []),
    ));
    assert_eq!(resp.code(), Some(codes::BAD_REQUEST), "{resp:?}");

    router.shutdown();
    a.stop();
}

/// The router's catalog verb unions every worker's datasets, so a stock
/// client cannot tell the fleet from one big worker.
#[test]
fn catalog_unions_worker_shards() {
    let ctx = ctx();
    let a = spawn(worker(&ctx, &["node_power"], "shard-0"));
    let b = spawn(worker(&ctx, &["node_temp"], "shard-1"));
    let router = router_over(&[&a, &b]);

    let resp = router.handle(Request::bare("c", Verb::Catalog));
    assert!(resp.is_ok());
    let info = resp.catalog.expect("catalog payload");
    let names: Vec<&str> = info.datasets.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, vec!["node_power", "node_temp"]);

    router.shutdown();
    a.stop();
    b.stop();
}

/// A router answer carries the router's own `elapsed_ms`. Every task on
/// the worker sleeps 50 ms, so the first routed query takes at least
/// that long; the route-cache hit that follows must report its own time,
/// not that of the query that filled the cache.
#[test]
fn router_answers_carry_the_routers_own_elapsed_ms() {
    let ctx = ctx();
    let slow = QueryService::new(
        ctx.clone(),
        catalog_with(&ctx, &["node_power"]),
        ServiceConfig {
            faults: Some(FaultPlan::seeded(5).with_delays(1.0, Duration::from_millis(50))),
            ..ServiceConfig::default()
        },
    );
    let a = spawn(slow);
    let router = router_over(&[&a]);

    let started = Instant::now();
    let first = router.handle(Request::query("s1", "t", power_spec()));
    let first_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(first.is_ok(), "{:?}", first.error);
    let first = first.result.unwrap();
    assert!(!first.result_cache_hit);
    assert!(
        (50.0..=first_wall_ms).contains(&first.elapsed_ms),
        "the routed query took {first_wall_ms:.1} ms: {first:?}"
    );

    let started = Instant::now();
    let hit = router.handle(Request::query("s2", "t", power_spec()));
    let hit_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let hit = hit.result.unwrap();
    assert!(hit.result_cache_hit, "{hit:?}");
    assert!(
        hit.elapsed_ms < 25.0 && hit.elapsed_ms <= hit_wall_ms,
        "a route-cache hit reported {} ms, not its own time ({hit_wall_ms:.1} ms)",
        hit.elapsed_ms
    );
    assert_eq!((hit.columns, hit.rows), (first.columns, first.rows));

    router.shutdown();
    a.stop();
}
