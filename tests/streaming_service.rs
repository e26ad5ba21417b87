//! End-to-end streaming over real TCP: standing queries registered with
//! `subscribe: true`, appends through the `append` verb, pushed window
//! frames interleaved on the subscriber's connection, per-tenant
//! subscription quotas, and the satellite guarantee that a truncated
//! derivation search tears down exactly one subscription — never the
//! connection or the tenant's other standing queries.

use sjdata::{disarray_schedule, stream_catalog, Disarray};
use sjdf::ExecCtx;
use sjserve::protocol::codes;
use sjserve::{
    serve, Client, ClientError, EmissionSink, QueryService, QuerySpec, Request, Response,
    ServiceConfig, ValueSpec, Verb,
};
use std::net::SocketAddr;
use std::time::Duration;

fn streaming_service(config: ServiceConfig) -> QueryService {
    let ctx = ExecCtx::local();
    let catalog = stream_catalog(&ctx).unwrap();
    QueryService::new(ctx, catalog, config)
}

/// The standing derive-rate + interpolation-join query (two datasets).
fn joined_spec() -> QuerySpec {
    QuerySpec {
        domains: vec!["compute-node".into(), "time".into()],
        values: vec![
            ValueSpec::with_units("instructions", "instructions-per-ms"),
            ValueSpec::dim("temperature"),
        ],
        window_secs: None,
        step_secs: None,
        limit: None,
    }
}

/// A standing query with no derivation under a one-dataset budget: the
/// raw cumulative counters are not directly queryable, so the search
/// wants to widen past its seed — and a `max_datasets: 1` budget stops
/// it there with `SearchTruncated` (not provably unsatisfiable).
fn raw_counters_spec() -> QuerySpec {
    QuerySpec {
        domains: vec!["compute-node".into(), "time".into()],
        values: vec![ValueSpec::with_units("instructions", "instructions-count")],
        window_secs: None,
        step_secs: None,
        limit: None,
    }
}

fn server_code(e: ClientError) -> String {
    match e {
        ClientError::Server(body) => body.code,
        other => panic!("expected a server error, got {other:?}"),
    }
}

/// Poll `stats` until the streaming section satisfies `pred` (the
/// connection-teardown bookkeeping runs on the server's own thread).
fn wait_for_streaming(
    client: &mut Client,
    pred: impl Fn(&sjserve::metrics::StreamStatsReport) -> bool,
) -> sjserve::metrics::StreamStatsReport {
    for _ in 0..100 {
        let stats = client.stats().unwrap().stats.unwrap();
        let streaming = stats.streaming.expect("worker stats carry streaming");
        if pred(&streaming) {
            return streaming;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("streaming stats never reached the expected state");
}

#[test]
fn subscribe_append_emit_over_tcp() {
    let handle = serve(streaming_service(ServiceConfig::default()), "127.0.0.1:0").unwrap();
    let addr: SocketAddr = handle.addr;

    let mut subscriber = Client::connect_as(addr, "tenant-a").unwrap();
    subscriber
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let ack = subscriber.subscribe(joined_spec()).unwrap();
    let sub = ack.subscription.expect("subscribe returns an ack");
    assert_eq!(sub.window_secs, 60.0);
    assert_eq!(ack.query_id.as_deref(), Some(sub.query_id.as_str()));

    // Appends ride a separate connection so acks and frames don't mix.
    let mut appender = Client::connect_as(addr, "ingest").unwrap();
    let schedule = disarray_schedule(Disarray::InOrder, 42, 20);
    let nbatches = schedule.len();
    let mut total_emitted = 0usize;
    let mut total_accepted = 0usize;
    for batch in schedule {
        let response = appender.append(batch).unwrap();
        let ack = response.append.expect("append returns an ack");
        total_emitted += ack.windows_emitted;
        total_accepted += ack.accepted;
    }
    assert!(total_accepted > 0, "schedule appended no rows");
    assert!(total_emitted > 0, "no windows ripened over 200s of stream");

    // Every frame the appends produced is already on the subscriber's
    // socket, in emission order.
    let mut rows_seen = 0usize;
    for i in 0..total_emitted {
        let frame = subscriber.next_frame().unwrap();
        assert_eq!(frame.id, ack.id, "frame {i} must echo the subscribe id");
        assert_eq!(frame.query_id, Some(sub.query_id.clone()));
        let window = frame.window.expect("pushed frames carry a window");
        assert!(!window.degraded, "no faults installed: {:?}", window.error);
        assert!(!window.columns.is_empty());
        rows_seen += window.rows.len();
    }
    assert!(rows_seen > 0, "all emitted windows were empty");

    let streaming = wait_for_streaming(&mut appender, |s| s.subscriptions_active == 1);
    assert_eq!(streaming.appends as usize, nbatches);
    assert_eq!(streaming.rows_accepted as usize, total_accepted);
    // `windows_emitted` on the ack counts every pushed frame; the
    // engine splits first emissions from late-data re-emissions.
    assert_eq!(
        (streaming.window_emissions + streaming.window_re_emissions) as usize,
        total_emitted
    );
    assert!(streaming.window_emissions >= 1);
    assert_eq!(streaming.subscriptions_opened, 1);
    assert!(streaming.incremental_recomputes > 0);

    // Closing the subscriber's connection unregisters its standing
    // query on the server side.
    drop(subscriber);
    let streaming = wait_for_streaming(&mut appender, |s| s.subscriptions_active == 0);
    assert_eq!(streaming.subscriptions_closed, 1);

    handle.stop();
}

#[test]
fn per_tenant_subscription_quota_is_enforced() {
    let config = ServiceConfig {
        max_subscriptions_per_tenant: 1,
        ..ServiceConfig::default()
    };
    let handle = serve(streaming_service(config), "127.0.0.1:0").unwrap();
    let addr: SocketAddr = handle.addr;

    let mut first = Client::connect_as(addr, "tenant-a").unwrap();
    first.subscribe(joined_spec()).unwrap();

    // Same tenant, second standing query: structured rejection.
    let mut second = Client::connect_as(addr, "tenant-a").unwrap();
    let err = second.subscribe(joined_spec()).unwrap_err();
    assert_eq!(server_code(err), codes::SUBSCRIPTION_LIMIT);
    // The rejected connection is still usable for normal requests.
    assert!(second.health().unwrap().health.is_some());

    // A different tenant has its own budget.
    let mut other = Client::connect_as(addr, "tenant-b").unwrap();
    other.subscribe(joined_spec()).unwrap();

    handle.stop();
}

#[test]
fn subscribe_without_a_streaming_transport_is_rejected() {
    // In-process `handle` has no sink to push frames to, so standing
    // queries are a structured error there (same for a router hop).
    let service = streaming_service(ServiceConfig::default());
    let request = sjserve::protocol::Request::subscribe("r1", "t", joined_spec());
    let response = service.handle(request);
    assert_eq!(response.code(), Some(codes::STREAM_UNSUPPORTED));
    service.shutdown();
}

/// Satellite: a standing query whose (lazy) solve hits the search
/// budget is torn down with a `search_truncated` frame — and nothing
/// else. The connection survives, the sibling subscription keeps
/// emitting, and the teardown is counted in the service stats.
#[test]
fn truncated_search_tears_down_only_that_subscription() {
    let config = ServiceConfig {
        engine: sjcore::engine::EngineConfig {
            // One dataset of budget. The joined query still solves — its
            // greedy cover seed already holds both datasets, and the
            // budget only gates the widening step — while the
            // raw-counters query must widen past its seed and truncates.
            max_datasets: 1,
            ..sjcore::engine::EngineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let handle = serve(streaming_service(config), "127.0.0.1:0").unwrap();
    let addr: SocketAddr = handle.addr;

    let mut subscriber = Client::connect_as(addr, "tenant-a").unwrap();
    subscriber
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let good = subscriber.subscribe(joined_spec()).unwrap();
    let good_id = good.subscription.unwrap().query_id;
    let bad = subscriber.subscribe(raw_counters_spec()).unwrap();
    let bad_id = bad.subscription.unwrap().query_id;

    let mut appender = Client::connect_as(addr, "ingest").unwrap();
    let mut total_emitted = 0usize;
    for batch in disarray_schedule(Disarray::InOrder, 42, 20) {
        let response = appender.append(batch).unwrap();
        total_emitted += response.append.unwrap().windows_emitted;
    }
    assert!(total_emitted > 0);

    // The subscriber's socket now holds: the bad subscription's single
    // teardown frame (pushed at the first sweep) plus every good frame.
    let mut teardowns = 0usize;
    let mut good_frames = 0usize;
    for _ in 0..total_emitted + 1 {
        let frame = subscriber.next_frame().unwrap();
        if frame.query_id.as_deref() == Some(bad_id.as_str()) {
            assert_eq!(frame.code(), Some(codes::SEARCH_TRUNCATED));
            assert!(frame.window.is_none());
            teardowns += 1;
        } else {
            assert_eq!(frame.query_id.as_deref(), Some(good_id.as_str()));
            assert!(frame.window.is_some());
            good_frames += 1;
        }
    }
    assert_eq!(teardowns, 1, "exactly one teardown frame for the bad sub");
    assert_eq!(good_frames, total_emitted);

    let streaming = wait_for_streaming(&mut appender, |s| s.subscriptions_failed == 1);
    assert_eq!(streaming.subscriptions_active, 1, "good sub survives");
    let stats = appender.stats().unwrap().stats.unwrap();
    assert!(
        stats.searches_truncated >= 1,
        "truncation must be counted: {stats:?}"
    );

    // The connection itself survived the teardown: it can still run a
    // one-shot query end to end.
    handle.stop();
}

/// Regression: a subscriber stalled mid-`send` (full TCP buffer in the
/// real world) must not wedge the service. Frame delivery happens
/// outside the stream lock, so while one delivery is parked, stats keep
/// answering, new subscriptions register, and the engine stays live.
#[test]
fn stalled_subscriber_does_not_wedge_the_service() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    /// Blocks every `send` until the gate opens, like a consumer whose
    /// socket stopped draining.
    struct GatedSink {
        open: Mutex<bool>,
        cvar: Condvar,
        parked: AtomicBool,
        frames: AtomicUsize,
    }
    impl EmissionSink for GatedSink {
        fn send(&self, _frame: &Response) -> std::io::Result<()> {
            self.frames.fetch_add(1, Ordering::SeqCst);
            let mut open = self.open.lock().unwrap();
            while !*open {
                self.parked.store(true, Ordering::SeqCst);
                open = self.cvar.wait(open).unwrap();
            }
            self.parked.store(false, Ordering::SeqCst);
            Ok(())
        }
    }
    struct NullSink;
    impl EmissionSink for NullSink {
        fn send(&self, _frame: &Response) -> std::io::Result<()> {
            Ok(())
        }
    }

    let service = streaming_service(ServiceConfig::default());
    let gated = Arc::new(GatedSink {
        open: Mutex::new(false),
        cvar: Condvar::new(),
        parked: AtomicBool::new(false),
        frames: AtomicUsize::new(0),
    });
    let sink: Arc<dyn EmissionSink> = gated.clone();
    let ack = service.handle_streaming(
        Request::subscribe("r-sub", "tenant-a", joined_spec()),
        &sink,
    );
    assert!(ack.subscription.is_some(), "subscribe failed: {ack:?}");

    // Pump the schedule from its own thread; the first ripened window's
    // frame parks inside the gated sink's `send`.
    let pumping = service.clone();
    let appender = std::thread::spawn(move || {
        let mut emitted = 0usize;
        for (i, batch) in disarray_schedule(Disarray::InOrder, 42, 20)
            .into_iter()
            .enumerate()
        {
            let r = pumping.handle(Request::append(&format!("a{i}"), "ingest", batch));
            assert!(r.is_ok(), "append {i} failed: {r:?}");
            emitted += r.append.expect("append ack").windows_emitted;
        }
        emitted
    });

    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !gated.parked.load(Ordering::SeqCst) {
        assert!(
            std::time::Instant::now() < deadline,
            "no frame delivery ever parked"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Delivery is parked right now. Monitoring and registration must
    // still complete (pre-fix, both wedged behind the stream mutex the
    // blocked appender held across its TCP write).
    let stats = service.handle(Request::bare("r-stats", Verb::Stats));
    assert!(
        stats.stats.is_some(),
        "stats wedged behind a stalled subscriber"
    );
    let other: Arc<dyn EmissionSink> = Arc::new(NullSink);
    let sub2 = service.handle_streaming(
        Request::subscribe("r-sub2", "tenant-b", joined_spec()),
        &other,
    );
    assert!(
        sub2.subscription.is_some(),
        "subscribe wedged behind a stalled subscriber: {sub2:?}"
    );

    // Open the gate; the pump drains and finishes.
    *gated.open.lock().unwrap() = true;
    gated.cvar.notify_all();
    let emitted = appender.join().expect("append thread");
    assert!(emitted > 0, "schedule never emitted a window");
    assert!(gated.frames.load(Ordering::SeqCst) > 0);
    service.shutdown();
}
