//! Routed streaming over the binary wire: a `subscribe: true` query
//! through `sjrouted` must deliver the **same frame sequence** a
//! single-node `sjserved` subscriber would see — byte-identical modulo
//! the router-minted ids — across every disarray schedule. Also
//! covered: one append order on every replica whatever connections the
//! appends come on, a replica whose ack disagrees leaving the merge,
//! worker-kill chaos (failover or a structured degraded teardown, never
//! a hang), a silent solver bounded by a routed subscribe's deadline, a
//! routed subscription idle past that deadline, bulk backfill parity,
//! the idle-source watermark timeout, and the wire info and request
//! counters both daemons report.

use sjcore::engine::{EngineConfig, Query, QueryValue};
use sjcore::{Row, Timestamp, Value};
use sjdata::{disarray_schedule, stream_catalog, Disarray};
use sjdf::ExecCtx;
use sjroute::{Ring, Router, RouterBackend, RouterConfig};
use sjserve::protocol::{codes, Request};
use sjserve::{
    serve, Client, ClientError, QueryService, QuerySpec, RouterStatsReport, ServerHandle,
    ServiceConfig, ValueSpec,
};
use sjstream::{AppendBatch, StreamConfig, StreamEngine};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const SEED: u64 = 42;
const STEPS: usize = 20;

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

fn spawn_worker() -> ServerHandle {
    let ctx = ExecCtx::local();
    let catalog = stream_catalog(&ctx).unwrap();
    serve(
        QueryService::new(ctx, catalog, ServiceConfig::default()),
        "127.0.0.1:0",
    )
    .unwrap()
}

fn spawn_router(worker_addrs: Vec<String>) -> ServerHandle<RouterBackend> {
    let config = RouterConfig {
        // Slow heartbeat: worker loss in these tests must be detected
        // on the append-forward path (which severs the feed), not raced
        // by a background probe.
        heartbeat: Duration::from_secs(60),
        probe_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    };
    let router = Router::new(worker_addrs, config).unwrap();
    serve(router, "127.0.0.1:0").unwrap()
}

fn subscriber(addr: SocketAddr) -> Client {
    let mut client = Client::connect_as(addr, "tenant-a").unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let ack = client.subscribe(joined_spec()).unwrap();
    assert!(ack.subscription.is_some(), "subscribe returns an ack");
    client
}

/// A window frame, normalized: everything except the ids the router
/// rewrites (request id, query id). Rows are the rendered strings, so
/// equality here is the byte-identity probe.
fn norm_frame(frame: &sjserve::Response) -> String {
    let w = frame
        .window
        .as_ref()
        .unwrap_or_else(|| panic!("expected a window frame, got {frame:?}"));
    format!(
        "{}|{}|{}..{}|wm={}|re={}|deg={}|err={:?}|{:?}|{:?}",
        frame.status,
        w.window_id,
        w.start_us,
        w.end_us,
        w.watermark_us,
        w.re_emission,
        w.degraded,
        w.error,
        w.columns,
        w.rows
    )
}

/// Like [`norm_frame`] but additionally dropping emission-time fields
/// (`watermark_us`, `re_emission`): bulk backfill sweeps once at the
/// end, so those legitimately differ from row-at-a-time delivery.
fn norm_frame_final(frame: &sjserve::Response) -> (i64, String) {
    let w = frame.window.as_ref().expect("window frame");
    (
        w.window_id,
        format!(
            "{}|{}..{}|deg={}|err={:?}|{:?}|{:?}",
            frame.status, w.start_us, w.end_us, w.degraded, w.error, w.columns, w.rows
        ),
    )
}

/// Poll the router's stats until `pred` holds (metric increments on the
/// push path can trail the client's last read by an instant).
fn wait_for_router_stats(
    client: &mut Client,
    pred: impl Fn(&RouterStatsReport) -> bool,
) -> RouterStatsReport {
    let mut last = None;
    for _ in 0..100 {
        let stats = client
            .stats()
            .unwrap()
            .router_stats
            .expect("router answers router_stats");
        if pred(&stats) {
            return stats;
        }
        last = Some(stats);
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("router stats never reached the expected state: {last:?}");
}

/// Append a schedule through `appender` and drain exactly the emitted
/// frame count from `sub`, normalized.
fn run_and_collect(
    appender: &mut Client,
    sub: &mut Client,
    schedule: &[AppendBatch],
) -> Vec<String> {
    let mut total = 0usize;
    for batch in schedule {
        let ack = appender
            .append(batch.clone())
            .unwrap()
            .append
            .expect("append ack");
        total += ack.windows_emitted;
    }
    (0..total)
        .map(|_| norm_frame(&sub.next_frame().unwrap()))
        .collect()
}

/// Reference: the frame sequence a single-node `sjserved` subscriber
/// sees over this schedule.
fn single_node_frames(kind: Disarray) -> Vec<String> {
    let worker = spawn_worker();
    let mut sub = subscriber(worker.addr);
    let mut appender = Client::connect_as(worker.addr, "ingest").unwrap();
    let frames = run_and_collect(
        &mut appender,
        &mut sub,
        &disarray_schedule(kind, SEED, STEPS),
    );
    drop(sub);
    worker.stop();
    frames
}

/// The same schedule through a router fronting a 2-replica fleet.
fn routed_frames(kind: Disarray, check_stats: bool) -> Vec<String> {
    let w0 = spawn_worker();
    let w1 = spawn_worker();
    let router = spawn_router(vec![w0.addr.to_string(), w1.addr.to_string()]);
    let mut sub = subscriber(router.addr);
    let mut appender = Client::connect_as(router.addr, "ingest").unwrap();
    let frames = run_and_collect(
        &mut appender,
        &mut sub,
        &disarray_schedule(kind, SEED, STEPS),
    );
    if check_stats {
        let n = frames.len();
        let stats = wait_for_router_stats(&mut appender, |s| s.stream_frames_pushed as usize == n);
        assert_eq!(stats.streams_active, 1);
        // Both feeds delivered every frame before the merge forwarded
        // one copy.
        assert_eq!(stats.stream_worker_frames as usize, 2 * n);
        assert_eq!(stats.stream_worker_losses, 0);
        let re_emissions = frames.iter().filter(|f| f.contains("|re=true|")).count();
        assert_eq!(stats.stream_re_emissions as usize, re_emissions);
        assert!(stats.stream_appends_forwarded > 0);
        assert!(stats.requests_binary > 0, "binary is the default transport");
    }
    drop(sub);
    router.stop();
    w0.stop();
    w1.stop();
    frames
}

fn assert_fanout_identity(kind: Disarray) {
    let reference = single_node_frames(kind);
    assert!(
        reference.len() >= 3,
        "[{}] schedule too quiet: {} frames",
        kind.name(),
        reference.len()
    );
    let routed = routed_frames(kind, kind == Disarray::InOrder);
    assert_eq!(
        routed,
        reference,
        "[{}] routed subscriber diverged from single-node",
        kind.name()
    );
}

#[test]
fn fanout_matches_single_node_in_order() {
    assert_fanout_identity(Disarray::InOrder);
}

#[test]
fn fanout_matches_single_node_clock_skew() {
    assert_fanout_identity(Disarray::ClockSkew);
}

#[test]
fn fanout_matches_single_node_late_duplicates() {
    assert_fanout_identity(Disarray::LateDuplicates);
}

#[test]
fn fanout_matches_single_node_counter_wrap() {
    assert_fanout_identity(Disarray::CounterWrap);
}

#[test]
fn fanout_matches_single_node_rack_skew() {
    assert_fanout_identity(Disarray::RackSkew);
}

/// Kill one replica mid-subscription: the merge re-forms over the
/// survivor and the client's frame sequence is *still* byte-identical
/// to single-node. Kill the survivor too: the next append is refused
/// with a structured error and the subscriber gets one
/// `worker_unavailable` teardown frame — degraded, never a hang.
#[test]
fn worker_kill_fails_over_then_degrades_structurally() {
    let kind = Disarray::InOrder;
    let reference = single_node_frames(kind);

    let w0 = spawn_worker();
    let w1 = spawn_worker();
    let router = spawn_router(vec![w0.addr.to_string(), w1.addr.to_string()]);
    let mut sub = subscriber(router.addr);
    let mut appender = Client::connect_as(router.addr, "ingest").unwrap();

    let schedule = disarray_schedule(kind, SEED, STEPS);
    let half = schedule.len() / 2;
    let mut total = 0usize;
    for batch in &schedule[..half] {
        total += appender
            .append(batch.clone())
            .unwrap()
            .append
            .unwrap()
            .windows_emitted;
    }
    w1.stop();
    for batch in &schedule[half..] {
        // Forwarding to the dead replica fails; the live one still acks.
        total += appender
            .append(batch.clone())
            .unwrap()
            .append
            .unwrap()
            .windows_emitted;
    }
    let frames: Vec<String> = (0..total)
        .map(|_| norm_frame(&sub.next_frame().unwrap()))
        .collect();
    assert_eq!(frames, reference, "failover changed the frame stream");

    let stats = wait_for_router_stats(&mut appender, |s| s.stream_worker_losses >= 1);
    assert_eq!(stats.streams_active, 1, "{stats:?}");

    // Now lose the whole fleet.
    w0.stop();
    let err = appender.append(schedule[0].clone()).unwrap_err();
    let body = match err {
        ClientError::Server(body) => body,
        other => panic!("expected a structured refusal, got {other:?}"),
    };
    assert_eq!(body.code, codes::WORKER_UNAVAILABLE, "{body:?}");

    let teardown = sub.next_frame().unwrap();
    assert_eq!(teardown.status, "error");
    assert!(teardown.window.is_none());
    assert_eq!(
        teardown.error.as_ref().map(|e| e.code.as_str()),
        Some(codes::WORKER_UNAVAILABLE),
        "{teardown:?}"
    );
    wait_for_router_stats(&mut appender, |s| s.streams_active == 0);

    router.stop();
}

/// A TCP proxy in front of one worker. Armed, it holds the first
/// connection it accepts (unanswered, not yet connected upstream) until
/// a later connection has been relayed to its end, `hold` passes, or
/// the proxy stops. Every other connection is relayed at once.
struct HoldingProxy {
    addr: SocketAddr,
    armed: Arc<AtomicBool>,
    /// Signalled when the held connection arrives.
    holding: mpsc::Receiver<()>,
    stopping: Arc<AtomicBool>,
    accept: std::thread::JoinHandle<()>,
}

impl HoldingProxy {
    fn start(upstream: SocketAddr, hold: Duration) -> HoldingProxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let armed = Arc::new(AtomicBool::new(false));
        let stopping = Arc::new(AtomicBool::new(false));
        let (holding_tx, holding) = mpsc::channel();
        let (completed_tx, completed) = mpsc::channel::<()>();
        let (flag, stop) = (Arc::clone(&armed), Arc::clone(&stopping));
        let accept = std::thread::spawn(move || {
            let mut completed = Some(completed);
            let mut relays = Vec::new();
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let conn = conn.unwrap();
                let armed = flag.load(Ordering::SeqCst);
                if let Some(completed) = completed.take_if(|_| armed) {
                    holding_tx.send(()).unwrap();
                    relays.push(std::thread::spawn(move || {
                        let _ = completed.recv_timeout(hold);
                        relay(conn, upstream);
                    }));
                    continue;
                }
                let completed_tx = completed_tx.clone();
                relays.push(std::thread::spawn(move || {
                    relay(conn, upstream);
                    if armed {
                        let _ = completed_tx.send(());
                    }
                }));
            }
            // Hung up, the channel ends a hold still running.
            drop(completed_tx);
            for relay in relays {
                relay.join().unwrap();
            }
        });
        HoldingProxy {
            addr,
            armed,
            holding,
            stopping,
            accept,
        }
    }

    /// Stop accepting, end a hold, and join every relay (the others
    /// ended when the router and the worker stopped).
    fn stop(self) {
        self.stopping.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.accept.join().unwrap();
    }
}

/// Copy bytes both ways between `client` and a new connection to
/// `upstream` until both sides have closed.
fn relay(client: TcpStream, upstream: SocketAddr) {
    let Ok(server) = TcpStream::connect(upstream) else {
        return;
    };
    let (mut from_client, mut to_server) =
        (client.try_clone().unwrap(), server.try_clone().unwrap());
    let forward = std::thread::spawn(move || {
        let _ = std::io::copy(&mut from_client, &mut to_server);
        let _ = to_server.shutdown(Shutdown::Write);
    });
    let (mut from_server, mut to_client) = (server, client);
    let _ = std::io::copy(&mut from_server, &mut to_client);
    let _ = to_client.shutdown(Shutdown::Write);
    forward.join().unwrap();
}

/// Two rows of `dataset` from `source`, with the source clock and the
/// rows' time both at `secs`.
fn batch_at(dataset: &str, source: &str, secs: i64) -> AppendBatch {
    let t = Value::Time(Timestamp::from_micros(secs * 1_000_000));
    let rows = (0..2)
        .map(|node| {
            let mut values = vec![Value::str(format!("cab{node}")), t.clone()];
            match dataset {
                "coolant" => values.push(Value::Float(25.0)),
                _ => values.extend((1..=4).map(|c| Value::Int(c * 1_000))),
            }
            Row::new(values)
        })
        .collect();
    AppendBatch {
        dataset: dataset.into(),
        source: source.into(),
        source_clock_us: secs * 1_000_000,
        rows,
    }
}

/// Two appenders on their own connections send `x`, then `y`, whose
/// rows are late once `x` is in. A proxy holds `x`'s hop to the second
/// owner of its dataset until `y`'s hop there has finished, or 500 ms
/// pass. Forwarded in whatever order the two connections run, the held
/// replica would take `y` before `x` and accept both, while the other
/// drops `y` as late. In one fleet-wide order both take `x` first.
fn assert_one_append_order(x: AppendBatch, y: AppendBatch) {
    let direct = spawn_worker();
    let proxied = spawn_worker();
    let proxy = HoldingProxy::start(proxied.addr, Duration::from_millis(500));
    // Appends reach owners in ring preference order.
    let second = Ring::new(2).preference(&x.dataset)[1];
    let mut addrs = vec![direct.addr.to_string(); 2];
    addrs[second] = proxy.addr.to_string();
    let router = spawn_router(addrs);
    proxy.armed.store(true, Ordering::SeqCst);

    let router_addr = router.addr;
    let first = std::thread::spawn(move || {
        let mut appender = Client::connect_as(router_addr, "ingest-1").unwrap();
        appender.append(x).unwrap();
    });
    proxy
        .holding
        .recv_timeout(Duration::from_secs(10))
        .expect("the first append reaches the proxy");
    let late = y.rows.len() as u64;
    let mut appender = Client::connect_as(router.addr, "ingest-2").unwrap();
    appender.append(y).unwrap();
    first.join().unwrap();

    let ingested = |addr: SocketAddr| {
        let streaming = Client::connect(addr)
            .unwrap()
            .stats()
            .unwrap()
            .stats
            .unwrap()
            .streaming
            .unwrap();
        (streaming.rows_accepted, streaming.rows_late_dropped)
    };
    let (direct_rows, proxied_rows) = (ingested(direct.addr), ingested(proxied.addr));
    assert_eq!(
        direct_rows, proxied_rows,
        "the replicas ingested the appends in different orders"
    );
    assert_eq!(proxied_rows.1, late, "both replicas take `x` first");
    router.stop();
    direct.stop();
    proxied.stop();
    proxy.stop();
}

#[test]
fn two_appenders_reach_both_replicas_in_one_order() {
    assert_one_append_order(
        batch_at("coolant", "s1", 1_000),
        batch_at("coolant", "s1", 100),
    );
}

/// A worker's watermark spans all its datasets, so appends to two
/// datasets on shared replicas need one order too.
#[test]
fn appends_to_two_datasets_reach_shared_replicas_in_one_order() {
    assert_one_append_order(
        batch_at("coolant", "s1", 1_000),
        batch_at("papi_counters", "s2", 100),
    );
}

/// A replica that accepts an append's connection and never answers
/// holds that append up only until its deadline plus 500 ms: then the
/// replica is lost, and the other replica's ack answers. An append that
/// waited for its turn past its own deadline answers `timeout` and
/// reaches no worker.
#[test]
fn a_stuck_replica_holds_appends_no_longer_than_their_deadline() {
    let direct = spawn_worker();
    let stuck = spawn_worker();
    let proxy = HoldingProxy::start(stuck.addr, Duration::from_secs(10));
    let router = spawn_router(vec![direct.addr.to_string(), proxy.addr.to_string()]);
    proxy.armed.store(true, Ordering::SeqCst);
    let append = |id: &str, timeout_ms: u64| {
        let mut request =
            Request::append(id, "ingest", batch_at("coolant", "s1", 1_000)).with_proto();
        request.timeout_ms = Some(timeout_ms);
        let mut appender = Client::connect_as(router.addr, "ingest").unwrap();
        let started = Instant::now();
        let resp = appender.call(&request).unwrap();
        (resp, started.elapsed())
    };

    std::thread::scope(|scope| {
        let held = scope.spawn(|| append("held", 200));
        proxy
            .holding
            .recv_timeout(Duration::from_secs(10))
            .expect("the first append reaches the proxy");
        let (late, _) = append("late", 100);
        assert_eq!(
            late.error.as_ref().map(|e| e.code.as_str()),
            Some(codes::TIMEOUT),
            "{late:?}"
        );
        let (resp, took) = held.join().unwrap();
        assert!(resp.is_ok() && resp.append.is_some(), "{resp:?}");
        assert!(
            took < Duration::from_secs(2),
            "a stuck replica held a 200 ms append for {took:?}"
        );
    });
    let appends = Client::connect(direct.addr)
        .unwrap()
        .stats()
        .unwrap()
        .stats
        .unwrap()
        .streaming
        .unwrap()
        .appends;
    assert_eq!(appends, 1, "the late append reached a worker");
    router.stop();
    direct.stop();
    stuck.stop();
    proxy.stop();
}

/// A replica that took a batch the router never sent holds another
/// prefix. Its ack for the next routed batch disagrees with the first
/// owner's, so the router counts one divergence and drops that replica
/// from the routed subscription. The subscriber's frames still equal a
/// single node's, from the remaining feed.
#[test]
fn a_replica_whose_ack_diverges_leaves_the_merge() {
    let kind = Disarray::InOrder;
    let reference = single_node_frames(kind);
    let schedule = disarray_schedule(kind, SEED, STEPS);
    assert!(!schedule[0].rows.is_empty());

    let workers = [spawn_worker(), spawn_worker()];
    let router = spawn_router(workers.iter().map(|w| w.addr.to_string()).collect());
    let mut sub = subscriber(router.addr);
    // The second owner of the first batch's dataset takes that batch
    // straight, so the routed copy is all duplicates there.
    let second = Ring::new(2).preference(&schedule[0].dataset)[1];
    Client::connect_as(workers[second].addr, "ingest")
        .unwrap()
        .append(schedule[0].clone())
        .unwrap();

    let mut appender = Client::connect_as(router.addr, "ingest").unwrap();
    let mut emitted = 0usize;
    for batch in &schedule {
        let ack = appender.append(batch.clone()).unwrap().append.unwrap();
        emitted += ack.windows_emitted;
    }
    let frames: Vec<String> = (0..reference.len())
        .map(|_| norm_frame(&sub.next_frame().unwrap()))
        .collect();
    assert_eq!(
        frames, reference,
        "the remaining feed diverged from single-node"
    );
    let stats = wait_for_router_stats(&mut appender, |s| {
        s.stream_worker_losses == 1 && s.stream_frames_pushed as usize >= reference.len()
    });
    assert_eq!(
        stats.stream_frames_pushed as usize,
        reference.len(),
        "{stats:?}"
    );
    // Each relayed ack comes from an owner that still feeds the
    // subscription, so the acks count the frames the merge pushed.
    assert_eq!(emitted, reference.len(), "relayed acks' windows_emitted");
    // Once the replica holds the same rows again its acks agree: one
    // divergence, not one per append.
    assert_eq!(stats.stream_append_divergences, 1, "{stats:?}");
    assert_eq!(stats.streams_active, 1, "{stats:?}");
    drop(sub);
    router.stop();
    for worker in workers {
        worker.stop();
    }
}

/// A routed subscribe whose solvers include one that accepts the
/// connection and never answers is acked within its deadline plus a
/// second: the hop to the silent solver gives up, and the subscription
/// runs on the other.
#[test]
fn a_silent_solver_holds_a_routed_subscribe_no_longer_than_its_deadline() {
    let direct = spawn_worker();
    let silent = spawn_worker();
    let proxy = HoldingProxy::start(silent.addr, Duration::from_secs(10));
    let router = spawn_router(vec![direct.addr.to_string(), proxy.addr.to_string()]);
    proxy.armed.store(true, Ordering::SeqCst);
    let mut sub = Client::connect_as(router.addr, "tenant-a").unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut request = Request::subscribe("s1", "tenant-a", joined_spec()).with_proto();
    request.timeout_ms = Some(500);
    let started = Instant::now();
    let resp = sub.call(&request).unwrap();
    let took = started.elapsed();
    assert!(resp.is_ok() && resp.subscription.is_some(), "{resp:?}");
    assert!(
        took < Duration::from_millis(1_500),
        "a silent solver held a 500 ms subscribe for {took:?}"
    );
    drop(sub);
    router.stop();
    direct.stop();
    silent.stop();
    proxy.stop();
}

/// A routed subscription outlives its subscribe's deadline: its feeds
/// wait for frames as long as it lives. Idle past that deadline plus the
/// hop slack, it still gets every frame a single node's subscriber
/// gets, from both feeds.
#[test]
fn an_idle_routed_subscription_outlives_its_subscribe_deadline() {
    let kind = Disarray::InOrder;
    let reference = single_node_frames(kind);
    let workers = [spawn_worker(), spawn_worker()];
    let router = spawn_router(workers.iter().map(|w| w.addr.to_string()).collect());
    let mut sub = Client::connect_as(router.addr, "tenant-a").unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut request = Request::subscribe("s1", "tenant-a", joined_spec()).with_proto();
    request.timeout_ms = Some(200);
    let resp = sub.call(&request).unwrap();
    assert!(resp.subscription.is_some(), "{resp:?}");
    std::thread::sleep(Duration::from_secs(1));

    let mut appender = Client::connect_as(router.addr, "ingest").unwrap();
    let schedule = disarray_schedule(kind, SEED, STEPS);
    let frames = run_and_collect(&mut appender, &mut sub, &schedule);
    assert_eq!(frames, reference, "the idle subscription's frames");
    let stats = wait_for_router_stats(&mut appender, |s| {
        s.stream_frames_pushed as usize >= reference.len()
    });
    assert_eq!(stats.stream_worker_losses, 0, "{stats:?}");
    drop(sub);
    router.stop();
    for worker in workers {
        worker.stop();
    }
}

/// Bulk backfill: `bulk: true` appends ingest without sweeping, and the
/// closing flush runs one sweep. The final per-window frames must match
/// row-at-a-time ingestion byte-for-byte (watermark and re-emission
/// flags normalized — bulk legitimately emits each window exactly once,
/// at the final watermark).
#[test]
fn bulk_backfill_matches_row_at_a_time() {
    let kind = Disarray::LateDuplicates; // exercises re-emissions rowwise
    let schedule = disarray_schedule(kind, SEED, STEPS);

    // Row-at-a-time reference: keep the LAST frame per window.
    let worker = spawn_worker();
    let mut sub = subscriber(worker.addr);
    let mut appender = Client::connect_as(worker.addr, "ingest").unwrap();
    let mut final_wm = 0i64;
    let mut total = 0usize;
    for batch in &schedule {
        let ack = appender.append(batch.clone()).unwrap().append.unwrap();
        total += ack.windows_emitted;
        final_wm = ack.watermark_us;
    }
    let mut reference = std::collections::BTreeMap::new();
    for _ in 0..total {
        let (wid, norm) = norm_frame_final(&sub.next_frame().unwrap());
        reference.insert(wid, norm); // later frames supersede earlier
    }
    assert!(!reference.is_empty());
    drop(sub);
    worker.stop();

    // Bulk: same schedule, no sweeps until the flush.
    let worker = spawn_worker();
    let mut sub = subscriber(worker.addr);
    let mut appender = Client::connect_as(worker.addr, "ingest").unwrap();
    for batch in &schedule {
        let ack = appender.append_bulk(batch.clone()).unwrap().append.unwrap();
        assert_eq!(ack.windows_emitted, 0, "bulk appends must not sweep");
    }
    let last = schedule.last().unwrap();
    let flush = appender
        .flush(&last.dataset, &last.source, last.source_clock_us)
        .unwrap()
        .append
        .unwrap();
    assert_eq!(flush.watermark_us, final_wm, "bulk watermark diverged");
    let mut bulk = std::collections::BTreeMap::new();
    for _ in 0..flush.windows_emitted {
        let frame = sub.next_frame().unwrap();
        let w = frame.window.as_ref().unwrap();
        assert!(!w.re_emission, "one sweep emits each window once");
        let (wid, norm) = norm_frame_final(&frame);
        bulk.insert(wid, norm);
    }
    assert_eq!(bulk, reference, "bulk backfill emission log diverged");
    drop(sub);
    worker.stop();
}

/// One source that reports a single early row and then goes silent must
/// not freeze window finality forever — `idle_source_timeout_secs`
/// parks its clock out of the watermark min once it lags the leader.
#[test]
fn idle_source_timeout_unpins_the_watermark() {
    fn run(idle_timeout_secs: f64) -> (i64, usize) {
        let ctx = ExecCtx::local();
        let catalog = stream_catalog(&ctx).unwrap();
        let config = StreamConfig {
            idle_source_timeout_secs: idle_timeout_secs,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(&ctx, catalog, config, EngineConfig::default());
        engine
            .subscribe(
                "q-idle",
                "tenant-a",
                &Query::new(
                    ["compute-node", "time"],
                    vec![
                        QueryValue::with_units("instructions", "instructions-per-ms"),
                        QueryValue::dim("temperature"),
                    ],
                ),
            )
            .unwrap();
        let schedule = disarray_schedule(Disarray::InOrder, SEED, STEPS);
        // The straggler: one row cloned from the first counter batch,
        // under its own source name, then silence.
        let first = schedule
            .iter()
            .find(|b| b.dataset == "papi_counters" && !b.rows.is_empty())
            .unwrap();
        let straggler = AppendBatch {
            dataset: first.dataset.clone(),
            source: "papi@straggler".into(),
            source_clock_us: first.source_clock_us,
            rows: vec![first.rows[0].clone()],
        };
        engine.append(&straggler).unwrap();
        let mut emissions = 0usize;
        for batch in &schedule {
            emissions += engine.append(batch).unwrap().emissions.len();
        }
        (engine.watermark_us(), emissions)
    }

    let (wm_pinned, emitted_pinned) = run(0.0);
    let (wm_free, emitted_free) = run(30.0);
    assert_eq!(
        emitted_pinned, 0,
        "a silent one-row source should pin finality when the timeout is off"
    );
    assert!(
        wm_free > wm_pinned,
        "timeout must let the watermark pass the idle source ({wm_free} vs {wm_pinned})"
    );
    assert!(emitted_free > 0, "watermark advanced but nothing ripened");
}

/// Framed sjwire with the columnar codec is the one transport: the
/// connection negotiates it, `stats` and `health` carry it, and the
/// request counters see only binary requests (a `stats` request is
/// counted before dispatch, so it counts itself). `routed_frames`
/// checks the router's binary counter.
#[test]
fn binary_wire_is_reported_and_counted() {
    let worker = spawn_worker();
    let mut client = Client::connect(worker.addr).unwrap();
    let wire = client.wire_info().clone();
    assert_eq!(wire.wire_version, sjwire::WIRE_VERSION);
    assert_eq!(wire.codec, sjwire::CODEC_COLUMNAR);
    assert_eq!(client.health().unwrap().wire.as_ref(), Some(&wire));
    let resp = client.stats().unwrap();
    assert_eq!(resp.wire.as_ref(), Some(&wire));
    let stats = resp.stats.unwrap();
    assert_eq!((stats.requests_binary, stats.requests_json), (2, 0));
    worker.stop();
}
