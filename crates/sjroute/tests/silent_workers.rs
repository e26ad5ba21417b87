//! A silent worker, one that accepts TCP connections and never answers,
//! holds no router hop past its bound: boot, the heartbeat and routed
//! queries each give up on it in bounded time, mark it down, and leave
//! the router's pool free for queries other workers answer. Each test
//! runs the call under test with a watchdog, so a hop that blocks fails
//! the test instead of hanging it.

mod common;

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use common::*;
use sjroute::Router;
use sjserve::protocol::{QuerySpec, Request};

/// Run `f` on its own thread and return its value, or fail the test if
/// it has not returned within `limit`.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => value,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what} did not return within {limit:?}"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

/// How long boot and each heartbeat pass may take with a silent worker
/// in the fleet.
fn probe_bound() -> Duration {
    2 * router_config().probe_timeout + Duration::from_secs(1)
}

/// A TCP proxy in front of one worker. It relays every connection until
/// it is silenced; from then on it accepts each connection and holds it
/// open, unread and unanswered.
struct SilencingProxy {
    addr: SocketAddr,
    silent: Arc<AtomicBool>,
    /// Connections accepted since the proxy was silenced.
    held: Arc<AtomicUsize>,
}

impl SilencingProxy {
    fn start(upstream: SocketAddr) -> SilencingProxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let silent = Arc::new(AtomicBool::new(false));
        let held = Arc::new(AtomicUsize::new(0));
        let (flag, count) = (Arc::clone(&silent), Arc::clone(&held));
        std::thread::spawn(move || {
            let mut open = Vec::new();
            for conn in listener.incoming() {
                let Ok(conn) = conn else { return };
                if flag.load(Ordering::SeqCst) {
                    open.push(conn);
                    count.fetch_add(1, Ordering::SeqCst);
                } else if let Ok(server) = TcpStream::connect(upstream) {
                    relay(conn, server);
                }
            }
        });
        SilencingProxy { addr, silent, held }
    }

    fn silence(&self) {
        self.silent.store(true, Ordering::SeqCst);
    }

    /// Block until `n` connections have been held since the proxy was
    /// silenced.
    fn wait_held(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.held.load(Ordering::SeqCst) < n {
            assert!(
                Instant::now() < deadline,
                "{n} hops never reached the proxy"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Copy bytes both ways between two sockets, each direction on its own
/// thread, passing on each side's end of stream.
fn relay(client: TcpStream, server: TcpStream) {
    let pairs = [
        (client.try_clone().unwrap(), server.try_clone().unwrap()),
        (server, client),
    ];
    for (mut from, mut to) in pairs {
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut from, &mut to);
            let _ = to.shutdown(Shutdown::Write);
        });
    }
}

/// Booting over one live worker and one silent address takes at most
/// twice the probe timeout plus a second, and the silent worker starts
/// marked down.
#[test]
fn boot_gives_up_on_a_silent_worker() {
    let ctx = ctx();
    let live = spawn(worker(&ctx, &["node_power"], "shard-0"));
    // Listening and never accepting: the kernel completes each TCP
    // handshake, and nothing ever answers.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let addrs = vec![
        live.addr.to_string(),
        silent.local_addr().unwrap().to_string(),
    ];
    let router = within(probe_bound(), "Router::new", move || {
        Router::new(addrs, router_config()).expect("boots on the live worker")
    });
    let workers = &router.topology().workers;
    assert!(workers[0].healthy());
    assert!(!workers[1].healthy(), "the silent worker started marked up");
    router.shutdown();
    live.stop();
}

/// A worker that goes silent after boot: each heartbeat pass returns
/// within the boot bound, and `markdown_after` passes mark it down.
#[test]
fn the_heartbeat_marks_a_silent_worker_down() {
    let ctx = ctx();
    let a = spawn(worker(&ctx, &["node_power"], "shard-0"));
    let b = spawn(worker(&ctx, &["node_temp"], "shard-1"));
    let proxy = SilencingProxy::start(b.addr);
    let router = router_over_addrs(&a, &proxy);
    assert!(router.topology().workers[1].healthy());

    proxy.silence();
    for pass in 0..router_config().markdown_after {
        let router = router.clone();
        within(
            probe_bound(),
            &format!("heartbeat pass {pass}"),
            move || router.probe_now(),
        );
    }
    assert!(!router.topology().workers[1].healthy(), "still marked up");
    assert!(router.topology().workers[0].healthy());

    let stats = router.shutdown();
    assert_eq!(stats.worker_markdowns, 1, "{stats:?}");
    a.stop();
    b.stop();
}

/// Queries for a silent worker's data give up at their deadline plus the
/// hop slack, so they cannot keep the router's pool: with one of them on
/// every pool thread, a query a healthy worker answers still answers
/// `ok`.
#[test]
fn queries_to_a_silent_worker_leave_the_pool_free() {
    let ctx = ctx();
    let a = spawn(worker(&ctx, &["node_power"], "shard-0"));
    let b = spawn(worker(&ctx, &["node_temp"], "shard-1"));
    let proxy = SilencingProxy::start(b.addr);
    let router = router_over_addrs(&a, &proxy);

    proxy.silence();
    let threads = router_config().scheduler.workers;
    let stuck: Vec<_> = (0..threads)
        .map(|i| {
            let router = router.clone();
            std::thread::spawn(move || {
                let spec = QuerySpec::new(["compute-node"], ["temperature"]);
                let mut request = Request::query(&format!("t{i}"), "t", spec);
                request.timeout_ms = Some(500);
                router.handle(request)
            })
        })
        .collect();
    // Every pool thread is now dialing the silent worker.
    proxy.wait_held(threads);
    let healthy = {
        let router = router.clone();
        within(
            Duration::from_secs(5),
            "a healthy worker's query",
            move || router.handle(Request::query("p", "t", power_spec())),
        )
    };
    assert!(healthy.is_ok(), "{:?}", healthy.error);
    assert_eq!(healthy.result.unwrap().row_count, NODES.len());
    for handle in stuck {
        let resp = handle.join().unwrap();
        assert!(!resp.is_ok(), "a silent worker answered: {resp:?}");
    }

    router.shutdown();
    a.stop();
    b.stop();
}

/// A router over a live worker and a proxied one.
fn router_over_addrs(live: &sjserve::server::ServerHandle, proxy: &SilencingProxy) -> Router {
    let addrs = vec![live.addr.to_string(), proxy.addr.to_string()];
    Router::new(addrs, router_config()).expect("router boots")
}
