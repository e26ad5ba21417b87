//! Daemons must bound every resource one client can grow. A JSON-lines
//! request line is capped at `sjwire::MAX_FRAME_BYTES`, the same cap
//! binary frames have: a longer line gets one structured `bad_request`
//! and the connection is closed, while the daemon keeps serving others.
//! The plan cache holds at most `PLAN_CACHE_BYTES`, however many
//! distinct query shapes a client asks for.

use sjdf::ExecCtx;
use sjserve::cache::PLAN_CACHE_BYTES;
use sjserve::protocol::codes;
use sjserve::{serve, Client, QueryService, QuerySpec, Response, ServiceConfig, ValueSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn overlong_json_line_is_refused_and_the_daemon_stays_up() {
    let ctx = ExecCtx::local();
    let catalog = sjdata::stream_catalog(&ctx).unwrap();
    let server = serve(
        QueryService::new(ctx, catalog, ServiceConfig::default()),
        "127.0.0.1:0",
    )
    .unwrap();

    // One byte over the cap and no newline, sent in 1 MiB chunks; the
    // leading `{` selects the JSON-lines transport.
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut remaining = sjwire::MAX_FRAME_BYTES + 1;
    let mut chunk = vec![b' '; 1 << 20];
    chunk[0] = b'{';
    while remaining > 0 {
        let n = remaining.min(chunk.len());
        stream.write_all(&chunk[..n]).unwrap();
        chunk[0] = b' ';
        remaining -= n;
    }

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response: Response = serde_json::from_str(&line).unwrap();
    assert_eq!(response.status, "error");
    let error = response.error.expect("structured error");
    assert_eq!(error.code, codes::BAD_REQUEST);
    assert!(error.message.contains("exceeds"), "{}", error.message);
    // The daemon closed this connection after answering.
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);

    // A fresh connection is served as usual.
    let mut client = Client::connect_json_as(server.addr, "tenant-a").unwrap();
    assert_eq!(client.health().unwrap().status, "ok");
    server.stop();
}

#[test]
fn distinct_windows_cannot_grow_the_plan_cache_past_its_budget() {
    let ctx = ExecCtx::local();
    let catalog = sjdata::stream_catalog(&ctx).unwrap();
    let server = serve(
        QueryService::new(ctx, catalog, ServiceConfig::default()),
        "127.0.0.1:0",
    )
    .unwrap();

    // Every `window_secs` is a new plan-cache key.
    let mut client = Client::connect_as(server.addr, "tenant-a").unwrap();
    let mut explain = |window: usize| {
        let spec = QuerySpec {
            domains: vec!["compute-node".into(), "time".into()],
            values: vec![
                ValueSpec::with_units("instructions", "instructions-per-ms"),
                ValueSpec::dim("temperature"),
            ],
            window_secs: Some(window as f64),
            step_secs: None,
            limit: None,
        };
        let response = client.explain(spec).unwrap();
        response
            .plan
            .expect("explain answers a plan")
            .plan_json
            .len()
    };
    // Enough distinct windows to overflow the budget (later windows
    // print longer, so their plans are never smaller than the first).
    let plan_bytes = explain(1);
    for window in 2..=PLAN_CACHE_BYTES / plan_bytes + 100 {
        explain(window);
    }

    let stats = client.stats().unwrap().stats.expect("stats report");
    assert!(
        stats.plan_cache_bytes <= PLAN_CACHE_BYTES as u64,
        "plan cache over budget: {} bytes",
        stats.plan_cache_bytes
    );
    assert!(stats.plan_cache_evictions > 0, "{stats:?}");

    // A fresh connection is served as usual.
    let mut other = Client::connect_as(server.addr, "tenant-b").unwrap();
    assert_eq!(other.health().unwrap().status, "ok");
    server.stop();
}
