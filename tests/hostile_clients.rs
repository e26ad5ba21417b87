//! Daemons must bound every resource one client can grow. A peer that
//! breaks the protocol (no sjwire magic, an unknown codec, an oversized
//! or corrupt frame) is answered once and disconnected while the daemon
//! keeps serving others. The plan cache holds at most
//! `PLAN_CACHE_BYTES`, however many distinct query shapes a client asks
//! for.

use sjdf::ExecCtx;
use sjserve::cache::PLAN_CACHE_BYTES;
use sjserve::protocol::{codes, ErrorBody, Request, Verb};
use sjserve::wire::{decode_response, encode_request};
use sjserve::{serve, Client, QueryService, QuerySpec, ServerHandle, ServiceConfig, ValueSpec};
use sjwire::{read_frame, write_frame, MsgType, MAGIC, MAX_FRAME_BYTES, WIRE_VERSION};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn spawn_service() -> ServerHandle {
    let ctx = ExecCtx::local();
    let catalog = sjdata::stream_catalog(&ctx).unwrap();
    serve(
        QueryService::new(ctx, catalog, ServiceConfig::default()),
        "127.0.0.1:0",
    )
    .unwrap()
}

/// A raw connection whose reads give up after 10 s, so a daemon that
/// keeps the connection open fails the test instead of hanging it.
fn raw_connection(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn send_hello(stream: &mut TcpStream, codec: &str) {
    let hello = format!(r#"{{"wire_version":{WIRE_VERSION},"codec":"{codec}"}}"#);
    write_frame(stream, MsgType::Hello, hello.as_bytes()).unwrap();
}

/// Open a raw connection and complete a valid Hello exchange.
fn negotiated_connection(addr: SocketAddr) -> TcpStream {
    let mut stream = raw_connection(addr);
    send_hello(&mut stream, sjwire::CODEC_COLUMNAR);
    assert_eq!(read_frame(&mut stream).unwrap().msg_type, MsgType::HelloAck);
    stream
}

/// Read one `bad_request` response frame, then require EOF.
fn one_bad_request_then_eof(mut stream: TcpStream) -> ErrorBody {
    let frame = read_frame(&mut stream).unwrap();
    assert_eq!(frame.msg_type, MsgType::Response, "{frame:?}");
    let response = decode_response(&frame.payload).unwrap();
    let error = response.error.expect("structured error");
    assert_eq!(error.code, codes::BAD_REQUEST);
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "{rest:?}");
    error
}

#[test]
fn non_sjwire_peer_gets_one_line_then_eof() {
    let server = spawn_service();

    let mut stream = raw_connection(server.addr);
    stream
        .write_all(b"{\"id\":\"1\",\"verb\":\"health\"}\n")
        .unwrap();
    // Exactly one line, naming the protocol, then EOF.
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert_eq!(reply.find('\n'), Some(reply.len() - 1), "{reply:?}");
    assert!(reply.contains("sjwire"), "{reply:?}");

    Client::connect(server.addr).unwrap().health().unwrap();
    server.stop();
}

#[test]
fn hello_offering_an_unknown_codec_is_refused() {
    let server = spawn_service();

    let mut stream = raw_connection(server.addr);
    send_hello(&mut stream, "protobuf");
    let error = one_bad_request_then_eof(stream);
    assert!(error.message.contains("protobuf"), "{}", error.message);

    Client::connect(server.addr).unwrap().health().unwrap();
    server.stop();
}

#[test]
fn broken_frames_get_one_error_then_eof() {
    let server = spawn_service();

    // A header declaring one byte more than the cap.
    let mut stream = negotiated_connection(server.addr);
    let mut header = vec![MAGIC, MsgType::Request as u8, 0, 0];
    header.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
    stream.write_all(&header).unwrap();
    let error = one_bad_request_then_eof(stream);
    assert!(error.message.contains("exceeds"), "{}", error.message);

    // A health request whose last CRC byte is flipped.
    let mut stream = negotiated_connection(server.addr);
    let request = Request::bare("1", Verb::Health).with_proto();
    let mut frame = Vec::new();
    write_frame(&mut frame, MsgType::Request, &encode_request(&request)).unwrap();
    *frame.last_mut().unwrap() ^= 0xFF;
    stream.write_all(&frame).unwrap();
    let error = one_bad_request_then_eof(stream);
    assert!(error.message.contains("CRC"), "{}", error.message);

    Client::connect(server.addr).unwrap().health().unwrap();
    server.stop();
}

#[test]
fn distinct_windows_cannot_grow_the_plan_cache_past_its_budget() {
    let server = spawn_service();

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
