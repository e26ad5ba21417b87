//! The TCP front end: framed sjwire with the columnar codec, the one
//! transport both daemons speak.
//!
//! [`serve`] puts a daemon's [`Front`] on a socket: a worker's
//! [`QueryService`] or a router. One accept thread, one handler thread
//! per connection, std networking only; every decoded request goes to
//! [`Front::handle_streaming`] with the connection's [`EmissionSink`].
//! A connection opens with a [`sjwire::Hello`] / [`sjwire::HelloAck`]
//! exchange pinning the wire version and the `columnar` payload codec;
//! every subsequent message is one
//! CRC-checked frame whose payload is a JSON envelope plus columnar row
//! sections (see [`crate::wire`]). A peer whose first byte is not
//! [`sjwire::MAGIC`] gets one plain-text line naming the protocol, and
//! a Hello offering any other codec gets one `bad_request` frame naming
//! it; either connection is then closed.
//!
//! Malformed *payloads* get a structured `bad_request` error instead of
//! a dropped connection, so a client with one bad message does not lose
//! its pipeline. Broken *framing* (bad magic, corrupt CRC, oversized
//! length) gets a structured error and then the connection is closed —
//! once framing is suspect there is no safe resync point.
//!
//! A `shutdown` request from a loopback peer acknowledges, then stops
//! the accept loop, the daemon's pool, and dumps the final metrics
//! snapshot to stderr — the service equivalent of a batch tool printing
//! its summary on exit. From any other peer it is refused with
//! `bad_request` and the daemon keeps serving.

use std::io::{BufReader, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::front::{Backend, Front};
use crate::protocol::{codes, ErrorBody, Response, Verb, WireInfo};
use crate::service::{QueryService, WorkerBackend};
use crate::wire::{decode_request, encode_response};
use sjwire::{negotiate, read_frame, write_frame, Hello, MsgType, WireError};

/// Where unsolicited frames (standing-query window emissions) for one
/// connection are pushed. The TCP front end hands every connection's
/// sink to [`Front::handle_streaming`]; a backend that registers
/// subscriptions holds on to the sink and pushes frames to it whenever
/// appends ripen a window. A `send` error means the client is
/// gone — the service should drop every subscription bound to the sink.
pub trait EmissionSink: Send + Sync {
    /// Push one frame to the client, blocking until written.
    fn send(&self, frame: &Response) -> std::io::Result<()>;
}

/// [`EmissionSink`] over a connection: responses and pushed
/// [`MsgType::WindowFrame`] frames are written under one mutex, so
/// frames never interleave mid-frame.
struct BinarySink {
    writer: Mutex<TcpStream>,
}

impl BinarySink {
    fn write(&self, msg_type: MsgType, response: &mut Response) -> std::io::Result<()> {
        let payload = encode_response(response);
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        write_frame(&mut *writer, msg_type, &payload)
    }
}

impl EmissionSink for BinarySink {
    fn send(&self, frame: &Response) -> std::io::Result<()> {
        // Window frames are small (one window's rows); the clone that
        // lets `encode_response` detach them is cheap here.
        self.write(MsgType::WindowFrame, &mut frame.clone())
    }
}

/// Handle to a running server; dropping it does NOT stop the server —
/// call [`ServerHandle::stop`] (or send a `shutdown` request).
pub struct ServerHandle<B: Backend = WorkerBackend> {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    service: Front<B>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl<B: Backend> ServerHandle<B> {
    /// Block until the accept loop exits (i.e. until a `shutdown`
    /// request arrives or [`ServerHandle::stop`] is called elsewhere),
    /// then stop the daemon and return its final report.
    pub fn wait(mut self) -> B::Report {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.service.shutdown()
    }

    /// Stop accepting, stop the daemon, and return its final report.
    pub fn stop(mut self) -> B::Report {
        self.shutdown.store(true, Ordering::Release);
        // Nudge the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.service.shutdown()
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve a daemon's front on it:
/// a [`QueryService`], or anything that converts into a front, such as a
/// router.
pub fn serve<B: Backend>(
    service: impl Into<Front<B>>,
    addr: &str,
) -> std::io::Result<ServerHandle<B>> {
    let service = service.into();
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept_thread = {
        let service = service.clone();
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("sjserve-accept".into())
            .spawn(move || accept_loop(listener, addr, service, shutdown))?
    };
    Ok(ServerHandle {
        addr,
        service,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop<B: Backend>(
    listener: TcpListener,
    addr: SocketAddr,
    service: Front<B>,
    shutdown: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let service = service.clone();
        let shutdown = Arc::clone(&shutdown);
        let _ = std::thread::Builder::new()
            .name("sjserve-conn".into())
            .spawn(move || handle_connection(stream, addr, service, shutdown));
    }
}

/// How long a write to a client may block before the connection is
/// declared stalled. A consumer that stops reading fills its TCP
/// receive buffer and then our send buffer; without a bound, the next
/// pushed frame would block its deliverer forever. Hitting the timeout
/// errors the write, which tears down the connection and every
/// subscription bound to it. Generous on purpose: it only fires when
/// the peer has read *nothing* for the whole interval.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Socket options for an accepted connection: the write-stall timeout
/// (see [`WRITE_STALL_TIMEOUT`]) and `TCP_NODELAY`. Without
/// `TCP_NODELAY`, Nagle's algorithm holds a small write while an
/// earlier one is unacknowledged. A subscriber only reads, so its
/// kernel delays those ACKs (at least 40 ms on Linux), and a pushed
/// window frame would wait that long. Every write here is one whole
/// frame, so nothing wants Nagle's coalescing.
fn configure_accepted(stream: &TcpStream) {
    let _ = stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT));
    let _ = stream.set_nodelay(true);
}

/// The one line a peer that does not open with [`sjwire::MAGIC`] gets
/// before the connection closes.
const NOT_SJWIRE: &str = "error: this port speaks sjwire binary frames only (first byte 0x53); \
                          connect with sjq or sjserve::Client\n";

/// How much of a refused peer's input is drained, and for how long,
/// before its socket is dropped (see [`close_after_refusal`]).
const REFUSAL_DRAIN_BYTES: usize = 64 << 10;
const REFUSAL_DRAIN_TIME: Duration = Duration::from_secs(1);

/// Close a connection after its last answer has been written. Dropping
/// a socket with unread input makes the kernel send a reset, which can
/// destroy that answer before the peer reads it; so half-close the
/// write side, then drain what the peer sends, within bounds, until it
/// closes too.
fn close_after_refusal(mut stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + REFUSAL_DRAIN_TIME;
    let (mut buf, mut drained) = ([0u8; 4096], 0);
    while drained < REFUSAL_DRAIN_BYTES {
        // A zero timeout is an error, so an expired deadline ends the
        // drain too.
        let left = deadline.saturating_duration_since(Instant::now());
        match stream
            .set_read_timeout(Some(left))
            .and_then(|()| stream.read(&mut buf))
        {
            Ok(n) if n > 0 => drained += n,
            _ => break,
        }
    }
}

/// Whether `peer` may stop the daemon over the wire: loopback peers
/// only. An IPv4 peer of a dual-stack listener appears as
/// `::ffff:a.b.c.d`, which is not an IPv6 loopback address, so the
/// address is canonicalized first.
fn may_shutdown(peer: Option<IpAddr>) -> bool {
    peer.is_some_and(|ip| ip.to_canonical().is_loopback())
}

fn handle_connection<B: Backend>(
    mut stream: TcpStream,
    addr: SocketAddr,
    service: Front<B>,
    shutdown: Arc<AtomicBool>,
) {
    configure_accepted(&stream);
    // Check byte one without consuming it, so a JSON or text client
    // gets a readable refusal instead of a frame it cannot parse.
    let mut first = [0u8; 1];
    match stream.peek(&mut first) {
        Ok(0) | Err(_) => return, // closed before the first byte
        Ok(_) if first[0] != sjwire::MAGIC => {
            let _ = stream.write_all(NOT_SJWIRE.as_bytes());
            return close_after_refusal(&stream);
        }
        Ok(_) => {}
    }
    let peer = stream.peer_addr().ok().map(|a| a.ip());
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };

    // The connection opens with Hello/HelloAck pinning version + codec.
    let negotiated = match read_frame(&mut reader) {
        Ok(f) if f.msg_type == MsgType::Hello => {
            // A malformed Hello negotiates conservatively (defaults).
            let hello: Hello = serde_json::from_slice(&f.payload).unwrap_or_default();
            negotiate(&hello)
        }
        _ => return, // framing already broken; nothing sane to answer
    };
    let ack = match negotiated {
        Ok(ack) => ack,
        Err(message) => {
            let mut refusal = Response::fail("", ErrorBody::new(codes::BAD_REQUEST, message));
            let payload = encode_response(&mut refusal);
            let _ = write_frame(&mut stream, MsgType::Response, &payload);
            return close_after_refusal(&stream);
        }
    };
    let payload = serde_json::to_vec(&ack).expect("ack serializes");
    if write_frame(&mut stream, MsgType::HelloAck, &payload).is_err() {
        return;
    }
    let wire_info = WireInfo {
        wire_version: ack.wire_version,
        codec: ack.codec,
    };
    let frames = Arc::new(BinarySink {
        writer: Mutex::new(stream),
    });
    let sink: Arc<dyn EmissionSink> = frames.clone();
    loop {
        let (mut response, framing_broken) = match read_frame(&mut reader) {
            Ok(f) if f.msg_type == MsgType::Request => match decode_request(&f.payload) {
                Ok(request) if request.verb == Verb::Shutdown && !may_shutdown(peer) => {
                    service.note_protocol_request();
                    let refusal = ErrorBody::new(
                        codes::BAD_REQUEST,
                        "shutdown is accepted from loopback peers only",
                    );
                    (Response::fail(&request.id, refusal), false)
                }
                Ok(request) => {
                    service.note_protocol_request();
                    let verb = request.verb;
                    let mut response = service.handle_streaming(request, &sink);
                    // So `sjq --stats`/`--health` show the negotiated wire.
                    if matches!(verb, Verb::Stats | Verb::Health) {
                        response.wire = Some(wire_info.clone());
                    }
                    if verb == Verb::Shutdown {
                        let _ = frames.write(MsgType::Response, &mut response);
                        service.backend().connection_closed(&sink);
                        shutdown.store(true, Ordering::Release);
                        // Nudge accept() so the loop observes the flag.
                        let _ = TcpStream::connect(addr);
                        return;
                    }
                    (response, false)
                }
                // Well-framed but undecodable payload: answer and keep
                // the connection (framing is still in sync).
                Err(e) => (
                    Response::fail(
                        "",
                        ErrorBody::new(codes::BAD_REQUEST, format!("unparsable request: {e}")),
                    ),
                    false,
                ),
            },
            Ok(f) => (
                Response::fail(
                    "",
                    ErrorBody::new(
                        codes::BAD_REQUEST,
                        format!("unexpected {:?} frame from a client", f.msg_type),
                    ),
                ),
                false,
            ),
            // Client went away (EOF lands here as Truncated) or the
            // stream itself failed: nothing useful to answer.
            Err(WireError::Truncated) | Err(WireError::Io(_)) => break,
            // Framing is corrupt; answer once, then drop the
            // connection — there is no safe resync point.
            Err(e) => (
                Response::fail("", ErrorBody::new(codes::BAD_REQUEST, format!("{e}"))),
                true,
            ),
        };
        if frames.write(MsgType::Response, &mut response).is_err() {
            break;
        }
        if framing_broken {
            close_after_refusal(reader.get_ref());
            break;
        }
    }
    service.backend().connection_closed(&sink);
}

/// Convenience for binaries: serve until shutdown, then dump metrics to
/// stderr and return them.
pub fn serve_until_shutdown(
    service: QueryService,
    addr: &str,
) -> std::io::Result<crate::metrics::StatsReport> {
    let handle = serve(service, addr)?;
    eprintln!("sjserved listening on {}", handle.addr);
    let report = handle.wait();
    eprintln!("--- final service metrics ---\n{}", report.render());
    Ok(report)
}

/// Poll until a freshly spawned server accepts connections (test helper).
pub fn wait_ready(addr: SocketAddr, budget: Duration) -> bool {
    let deadline = std::time::Instant::now() + budget;
    while std::time::Instant::now() < deadline {
        if TcpStream::connect_timeout(&addr, Duration::from_millis(100)).is_ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_is_accepted_from_loopback_peers_only() {
        for ip in ["127.0.0.1", "::1", "::ffff:127.0.0.1"] {
            assert!(may_shutdown(Some(ip.parse().unwrap())), "{ip}");
        }
        for ip in ["10.0.0.5", "::ffff:10.0.0.5"] {
            assert!(!may_shutdown(Some(ip.parse().unwrap())), "{ip}");
        }
        assert!(!may_shutdown(None), "a peer whose address is unknown");
    }

    #[test]
    fn accepted_sockets_send_at_once_and_bound_write_stalls() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "Nagle is on by default");
        configure_accepted(&accepted);
        assert!(accepted.nodelay().unwrap());
        assert_eq!(accepted.write_timeout().unwrap(), Some(WRITE_STALL_TIMEOUT));
    }
}
