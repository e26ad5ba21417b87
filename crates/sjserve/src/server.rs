//! The TCP front end: framed binary by default, JSON-lines forever.
//!
//! One accept thread, one handler thread per connection, std networking
//! only. The first byte of a connection picks the transport: `{` (a
//! JSON object opening — also what `nc` and every pre-binary client
//! sends) selects the JSON-lines loop, [`sjwire::MAGIC`] selects the
//! framed binary loop. Binary connections open with a
//! [`sjwire::Hello`] / [`sjwire::HelloAck`] exchange pinning the wire
//! version and payload codec; every subsequent message is one
//! CRC-checked frame whose payload is a JSON envelope plus columnar row
//! sections (see [`crate::wire`]).
//!
//! On either transport, malformed *payloads* get a structured
//! `bad_request` error instead of a dropped connection, so a client
//! with one bad message does not lose its pipeline. Broken *framing*
//! (bad magic, corrupt CRC, oversized length, a JSON line longer than
//! [`sjwire::MAX_FRAME_BYTES`]) gets a structured error and then the
//! connection is closed — once framing is suspect there is no safe
//! resync point.
//!
//! A `shutdown` request acknowledges, then stops the accept loop, the
//! worker pool, and dumps the final metrics snapshot to stderr — the
//! service equivalent of a batch tool printing its summary on exit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::protocol::{codes, ErrorBody, Request, Response, Verb, WireInfo, PROTO_VERSION};
use crate::service::QueryService;
use crate::wire::{decode_request, encode_response};
use sjwire::{negotiate, read_frame, write_frame, Hello, MsgType, WireError, MAX_FRAME_BYTES};

/// Where unsolicited frames (standing-query window emissions) for one
/// connection are pushed. The TCP front end hands every connection's
/// sink to [`RequestHandler::handle_streaming`]; a service that
/// registers subscriptions holds on to the sink and pushes frames to it
/// whenever appends ripen a window. A `send` error means the client is
/// gone — the service should drop every subscription bound to the sink.
pub trait EmissionSink: Send + Sync {
    /// Push one frame to the client, blocking until written.
    fn send(&self, frame: &Response) -> std::io::Result<()>;
}

/// [`EmissionSink`] over a shared TCP writer: request responses and
/// pushed frames interleave whole-line-atomically because every write
/// happens under the same mutex.
struct TcpSink {
    writer: Arc<Mutex<TcpStream>>,
}

impl EmissionSink for TcpSink {
    fn send(&self, frame: &Response) -> std::io::Result<()> {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        write_line(&mut writer, frame)
    }
}

/// [`EmissionSink`] over the binary transport: pushed frames go out as
/// [`MsgType::WindowFrame`] frames under the same writer mutex the
/// request/response loop uses, so frames never interleave mid-frame.
struct BinarySink {
    writer: Arc<Mutex<TcpStream>>,
    /// Negotiated payload codec: columnar sections, or rows inline in
    /// the envelope (the fallback for clients offering unknown codecs).
    columnar: bool,
}

impl EmissionSink for BinarySink {
    fn send(&self, frame: &Response) -> std::io::Result<()> {
        let payload = if self.columnar {
            // Window frames are small (one window's rows); the clone
            // that lets `encode_response` detach them is cheap here.
            encode_response(&mut frame.clone())
        } else {
            crate::wire::encode_response_plain(frame)
        };
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        write_frame(&mut *writer, MsgType::WindowFrame, &payload)
    }
}

/// Anything the TCP front end can serve: the query service itself, or a
/// router fronting a fleet of them. Handles are cheap clones sharing one
/// backend; `shutdown` stops the backend and returns its final summary
/// (a [`StatsReport`](crate::metrics::StatsReport) for workers, a
/// [`RouterStatsReport`](crate::metrics::RouterStatsReport) for routers).
pub trait RequestHandler: Clone + Send + 'static {
    /// Final metrics summary produced when the backend stops.
    type Summary;

    /// Answer one request, blocking until the response is ready.
    fn handle(&self, request: Request) -> Response;

    /// Answer one request on a streaming-capable transport: `sink` can
    /// deliver unsolicited frames for the rest of the connection's
    /// life. The default ignores the sink, which makes `subscribe:
    /// true` fail with [`codes::STREAM_UNSUPPORTED`] in handlers that
    /// don't override this (e.g. a router).
    fn handle_streaming(&self, request: Request, sink: &Arc<dyn EmissionSink>) -> Response {
        let _ = sink;
        self.handle(request)
    }

    /// The connection owning `sink` ended; drop any state bound to it
    /// (subscriptions). Default: nothing to drop.
    fn connection_closed(&self, sink: &Arc<dyn EmissionSink>) {
        let _ = sink;
    }

    /// One request arrived on a connection of the given transport
    /// (`binary` = framed, else JSON-lines). Called by the front end
    /// before dispatch so per-protocol counters reach the stats report.
    /// Default: not counted.
    fn protocol_request(&self, binary: bool) {
        let _ = binary;
    }

    /// Stop the backend's own workers and return the final summary.
    fn shutdown(&self) -> Self::Summary;
}

impl RequestHandler for QueryService {
    type Summary = crate::metrics::StatsReport;

    fn handle(&self, request: Request) -> Response {
        QueryService::handle(self, request)
    }

    fn handle_streaming(&self, request: Request, sink: &Arc<dyn EmissionSink>) -> Response {
        QueryService::handle_streaming(self, request, sink)
    }

    fn connection_closed(&self, sink: &Arc<dyn EmissionSink>) {
        QueryService::connection_closed(self, sink)
    }

    fn protocol_request(&self, binary: bool) {
        QueryService::note_protocol_request(self, binary)
    }

    fn shutdown(&self) -> Self::Summary {
        QueryService::shutdown(self)
    }
}

/// Handle to a running server; dropping it does NOT stop the server —
/// call [`ServerHandle::stop`] (or send a `shutdown` request).
pub struct ServerHandle<H: RequestHandler = QueryService> {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    service: H,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl<H: RequestHandler> ServerHandle<H> {
    /// Block until the accept loop exits (i.e. until a `shutdown`
    /// request arrives or [`ServerHandle::stop`] is called elsewhere).
    pub fn wait(mut self) -> H::Summary {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.service.shutdown()
    }

    /// Stop accepting, stop the workers, and return the final metrics.
    pub fn stop(mut self) -> H::Summary {
        self.shutdown.store(true, Ordering::Release);
        // Nudge the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.service.shutdown()
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `service` on it.
pub fn serve<H: RequestHandler>(service: H, addr: &str) -> std::io::Result<ServerHandle<H>> {
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

fn accept_loop<H: RequestHandler>(
    listener: TcpListener,
    addr: SocketAddr,
    service: H,
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

/// Stamp the negotiated transport onto responses that report on the
/// service itself, so `sjq --stats`/`--health` show what the wire is
/// actually speaking.
fn stamp_wire(verb: Verb, response: &mut Response, info: &WireInfo) {
    if matches!(verb, Verb::Stats | Verb::Health) {
        response.wire = Some(info.clone());
    }
}

fn handle_connection<H: RequestHandler>(
    stream: TcpStream,
    addr: SocketAddr,
    service: H,
    shutdown: Arc<AtomicBool>,
) {
    let _ = stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT));
    // Sniff the transport on byte one without consuming it: `{` (or
    // anything else — favors a readable JSON parse error) is the
    // JSON-lines protocol; only the frame magic selects binary.
    let mut first = [0u8; 1];
    let binary = match stream.peek(&mut first) {
        Ok(0) | Err(_) => return, // closed before the first byte
        Ok(_) => first[0] == sjwire::MAGIC,
    };
    if binary {
        handle_binary_connection(stream, addr, service, shutdown)
    } else {
        handle_json_connection(stream, addr, service, shutdown)
    }
}

fn handle_json_connection<H: RequestHandler>(
    stream: TcpStream,
    addr: SocketAddr,
    service: H,
    shutdown: Arc<AtomicBool>,
) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    // The writer is shared between this request/response loop and any
    // standing-query sinks the service registers for this connection, so
    // pushed window frames interleave with responses line-atomically.
    let writer = Arc::new(Mutex::new(stream));
    let sink: Arc<dyn EmissionSink> = Arc::new(TcpSink {
        writer: Arc::clone(&writer),
    });
    let wire_info = WireInfo {
        wire_version: PROTO_VERSION,
        codec: sjwire::CODEC_JSON_LINES.into(),
    };
    loop {
        let mut line = Vec::new();
        // Read at most one byte past the cap, so a line that never ends
        // cannot grow this buffer without bound.
        match reader
            .by_ref()
            .take(MAX_FRAME_BYTES as u64 + 1)
            .read_until(b'\n', &mut line)
        {
            Ok(0) | Err(_) => break, // client went away
            Ok(_) => {}
        }
        if line.len() > MAX_FRAME_BYTES && line.last() != Some(&b'\n') {
            let _ = sink.send(&Response::fail(
                "",
                ErrorBody::new(
                    codes::BAD_REQUEST,
                    format!("request line exceeds {MAX_FRAME_BYTES} bytes"),
                ),
            ));
            break;
        }
        if line.trim_ascii().is_empty() {
            continue;
        }
        let response = match serde_json::from_slice::<Request>(&line) {
            Ok(request) => {
                service.protocol_request(false);
                let verb = request.verb;
                let wants_shutdown = verb == Verb::Shutdown;
                let mut response = service.handle_streaming(request, &sink);
                stamp_wire(verb, &mut response, &wire_info);
                if wants_shutdown {
                    if sink.send(&response).is_err() {
                        // Ack failed; shut down regardless.
                    }
                    service.connection_closed(&sink);
                    shutdown.store(true, Ordering::Release);
                    // Nudge accept() so the loop observes the flag.
                    let _ = TcpStream::connect(addr);
                    return;
                }
                response
            }
            Err(e) => Response::fail(
                "",
                ErrorBody::new(codes::BAD_REQUEST, format!("unparsable request: {e}")),
            ),
        };
        if sink.send(&response).is_err() {
            break;
        }
    }
    service.connection_closed(&sink);
}

fn handle_binary_connection<H: RequestHandler>(
    stream: TcpStream,
    addr: SocketAddr,
    service: H,
    shutdown: Arc<AtomicBool>,
) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let writer = Arc::new(Mutex::new(stream));

    // The connection opens with Hello/HelloAck pinning version + codec.
    let ack = match read_frame(&mut reader) {
        Ok(f) if f.msg_type == MsgType::Hello => {
            // A malformed Hello negotiates conservatively (defaults).
            let hello: Hello = serde_json::from_slice(&f.payload).unwrap_or_default();
            negotiate(&hello)
        }
        _ => return, // framing already broken; nothing sane to answer
    };
    {
        let payload = serde_json::to_vec(&ack).expect("ack serializes");
        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
        if write_frame(&mut *w, MsgType::HelloAck, &payload).is_err() {
            return;
        }
    }
    let columnar = ack.codec == sjwire::CODEC_COLUMNAR;
    let wire_info = WireInfo {
        wire_version: ack.wire_version,
        codec: ack.codec.clone(),
    };
    let sink: Arc<dyn EmissionSink> = Arc::new(BinarySink {
        writer: Arc::clone(&writer),
        columnar,
    });
    let respond = |response: &mut Response, msg_type: MsgType| -> std::io::Result<()> {
        let payload = if columnar {
            encode_response(response)
        } else {
            crate::wire::encode_response_plain(response)
        };
        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
        write_frame(&mut *w, msg_type, &payload)
    };
    loop {
        let (mut response, framing_broken) = match read_frame(&mut reader) {
            Ok(f) if f.msg_type == MsgType::Request => match decode_request(&f.payload) {
                Ok(request) => {
                    service.protocol_request(true);
                    let verb = request.verb;
                    let wants_shutdown = verb == Verb::Shutdown;
                    let mut response = service.handle_streaming(request, &sink);
                    stamp_wire(verb, &mut response, &wire_info);
                    if wants_shutdown {
                        let _ = respond(&mut response, MsgType::Response);
                        service.connection_closed(&sink);
                        shutdown.store(true, Ordering::Release);
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
        if respond(&mut response, MsgType::Response).is_err() || framing_broken {
            break;
        }
    }
    service.connection_closed(&sink);
}

fn write_line(writer: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut text = serde_json::to_string(response)
        .unwrap_or_else(|e| format!("{{\"id\":\"\",\"status\":\"error\",\"error\":{{\"code\":\"internal\",\"message\":\"serialize: {e}\"}}}}"));
    text.push('\n');
    writer.write_all(text.as_bytes())?;
    writer.flush()
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
