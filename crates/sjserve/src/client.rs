//! Typed blocking client for the service protocol.
//!
//! One TCP connection, requests answered in order, over the framed
//! binary transport: a [`sjwire::Hello`] / [`sjwire::HelloAck`]
//! exchange, then CRC-checked frames carrying columnar row payloads.
//! Used by `sjq --server`, by `sjrouted`'s worker hops, and by the
//! integration tests; embedders wanting zero-copy access should hold a
//! [`QueryService`] directly instead.
//!
//! [`QueryService`]: crate::service::QueryService

use std::collections::VecDeque;
use std::fmt;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::protocol::{ErrorBody, QuerySpec, Request, Response, Verb, WireInfo};
use crate::wire::{decode_response, decode_response_relay, encode_request};
use sjwire::{read_frame, write_frame, Hello, HelloAck, MsgType, WireError};

/// Client-side failure: transport, framing, or a server-reported error.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or read/write failure.
    Io(std::io::Error),
    /// The server sent something unparsable.
    Protocol(String),
    /// The server answered with a structured error.
    Server(ErrorBody),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server(e) => write!(f, "server: code={} {}", e.code, e.message),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    tenant: String,
    next_id: u64,
    /// What the connection negotiated (see [`Client::wire_info`]).
    wire: WireInfo,
    /// Pushed frames that arrived while waiting for a request's
    /// response (frame types disambiguate).
    pending: VecDeque<Response>,
}

impl Client {
    /// Connect as the anonymous tenant.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Self::connect_as(addr, "")
    }

    /// Connect with a tenant name (the fair-queueing bucket). Fails if
    /// the server does not pin the `columnar` codec.
    pub fn connect_as(addr: impl ToSocketAddrs, tenant: &str) -> std::io::Result<Client> {
        Self::handshake(TcpStream::connect(addr)?, tenant)
    }

    /// [`Client::connect_as`] that gives up after `timeout` (not zero):
    /// on the TCP connect, and on every read and write from the
    /// handshake on, so a peer that accepts but never answers cannot
    /// hold the caller. Reset the read timeout before a later wait.
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        tenant: &str,
        timeout: Duration,
    ) -> std::io::Result<Client> {
        let started = Instant::now();
        let mut last_err = None;
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => {
                    let left = timeout
                        .saturating_sub(started.elapsed())
                        .max(Duration::from_millis(1));
                    stream.set_read_timeout(Some(left))?;
                    stream.set_write_timeout(Some(left))?;
                    return Self::handshake(stream, tenant);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        }))
    }

    fn handshake(stream: TcpStream, tenant: &str) -> std::io::Result<Client> {
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let hello = Hello::default();
        let payload = serde_json::to_vec(&hello).expect("hello serializes");
        write_frame(&mut writer, MsgType::Hello, &payload)?;
        let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(WireError::Io(e)) => return Err(e),
            Err(e) => return Err(bad(format!("handshake: {e}"))),
        };
        if frame.msg_type != MsgType::HelloAck {
            return Err(bad(format!(
                "handshake: unexpected {:?} frame",
                frame.msg_type
            )));
        }
        let ack: HelloAck = serde_json::from_slice(&frame.payload)
            .map_err(|e| bad(format!("handshake: bad ack: {e}")))?;
        if ack.codec != sjwire::CODEC_COLUMNAR {
            return Err(bad(format!("handshake: unsupported codec {:?}", ack.codec)));
        }
        Ok(Client {
            reader,
            writer,
            tenant: tenant.to_string(),
            next_id: 0,
            wire: WireInfo {
                wire_version: ack.wire_version,
                codec: ack.codec,
            },
            pending: VecDeque::new(),
        })
    }

    /// What this connection negotiated: wire version and payload codec.
    pub fn wire_info(&self) -> &WireInfo {
        &self.wire
    }

    /// Cap how long a read may block (useful in tests).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// A clone of the underlying socket, so an owner parked in
    /// [`Client::next_frame`] on another thread can be unblocked with
    /// `shutdown(Shutdown::Both)`.
    pub fn socket_handle(&self) -> std::io::Result<TcpStream> {
        self.writer.try_clone()
    }

    fn fresh_id(&mut self) -> String {
        self.next_id += 1;
        format!("{}-{}", self.tenant, self.next_id)
    }

    /// Send one request and block for its response: [`Client::send`],
    /// then [`Client::receive`].
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.receive(&request.id)
    }

    /// Write one request and return without waiting for its response,
    /// so a caller can put requests on several connections before it
    /// reads any answer. Read the response with [`Client::receive`].
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.writer, MsgType::Request, &encode_request(request))?;
        Ok(())
    }

    /// Block for the response to the request sent with id `id`. The
    /// response's `id` must echo it; anything else is a protocol error.
    /// Its result rows stay the section they arrived as
    /// ([`Response::result_rows`]): a router writes them on as they are,
    /// and [`Client::query`] decodes them. Pushed window frames that
    /// arrive first are queued for [`Client::next_frame`] instead of
    /// being misread as the response.
    pub fn receive(&mut self, id: &str) -> Result<Response, ClientError> {
        loop {
            let frame = read_frame(&mut self.reader)?;
            match frame.msg_type {
                MsgType::Response => {
                    let response = decode_response_relay(&frame.payload)?;
                    if response.id.is_empty() || response.id == id {
                        return Ok(response);
                    }
                    return Err(ClientError::Protocol(format!(
                        "response id `{}` does not match request id `{id}`",
                        response.id
                    )));
                }
                MsgType::WindowFrame => self.pending.push_back(decode_response(&frame.payload)?),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected {other:?} frame while awaiting a response"
                    )))
                }
            }
        }
    }

    /// `query`: execute and return the ok-response, its rows decoded into
    /// `result.rows`, or the server error.
    pub fn query(
        &mut self,
        spec: QuerySpec,
        timeout_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        self.query_inner(spec, timeout_ms, false)
    }

    /// `query` with `trace: true`: like [`Client::query`], but the
    /// response carries a [`crate::protocol::TraceSummary`] with the
    /// query's text timeline and Chrome trace JSON.
    pub fn query_traced(
        &mut self,
        spec: QuerySpec,
        timeout_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        self.query_inner(spec, timeout_ms, true)
    }

    fn query_inner(
        &mut self,
        spec: QuerySpec,
        timeout_ms: Option<u64>,
        trace: bool,
    ) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        let mut request = Request::query(&id, &self.tenant, spec).with_proto();
        request.timeout_ms = timeout_ms;
        request.trace = if trace { Some(true) } else { None };
        let mut response = self.call(&request)?;
        response
            .decode_result_rows()
            .map_err(|e| ClientError::Protocol(format!("undecodable result rows: {e}")))?;
        Self::expect_ok(response)
    }

    /// Register a standing query (`query` with `subscribe: true`) and
    /// return its [`crate::protocol::SubscriptionAck`] response. After
    /// this succeeds the server pushes unsolicited window frames on
    /// this connection — read them with [`Client::next_frame`]. Frame
    /// types keep them apart from responses, but use a separate
    /// connection for appends all the same.
    pub fn subscribe(&mut self, spec: QuerySpec) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        let request = Request::subscribe(&id, &self.tenant, spec).with_proto();
        let response = self.call(&request)?;
        Self::expect_ok(response)
    }

    /// `append`: push one batch into a streamed dataset and return the
    /// [`crate::protocol::AppendAck`] response. Do not mix with
    /// [`Client::subscribe`] on one connection.
    pub fn append(&mut self, batch: sjstream::AppendBatch) -> Result<Response, ClientError> {
        self.append_inner(batch, false)
    }

    /// `append` with `bulk: true`: ingest without sweeping windows. A
    /// later non-bulk append — [`Client::flush`] works — runs one sweep
    /// covering everything ingested since.
    pub fn append_bulk(&mut self, batch: sjstream::AppendBatch) -> Result<Response, ClientError> {
        self.append_inner(batch, true)
    }

    /// Explicit end-of-backfill marker: an empty non-bulk append that
    /// sweeps every window the preceding bulk appends touched.
    pub fn flush(
        &mut self,
        dataset: &str,
        source: &str,
        clock_us: i64,
    ) -> Result<Response, ClientError> {
        self.append_inner(
            sjstream::AppendBatch {
                dataset: dataset.into(),
                source: source.into(),
                source_clock_us: clock_us,
                rows: Vec::new(),
            },
            false,
        )
    }

    fn append_inner(
        &mut self,
        batch: sjstream::AppendBatch,
        bulk: bool,
    ) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        let mut request = Request::append(&id, &self.tenant, batch).with_proto();
        request.bulk = if bulk { Some(true) } else { None };
        let response = self.call(&request)?;
        Self::expect_ok(response)
    }

    /// Block for the next pushed frame on a subscribed connection: a
    /// window emission (`response.window`), or an error frame tearing
    /// down one subscription.
    pub fn next_frame(&mut self) -> Result<Response, ClientError> {
        if let Some(queued) = self.pending.pop_front() {
            return Ok(queued);
        }
        let frame = read_frame(&mut self.reader)?;
        Ok(decode_response(&frame.payload)?)
    }

    /// `explain`: solve without executing.
    pub fn explain(&mut self, spec: QuerySpec) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        let request = Request::explain(&id, &self.tenant, spec).with_proto();
        let response = self.call(&request)?;
        Self::expect_ok(response)
    }

    /// `stats`: service metrics snapshot.
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        let response = self.call(&Request::bare(&id, Verb::Stats).with_proto())?;
        Self::expect_ok(response)
    }

    /// `health`: liveness probe.
    pub fn health(&mut self) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        let response = self.call(&Request::bare(&id, Verb::Health).with_proto())?;
        Self::expect_ok(response)
    }

    /// `catalog`: the worker's shard manifest (dataset names + schemas +
    /// epoch). The router uses this to build its planning catalog.
    pub fn catalog(&mut self) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        let response = self.call(&Request::bare(&id, Verb::Catalog).with_proto())?;
        Self::expect_ok(response)
    }

    /// `shutdown`: ask the server to stop.
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        let response = self.call(&Request::bare(&id, Verb::Shutdown).with_proto())?;
        Self::expect_ok(response)
    }

    fn expect_ok(response: Response) -> Result<Response, ClientError> {
        if response.is_ok() {
            Ok(response)
        } else {
            Err(ClientError::Server(response.error.unwrap_or_else(|| {
                ErrorBody::new("internal", "error response without body")
            })))
        }
    }
}
