//! The protocol's messages: requests and responses.
//!
//! On the wire each message is one `sjwire` frame whose payload is the
//! message as a JSON envelope with its hot row vectors carried as
//! columnar sections instead (see [`crate::wire`]). Requests carry a
//! client-chosen `id` that is echoed on the response, so a client may
//! pipeline several requests over one connection and match replies by
//! id. All the payload variants live on [`Response`] as optional fields
//! rather than an enum, which keeps the envelope obvious in a network
//! capture and trivially extensible.

use serde::{Deserialize, Serialize};
use sjdf::metrics::MetricsReport;

use crate::metrics::{RouterStatsReport, StatsReport};
use crate::wire::RowSection;

/// The wire-protocol version this build speaks. Requests and responses
/// carry it as `proto_version` (absent on messages from older peers);
/// a peer seeing a version other than its own answers with a structured
/// [`codes::PROTO_MISMATCH`] error instead of misparsing payloads, which
/// is what a router↔worker rolling upgrade needs to fail loudly.
pub const PROTO_VERSION: u32 = 1;

/// What the client wants done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Verb {
    /// Solve and execute; returns rows. With `subscribe: true` the
    /// query instead becomes *standing*: the server acknowledges it and
    /// then pushes a window frame on this connection every time new
    /// appends ripen or re-open a window.
    Query,
    /// Solve only; returns the plan without executing it.
    Explain,
    /// Append a batch of rows to a streamed dataset (see
    /// [`sjstream::AppendBatch`]); returns an [`AppendAck`] after all
    /// standing queries have been swept.
    Append,
    /// Service metrics snapshot.
    Stats,
    /// Liveness probe: dataset names and uptime.
    Health,
    /// Catalog description: dataset names and schemas, for routers that
    /// plan against this worker's shard without holding its data.
    Catalog,
    /// Stop accepting connections and shut the server down.
    Shutdown,
}

impl Verb {
    /// Every verb, in declaration order.
    pub const ALL: [Verb; 7] = [
        Verb::Query,
        Verb::Explain,
        Verb::Append,
        Verb::Stats,
        Verb::Health,
        Verb::Catalog,
        Verb::Shutdown,
    ];
}

/// One requested value dimension, optionally units-constrained.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValueSpec {
    pub dimension: String,
    pub units: Option<String>,
}

impl ValueSpec {
    pub fn dim(dimension: &str) -> Self {
        ValueSpec {
            dimension: dimension.into(),
            units: None,
        }
    }

    pub fn with_units(dimension: &str, units: &str) -> Self {
        ValueSpec {
            dimension: dimension.into(),
            units: Some(units.into()),
        }
    }
}

/// The query payload for `query` and `explain` verbs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// Domain dimensions the result must be defined over.
    pub domains: Vec<String>,
    /// Value dimensions the result must measure.
    pub values: Vec<ValueSpec>,
    /// Interpolation-join window override (seconds).
    pub window_secs: Option<f64>,
    /// Explode-continuous step override (seconds).
    pub step_secs: Option<f64>,
    /// Maximum rows returned; further rows are dropped and the response
    /// is marked `truncated`.
    pub limit: Option<usize>,
}

impl QuerySpec {
    /// A spec over plain dimension names with service defaults.
    pub fn new(
        domains: impl IntoIterator<Item = &'static str>,
        values: impl IntoIterator<Item = &'static str>,
    ) -> Self {
        QuerySpec {
            domains: domains.into_iter().map(String::from).collect(),
            values: values.into_iter().map(ValueSpec::dim).collect(),
            window_secs: None,
            step_secs: None,
            limit: None,
        }
    }
}

/// One request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: String,
    pub verb: Verb,
    /// Fair-queueing bucket; empty string means the anonymous tenant.
    pub tenant: String,
    /// Payload for `query` / `explain`; ignored by other verbs.
    pub query: Option<QuerySpec>,
    /// Per-request deadline; the service default applies when absent.
    pub timeout_ms: Option<u64>,
    /// When `Some(true)`, the response carries a [`TraceSummary`] for
    /// this query (and server-side tracing is switched on if it was not
    /// already). Optional so requests from older clients still parse.
    pub trace: Option<bool>,
    /// Protocol version the sender speaks. `None` (the wire default, so
    /// messages from older peers still parse) is accepted as "unknown,
    /// assume compatible"; a `Some` other than [`PROTO_VERSION`] is
    /// answered with a [`codes::PROTO_MISMATCH`] error.
    pub proto_version: Option<u32>,
    /// `Some(true)` on a `query` request registers it as a standing
    /// query instead of executing once: the server replies with a
    /// [`SubscriptionAck`] and thereafter pushes window frames on this
    /// connection as appends arrive. Requires a streaming-capable
    /// transport; over a non-streaming path the server answers
    /// [`codes::STREAM_UNSUPPORTED`].
    pub subscribe: Option<bool>,
    /// Payload for the `append` verb; ignored by other verbs.
    pub append: Option<sjstream::AppendBatch>,
    /// `Some(true)` on an `append` marks it part of a bulk backfill:
    /// the batch is ingested (clocks advanced, duplicates/late rows
    /// dropped, touched windows invalidated) but the window sweep is
    /// deferred. The next non-bulk append — an empty-rows batch works
    /// as an explicit flush — runs one sweep covering everything
    /// ingested since, emitting the same final frames row-at-a-time
    /// appends would have.
    pub bulk: Option<bool>,
}

impl Request {
    pub fn query(id: &str, tenant: &str, spec: QuerySpec) -> Self {
        Request {
            id: id.into(),
            verb: Verb::Query,
            tenant: tenant.into(),
            query: Some(spec),
            timeout_ms: None,
            trace: None,
            proto_version: None,
            subscribe: None,
            append: None,
            bulk: None,
        }
    }

    pub fn explain(id: &str, tenant: &str, spec: QuerySpec) -> Self {
        Request {
            verb: Verb::Explain,
            ..Request::query(id, tenant, spec)
        }
    }

    /// A standing-query registration: `query` with `subscribe: true`.
    pub fn subscribe(id: &str, tenant: &str, spec: QuerySpec) -> Self {
        Request {
            subscribe: Some(true),
            ..Request::query(id, tenant, spec)
        }
    }

    /// An `append` request carrying one batch for a streamed dataset.
    pub fn append(id: &str, tenant: &str, batch: sjstream::AppendBatch) -> Self {
        Request {
            verb: Verb::Append,
            tenant: tenant.into(),
            append: Some(batch),
            ..Request::bare(id, Verb::Append)
        }
    }

    /// A payload-less request (`stats` / `health` / `shutdown`).
    pub fn bare(id: &str, verb: Verb) -> Self {
        Request {
            id: id.into(),
            verb,
            tenant: String::new(),
            query: None,
            timeout_ms: None,
            trace: None,
            proto_version: None,
            subscribe: None,
            append: None,
            bulk: None,
        }
    }

    /// Stamp the sender's protocol version (builder-style). The router
    /// stamps every request it forwards so version skew across a sharded
    /// deployment is caught at the first hop.
    pub fn with_proto(mut self) -> Self {
        self.proto_version = Some(PROTO_VERSION);
        self
    }

    /// Whether this request asked for a per-query trace.
    pub fn wants_trace(&self) -> bool {
        self.trace == Some(true)
    }
}

/// Machine-readable error codes. Stable strings, not an enum, so old
/// clients degrade gracefully when a server grows new codes.
pub mod codes {
    /// The admission queue was full; retry later.
    pub const QUEUE_FULL: &str = "queue_full";
    /// The request's deadline elapsed before a result was produced.
    pub const TIMEOUT: &str = "timeout";
    /// The engine proved no derivation sequence satisfies the query.
    pub const NO_SOLUTION: &str = "no_solution";
    /// The derivation search hit its dataset budget before exhausting
    /// the space. Unlike [`NO_SOLUTION`] this is retryable: the same
    /// query may solve under a larger `max_datasets` budget.
    pub const SEARCH_TRUNCATED: &str = "search_truncated";
    /// The request was malformed (bad JSON, missing payload, unknown
    /// keyword, ...).
    pub const BAD_REQUEST: &str = "bad_request";
    /// Plan execution failed after a successful solve.
    pub const EXEC_FAILED: &str = "exec_failed";
    /// Plan execution exhausted its task-retry budget under faults: the
    /// query failed but the service itself is healthy. Degraded results
    /// are never cached.
    pub const DEGRADED: &str = "degraded";
    /// The server is shutting down.
    pub const SHUTDOWN: &str = "shutdown";
    /// The peer speaks a different protocol version (rolling-upgrade
    /// skew); the message was not processed.
    pub const PROTO_MISMATCH: &str = "proto_mismatch";
    /// A router could not reach any worker holding the shard a query
    /// needs (after mark-downs and failover).
    pub const WORKER_UNAVAILABLE: &str = "worker_unavailable";
    /// A router found no shard assignment that covers the query: some
    /// required dataset is on no live worker, or a value's derivation
    /// spans shards in a way scatter-gather cannot split.
    pub const NO_ROUTE: &str = "no_route";
    /// The tenant already holds its maximum number of standing
    /// queries; unsubscribe one (close its connection) and retry.
    pub const SUBSCRIPTION_LIMIT: &str = "subscription_limit";
    /// The request needs a streaming-capable transport (standing
    /// queries push frames) but this path cannot deliver them — e.g.
    /// `subscribe: true` sent through a router.
    pub const STREAM_UNSUPPORTED: &str = "stream_unsupported";
}

/// A structured error: a stable code plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    pub code: String,
    pub message: String,
}

impl ErrorBody {
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        ErrorBody {
            code: code.into(),
            message: message.into(),
        }
    }
}

/// A planning error as both daemons answer it: `no_solution` and
/// `search_truncated` keep their codes, and anything else is the query's
/// fault.
impl From<sjcore::SjError> for ErrorBody {
    fn from(e: sjcore::SjError) -> Self {
        match e {
            sjcore::SjError::NoSolution(msg) => ErrorBody::new(codes::NO_SOLUTION, msg),
            e @ sjcore::SjError::SearchTruncated { .. } => {
                ErrorBody::new(codes::SEARCH_TRUNCATED, e.to_string())
            }
            e => ErrorBody::new(codes::BAD_REQUEST, e.to_string()),
        }
    }
}

/// Executed-query payload: the derived dataset plus cache/latency facts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// Column names, in schema order.
    pub columns: Vec<String>,
    /// Row cells rendered to display form, at most `limit` rows. Empty
    /// while the rows travel encoded in [`Response::result_rows`].
    pub rows: Vec<Vec<String>>,
    /// Total rows the query produced (before `limit`).
    pub row_count: usize,
    /// Whether `rows` was cut off at the limit.
    pub truncated: bool,
    /// The solved plan came from the plan cache.
    pub plan_cache_hit: bool,
    /// The answer came from a cache: the worker's result cache, or on a
    /// router its route cache.
    pub result_cache_hit: bool,
    /// Latency of this request inside the daemon that answered it, from
    /// admission to the answer: queue + solve + execute on a worker; on a
    /// router, its own time, the worker hop included.
    pub elapsed_ms: f64,
    /// Dataflow activity attributed to this evaluation (absent on a
    /// result-cache hit — nothing executed).
    pub engine_metrics: Option<MetricsReport>,
}

/// `explain` payload: the plan without execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanInfo {
    /// The reproducible plan, as its canonical JSON tree.
    pub plan_json: String,
    /// Human-readable derivation sequence.
    pub plan_text: String,
    /// [`Plan::fingerprint`](sjcore::engine::Plan::fingerprint) — the
    /// result-cache key.
    pub fingerprint: u64,
    pub plan_cache_hit: bool,
}

impl PlanInfo {
    /// The `explain` payload for `plan`.
    pub fn new(plan: &sjcore::engine::Plan, plan_cache_hit: bool) -> Self {
        PlanInfo {
            plan_json: plan.to_json(),
            plan_text: plan.describe(),
            fingerprint: plan.fingerprint(),
            plan_cache_hit,
        }
    }
}

/// `health` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    pub status: String,
    pub datasets: Vec<String>,
    pub uptime_ms: u64,
    /// Operator-assigned shard identity (`--shard-id`); `None` on
    /// unsharded deployments and reports from older workers.
    pub shard_id: Option<String>,
    /// Fingerprint of the served catalog (names + schemas). A router
    /// watches this across heartbeats: any change invalidates its
    /// result cache for queries touching this worker.
    pub catalog_epoch: Option<u64>,
    /// Bytes currently held by the dataflow stage cache (persisted
    /// partitions + shuffle outputs), so shard memory pressure is
    /// inspectable by hand via `sjq --health`.
    pub stage_cache_bytes: Option<u64>,
}

impl HealthReport {
    /// Render the report for humans (the `sjq --health` output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "status: {}\nuptime: {}ms\ndatasets: {}\n",
            self.status,
            self.uptime_ms,
            self.datasets.join(", ")
        );
        if let Some(shard) = &self.shard_id {
            out.push_str(&format!("shard: {shard}\n"));
        }
        if let Some(epoch) = self.catalog_epoch {
            out.push_str(&format!("catalog epoch: {epoch:016x}\n"));
        }
        if let Some(bytes) = self.stage_cache_bytes {
            out.push_str(&format!("stage cache: {bytes} bytes\n"));
        }
        out
    }
}

/// One dataset a worker serves, described at the schema level — enough
/// for a router to run the derivation search without holding the data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetDesc {
    pub name: String,
    /// The dataset's [`Schema`](sjcore::Schema) as its serialized JSON.
    pub schema_json: String,
}

/// `catalog` payload: the worker's shard described at the schema level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatalogInfo {
    pub shard_id: Option<String>,
    /// Same fingerprint as [`HealthReport::catalog_epoch`].
    pub epoch: u64,
    pub datasets: Vec<DatasetDesc>,
}

/// Per-query trace payload, attached when the request set `trace: true`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// The server-assigned query id the trace belongs to (matches
    /// [`Response::query_id`] and the `query_id` on any
    /// [`FailureReport`](sjdf::FailureReport) for this request).
    pub query_id: String,
    /// Number of events in the trace.
    pub span_count: u64,
    /// Events the server's trace sink dropped at capacity (whole-sink
    /// counter; non-zero means some trace is incomplete).
    pub dropped_spans: u64,
    /// Compact text timeline (one line per span, tree-indented).
    pub timeline: String,
    /// Chrome trace-event JSON for this query, loadable in Perfetto /
    /// `chrome://tracing`.
    pub chrome_json: Option<String>,
    /// The raw span events of this query's tree, so an upstream router
    /// can graft the worker's timeline under its own route span and
    /// return one tree spanning the whole hop. `None` from older
    /// workers (the summary fields above still apply).
    pub spans: Option<Vec<sjtrace::SpanEvent>>,
}

/// `append` payload: what happened to the batch, mirrored from
/// [`sjstream::AppendOutcome`] minus the emissions themselves (those go
/// to the subscribers' connections, not the appender's).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppendAck {
    /// Rows accepted into the stream.
    pub accepted: usize,
    /// Rows dropped as verbatim duplicates of already-accepted rows.
    pub duplicates_dropped: usize,
    /// Rows older than `watermark − allowed_lateness`, dropped.
    pub late_dropped: usize,
    /// The watermark after this batch, microseconds.
    pub watermark_us: i64,
    /// Cached window results this batch invalidated.
    pub invalidated: usize,
    /// Window frames pushed to subscribers while handling this batch.
    pub windows_emitted: usize,
}

/// Acknowledgement of a standing-query registration (`subscribe: true`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubscriptionAck {
    /// Server-assigned id for this standing query; every pushed window
    /// frame carries it in [`Response::query_id`].
    pub query_id: String,
    /// Tumbling-window width the stream engine evaluates on, seconds.
    pub window_secs: f64,
    /// How long after the watermark passes a window it may still be
    /// re-opened by late data, seconds.
    pub allowed_lateness_secs: f64,
}

/// What transport a connection negotiated, stamped onto `stats` and
/// `health` responses by the TCP front end (the layer that owns the
/// negotiation) so `sjq --stats`/`--health` can show what the wire is
/// actually speaking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireInfo {
    /// [`sjwire::WIRE_VERSION`], or the lower version a client offered.
    pub wire_version: u32,
    /// The payload codec: always `"columnar"`.
    pub codec: String,
}

/// One response line. Exactly one of the payload fields is populated on
/// success (matching the request verb); `error` is populated on failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the request id (empty when the request was unparsable).
    pub id: String,
    /// `"ok"`, `"degraded"`, or `"error"`.
    pub status: String,
    pub error: Option<ErrorBody>,
    pub result: Option<QueryResult>,
    pub plan: Option<PlanInfo>,
    pub stats: Option<StatsReport>,
    pub health: Option<HealthReport>,
    /// `catalog` payload (workers only).
    pub catalog: Option<CatalogInfo>,
    /// `stats` payload from a router (`sjrouted`); workers leave it
    /// empty and routers leave `stats` empty.
    pub router_stats: Option<RouterStatsReport>,
    /// Fault/retry accounting for this request's execution, when the
    /// engine reported any (always present on `degraded` responses).
    pub failure: Option<sjdf::FailureReport>,
    /// Server-assigned query id (`query` / `explain` responses only),
    /// correlating this response with server-side traces and metrics.
    pub query_id: Option<String>,
    /// Per-query trace, when the request set `trace: true`.
    pub trace: Option<TraceSummary>,
    /// Protocol version of the responding server (see [`PROTO_VERSION`]);
    /// `None` from older servers.
    pub proto_version: Option<u32>,
    /// `append` payload.
    pub append: Option<AppendAck>,
    /// Acknowledgement of a `subscribe: true` registration.
    pub subscription: Option<SubscriptionAck>,
    /// A pushed window frame from a standing query. These arrive
    /// *unsolicited* (correlated by `id` = the subscribe request's id
    /// and `query_id` = the subscription's server id), interleaved with
    /// normal responses on the same connection.
    pub window: Option<sjstream::WindowEmission>,
    /// Negotiated transport of the connection this response travelled
    /// on (`stats`/`health` responses only; stamped by the front end).
    pub wire: Option<WireInfo>,
    /// `result.rows` already encoded as a result-rows section, with
    /// `result.rows` left empty: a worker's cached answer cut to the
    /// request's `limit`, or the section a router relays from a worker.
    /// Never serialized: [`crate::wire::encode_response`] writes it as
    /// the section, and [`Front::handle`](crate::Front::handle) decodes
    /// it back into `result.rows` for in-process callers.
    #[serde(skip)]
    pub result_rows: Option<RowSection>,
}

impl Response {
    pub fn ok(id: &str) -> Self {
        Response {
            id: id.into(),
            status: "ok".into(),
            error: None,
            result: None,
            plan: None,
            stats: None,
            health: None,
            catalog: None,
            router_stats: None,
            failure: None,
            query_id: None,
            trace: None,
            proto_version: None,
            append: None,
            subscription: None,
            window: None,
            wire: None,
            result_rows: None,
        }
    }

    pub fn fail(id: &str, error: ErrorBody) -> Self {
        Response {
            status: "error".into(),
            error: Some(error),
            ..Response::ok(id)
        }
    }

    /// A query that exhausted its retry budget under faults: structured
    /// like an error, but flagged `degraded` so clients can distinguish
    /// "this run lost the fault lottery" from "this query is broken".
    pub fn degraded(id: &str, error: ErrorBody, failure: sjdf::FailureReport) -> Self {
        Response {
            status: "degraded".into(),
            error: Some(error),
            failure: Some(failure),
            ..Response::ok(id)
        }
    }

    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    pub fn is_degraded(&self) -> bool {
        self.status == "degraded"
    }

    /// The error code, if this is an error response.
    pub fn code(&self) -> Option<&str> {
        self.error.as_ref().map(|e| e.code.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let mut spec = QuerySpec::new(["job", "rack"], ["application", "heat"]);
        spec.values[1].units = Some("delta-celsius".into());
        spec.window_secs = Some(300.0);
        spec.limit = Some(10);
        let req = Request::query("r-1", "teamA", spec);
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(req, back);
        assert!(line.contains("\"verb\":\"query\""), "{line}");
    }

    #[test]
    fn bare_verbs_round_trip() {
        for verb in [Verb::Stats, Verb::Health, Verb::Shutdown, Verb::Explain] {
            let req = Request::bare("x", verb);
            let back: Request =
                serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
            assert_eq!(back.verb, verb);
            assert_eq!(back.query, None);
        }
    }

    #[test]
    fn degraded_responses_round_trip_with_failure_report() {
        let failure = sjdf::FailureReport {
            injected_task_faults: 7,
            task_retries: 6,
            tasks_exhausted: 1,
            ..sjdf::FailureReport::default()
        };
        let resp = Response::degraded(
            "r-3",
            ErrorBody::new(codes::DEGRADED, "partition 2 exhausted retry budget"),
            failure.clone(),
        );
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert!(back.is_degraded());
        assert!(!back.is_ok());
        assert_eq!(back.code(), Some(codes::DEGRADED));
        assert_eq!(back.failure, Some(failure));
        // Older responses without the field still parse.
        let legacy: Response =
            serde_json::from_str(r#"{"id":"r","status":"ok","error":null,"result":null,"plan":null,"stats":null,"health":null}"#)
                .unwrap();
        assert_eq!(legacy.failure, None);
        assert_eq!(legacy.query_id, None);
        assert_eq!(legacy.trace, None);
    }

    #[test]
    fn trace_requests_and_summaries_round_trip() {
        let mut req = Request::query("r-5", "t", QuerySpec::new(["job"], ["heat"]));
        assert!(!req.wants_trace());
        req.trace = Some(true);
        assert!(req.wants_trace());
        let back: Request = serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back, req);
        // Requests from older clients (no `trace` key) still parse.
        let legacy: Request = serde_json::from_str(
            r#"{"id":"r","verb":"query","tenant":"","query":null,"timeout_ms":null}"#,
        )
        .unwrap();
        assert_eq!(legacy.trace, None);
        assert!(!legacy.wants_trace());

        let mut resp = Response::ok("r-5");
        resp.query_id = Some("q000001-r-5".into());
        resp.trace = Some(TraceSummary {
            query_id: "q000001-r-5".into(),
            span_count: 12,
            dropped_spans: 0,
            timeline: "trace: 12 events\nrequest ...\n".into(),
            chrome_json: Some(r#"{"traceEvents":[]}"#.into()),
            spans: None,
        });
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.trace.unwrap().span_count, 12);
    }

    #[test]
    fn proto_version_is_optional_and_round_trips() {
        // Older peers omit the field entirely; it must parse as None.
        let legacy: Request = serde_json::from_str(
            r#"{"id":"r","verb":"health","tenant":"","query":null,"timeout_ms":null}"#,
        )
        .unwrap();
        assert_eq!(legacy.proto_version, None);
        let legacy_resp: Response =
            serde_json::from_str(r#"{"id":"r","status":"ok","error":null}"#).unwrap();
        assert_eq!(legacy_resp.proto_version, None);

        let req = Request::bare("r", Verb::Health).with_proto();
        assert_eq!(req.proto_version, Some(PROTO_VERSION));
        let back: Request = serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back.proto_version, Some(PROTO_VERSION));
    }

    #[test]
    fn catalog_verb_and_payload_round_trip() {
        let req = Request::bare("c1", Verb::Catalog);
        let line = serde_json::to_string(&req).unwrap();
        assert!(line.contains("\"verb\":\"catalog\""), "{line}");
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back.verb, Verb::Catalog);

        let mut resp = Response::ok("c1");
        resp.catalog = Some(CatalogInfo {
            shard_id: Some("w0".into()),
            epoch: 0xfeed,
            datasets: vec![DatasetDesc {
                name: "rack_temps".into(),
                schema_json: "{\"fields\":[]}".into(),
            }],
        });
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        let info = back.catalog.unwrap();
        assert_eq!(info.epoch, 0xfeed);
        assert_eq!(info.datasets[0].name, "rack_temps");
    }

    #[test]
    fn health_report_renders_shard_fields() {
        let legacy = HealthReport {
            status: "ok".into(),
            datasets: vec!["a".into()],
            uptime_ms: 5,
            shard_id: None,
            catalog_epoch: None,
            stage_cache_bytes: None,
        };
        assert!(!legacy.render().contains("shard:"));
        let sharded = HealthReport {
            shard_id: Some("w2".into()),
            catalog_epoch: Some(0xabc),
            stage_cache_bytes: Some(4096),
            ..legacy
        };
        let text = sharded.render();
        assert!(text.contains("shard: w2"));
        assert!(text.contains("0000000000000abc"));
        assert!(text.contains("4096 bytes"));
        // Reports from older workers (no new keys) still parse.
        let parsed: HealthReport =
            serde_json::from_str(r#"{"status":"ok","datasets":["a"],"uptime_ms":9}"#).unwrap();
        assert_eq!(parsed.shard_id, None);
        assert_eq!(parsed.catalog_epoch, None);
    }

    #[test]
    fn error_responses_round_trip() {
        let resp = Response::fail(
            "r-9",
            ErrorBody::new(codes::QUEUE_FULL, "queue is at capacity (32)"),
        );
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert!(!back.is_ok());
        assert_eq!(back.code(), Some(codes::QUEUE_FULL));
        assert_eq!(back.id, "r-9");
    }
}
