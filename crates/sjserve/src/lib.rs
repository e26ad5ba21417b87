//! ScrubJay as a service: a concurrent query server over a loaded catalog.
//!
//! The batch tools (`sjq`) pay the full cost of every query: load the
//! catalog, run the derivation search, execute the plan, exit. A
//! monitoring dashboard or a team of analysts asking overlapping
//! questions wants the opposite shape — load the catalog **once**, keep
//! the derivation search's results **warm**, and multiplex many small
//! queries over the same in-memory state. This crate provides that shape:
//!
//! - [`front::Front`] — the admission front both daemons run: the
//!   protocol check, the inline verbs, admission through the
//!   [`scheduler`], deadlines, query ids, request traces, the one check
//!   of a `query` payload, and request accounting. A daemon plugs in a
//!   [`front::Backend`] for what is its own.
//! - [`service::QueryService`] — the worker: the front over a backend
//!   that owns the catalog and a two-level cache (solved [`Plan`]s keyed
//!   by normalized query, answers keyed by plan fingerprint and kept
//!   encoded in wire form, see [`cache`]), plus the stream engine behind
//!   `append` and standing queries. `sjrouted`'s router is the same front over another backend.
//! - [`server`] — the TCP front end speaking framed `sjwire` with
//!   columnar payloads, one thread per connection. The verbs are
//!   `query` (with `subscribe: true`, a standing query), `explain`,
//!   `append`, `stats`, `health`, `catalog` and `shutdown`, the last from
//!   loopback peers only.
//! - [`client::Client`] — the typed blocking client `sjq --server` uses.
//! - [`metrics::Registry`] — the one metrics registry both daemons
//!   report into. Its schema is the daemon's own `stats` payload
//!   ([`StatsReport`] here, [`RouterStatsReport`] for `sjrouted`): request,
//!   rejection, timeout, queue-depth, latency-percentile, cache-hit and
//!   per-tenant accounting, exposed through the `stats` verb and dumped
//!   on shutdown.
//!
//! Admission control is deliberately simple and fully structural: a
//! bounded queue (excess requests are rejected immediately with a
//! machine-readable error), a fixed-size pool, per-tenant round-robin
//! dispatch so one chatty tenant cannot starve the rest, and per-request
//! deadlines enforced both at dequeue and while the client waits.
//!
//! [`Plan`]: sjcore::engine::Plan

pub mod cache;
pub mod client;
pub mod front;
pub mod metrics;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod service;
pub mod wire;

pub use client::{Client, ClientError};
pub use front::{Backend, Front};
pub use metrics::{Registry, RouterStatsReport, StatsReport, StreamStatsReport, WorkerSummary};
pub use protocol::{
    AppendAck, CatalogInfo, DatasetDesc, ErrorBody, HealthReport, QuerySpec, Request, Response,
    SubscriptionAck, ValueSpec, Verb, PROTO_VERSION,
};
pub use scheduler::SchedulerConfig;
pub use server::{serve, serve_until_shutdown, wait_ready, EmissionSink, ServerHandle};
pub use service::{QueryService, ServiceConfig, WorkerBackend};
