//! Sharded ScrubJay: a consistent-hash router over a fleet of workers.
//!
//! One `sjserved` process holds one catalog in memory; a deployment
//! whose data outgrows a single process splits the catalog into shards —
//! each worker loads a subset of the datasets — and puts a router
//! (`sjrouted`) in front. This crate is that router:
//!
//! - [`ring`] — the consistent-hash ring. Placement is a pure function
//!   of `(dataset name, shard count)`, so the offline partitioner and
//!   the online router agree without any coordination protocol.
//! - [`placement`] — offline partitioning: split a catalog directory
//!   into per-shard directories (plus replicas) that `sjserved --data`
//!   loads unchanged.
//! - [`topology`] — the router's fleet view: per-worker health, failure
//!   streaks, catalog epochs, and a zero-row **planning catalog** built
//!   from every worker's schemas, against which the router runs the
//!   same derivation search a worker would.
//! - [`router`] — the daemon: the same admission front a worker runs
//!   ([`sjserve::front::Front`]) over a [`router::RouterBackend`] that
//!   does single-shard routing with single-retry failover, scatter-gather
//!   fan-out for queries whose dataset cover spans shards (merged by
//!   [`merge`]), heartbeat mark-down/mark-up, and epoch-driven cache
//!   invalidation ([`cache`]). The stock `sjwire` TCP front end
//!   ([`sjserve::serve`]) serves it unmodified. Its `stats` come from the
//!   same [`sjserve::metrics::Registry`] a worker uses, over a
//!   [`sjserve::RouterStatsReport`] carrying the same request counters.
//! - [`stream`] — streamed fan-out: `subscribe: true` through the
//!   router opens one upstream subscription per worker reproducing the
//!   reference plan and merges their (byte-identical) frame streams in
//!   lockstep; forwarded appends reach every live owner in one
//!   fleet-wide order, so the fleet's accepted prefix matches a single
//!   node's.
//! - [`chaos`] — seeded whole-worker kill schedules for the chaos
//!   tests.
//!
//! The wire protocol is unchanged: a client cannot tell a router from a
//! worker except by asking for `stats` (routers answer `router_stats`).
//! Traced queries yield one span tree across the hop: workers ship
//! their raw spans on the response and the router grafts them under its
//! own `worker_call` spans via [`sjtrace::graft`].

pub mod cache;
pub mod chaos;
pub mod merge;
pub mod placement;
pub mod ring;
pub mod router;
pub(crate) mod stream;
pub mod topology;

pub use cache::RouteCache;
pub use chaos::KillSchedule;
pub use placement::{assign, partition_dir, ShardDir};
pub use ring::Ring;
pub use router::{Router, RouterBackend, RouterConfig};
pub use topology::{Topology, WorkerState};
