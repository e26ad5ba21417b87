//! # sjdf — ScrubJay data-parallel framework
//!
//! A from-scratch, in-process reproduction of the data-parallel substrate
//! the ScrubJay paper (SC '17) builds on (Apache Spark): lazy,
//! lineage-based partitioned datasets ([`Rdd`]) with narrow operations
//! (`map`, `filter`, `flat_map`, `union`, `coalesce`, `cache`) and wide
//! shuffle operations (`group_by_key`, `reduce_by_key`, `cogroup`, `join`,
//! `sort_by_key`, `repartition`), executed on a local thread pool.
//!
//! Because the paper's evaluation ran on a 10-node × 32-core cluster, the
//! crate also provides a *virtual cluster*: every evaluation records task
//! metrics ([`metrics::MetricsReport`]), and [`simtime`] costs the recorded
//! task graph against an arbitrary [`ClusterSpec`] to produce simulated
//! wall-clock times for scaling studies.
//!
//! ```
//! use sjdf::{ExecCtx, Rdd};
//!
//! let ctx = ExecCtx::local();
//! let squares = Rdd::parallelize(&ctx, (0u64..100).collect(), 8)
//!     .map(|x| x * x)
//!     .filter(|x| x % 2 == 0);
//! assert_eq!(squares.count().unwrap(), 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytesize;
pub mod cluster;
pub mod error;
pub mod exec;
pub mod faults;
pub mod lru;
pub mod metrics;
pub mod ops;
pub mod pool;
pub mod rdd;
pub mod simtime;
pub mod stagecache;

/// The span-tracing subsystem ([`sjtrace`]), re-exported so downstream
/// crates reach the executor's tracer types without a separate
/// dependency edge.
pub use sjtrace as trace;

pub use bytesize::{pod_vec_byte_size, ByteSize};
pub use cluster::ClusterSpec;
pub use error::{Result, SjdfError};
pub use exec::{ExecCtx, RetryPolicy, SpeculationPolicy};
pub use faults::{Fault, FaultPlan, FaultSite};
pub use lru::{CacheStats, Lru};
pub use metrics::{FailureReport, MetricsCollector, MetricsReport, OpKind};
pub use pool::WorkerPool;
pub use rdd::{Data, Rdd};
pub use simtime::{estimate, CostParams, SimTime};
pub use stagecache::{mint_owner_id, EvictableSlot, StageCache, StageCacheStats};
