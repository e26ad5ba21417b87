//! # sjcore — ScrubJay core
//!
//! A Rust reproduction of ScrubJay (SC '17): semantic annotation of
//! heterogeneous HPC performance data, reusable derivations
//! (transformations and combinations, including the paper's novel
//! interpolation join), and a derivation engine that satisfies logical
//! queries by searching — over data semantics only — for a sequence of
//! derivations, then executing it as data-parallel operations.
//!
//! The crate layers:
//! * [`value`] / [`row`] / [`schema`] — the ScrubJayRDD data model
//! * [`units`] / [`semantics`] — the semantic dictionary and type system
//! * [`dataset`] — the annotated distributed dataset
//! * [`wrappers`] — data wrappers (CSV, KV store) and unwrappers
//! * [`derivations`] — transformations and combinations
//! * [`engine`] — queries, the Algorithm-1 search, and reproducible plans
//! * [`cache`] — the opt-in LRU intermediate-result cache
//! * [`catalog`] — the knowledge base of named datasets and rules
//!
//! ```
//! use sjcore::catalog::Catalog;
//! use sjcore::engine::{Query, QueryEngine, QueryValue};
//! use sjcore::{FieldDef, FieldSemantics, Row, Schema, SjDataset, Value};
//! use sjdf::ExecCtx;
//!
//! // Annotate and register two raw tables that share only the
//! // compute-node dimension (under different column names).
//! let ctx = ExecCtx::local();
//! let mut catalog = Catalog::default_hpc();
//! let temps = Schema::new(vec![
//!     FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
//!     FieldDef::new("temp", FieldSemantics::value("temperature", "celsius")),
//! ])?;
//! catalog.register_dataset("temps", SjDataset::from_rows(
//!     &ctx,
//!     vec![Row::new(vec![Value::str("cab5"), Value::Float(67.4)])],
//!     temps, "temps", 1,
//! ))?;
//! let layout = Schema::new(vec![
//!     FieldDef::new("NODEID", FieldSemantics::domain("compute-node", "node-id")),
//!     FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
//! ])?;
//! catalog.register_dataset("layout", SjDataset::from_rows(
//!     &ctx,
//!     vec![Row::new(vec![Value::str("cab5"), Value::str("rack17")])],
//!     layout, "layout", 1,
//! ))?;
//!
//! // Ask for temperatures per rack; the engine finds the natural join.
//! let query = Query::new(["rack"], vec![QueryValue::dim("temperature")]);
//! let plan = QueryEngine::new(&catalog).solve(&query)?;
//! let result = plan.execute(&catalog, None)?;
//! assert_eq!(result.count()?, 1);
//! # Ok::<(), sjcore::SjError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod column;
pub mod dataset;
pub mod derivations;
pub mod engine;
pub mod error;
pub mod fuse;
pub mod interop;
pub mod row;
pub mod schema;
pub mod semantics;
pub mod units;
pub mod value;
pub mod window;
pub mod wrappers;

pub use column::{Column, ColumnData, ColumnarPartition, Validity};
pub use dataset::SjDataset;
pub use error::{Result, SjError};
pub use fuse::ColKernel;
pub use row::Row;
pub use schema::{FieldDef, Schema};
pub use semantics::{FieldSemantics, RelationType, SemanticDictionary};
pub use units::time::{TimeSpan, Timestamp};
pub use value::Value;
