//! `SjDataset`: the ScrubJayRDD — a distributed dataset plus its semantic
//! schema and provenance name.
//!
//! The dataset carries one of two physical representations:
//!
//! * **Rows** — the original `Rdd<Row>` layout. Selected when the
//!   execution context runs in rowwise mode
//!   ([`sjdf::ExecCtx::set_rowwise`]); kept intact as the reference
//!   baseline the columnar path is benchmarked and byte-identity-checked
//!   against.
//! * **Batches** — the columnar layout (default): an
//!   `Rdd<ColumnarPartition>` of typed column vectors, plus a queue of
//!   *pending* narrow kernels ([`ColKernel`]) accumulated at
//!   lineage-build time and fused into a single per-partition pass when
//!   the data is finally needed.
//!
//! Either way the logical contents are rows. On the columnar path every
//! derivation reads [`SjDataset::batch_rdd`]: the narrow ones queue
//! fused kernels, and the wide ones (derive-rate, derive-heat, the
//! natural and interpolation joins) shuffle typed sub-batches.
//! [`SjDataset::rdd`] yields the row view for the rowwise reference
//! kernels and for the few consumers outside the derivation plans
//! (`head` and the `interop` helpers).

use crate::column::ColumnarPartition;
use crate::error::Result;
use crate::fuse::{apply_kernels, ColKernel};
use crate::row::Row;
use crate::schema::Schema;
use crate::semantics::SemanticDictionary;
use crate::value::Value;
use sjdf::{ExecCtx, Rdd};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Rows(Rdd<Row>),
    Batches {
        rdd: Rdd<ColumnarPartition>,
        pending: Arc<Vec<ColKernel>>,
    },
}

/// A semantically annotated, distributed, lazy dataset (the paper's
/// ScrubJayRDD).
#[derive(Clone)]
pub struct SjDataset {
    repr: Repr,
    schema: Schema,
    name: String,
    /// Monotonic ingest version. Batch datasets stay at 0; streaming
    /// ingestion bumps the epoch on every accepted append so cached
    /// evaluations can be keyed on (epoch, window id).
    epoch: u64,
}

impl SjDataset {
    /// Wrap an existing row RDD with a schema and a provenance name. In
    /// columnar mode the rows are re-batched lazily (one typed batch per
    /// partition); in rowwise mode they are kept as-is.
    pub fn new(rdd: Rdd<Row>, schema: Schema, name: impl Into<String>) -> Self {
        let repr = if rdd.ctx().columnar() {
            Repr::Batches {
                rdd: rows_to_batches(&rdd),
                pending: Arc::new(Vec::new()),
            }
        } else {
            Repr::Rows(rdd)
        };
        SjDataset {
            repr,
            schema,
            name: name.into(),
            epoch: 0,
        }
    }

    /// Wrap an existing columnar RDD with a schema and a provenance name.
    pub fn from_batches(
        rdd: Rdd<ColumnarPartition>,
        schema: Schema,
        name: impl Into<String>,
    ) -> Self {
        SjDataset {
            repr: Repr::Batches {
                rdd,
                pending: Arc::new(Vec::new()),
            },
            schema,
            name: name.into(),
            epoch: 0,
        }
    }

    /// Distribute in-memory rows over `parts` partitions. In columnar mode
    /// the batches are built eagerly on the driver (mirroring
    /// `Rdd::parallelize`'s contiguous chunking) so later actions never
    /// re-transpose the source.
    pub fn from_rows(
        ctx: &ExecCtx,
        rows: Vec<Row>,
        schema: Schema,
        name: impl Into<String>,
        parts: usize,
    ) -> Self {
        if !ctx.columnar() {
            return SjDataset {
                repr: Repr::Rows(Rdd::parallelize(ctx, rows, parts)),
                schema,
                name: name.into(),
                epoch: 0,
            };
        }
        let parts = parts.max(1);
        let per = rows.len().div_ceil(parts).max(1);
        let batches: Vec<ColumnarPartition> = rows
            .chunks(per)
            .map(ColumnarPartition::from_rows)
            .chain(std::iter::repeat_with(|| ColumnarPartition::empty(0)))
            .take(parts)
            .collect();
        SjDataset::from_batches(Rdd::parallelize(ctx, batches, parts), schema, name)
    }

    /// The dataset's semantic schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Provenance name (source dataset or derivation description).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The execution context this dataset is bound to.
    pub fn ctx(&self) -> &ExecCtx {
        match &self.repr {
            Repr::Rows(r) => r.ctx(),
            Repr::Batches { rdd, .. } => rdd.ctx(),
        }
    }

    /// True if this dataset is physically columnar.
    pub fn is_columnar(&self) -> bool {
        matches!(self.repr, Repr::Batches { .. })
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        match &self.repr {
            Repr::Rows(r) => r.num_partitions(),
            Repr::Batches { rdd, .. } => rdd.num_partitions(),
        }
    }

    /// The distributed row view. For columnar datasets this appends a
    /// lazy `to_rows` stage (after flushing pending fused kernels);
    /// rowwise datasets return their RDD directly.
    pub fn rdd(&self) -> Rdd<Row> {
        match &self.repr {
            Repr::Rows(r) => r.clone(),
            Repr::Batches { .. } => self
                .batch_rdd()
                .map_partitions_named("to_rows", move |batches| {
                    batches.iter().flat_map(|b| b.to_rows()).collect()
                }),
        }
    }

    /// The distributed columnar view, with any pending narrow kernels
    /// fused into a single per-partition pass. Rowwise datasets are
    /// transposed lazily.
    pub fn batch_rdd(&self) -> Rdd<ColumnarPartition> {
        match &self.repr {
            Repr::Rows(r) => rows_to_batches(r),
            Repr::Batches { rdd, pending } => {
                if pending.is_empty() {
                    rdd.clone()
                } else {
                    let kernels = Arc::clone(pending);
                    rdd.map_partitions_named("fused_narrow", move |batches| {
                        batches.iter().map(|b| apply_kernels(b, &kernels)).collect()
                    })
                }
            }
        }
    }

    /// Record a narrow kernel to run fused with any already pending, and
    /// install the post-kernel schema and provenance name. Rowwise
    /// datasets are first transposed (callers on the rowwise path use the
    /// per-row transformation instead).
    pub fn with_kernel(&self, kernel: ColKernel, schema: Schema, name: impl Into<String>) -> Self {
        let (rdd, mut pending) = match &self.repr {
            Repr::Rows(r) => (rows_to_batches(r), Vec::new()),
            Repr::Batches { rdd, pending } => (rdd.clone(), pending.as_ref().clone()),
        };
        pending.push(kernel);
        SjDataset {
            repr: Repr::Batches {
                rdd,
                pending: Arc::new(pending),
            },
            schema,
            name: name.into(),
            epoch: 0,
        }
    }

    /// The dataset's ingest epoch (0 for frozen batch datasets).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Tag this dataset with an ingest epoch (streaming re-registration).
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Replace the provenance name.
    pub fn renamed(self, name: impl Into<String>) -> Self {
        SjDataset {
            name: name.into(),
            ..self
        }
    }

    /// Validate the schema against a dictionary.
    pub fn validate(&self, dict: &SemanticDictionary) -> Result<()> {
        self.schema.validate(dict)
    }

    /// Evaluate and gather all rows.
    pub fn collect(&self) -> Result<Vec<Row>> {
        match &self.repr {
            Repr::Rows(r) => Ok(r.collect()?),
            Repr::Batches { .. } => {
                let batches = self.batch_rdd().collect()?;
                Ok(batches.iter().flat_map(|b| b.to_rows()).collect())
            }
        }
    }

    /// Evaluate and count rows. Columnar datasets count from batch
    /// lengths without rebuilding rows.
    pub fn count(&self) -> Result<usize> {
        match &self.repr {
            Repr::Rows(r) => Ok(r.count()?),
            Repr::Batches { .. } => {
                let lens = self.batch_rdd().map(|b| b.len()).collect()?;
                Ok(lens.into_iter().sum())
            }
        }
    }

    /// First `n` rows in partition order.
    pub fn head(&self, n: usize) -> Result<Vec<Row>> {
        Ok(self.rdd().take(n)?)
    }

    /// Evaluate and gather one column by name.
    pub fn collect_column(&self, column: &str) -> Result<Vec<Value>> {
        let idx = self.schema.index_of(column)?;
        match &self.repr {
            Repr::Rows(r) => {
                let rows = r.collect()?;
                Ok(rows.into_iter().map(|r| r.get(idx).clone()).collect())
            }
            Repr::Batches { .. } => {
                let batches = self.batch_rdd().collect()?;
                Ok(batches
                    .iter()
                    .flat_map(|b| (0..b.len()).map(|r| b.value_at(r, idx)))
                    .collect())
            }
        }
    }

    /// Render the first `n` rows as an aligned text table (for examples
    /// and debugging).
    pub fn show(&self, n: usize) -> Result<String> {
        let rows = self.head(n)?;
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                r.values()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = v.to_string();
                        if i < widths.len() {
                            widths[i] = widths[i].max(s.len());
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        for r in &rendered {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        Ok(out)
    }
}

/// Lazily transpose a row RDD into one typed batch per partition.
fn rows_to_batches(rdd: &Rdd<Row>) -> Rdd<ColumnarPartition> {
    rdd.map_partitions_named("to_columnar", |rows| {
        vec![ColumnarPartition::from_rows(&rows)]
    })
}

impl std::fmt::Debug for SjDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SjDataset({}, {} partitions, {}, schema {})",
            self.name,
            self.num_partitions(),
            if self.is_columnar() {
                "columnar"
            } else {
                "rowwise"
            },
            self.schema
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldDef;
    use crate::semantics::FieldSemantics;

    fn sample(ctx: &ExecCtx) -> SjDataset {
        let schema = Schema::new(vec![
            FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
            FieldDef::new("temp", FieldSemantics::value("temperature", "celsius")),
        ])
        .unwrap();
        let rows = vec![
            Row::new(vec![Value::str("cab1"), Value::Float(61.0)]),
            Row::new(vec![Value::str("cab2"), Value::Float(64.5)]),
            Row::new(vec![Value::str("cab3"), Value::Float(59.9)]),
        ];
        SjDataset::from_rows(ctx, rows, schema, "temps", 2)
    }

    #[test]
    fn round_trip_rows() {
        let ctx = ExecCtx::local();
        let ds = sample(&ctx);
        assert!(ds.is_columnar());
        assert_eq!(ds.count().unwrap(), 3);
        let rows = ds.collect().unwrap();
        assert_eq!(rows[0].get(0).as_str(), Some("cab1"));
    }

    #[test]
    fn rowwise_mode_keeps_row_repr() {
        let ctx = ExecCtx::local().with_rowwise();
        let ds = sample(&ctx);
        assert!(!ds.is_columnar());
        assert_eq!(ds.count().unwrap(), 3);
        assert_eq!(ds.collect().unwrap()[2].get(0).as_str(), Some("cab3"));
    }

    #[test]
    fn both_modes_agree_on_contents() {
        let columnar = {
            let ctx = ExecCtx::local();
            sample(&ctx).collect().unwrap()
        };
        let rowwise = {
            let ctx = ExecCtx::local().with_rowwise();
            sample(&ctx).collect().unwrap()
        };
        assert_eq!(columnar, rowwise);
    }

    #[test]
    fn row_view_of_columnar_dataset_matches() {
        let ctx = ExecCtx::local();
        let ds = sample(&ctx);
        let via_rdd = ds.rdd().collect().unwrap();
        assert_eq!(via_rdd, ds.collect().unwrap());
        assert_eq!(ds.num_partitions(), 2);
    }

    #[test]
    fn collect_column_extracts_cells() {
        let ctx = ExecCtx::local();
        let ds = sample(&ctx);
        let temps = ds.collect_column("temp").unwrap();
        assert_eq!(temps.len(), 3);
        assert_eq!(temps[1], Value::Float(64.5));
        assert!(ds.collect_column("nope").is_err());
    }

    #[test]
    fn validates_against_dictionary() {
        let ctx = ExecCtx::local();
        let ds = sample(&ctx);
        ds.validate(&SemanticDictionary::default_hpc()).unwrap();
        ds.validate(&SemanticDictionary::empty()).unwrap_err();
    }

    #[test]
    fn show_renders_aligned_table() {
        let ctx = ExecCtx::local();
        let out = sample(&ctx).show(2).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("node"));
        assert!(lines[1].contains("cab1"));
    }

    #[test]
    fn renamed_changes_provenance() {
        let ctx = ExecCtx::local();
        let ds = sample(&ctx).renamed("derived");
        assert_eq!(ds.name(), "derived");
    }

    #[test]
    fn more_partitions_than_rows_pads_with_empty_batches() {
        let ctx = ExecCtx::local();
        let schema = Schema::new(vec![FieldDef::new(
            "node",
            FieldSemantics::domain("compute-node", "node-id"),
        )])
        .unwrap();
        let rows = vec![Row::new(vec![Value::str("cab1")])];
        let ds = SjDataset::from_rows(&ctx, rows, schema, "tiny", 4);
        assert_eq!(ds.num_partitions(), 4);
        assert_eq!(ds.count().unwrap(), 1);
    }
}
