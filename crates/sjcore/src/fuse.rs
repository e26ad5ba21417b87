//! Fused narrow kernels over columnar partitions.
//!
//! Narrow transformations (unit conversion, the two explodes, the two
//! ratio rules) are cheap per record but expensive as separate lineage
//! stages: each rowwise stage re-clones every `Row` it touches. On the
//! columnar path they are instead recorded as [`ColKernel`]s on the
//! dataset at lineage-build time and materialized lazily as **one**
//! per-partition pass ([`apply_kernels`]) when a wide operation or
//! action finally needs the data — a chain of `convert → explode →
//! convert` costs a single task and zero intermediate row
//! materializations.
//!
//! Every kernel reproduces its rowwise counterpart exactly (same formulas,
//! same null handling, same row order), which the columnar-identity sweep
//! asserts byte-for-byte.

use crate::column::{Column, ColumnarPartition, FloatBuilder};
use crate::units::{convert_value, UnitKind, UnitsDef};
use crate::value::Value;

/// One recorded narrow transformation, applied column-at-a-time.
#[derive(Debug, Clone, PartialEq)]
pub enum ColKernel {
    /// Linear unit conversion of one column (see
    /// [`crate::derivations::transform::ConvertUnits`]).
    Convert {
        /// Target column index.
        idx: usize,
        /// Source units.
        from: UnitsDef,
        /// Destination units.
        to: UnitsDef,
    },
    /// Explode a list column into one row per element (see
    /// [`crate::derivations::transform::ExplodeDiscrete`]).
    ExplodeDiscrete {
        /// Target column index.
        idx: usize,
    },
    /// Explode a span column into one row per contained instant (see
    /// [`crate::derivations::transform::ExplodeContinuous`]).
    ExplodeContinuous {
        /// Target column index.
        idx: usize,
        /// Step between instants, in seconds.
        step_secs: f64,
    },
    /// Append `scale × numerator / denominator` as a Float column, null
    /// unless both operands are numeric and the denominator is nonzero
    /// (see [`crate::derivations::transform::DeriveRatio`]).
    Ratio {
        /// Numerator column index.
        num: usize,
        /// Denominator column index.
        den: usize,
        /// Constant multiplier.
        scale: f64,
    },
    /// Append `base × aperf / mperf` as a Float column, null unless all
    /// three are numeric and `mperf > 0` (see
    /// [`crate::derivations::transform::DeriveActiveFrequency`]).
    ActiveFrequency {
        /// APERF rate column index.
        aperf: usize,
        /// MPERF rate column index.
        mperf: usize,
        /// Base-frequency column index.
        base: usize,
    },
}

impl ColKernel {
    /// Kernel name, for metrics and debugging.
    pub fn name(&self) -> &'static str {
        match self {
            ColKernel::Convert { .. } => "convert_units",
            ColKernel::ExplodeDiscrete { .. } => "explode_discrete",
            ColKernel::ExplodeContinuous { .. } => "explode_continuous",
            ColKernel::Ratio { .. } => "derive_ratio",
            ColKernel::ActiveFrequency { .. } => "derive_active_frequency",
        }
    }

    /// Apply this kernel to one partition. Empty batches (including the
    /// zero-column padding partitions `from_rows` emits) pass through
    /// untouched — there are no cells to transform and their column
    /// layout is never observed downstream.
    pub fn apply(&self, batch: &ColumnarPartition) -> ColumnarPartition {
        if batch.is_empty() {
            return batch.clone();
        }
        match self {
            ColKernel::Convert { idx, from, to } => convert_column(batch, *idx, from, to),
            ColKernel::ExplodeDiscrete { idx } => explode_discrete(batch, *idx),
            ColKernel::ExplodeContinuous { idx, step_secs } => {
                explode_continuous(batch, *idx, *step_secs)
            }
            // Both ratios keep the rowwise operand order,
            // `(factor × numerator) / denominator`, so the bits match.
            ColKernel::Ratio { num, den, scale } => {
                let (n, d) = (batch.column(*num), batch.column(*den));
                append_float(batch, |r| match (n.f64_at(r), d.f64_at(r)) {
                    (Some(n), Some(d)) if d != 0.0 => Some(scale * n / d),
                    _ => None,
                })
            }
            ColKernel::ActiveFrequency { aperf, mperf, base } => {
                let (a, m, b) = (
                    batch.column(*aperf),
                    batch.column(*mperf),
                    batch.column(*base),
                );
                append_float(batch, |r| match (a.f64_at(r), m.f64_at(r), b.f64_at(r)) {
                    (Some(a), Some(m), Some(b)) if m > 0.0 => Some(b * a / m),
                    _ => None,
                })
            }
        }
    }
}

/// Append one Float column whose cell at row `r` is `cell(r)`.
fn append_float(
    batch: &ColumnarPartition,
    cell: impl Fn(usize) -> Option<f64>,
) -> ColumnarPartition {
    let mut out = FloatBuilder::with_capacity(batch.len());
    for r in 0..batch.len() {
        out.push(cell(r));
    }
    batch.append_column(out.finish())
}

/// Run a chain of kernels over one partition in a single pass.
pub fn apply_kernels(batch: &ColumnarPartition, kernels: &[ColKernel]) -> ColumnarPartition {
    match kernels {
        [] => batch.clone(),
        [first, rest @ ..] => {
            let mut out = first.apply(batch);
            for k in rest {
                out = k.apply(&out);
            }
            out
        }
    }
}

/// Columnar unit conversion: a tight loop over the numeric lane. Matches
/// the rowwise `convert_value(..).unwrap_or(Null)` cell semantics:
/// numeric cells convert (ints and timestamps widen to float first),
/// nulls stay null, non-numeric cells become null.
fn convert_column(
    batch: &ColumnarPartition,
    idx: usize,
    from: &UnitsDef,
    to: &UnitsDef,
) -> ColumnarPartition {
    use crate::column::ColumnData;
    let col = batch.column(idx);
    let n = col.len();
    // Both units are scalar by the time a kernel is recorded (the
    // transformation validates at schema-derivation time); the fallback
    // covers anything else for exact parity with the rowwise path.
    let linear = match (&from.kind, &to.kind) {
        (
            UnitKind::Scalar {
                factor: f1,
                offset: o1,
            },
            UnitKind::Scalar {
                factor: f2,
                offset: o2,
            },
        ) if from.dimension == to.dimension => Some((*f1, *o1, *f2, *o2)),
        _ => None,
    };
    let out = match (col.data(), linear) {
        (ColumnData::Float(v), Some((f1, o1, f2, o2))) => {
            let mut b = FloatBuilder::with_capacity(n);
            for (i, x) in v.iter().enumerate() {
                b.push(col.validity().get(i).then(|| {
                    let base = x * f1 + o1;
                    (base - o2) / f2
                }));
            }
            b.finish()
        }
        (ColumnData::Int(v), Some((f1, o1, f2, o2))) => {
            let mut b = FloatBuilder::with_capacity(n);
            for (i, x) in v.iter().enumerate() {
                b.push(col.validity().get(i).then(|| {
                    let base = (*x as f64) * f1 + o1;
                    (base - o2) / f2
                }));
            }
            b.finish()
        }
        _ => {
            // Time, Str, and Mixed lanes go cell-by-cell through the same
            // helper the rowwise kernel uses.
            let mut b = FloatBuilder::with_capacity(n);
            let mut any_non_float = false;
            let mut fallback: Vec<Value> = Vec::new();
            for i in 0..n {
                let v = col.value_at(i);
                let converted = convert_value(&v, from, to).unwrap_or(Value::Null);
                match converted {
                    Value::Float(x) => b.push(Some(x)),
                    Value::Null => b.push(None),
                    other => {
                        // Unreachable today (convert_value yields Float or
                        // Null), kept so a future variant can't corrupt the
                        // lane silently.
                        any_non_float = true;
                        fallback.push(other);
                        b.push(None);
                    }
                }
            }
            if any_non_float {
                let values: Vec<Value> = (0..n)
                    .map(|i| convert_value(&col.value_at(i), from, to).unwrap_or(Value::Null))
                    .collect();
                Column::from_values(&values)
            } else {
                b.finish()
            }
        }
    };
    batch.with_column(idx, out)
}

/// Columnar explode-discrete: compute the replication index vector once,
/// gather every other column through it, and rebuild only the exploded
/// column. List cells emit one row per element, null cells emit nothing,
/// scalar cells pass through unchanged.
fn explode_discrete(batch: &ColumnarPartition, idx: usize) -> ColumnarPartition {
    let col = batch.column(idx);
    let mut gather_idx: Vec<u32> = Vec::with_capacity(batch.len());
    let mut out_vals: Vec<Value> = Vec::with_capacity(batch.len());
    for r in 0..batch.len() {
        match col.value_at(r) {
            Value::List(items) => {
                for item in items.iter() {
                    gather_idx.push(r as u32);
                    out_vals.push(item.clone());
                }
            }
            Value::Null => {}
            other => {
                gather_idx.push(r as u32);
                out_vals.push(other);
            }
        }
    }
    batch
        .gather(&gather_idx)
        .with_column(idx, Column::from_values(&out_vals))
}

/// Columnar explode-continuous: same replication scheme as
/// [`explode_discrete`], stepping through span cells at `step_secs`.
fn explode_continuous(batch: &ColumnarPartition, idx: usize, step_secs: f64) -> ColumnarPartition {
    let col = batch.column(idx);
    let mut gather_idx: Vec<u32> = Vec::with_capacity(batch.len());
    let mut out_vals: Vec<Value> = Vec::with_capacity(batch.len());
    for r in 0..batch.len() {
        match col.value_at(r) {
            Value::Span(span) => {
                for t in span.explode(step_secs) {
                    gather_idx.push(r as u32);
                    out_vals.push(Value::Time(t));
                }
            }
            Value::Null => {}
            other => {
                gather_idx.push(r as u32);
                out_vals.push(other);
            }
        }
    }
    batch
        .gather(&gather_idx)
        .with_column(idx, Column::from_values(&out_vals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::time::{TimeSpan, Timestamp};
    use crate::Row;

    fn scalar(name: &str, dim: &str, factor: f64, offset: f64) -> UnitsDef {
        UnitsDef::new(name, dim, UnitKind::Scalar { factor, offset })
    }

    #[test]
    fn convert_kernel_matches_rowwise_cell_semantics() {
        let f = scalar("fahrenheit", "temperature", 5.0 / 9.0, -160.0 / 9.0);
        let c = scalar("celsius", "temperature", 1.0, 0.0);
        let rows = vec![
            Row::new(vec![Value::Float(212.0)]),
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::Float(32.0)]),
        ];
        let batch = ColumnarPartition::from_rows(&rows);
        let out = ColKernel::Convert {
            idx: 0,
            from: f.clone(),
            to: c.clone(),
        }
        .apply(&batch);
        let expect: Vec<Value> = rows
            .iter()
            .map(|r| convert_value(r.get(0), &f, &c).unwrap_or(Value::Null))
            .collect();
        let got: Vec<Value> = out.to_rows().iter().map(|r| r.get(0).clone()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn convert_kernel_widens_ints_and_nulls_strings() {
        let s = scalar("seconds", "duration", 1.0, 0.0);
        let m = scalar("minutes", "duration", 60.0, 0.0);
        let rows = vec![
            Row::new(vec![Value::Int(120)]),
            Row::new(vec![Value::str("oops")]),
        ];
        // Int+Str in one column lands on the Mixed lane.
        let out = ColKernel::Convert {
            idx: 0,
            from: s,
            to: m,
        }
        .apply(&ColumnarPartition::from_rows(&rows));
        assert_eq!(out.value_at(0, 0), Value::Float(2.0));
        assert_eq!(out.value_at(1, 0), Value::Null);
    }

    #[test]
    fn explode_discrete_kernel_replicates_rows() {
        let rows = vec![
            Row::new(vec![
                Value::str("j1"),
                Value::list([Value::str("n1"), Value::str("n2")]),
            ]),
            Row::new(vec![Value::str("j2"), Value::Null]),
            Row::new(vec![Value::str("j3"), Value::str("already-scalar")]),
        ];
        let out = ColKernel::ExplodeDiscrete { idx: 1 }.apply(&ColumnarPartition::from_rows(&rows));
        assert_eq!(out.len(), 3);
        let got: Vec<(Value, Value)> = (0..out.len())
            .map(|r| (out.value_at(r, 0), out.value_at(r, 1)))
            .collect();
        assert_eq!(
            got,
            vec![
                (Value::str("j1"), Value::str("n1")),
                (Value::str("j1"), Value::str("n2")),
                (Value::str("j3"), Value::str("already-scalar")),
            ]
        );
    }

    #[test]
    fn explode_continuous_kernel_steps_spans() {
        let rows = vec![Row::new(vec![
            Value::str("j1"),
            Value::Span(TimeSpan::new(
                Timestamp::from_secs(0),
                Timestamp::from_secs(120),
            )),
        ])];
        let out = ColKernel::ExplodeContinuous {
            idx: 1,
            step_secs: 60.0,
        }
        .apply(&ColumnarPartition::from_rows(&rows));
        assert_eq!(out.len(), 2);
        assert_eq!(out.value_at(0, 1), Value::Time(Timestamp::from_secs(0)));
        assert_eq!(out.value_at(1, 1), Value::Time(Timestamp::from_secs(60)));
    }

    #[test]
    fn kernel_chain_fuses_in_one_pass() {
        let s = scalar("seconds", "duration", 1.0, 0.0);
        let m = scalar("minutes", "duration", 60.0, 0.0);
        let rows = vec![Row::new(vec![
            Value::list([Value::Int(60), Value::Int(120)]),
            Value::Span(TimeSpan::new(
                Timestamp::from_secs(0),
                Timestamp::from_secs(60),
            )),
        ])];
        let kernels = vec![
            ColKernel::ExplodeDiscrete { idx: 0 },
            ColKernel::Convert {
                idx: 0,
                from: s,
                to: m,
            },
            ColKernel::ExplodeContinuous {
                idx: 1,
                step_secs: 60.0,
            },
        ];
        let out = apply_kernels(&ColumnarPartition::from_rows(&rows), &kernels);
        assert_eq!(out.len(), 2);
        assert_eq!(out.value_at(0, 0), Value::Float(1.0));
        assert_eq!(out.value_at(1, 0), Value::Float(2.0));
        assert!(matches!(out.value_at(0, 1), Value::Time(_)));
    }

    #[test]
    fn empty_kernel_list_is_identity() {
        let batch = ColumnarPartition::from_rows(&[Row::new(vec![Value::Int(1)])]);
        assert_eq!(apply_kernels(&batch, &[]), batch);
    }
}
