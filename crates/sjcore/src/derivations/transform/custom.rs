//! Domain-specific derivations provided by system experts (§7).
//!
//! These are the reusable expert-contributed derivations from the paper's
//! case studies: the rack heat function (§7.2), the active-CPU-frequency
//! function (§7.3), and the generic ratio derivation both are built on.
//!
//! On the columnar path the two ratio rules are fused
//! [`ColKernel`]s and the heat rule is a batch-native keyed kernel
//! (scatter, group, gather). Their row-at-a-time code runs only in
//! rowwise mode, as the reference the column kernels are checked
//! against.

use crate::column::{ColumnarPartition, FloatBuilder};
use crate::dataset::SjDataset;
use crate::derivations::keyed::{scatter_by_key, KeyGroups, RowKeys};
use crate::derivations::{not_applicable, DerivationSpec, Transformation};
use crate::error::Result;
use crate::fuse::ColKernel;
use crate::row::Row;
use crate::schema::{FieldDef, Schema};
use crate::semantics::{FieldSemantics, SemanticDictionary};
use crate::value::Value;
use sjdf::Rdd;

// ---------------------------------------------------------------------------
// DeriveRatio
// ---------------------------------------------------------------------------

/// Derive a new value column as `scale * numerator / denominator`
/// (e.g. instructions per elapsed second).
#[derive(Debug, Clone, PartialEq)]
pub struct DeriveRatio {
    /// Name of the new column.
    pub new_column: String,
    /// Dimension of the new column.
    pub dimension: String,
    /// Units of the new column.
    pub units: String,
    /// Numerator column name.
    pub numerator: String,
    /// Denominator column name.
    pub denominator: String,
    /// Constant multiplier.
    pub scale: f64,
}

impl Transformation for DeriveRatio {
    fn name(&self) -> &'static str {
        "derive_ratio"
    }

    fn derive_schema(&self, schema: &Schema, dict: &SemanticDictionary) -> Result<Schema> {
        schema.index_of(&self.numerator)?;
        schema.index_of(&self.denominator)?;
        let sem = FieldSemantics::value(&self.dimension, &self.units);
        dict.validate(&sem)?;
        if schema.has_column(&self.new_column) {
            return Err(not_applicable(
                self.name(),
                format!("output column `{}` already exists", self.new_column),
            ));
        }
        schema.with_field(FieldDef::new(&self.new_column, sem))
    }

    fn apply(&self, ds: &SjDataset, dict: &SemanticDictionary) -> Result<SjDataset> {
        let out_schema = self.derive_schema(ds.schema(), dict)?;
        let num = ds.schema().index_of(&self.numerator)?;
        let den = ds.schema().index_of(&self.denominator)?;
        let scale = self.scale;
        let name = format!("derive_ratio({})", ds.name());
        if ds.is_columnar() {
            let kernel = ColKernel::Ratio { num, den, scale };
            return Ok(ds.with_kernel(kernel, out_schema, name));
        }
        let rdd = ds.rdd().map_partitions_named("derive_ratio", move |rows| {
            rows.into_iter()
                .map(|row| {
                    let v = match (row.get(num).as_f64(), row.get(den).as_f64()) {
                        (Some(n), Some(d)) if d != 0.0 => Value::Float(scale * n / d),
                        _ => Value::Null,
                    };
                    row.with_appended(v)
                })
                .collect()
        });
        Ok(SjDataset::new(rdd, out_schema, name))
    }

    fn spec(&self) -> DerivationSpec {
        DerivationSpec::DeriveRatio {
            new_column: self.new_column.clone(),
            dimension: self.dimension.clone(),
            units: self.units.clone(),
            numerator: self.numerator.clone(),
            denominator: self.denominator.clone(),
            scale: self.scale,
        }
    }
}

// ---------------------------------------------------------------------------
// DeriveHeat
// ---------------------------------------------------------------------------

/// Approximate instantaneous heat generation per (rack, location, time) as
/// the hot-aisle temperature minus the cold-aisle temperature (§7.2).
///
/// Input: a dataset with domain columns on the `rack`, `rack-location`,
/// `aisle`, and `time` dimensions and a `temperature` value column.
/// Output: domains (rack, location, time) plus a `heat` value column; the
/// aisle domain is consumed by the hot−cold difference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeriveHeat;

struct HeatIndices {
    rack: usize,
    location: usize,
    aisle: usize,
    time: usize,
    temp: usize,
}

impl DeriveHeat {
    fn analyze(&self, schema: &Schema) -> Result<HeatIndices> {
        let need = |dim: &str, domain: bool| -> Result<usize> {
            schema
                .fields()
                .iter()
                .position(|f| f.semantics.dimension == dim && f.semantics.is_domain() == domain)
                .ok_or_else(|| {
                    not_applicable(
                        "derive_heat",
                        format!(
                            "missing {} column on dimension `{dim}`",
                            if domain { "domain" } else { "value" }
                        ),
                    )
                })
        };
        Ok(HeatIndices {
            rack: need("rack", true)?,
            location: need("rack-location", true)?,
            aisle: need("aisle", true)?,
            time: need("time", true)?,
            temp: need("temperature", false)?,
        })
    }
}

impl Transformation for DeriveHeat {
    fn name(&self) -> &'static str {
        "derive_heat"
    }

    fn derive_schema(&self, schema: &Schema, _dict: &SemanticDictionary) -> Result<Schema> {
        let ix = self.analyze(schema)?;
        let f = schema.fields();
        Schema::new(vec![
            f[ix.rack].clone(),
            f[ix.location].clone(),
            f[ix.time].clone(),
            FieldDef::new("heat", FieldSemantics::value("heat", "delta-celsius")),
        ])
    }

    fn apply(&self, ds: &SjDataset, dict: &SemanticDictionary) -> Result<SjDataset> {
        let out_schema = self.derive_schema(ds.schema(), dict)?;
        let ix = self.analyze(ds.schema())?;
        let parts = ds.num_partitions().max(1);
        let name = format!("derive_heat({})", ds.name());
        if ds.is_columnar() {
            let rdd = derive_heat_columnar(ds, ix, parts);
            return Ok(SjDataset::from_batches(rdd, out_schema, name));
        }
        let (rack, location, aisle, time, temp) =
            (ix.rack, ix.location, ix.aisle, ix.time, ix.temp);
        let keyed = ds.rdd().map_partitions_named("key_by_sensor", move |rows| {
            rows.into_iter()
                .map(|r| (r.key_of(&[rack, location, time]), r))
                .collect()
        });
        let rdd = keyed
            .group_by_key(parts)
            .map_partitions_named("derive_heat", move |groups| {
                let mut out = Vec::new();
                for (_, rows) in groups {
                    let mut hot = None;
                    let mut cold = None;
                    for r in &rows {
                        match r.get(aisle).as_str() {
                            Some("hot") => hot = r.get(temp).as_f64(),
                            Some("cold") => cold = r.get(temp).as_f64(),
                            _ => {}
                        }
                    }
                    if let (Some(h), Some(c), Some(first)) = (hot, cold, rows.first()) {
                        out.push(Row::new(vec![
                            first.get(rack).clone(),
                            first.get(location).clone(),
                            first.get(time).clone(),
                            Value::Float(h - c),
                        ]));
                    }
                }
                out
            });
        Ok(SjDataset::new(rdd, out_schema, name))
    }

    fn spec(&self) -> DerivationSpec {
        DerivationSpec::DeriveHeat
    }
}

/// The columnar heat kernel: scatter on (rack, location, time), group
/// each destination's rows by key in arrival order, and keep per group
/// the last hot and the last cold temperature — a later null or
/// non-numeric reading overrides an earlier one, as in the rowwise loop.
/// The output is the group's first row's key cells (one `gather` per key
/// column) plus one Float heat column.
fn derive_heat_columnar(ds: &SjDataset, ix: HeatIndices, parts: usize) -> Rdd<ColumnarPartition> {
    let HeatIndices {
        rack,
        location,
        aisle,
        time,
        temp,
    } = ix;
    let key = vec![rack, location, time];
    scatter_by_key(
        &ds.batch_rdd(),
        "heat_scatter",
        key.clone(),
        parts,
        |_, _| true,
    )
    .map_partitions_named("derive_heat", move |bs| {
        let batch = ColumnarPartition::concat_owned(bs);
        if batch.is_empty() {
            return Vec::new();
        }
        let keys = RowKeys::encode(&batch, &key);
        let (aisles, temps) = (batch.column(aisle), batch.column(temp));
        let mut first: Vec<u32> = Vec::new();
        let mut heat = FloatBuilder::default();
        for rows in KeyGroups::new(&keys).iter() {
            let (mut hot, mut cold) = (None, None);
            for &r in rows {
                let r = r as usize;
                match aisles.str_at(r) {
                    Some("hot") => hot = temps.f64_at(r),
                    Some("cold") => cold = temps.f64_at(r),
                    _ => {}
                }
            }
            if let (Some(h), Some(c)) = (hot, cold) {
                first.push(rows[0]);
                heat.push(Some(h - c));
            }
        }
        let columns = key
            .iter()
            .map(|&c| batch.column(c).gather(&first))
            .chain([heat.finish()])
            .collect();
        vec![ColumnarPartition::from_columns(columns)]
    })
}

// ---------------------------------------------------------------------------
// DeriveActiveFrequency
// ---------------------------------------------------------------------------

/// Derive the active CPU frequency from APERF/MPERF rates and the CPU's
/// base frequency (§7.3): `active = base * aperf_rate / mperf_rate`.
///
/// MPERF increments at the base frequency and APERF at the active
/// frequency, so their rate ratio scales the specified base frequency to
/// the actual one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeriveActiveFrequency;

impl DeriveActiveFrequency {
    fn analyze(&self, schema: &Schema) -> Result<(usize, usize, usize)> {
        let find = |dim: &str| -> Result<usize> {
            schema
                .fields()
                .iter()
                .position(|f| f.semantics.dimension == dim && f.semantics.is_value())
                .ok_or_else(|| {
                    not_applicable(
                        "derive_active_frequency",
                        format!("missing value column on dimension `{dim}`"),
                    )
                })
        };
        Ok((find("aperf")?, find("mperf")?, find("base-frequency")?))
    }
}

impl Transformation for DeriveActiveFrequency {
    fn name(&self) -> &'static str {
        "derive_active_frequency"
    }

    fn derive_schema(&self, schema: &Schema, dict: &SemanticDictionary) -> Result<Schema> {
        let (aperf, mperf, _) = self.analyze(schema)?;
        // The APERF/MPERF columns must be rates, not raw counters.
        for idx in [aperf, mperf] {
            let units = dict.units(&schema.fields()[idx].semantics.units)?;
            if !matches!(units.kind, crate::units::UnitKind::Rate { .. }) {
                return Err(not_applicable(
                    self.name(),
                    format!(
                        "column `{}` must carry rate units (derive a count rate first)",
                        schema.fields()[idx].name
                    ),
                ));
            }
        }
        if schema.has_column("active_frequency") {
            return Err(not_applicable(self.name(), "already derived"));
        }
        schema.with_field(FieldDef::new(
            "active_frequency",
            FieldSemantics::value("frequency", "megahertz"),
        ))
    }

    fn apply(&self, ds: &SjDataset, dict: &SemanticDictionary) -> Result<SjDataset> {
        let out_schema = self.derive_schema(ds.schema(), dict)?;
        let (aperf, mperf, base) = self.analyze(ds.schema())?;
        let name = format!("derive_active_frequency({})", ds.name());
        if ds.is_columnar() {
            let kernel = ColKernel::ActiveFrequency { aperf, mperf, base };
            return Ok(ds.with_kernel(kernel, out_schema, name));
        }
        let rdd = ds
            .rdd()
            .map_partitions_named("derive_active_frequency", move |rows| {
                rows.into_iter()
                    .map(|row| {
                        let v = match (
                            row.get(aperf).as_f64(),
                            row.get(mperf).as_f64(),
                            row.get(base).as_f64(),
                        ) {
                            (Some(a), Some(m), Some(b)) if m > 0.0 => Value::Float(b * a / m),
                            _ => Value::Null,
                        };
                        row.with_appended(v)
                    })
                    .collect()
            });
        Ok(SjDataset::new(rdd, out_schema, name))
    }

    fn spec(&self) -> DerivationSpec {
        DerivationSpec::DeriveActiveFrequency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::time::Timestamp;
    use sjdf::ExecCtx;

    fn dict() -> SemanticDictionary {
        SemanticDictionary::default_hpc()
    }

    fn rack_temps(ctx: &ExecCtx) -> SjDataset {
        let schema = Schema::new(vec![
            FieldDef::new("rack", FieldSemantics::domain("rack", "rack-id")),
            FieldDef::new(
                "location",
                FieldSemantics::domain("rack-location", "location-name"),
            ),
            FieldDef::new("aisle", FieldSemantics::domain("aisle", "aisle-name")),
            FieldDef::new("time", FieldSemantics::domain("time", "datetime")),
            FieldDef::new("temp", FieldSemantics::value("temperature", "celsius")),
        ])
        .unwrap();
        let mk = |loc: &str, aisle: &str, temp: f64| {
            Row::new(vec![
                Value::str("rack17"),
                Value::str(loc),
                Value::str(aisle),
                Value::Time(Timestamp::from_secs(120)),
                Value::Float(temp),
            ])
        };
        let rows = vec![
            mk("top", "hot", 38.0),
            mk("top", "cold", 18.5),
            mk("middle", "hot", 35.0),
            mk("middle", "cold", 18.0),
            // Bottom has only a hot reading -> no heat row.
            mk("bottom", "hot", 31.0),
        ];
        SjDataset::from_rows(ctx, rows, schema, "rack_temps", 2)
    }

    #[test]
    fn heat_is_hot_minus_cold() {
        let ctx = ExecCtx::local();
        let out = DeriveHeat.apply(&rack_temps(&ctx), &dict()).unwrap();
        let mut rows = out.collect().unwrap();
        rows.sort_by_key(|r| r.get(1).as_str().unwrap().to_string());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(1).as_str(), Some("middle"));
        assert_eq!(rows[0].get(3).as_f64(), Some(17.0));
        assert_eq!(rows[1].get(1).as_str(), Some("top"));
        assert_eq!(rows[1].get(3).as_f64(), Some(19.5));
    }

    #[test]
    fn heat_schema_drops_aisle_and_temperature() {
        let ctx = ExecCtx::local();
        let out = DeriveHeat
            .derive_schema(rack_temps(&ctx).schema(), &dict())
            .unwrap();
        assert!(!out.has_column("aisle"));
        assert!(!out.has_column("temp"));
        let heat = out.field("heat").unwrap();
        assert_eq!(heat.semantics.dimension, "heat");
        assert!(heat.semantics.is_value());
    }

    #[test]
    fn heat_requires_all_inputs() {
        let ctx = ExecCtx::local();
        let schema = Schema::new(vec![FieldDef::new(
            "rack",
            FieldSemantics::domain("rack", "rack-id"),
        )])
        .unwrap();
        let ds = SjDataset::from_rows(&ctx, vec![], schema, "x", 1);
        assert!(DeriveHeat.derive_schema(ds.schema(), &dict()).is_err());
    }

    fn freq_input(ctx: &ExecCtx) -> SjDataset {
        let schema = Schema::new(vec![
            FieldDef::new("cpu", FieldSemantics::domain("cpu", "cpu-id")),
            FieldDef::new("aperf_rate", FieldSemantics::value("aperf", "aperf-per-ms")),
            FieldDef::new("mperf_rate", FieldSemantics::value("mperf", "mperf-per-ms")),
            FieldDef::new(
                "base_freq",
                FieldSemantics::value("base-frequency", "base-megahertz"),
            ),
        ])
        .unwrap();
        let rows = vec![
            Row::new(vec![
                Value::str("c0"),
                Value::Float(1600.0),
                Value::Float(3200.0),
                Value::Float(3200.0),
            ]),
            Row::new(vec![
                Value::str("c1"),
                Value::Float(3200.0),
                Value::Float(3200.0),
                Value::Float(3200.0),
            ]),
        ];
        SjDataset::from_rows(ctx, rows, schema, "papi+spec", 1)
    }

    #[test]
    fn active_frequency_scales_base_by_aperf_mperf() {
        let ctx = ExecCtx::local();
        let out = DeriveActiveFrequency
            .apply(&freq_input(&ctx), &dict())
            .unwrap();
        let vals = out.collect_column("active_frequency").unwrap();
        // Throttled to half and at full speed.
        assert_eq!(vals[0].as_f64(), Some(1600.0));
        assert_eq!(vals[1].as_f64(), Some(3200.0));
        let f = out.schema().field("active_frequency").unwrap();
        assert_eq!(f.semantics.dimension, "frequency");
    }

    #[test]
    fn active_frequency_requires_rates_not_counts() {
        let ctx = ExecCtx::local();
        let schema = Schema::new(vec![
            FieldDef::new("cpu", FieldSemantics::domain("cpu", "cpu-id")),
            FieldDef::new("aperf", FieldSemantics::value("aperf", "aperf-count")),
            FieldDef::new("mperf", FieldSemantics::value("mperf", "mperf-count")),
            FieldDef::new(
                "base_freq",
                FieldSemantics::value("base-frequency", "base-megahertz"),
            ),
        ])
        .unwrap();
        let ds = SjDataset::from_rows(&ctx, vec![], schema, "x", 1);
        assert!(DeriveActiveFrequency
            .derive_schema(ds.schema(), &dict())
            .is_err());
    }

    #[test]
    fn ratio_divides_and_handles_zero() {
        let ctx = ExecCtx::local();
        let schema = Schema::new(vec![
            FieldDef::new("job", FieldSemantics::domain("job", "job-id")),
            FieldDef::new(
                "instr",
                FieldSemantics::value("instructions", "instructions-count"),
            ),
            FieldDef::new("elapsed", FieldSemantics::value("time", "t-seconds")),
        ])
        .unwrap();
        let rows = vec![
            Row::new(vec![Value::str("j1"), Value::Int(1000), Value::Float(2.0)]),
            Row::new(vec![Value::str("j2"), Value::Int(500), Value::Float(0.0)]),
        ];
        let ds = SjDataset::from_rows(&ctx, rows, schema, "jobs", 1);
        let ratio = DeriveRatio {
            new_column: "instr_per_sec".into(),
            dimension: "instructions".into(),
            units: "instructions-per-sec".into(),
            numerator: "instr".into(),
            denominator: "elapsed".into(),
            scale: 1.0,
        };
        let out = ratio.apply(&ds, &dict()).unwrap();
        let vals = out.collect_column("instr_per_sec").unwrap();
        assert_eq!(vals[0].as_f64(), Some(500.0));
        assert!(vals[1].is_null());
    }

    #[test]
    fn ratio_rejects_duplicate_output_column() {
        let ctx = ExecCtx::local();
        let ds = freq_input(&ctx);
        let ratio = DeriveRatio {
            new_column: "cpu".into(),
            dimension: "frequency".into(),
            units: "megahertz".into(),
            numerator: "aperf_rate".into(),
            denominator: "mperf_rate".into(),
            scale: 1.0,
        };
        assert!(ratio.derive_schema(ds.schema(), &dict()).is_err());
    }
}
